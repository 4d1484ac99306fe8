"""Cross-route verification battery for a solved system.

Every check pits two independent computations against each other:
spectral invariants (rate bracket, normalizer positive and equal to its
confluent series), the generator's eigenfunction against the Whittaker
closed forms (its zero against the rate, its pdf and cdf on a grid),
quadrature of its density against the closed-form moments, the recurrence
against the hypergeometric route, and the distribution function against
its unrestricted stationary bound. A system built from a perturbed rate
fails several of these at once; that is the point.
"""

from __future__ import annotations

import functools
import math

from .distribution import _cdf_of, _pdf_of, macdonald_w_grid, qsd_cdf, stationary_cdf
from .moments import moment_frac, moment_integer, recurrence_defect
from .quadrature import quad_moments
from .report import CheckRow, guarded_row
from .spectral import EigenSystem, _check_sys

__all__ = ["run_checks", "dual_route_row", "GRID_POINTS"]

GRID_POINTS = 33

_NORM_TOL = 1e-8
_RECUR_TOL = 1e-8
_INT_CONSIST_TOL = 1e-10
_DUAL_ROUTE_TOL = 1e-8
_MONOTONE_SLACK = 1e-12
# generator route against the W route, each 10x the worst over the
# 16,384 log-spaced cutoffs in [0.5, 1e5] of the benchmark's grid, rounded
# up: 1.84e-12 at A = 94039, 6.1e-14 and 2.5e-14 at A = 0.504
_RATE_GEN_TOL = 2e-11
_PDF_GEN_TOL = 7e-13
_CDF_GEN_TOL = 3e-13

_RECUR_ORDERS = (0.5, 1.5, math.pi)
_DUAL_ORDERS = (0.5, math.pi)


def _grid(A: float) -> list[float]:
    return [A * (i + 1) / (GRID_POINTS + 1) for i in range(GRID_POINTS)]


def _dual_gap(closed: float, quad: float) -> float:
    return abs(closed - quad) / max(abs(quad), 1e-300)


def dual_route_row(name: str, closed: float, quad: float) -> CheckRow:
    """Row comparing a closed-form value with its quadrature recomputation:
    their gap relative to the quadrature value, which passes up to 1e-8."""
    gap = _dual_gap(closed, quad)
    return CheckRow(name, gap <= _DUAL_ROUTE_TOL, gap)


def run_checks(sys: EigenSystem) -> list[CheckRow]:
    """The cross-route battery of sys, a solved or deliberately perturbed
    system. Its rows, in order: sys.checks (eigen_checks), rate-generator,
    quadrature-normalization, moment-recurrence[s] for s = 0.5, 1.5, pi,
    moment-integer-consistency[n] for n = 1, 2, 3, moment-dual-route[s] for
    s = 0.5, pi, pdf-nonnegative, pdf-generator, cdf-monotone, cdf-endpoint,
    dominates-stationary-cdf and cdf-generator.

    Each row after sys.checks is a report.guarded_row: a metric that raises
    one of errors.CHECK_ERRORS fails its row with residual inf, so a wildly
    wrong rate still gets its full report. The inputs (the quadrature pass,
    each closed-form and integer moment, the march, the W grid and the
    lists built on it) are lazy: each is computed on first use, once for
    all rows that read it, and again by each such row when it raises. The
    W grid is one distribution.macdonald_w_grid pass over the 33 points,
    and `cdf-endpoint` reads one more point, just below A. At a real index
    that row crosses kernels: the point's W_0 is the Macdonald sum, and C,
    which scales it, comes from Temme's series at 2/A.
    """
    quads = functools.cache(lambda: quad_moments(sys, _DUAL_ORDERS))
    moment = functools.cache(lambda s: moment_frac(s, sys).value)
    integer = functools.cache(lambda n: moment_integer(n, sys).value)
    xs = _grid(_check_sys(sys).A)
    # one pass of the Macdonald sums over the grid serves both closed forms,
    # and one call of the march's batched Horner sum both of the generator's
    ws = functools.cache(lambda: macdonald_w_grid(sys.A, sys.lam, [1.0 / x for x in xs]))
    pdfs = functools.cache(lambda: [_pdf_of(x, sys, w) for x, (_, w) in zip(xs, ws())])
    cdfs = functools.cache(lambda: [_cdf_of(x, sys, w) for x, (w, _) in zip(xs, ws())])
    gens = functools.cache(lambda: sys.generator.densities(xs, True))

    @functools.cache
    def cdf_metrics():
        cs = cdfs()
        return (
            min(b - a for a, b in zip(cs, cs[1:])),
            # qsd_cdf is 1 from A on by definition; the closed form must reach it
            abs(qsd_cdf(math.nextafter(sys.A, 0.0), sys) - 1.0),
            # confinement never thins the left tail relative to the free law
            min(c - stationary_cdf(x) for x, c in zip(xs, cs)),
        )

    rows = list(sys.checks)
    # the relative distance from A to the march's zero of f (whose flux,
    # if not positive, raises in the march)
    rows.append(guarded_row(
        "rate-generator", lambda: sys.generator.residual, lambda m: m <= _RATE_GEN_TOL))
    rows.append(guarded_row(
        "quadrature-normalization", lambda: abs(quads()[0] - 1.0), lambda m: m <= _NORM_TOL))
    for s in _RECUR_ORDERS:
        rows.append(guarded_row(
            f"moment-recurrence[s={s:g}]",
            lambda s=s: recurrence_defect(s, sys, moment(s), moment(s - 1.0)),
            lambda m: m <= _RECUR_TOL,
        ))
    for n in (1, 2, 3):
        rows.append(guarded_row(
            f"moment-integer-consistency[n={n}]",
            lambda n=n: abs(moment(float(n)) - integer(n)) / max(1.0, abs(integer(n))),
            lambda m: m <= _INT_CONSIST_TOL,
        ))
    for i, s in enumerate(_DUAL_ORDERS, 1):
        rows.append(guarded_row(
            f"moment-dual-route[s={s:g}]",
            lambda i=i, s=s: _dual_gap(moment(s), quads()[i]),
            lambda m: m <= _DUAL_ROUTE_TOL,
        ))
    rows.append(guarded_row("pdf-nonnegative", lambda: min(pdfs()), lambda m: m >= 0.0))
    # the largest gap to the generator's pdf, relative to the peak W pdf
    rows.append(guarded_row(
        "pdf-generator",
        lambda: max(abs(p - g) for p, (g, _) in zip(pdfs(), gens())) / max(pdfs()),
        lambda m: m <= _PDF_GEN_TOL,
    ))
    rows.append(guarded_row(
        "cdf-monotone", lambda: cdf_metrics()[0], lambda m: m >= -_MONOTONE_SLACK))
    rows.append(guarded_row(
        "cdf-endpoint", lambda: cdf_metrics()[1], lambda m: m <= _MONOTONE_SLACK))
    rows.append(guarded_row(
        "dominates-stationary-cdf", lambda: cdf_metrics()[2], lambda m: m >= -_MONOTONE_SLACK))
    # the largest absolute gap to the generator's cdf
    rows.append(guarded_row(
        "cdf-generator",
        lambda: max(abs(c - g) for c, (_, g) in zip(cdfs(), gens())),
        lambda m: m <= _CDF_GEN_TOL,
    ))
    return rows
