"""Cross-route verification battery for a solved system.

Every check pits two independent computations against each other:
spectral invariants (bracket, index identity, boundary residual, dual
normalizer), the generator's eigenfunction against the Whittaker closed
forms (its zero against the rate, its pdf and cdf on a grid), quadrature
of its density against the closed-form moments, the recurrence against
the hypergeometric route, and the distribution function against its
unrestricted stationary bound. A system built from a perturbed rate fails
several of these at once; that is the point.
"""

from __future__ import annotations

import functools
import math

from .distribution import _cdf_of, _pdf_of, qsd_cdf, stationary_cdf
from .errors import ConsistencyError, ConvergenceError
from .moments import moment_frac, moment_integer, recurrence_defect
from .quadrature import quad_moments
from .report import CheckRow
from .spectral import EigenSystem

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

# a wildly wrong rate makes evaluation itself blow up (cdf past 1, kernel
# poles, series or quadrature that cannot settle); those must surface as
# failed rows, not exceptions, so the battery always reports
_SOFT = (ConsistencyError, ConvergenceError)


def _grid(A: float) -> list[float]:
    return [A * (i + 1) / (GRID_POINTS + 1) for i in range(GRID_POINTS)]


def dual_route_row(name: str, closed: float, quad: float) -> CheckRow:
    """Row comparing a closed-form value with its quadrature recomputation:
    their gap relative to the quadrature value, which passes up to 1e-8."""
    gap = abs(closed - quad) / max(abs(quad), 1e-300)
    return CheckRow(name, gap <= _DUAL_ROUTE_TOL, gap)


def _guarded(rows: list[CheckRow], name: str, metric_fn, predicate) -> None:
    try:
        metric = metric_fn()
    except _SOFT:
        rows.append(CheckRow(name, False, math.inf))
        return
    rows.append(CheckRow(name, predicate(metric), metric))


def run_checks(sys: EigenSystem) -> list[CheckRow]:
    rows = list(sys.checks)
    # one quadrature pass gives the mass and the dual-route moments; the
    # march behind its density is built on first use, so a flux that is
    # not positive raises there (again for each row that reads it)
    quads = functools.cache(lambda: quad_moments(sys, _DUAL_ORDERS))
    # each closed-form moment is computed once for all rows that read it
    # (again by each such row when it raises)
    moment = functools.cache(lambda s: moment_frac(s, sys).value)

    # the relative distance from A to the march's zero of f
    _guarded(
        rows,
        "rate-generator",
        lambda: sys.generator.residual,
        lambda m: m <= _RATE_GEN_TOL,
    )

    _guarded(
        rows,
        "quadrature-normalization",
        lambda: abs(quads()[0] - 1.0),
        lambda m: m <= _NORM_TOL,
    )

    for s in _RECUR_ORDERS:
        _guarded(
            rows,
            f"moment-recurrence[s={s:g}]",
            lambda s=s: recurrence_defect(s, sys, moment(s), moment(s - 1.0)),
            lambda m: m <= _RECUR_TOL,
        )

    for n in (1, 2, 3):

        def int_gap(n=n):
            a = moment(float(n))
            b = moment_integer(n, sys).value
            return abs(a - b) / max(1.0, abs(b))

        _guarded(
            rows,
            f"moment-integer-consistency[n={n}]",
            int_gap,
            lambda m: m <= _INT_CONSIST_TOL,
        )

    for i, s in enumerate(_DUAL_ORDERS, 1):
        name = f"moment-dual-route[s={s:g}]"
        try:
            closed = moment(s)
            rows.append(dual_route_row(name, closed, quads()[i]))
        except _SOFT:
            rows.append(CheckRow(name, False, math.inf))

    xs = _grid(sys.A)
    # one W pass per grid point serves both closed forms, and one call of
    # the march's batched Horner sum both of the generator's; each list is
    # evaluated once for all rows that read it (again by each such row when
    # it raises)
    ws = functools.cache(lambda: [sys.w_plan.pair(2.0 / x) for x in xs])
    pdfs = functools.cache(lambda: [_pdf_of(x, sys, w) for x, (_, w) in zip(xs, ws())])
    cdfs = functools.cache(lambda: [_cdf_of(x, sys, w) for x, (w, _) in zip(xs, ws())])
    gens = functools.cache(lambda: sys.generator.densities(xs, True))

    _guarded(rows, "pdf-nonnegative", lambda: min(pdfs()), lambda m: m >= 0.0)
    # the largest gap to the generator's pdf, relative to the peak W pdf
    _guarded(
        rows,
        "pdf-generator",
        lambda: max(abs(p - g) for p, (g, _) in zip(pdfs(), gens())) / max(pdfs()),
        lambda m: m <= _PDF_GEN_TOL,
    )

    def cdf_rows():
        cs = cdfs()
        worst_step = min(b - a for a, b in zip(cs, cs[1:]))
        # qsd_cdf is 1 from A on by definition; the closed form must reach it
        end_gap = abs(qsd_cdf(math.nextafter(sys.A, 0.0), sys) - 1.0)
        # confinement never thins the left tail relative to the free law
        worst_dom = min(c - stationary_cdf(x) for x, c in zip(xs, cs))
        return worst_step, end_gap, worst_dom

    try:
        worst_step, end_gap, worst_dom = cdf_rows()
        rows.append(CheckRow("cdf-monotone", worst_step >= -_MONOTONE_SLACK, worst_step))
        rows.append(CheckRow("cdf-endpoint", end_gap <= _MONOTONE_SLACK, end_gap))
        rows.append(
            CheckRow("dominates-stationary-cdf", worst_dom >= -_MONOTONE_SLACK, worst_dom)
        )
    except _SOFT:
        rows.append(CheckRow("cdf-monotone", False, math.inf))
        rows.append(CheckRow("cdf-endpoint", False, math.inf))
        rows.append(CheckRow("dominates-stationary-cdf", False, math.inf))
    # the largest absolute gap to the generator's cdf
    _guarded(
        rows,
        "cdf-generator",
        lambda: max(abs(c - g) for c, (_, g) in zip(cdfs(), gens())),
        lambda m: m <= _CDF_GEN_TOL,
    )

    return rows
