"""Adaptive Gauss-Kronrod quadrature used to cross-check the closed forms.

Deliberately independent of the moment formulas: it integrates the density
of the generator's eigenfunction (EigenSystem.generator, no Whittaker W),
so it shares only the rate with moment_frac, and an agreement between the
two exercises the rate, the normalizer, the Whittaker kernel and the
hypergeometric reductions end to end.

The rule is the classic 15-point Kronrod extension of 7-point Gauss on
[-1, 1], applied to panels kept in a worst-error-first heap. It runs in
t = log x over [log(1/700), log A], on seed panels of width log 4 (x
growing by a factor 4), where weight(e^t) * pdf(e^t) * e^t is smooth on
every panel, so few splits follow: one integral takes 105-165 pdf
evaluations at A = 20 and 210-270 at A = 1e5, and the verify battery's
three, sharing a density, take 135 and 240. Everything is deterministic:
ties in the heap break on insertion order and the final sum runs over
panels sorted by left endpoint, so repeated calls bit-match. The budget
is fixed: refinement stops once the summed error gauge is within
max(1e-12, 1e-10 * |estimate|), and raises ToleranceNotMetError after
2,000 panel splits.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from .distribution import UNDERFLOW_X
from .errors import DomainError, ToleranceNotMetError
from .spectral import EigenSystem

__all__ = [
    "quad_moment",
    "quad_log_moment",
    "normalization_check",
]

# 15-point Kronrod abscissae (nonnegative half) and weights, with the
# embedded 7-point Gauss weights; values from the QUADPACK dqk15 tables.
_XGK = (
    0.99145537112081263920685469752632,
    0.94910791234275852452618968404785,
    0.86486442335976907278971278864093,
    0.74153118559939443986386477328079,
    0.58608723546769113029414483825873,
    0.40584515137739716690660641207696,
    0.20778495500789846760068940377324,
    0.0,
)
_WGK = (
    0.02293532201052922496373200805897,
    0.06309209262997855329070066318901,
    0.10479001032225018383987632254152,
    0.14065325971552591874518959051024,
    0.16900472663926790282658342659855,
    0.19035057806478540991325640242101,
    0.20443294007529889241416199923465,
    0.20948214108472782801299917489171,
)
_WG = (
    0.12948496616886969327061143267908,
    0.27970539148927666790146777142378,
    0.38183005050511894495036977548898,
    0.41795918367346938775510204081633,
)

# error budget max(abs, rel * |estimate|) and split cap of every integration
_ABS_TOL = 1e-12
_REL_TOL = 1e-10
_MAX_SPLITS = 2000

_LOG4 = math.log(4.0)


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """Kronrod estimate and |K15 - G7| error gauge on [a, b]."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fc = f(mid)
    k = _WGK[7] * fc
    g = _WG[3] * fc
    for i in range(7):
        off = half * _XGK[i]
        pair = f(mid - off) + f(mid + off)
        k += _WGK[i] * pair
        if i % 2 == 1:
            g += _WG[i // 2] * pair
    return k * half, abs((k - g) * half)


def _seed_panels(lo: float, hi: float) -> list[tuple[float, float]]:
    # uniform panels of width log 4 in t = log x, i.e. x-edges a factor 4
    # apart from the left edge, where the integrand dies like exp(-e^-t)
    edges = [lo]
    k = 1
    while lo + k * _LOG4 < hi:
        edges.append(lo + k * _LOG4)
        k += 1
    edges.append(hi)
    return list(zip(edges[:-1], edges[1:]))


def _adapt(f, lo: float, hi: float) -> float:
    heap: list[tuple[float, int, float, float, float, float]] = []
    seq = 0
    for a, b in _seed_panels(lo, hi):
        val, err = _gk15(f, a, b)
        heapq.heappush(heap, (-err, seq, a, b, val, err))
        seq += 1
    splits = 0
    while True:
        total = math.fsum(item[4] for item in heap)
        err_total = math.fsum(item[5] for item in heap)
        budget = max(_ABS_TOL, _REL_TOL * abs(total))
        if err_total <= budget:
            break
        if splits >= _MAX_SPLITS:
            raise ToleranceNotMetError(
                f"adaptive refinement hit the {_MAX_SPLITS}-split cap "
                f"with error {err_total:.3e} over budget {budget:.3e}",
                estimate=total,
                error_bound=err_total,
            )
        _, _, a, b, _, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for a2, b2 in ((a, mid), (mid, b)):
            val, err = _gk15(f, a2, b2)
            heapq.heappush(heap, (-err, seq, a2, b2, val, err))
            seq += 1
        splits += 1
    panels = sorted((item[2], item[4]) for item in heap)
    return math.fsum(v for _, v in panels)


def _expect(
    weight: Callable[[float], float],
    sys: EigenSystem,
    pdf: Callable[[float], float] | None,
) -> float:
    # weight * pdf over [UNDERFLOW_X, A], integrated in t = log x; below
    # the cutoff the density underflows to zero in doubles
    if sys.A <= UNDERFLOW_X:
        raise DomainError(f"cutoff {UNDERFLOW_X} swallows the whole support [0, {sys.A}]")
    density = pdf or sys.generator.pdf
    A = sys.A

    def f(t: float) -> float:
        # exp may round a node next to log A past A, where the pdf raises
        x = min(math.exp(t), A)
        return weight(x) * density(x) * x

    return _adapt(f, math.log(UNDERFLOW_X), math.log(A))


def quad_moment(
    s: float, sys: EigenSystem, pdf: Callable[[float], float] | None = None
) -> float:
    """E[X^s] under the confined law by adaptive quadrature.

    For s > -50 the mass lost below the underflow cutoff is far beneath
    the error budget (the integrand carries exp(-1/x)). pdf, if given,
    must return sys.generator.pdf(x); callers that integrate several
    functions of one system pass a memoised density to share its nodes.
    """
    if not math.isfinite(s):
        raise DomainError(f"order must be finite, got {s!r}")
    return _expect(lambda x: math.pow(x, s), sys, pdf)


def quad_log_moment(
    sys: EigenSystem, pdf: Callable[[float], float] | None = None
) -> float:
    """E[log X] under the confined law by adaptive quadrature. pdf as for
    quad_moment."""
    return _expect(math.log, sys, pdf)


def normalization_check(
    sys: EigenSystem, pdf: Callable[[float], float] | None = None
) -> float:
    """Integral of the pdf over the support; 1 up to quadrature error.
    pdf as for quad_moment."""
    return _expect(lambda x: 1.0, sys, pdf)
