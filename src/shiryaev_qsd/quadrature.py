"""Adaptive Gauss-Kronrod quadrature used to cross-check the closed forms.

Deliberately independent of the moment formulas: it integrates the density
of the generator's eigenfunction (EigenSystem.generator, no Whittaker W),
so it shares only the rate with moment_frac, and an agreement between the
two exercises the rate, the normalizer, the Whittaker kernel and the
hypergeometric reductions end to end.

The rule is the classic 15-point Kronrod extension of 7-point Gauss on
[-1, 1]. It runs in t = log x over [log(1/700), log A], on seed panels of
width log 4 (x growing by a factor 4), where weight(e^t) * pdf(e^t) * e^t
is smooth on every panel, so few splits follow. One pass integrates
several weights, the mass, x^s for each order s and log x, against the
density evaluated once per node, the 15 nodes of a panel in one batch.
Each component has its own budget max(1e-12, 1e-10 * |estimate|); while
any is over it, the component furthest over splits its worst panel.

Leading seed panels that provably hold less than 1e-30 of every integral
are left out. The principal eigenfunction f of the generator (see
generator) obeys |f| <= 1 on (0, 2] at any rate lam > 0: its energy
E = f^2 + x^2 f'^2 / (2 lam) has E' = (x - 2) f'^2 / lam <= 0, and E(0+) = 1.
So the integrand x^s pdf(x) x is at most (2 lam / F) x^(s-1) e^(-2/x) there,
which increases in x up to 2/(1 - s); a panel that ends at x_b below both
bounds holds at most log 4 (2 lam / F) x_b^(s-1) e^(-2/x_b). For log x,
|log x| / x <= 1/x^2 on (0, 1] bounds it as the order -1. A left-out
panel's estimates and error gauges would lie below 2e-30 (the GK weights
are positive), so the full pass never splits it; the kept panels are the
full pass's, bit for bit, and so are the totals unless a sum lies within
1e-30 of a rounding boundary. At the battery's orders 0, 1/2 and pi the
cut leaves out the two panels of [1/700, 16/700]; at s = -30 or -49.5,
where the integrand peaks near x = 2/(1 - s), only [1/700, 4/700].

The verify battery's three integrals take one pass of 105 pdf evaluations
at A = 20, 135 at 224, 180 at 1e4 and 210 at 1e5 (135, 165, 210 and 240
without the cut). Everything is deterministic: among panels of equal
error the earliest made splits first and every total is an exactly
rounded fsum, so repeated calls bit-match. A pass raises
ToleranceNotMetError after 2,000 panel splits.
"""

from __future__ import annotations

import math

from .distribution import UNDERFLOW_X
from .errors import DomainError, ToleranceNotMetError
from .moments import _check_order
from .spectral import EigenSystem, _check_sys

__all__ = [
    "quad_moments",
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
# leading seed panels proven to hold less than this of every integral, 1e-18
# of the absolute budget, are left out
_CUT_TOL = 1e-18 * _ABS_TOL

_LOG4 = math.log(4.0)


def _gk15(f, a: float, b: float) -> tuple[list[float], list[float]]:
    """Kronrod estimates and |K15 - G7| error gauges on [a, b], one per
    column that f returns for the panel's 15 nodes: the centre, then the
    pair mid - off, mid + off of each abscissa."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ts = [mid]
    for xk in _XGK[:7]:
        off = half * xk
        ts += (mid - off, mid + off)
    w0, w1, w2, w3, w4, w5, w6, w7 = _WGK
    g0, g1, g2, g3 = _WG
    ks, es = [], []
    for c, m0, q0, m1, q1, m2, q2, m3, q3, m4, q4, m5, q5, m6, q6 in f(ts):
        p1, p3, p5 = m1 + q1, m3 + q3, m5 + q5
        # the centre, then pair by pair from the outermost abscissa: this
        # order of the sums fixes the rounding of every estimate
        k = (w7 * c + w0 * (m0 + q0) + w1 * p1 + w2 * (m2 + q2)
             + w3 * p3 + w4 * (m4 + q4) + w5 * p5 + w6 * (m6 + q6))
        g = g3 * c + g0 * p1 + g1 * p3 + g2 * p5
        ks.append(k * half)
        es.append(abs((k - g) * half))
    return ks, es


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


def _tail_cut(seeds, weight: float, orders) -> int:
    # how many leading seed panels hold less than _CUT_TOL of every
    # integral: those ending at x_b <= min(2, 2/(1 - s)) with
    # log 4 weight x_b^(s-1) e^(-2/x_b) <= _CUT_TOL for every order s, where
    # weight = 2 lam / F (see the module docstring). Compared in logs, so
    # that no power overflows; the last panel is always kept
    cap = 2.0 / (1.0 - min(0.0, *orders))
    room = math.log(_CUT_TOL / _LOG4) - math.log(weight)
    n = 0
    for _, tb in seeds[:-1]:
        xb = math.exp(tb)
        if xb > cap or max((s - 1.0) * tb for s in orders) - 2.0 / xb > room:
            break
        n += 1
    return n


def _adapt(f, seeds, m: int) -> list[float]:
    # panels (a, b, estimates, error gauges) in the order they were made
    panels = [(a, b, *_gk15(f, a, b)) for a, b in seeds]
    splits = 0
    while True:
        totals = [math.fsum(p[2][c] for p in panels) for c in range(m)]
        errs = [math.fsum(p[3][c] for p in panels) for c in range(m)]
        budgets = [max(_ABS_TOL, _REL_TOL * abs(t)) for t in totals]
        over = [c for c in range(m) if errs[c] > budgets[c]]
        if not over:
            return totals
        # the component furthest over its budget splits its worst panel,
        # the earliest made among equals
        c = max(over, key=lambda c: errs[c] / budgets[c])
        if splits >= _MAX_SPLITS:
            raise ToleranceNotMetError(
                f"adaptive refinement hit the {_MAX_SPLITS}-split cap "
                f"with error {errs[c]:.3e} over budget {budgets[c]:.3e}",
                estimate=totals[c],
                error_bound=errs[c],
            )
        i = max(range(len(panels)), key=lambda i: panels[i][3][c])
        a, b = panels.pop(i)[:2]
        mid = 0.5 * (a + b)
        panels += [(a, mid, *_gk15(f, a, mid)), (mid, b, *_gk15(f, mid, b))]
        splits += 1


def _expect(sys: EigenSystem, orders, log: bool) -> list[float]:
    # x^s * pdf for each order s, then log x * pdf if log, over
    # [UNDERFLOW_X, A] in one pass, integrated in t = log x; below the
    # cutoff the density underflows to zero in doubles. Each order meets
    # moment_frac's contract, and log is a bool
    A = _check_sys(sys).A
    if not isinstance(log, bool):
        raise DomainError(f"log must be a bool, got {type(log).__name__}")
    orders = [_check_order(s, A) for s in orders]
    if A <= UNDERFLOW_X:
        raise DomainError(f"cutoff {UNDERFLOW_X} swallows the whole support [0, {A}]")
    gen = sys.generator
    exp, power, ln = math.exp, math.pow, math.log

    def f(ts: list[float]) -> list[list[float]]:
        # exp may round a node next to log A past A, where the pdf raises
        xs = [x if x < A else A for x in map(exp, ts)]
        dxs = list(zip(xs, gen.densities(xs)))
        # pow(x, 0.0) is 1.0, so the mass column is d * x, bit for bit
        cols = [[d * x for x, d in dxs] if s == 0.0
                else [power(x, s) * d * x for x, d in dxs] for s in orders]
        if log:
            cols.append([ln(x) * d * x for x, d in dxs])
        return cols

    seeds = _seed_panels(math.log(UNDERFLOW_X), math.log(A))
    # on (0, 1], |log x| / x <= 1/x^2: the log weight is bounded as order -1
    cut = _tail_cut(seeds, 2.0 * gen.lam / gen.flux, (*orders, -1.0) if log else orders)
    return _adapt(f, seeds[cut:], len(orders) + log)


def quad_moments(sys: EigenSystem, orders, log: bool = False) -> tuple[float, ...]:
    """The mass, E[X^s] for each s in orders and, if log, E[log X] under
    the confined law, from one adaptive pass: each is refined to its own
    budget, and the density is evaluated once per node for all of them.

    Each order meets moment_frac's contract: finite, |s| <= 50 and
    |s log A| <= 700, else DomainError. For s > -50 the mass lost below
    the underflow cutoff is far beneath the error budget (the integrand
    carries exp(-1/x)). orders must be an iterable and log a bool, else
    DomainError.
    """
    try:
        orders = (0.0, *orders)
    except TypeError:
        raise DomainError(f"orders must be an iterable, got {type(orders).__name__}") from None
    return tuple(_expect(sys, orders, log))


def quad_moment(s: float, sys: EigenSystem) -> float:
    """E[X^s] under the confined law by adaptive quadrature, as for
    quad_moments."""
    return _expect(sys, (s,), False)[0]


def quad_log_moment(sys: EigenSystem) -> float:
    """E[log X] under the confined law by adaptive quadrature."""
    return _expect(sys, (), True)[0]


def normalization_check(sys: EigenSystem) -> float:
    """Integral of the pdf over the support; 1 up to quadrature error."""
    return _expect(sys, (0.0,), False)[0]
