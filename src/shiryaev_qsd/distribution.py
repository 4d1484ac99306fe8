"""Density and distribution function of the conditioned law on (0, A],
plus the unrestricted stationary law they collapse to as A grows.

Both closed forms share the normalizer C carried by the EigenSystem:

    pdf(x) = C exp(-1/x) (1/x) W_{1, xi/2}(2/x)
    cdf(x) = C exp(-1/x)       W_{0, xi/2}(2/x)

Both W come from the Macdonald sum at X = 1/x that also gives the rate
and C, so one pass serves the pdf and the cdf: spectral.macdonald_w at a
point (qsd_pdf, qsd_cdf), and macdonald_w_grid over the interior points
of a table (_pdf_cdf) and over verify's grid.

Values are clamped only inside a narrow roundoff band at the edges of
[0, 1]; anything farther out raises ConsistencyError, because it means
the spectral data and the kernel disagree about the same function.
"""

from __future__ import annotations

import math

from .errors import ConsistencyError, DomainError
from .spectral import _K_CUT, EigenSystem, _macdonald_index, _macdonald_step, macdonald_w

# exp(-1/x) underflows to subnormal mush below ~1/745; cut a little early
UNDERFLOW_X = 1.0 / 700.0
_CLAMP = 1e-12


def _check_point(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x!r}")
    return x


def stationary_cdf(x: float) -> float:
    """Limiting (A -> infinity) distribution function exp(-2/x)."""
    x = _check_point(x)
    if x <= 2.0 * UNDERFLOW_X:
        return 0.0
    return math.exp(-2.0 / x)


def stationary_pdf(x: float) -> float:
    """Density of the limiting law: (2/x^2) exp(-2/x)."""
    x = _check_point(x)
    if x <= 2.0 * UNDERFLOW_X:
        return 0.0
    return 2.0 / (x * x) * math.exp(-2.0 / x)


def _macdonald_rate_nodes(
    h: float, X: float, eta: float, beta: float,
) -> tuple[list, list, list, list]:
    # the X-free factors of spectral.macdonald_w's nodes t_k = k h, up to
    # the cut at X, which also bounds every larger X's cut: (sinh(t_k/2),
    # t_k, a_k, b_k). With w_k = h (h/2 at t = 0): at a real index
    # a_k = w_k cosh(xi t_k/2) and b_k = a_k + w_k cosh((1 + eta) t_k/2), from
    # e^{eta t_k/2} so that eta stays exact; at an imaginary one a_k = w_k
    # and b_k = cos(beta t_k)
    exp, sinh, cos = math.exp, math.sinh, math.cos
    shs, ts, a_s, bs = [], [], [], []
    k, s, sh = 0, 0.0, 0.0  # s = t_k/2
    w = 0.5 * h
    while 2.0 * X * sh * sh - 2.0 * s < _K_CUT:  # inf, never raising, past the double range
        t = 2.0 * s
        if beta:
            a, b = w, cos(beta * t)
        else:
            e, f = exp(s), exp(eta * s)
            a = 0.5 * w * (e / f + f / e)
            b = a + 0.5 * w * (e * f + 1.0 / (e * f))
        shs.append(sh)
        ts.append(t)
        a_s.append(a)
        bs.append(b)
        k += 1
        w = h
        s = 0.5 * k * h
        sh = sinh(s)
    return shs, ts, a_s, bs


def macdonald_w_grid(A: float, lam: float, Xs) -> list[tuple[float, float]]:
    """spectral.macdonald_w(A, lam, X) for each X of Xs, from one table of
    the rate's node factors per step (_macdonald_rate_nodes) in place of
    one table of X's node factors per point: the layout for many points at
    one rate, as in `table` and verify's grid.

    At a real index the sums split into an X factor e^{-X (cosh t_k - 1)}
    and rate factors, so an X costs one exponential a node and two
    multiply-adds: over e^{-X}, K = sum e a_k and G = X sum e b_k - eta/2 K.
    The values agree with macdonald_w within 7e-16 of each W's peak over a
    verify grid. At an imaginary index the sums cancel about
    e^{pi beta/2 - X} fold, and that split moves verify's generator rows
    near A = 0.12 across their gates (by up to 1e-12), so each X repeats
    macdonald_w's arithmetic and bits and saves only the sinh and the
    cosine a node. Points on the rate's step share one table, built to the
    cut of the smallest X; a point whose step is its own 0.7 / sqrt(X)
    builds its own. Each value depends on its X alone, not on the others.
    """
    h0, eta, beta = _macdonald_index(A, lam)
    steps: dict[float, list[float]] = {}
    for X in Xs:
        steps.setdefault(_macdonald_step(h0, X), []).append(X)
    exp, sqrt = math.exp, math.sqrt
    ws = {}
    for h, group in steps.items():
        shs, ts, a_s, bs = _macdonald_rate_nodes(h, min(group), eta, beta)
        n, lo = len(shs), 1
        # X (cosh t - 1) - t is convex in t and 0 at t = 0, so it crosses
        # the cut once, and later the smaller X is: each X's first node
        # past its cut is found by one walk up the table, largest X first
        for X in sorted(set(group), reverse=True):
            x2 = 2.0 * X
            while lo < n and x2 * shs[lo] * shs[lo] - ts[lo] < _K_CUT:
                lo += 1
            # left to right, not by sum(), which compensates from Python 3.12 on
            k = g = 0.0
            if beta:
                for sh, w, c in zip(shs[:lo], a_s, bs):
                    d = x2 * sh * sh
                    p = w * exp(-d)
                    k += p * c
                    g += p * (x2 + d - 0.5) * c
            else:
                mx2 = -x2
                for sh, a, b in zip(shs[:lo], a_s, bs):
                    e = exp(mx2 * sh * sh)
                    k += a * e
                    g += b * e
                g = X * g - 0.5 * eta * k
            f = sqrt(x2 / math.pi) * exp(-X)
            ws[X] = f * k, f * g
    return [ws[X] for X in Xs]


def _pdf_of(x: float, sys: EigenSystem, w: float) -> float:
    # qsd_pdf at x in (0, A) from w = W_{1, xi/2}(2/x), unread at or below
    # UNDERFLOW_X
    if x <= UNDERFLOW_X:
        return 0.0
    val = sys.C * math.exp(-1.0 / x) * w / x
    if val < 0.0:
        # the boundary zero crossing may land a hair on the wrong side
        if val >= -_CLAMP * max(1.0, sys.C):
            return 0.0
        raise ConsistencyError(f"density {val!r} at x={x} is negative beyond roundoff")
    return val


def _cdf_of(x: float, sys: EigenSystem, w: float) -> float:
    # qsd_cdf at x in (0, A) from w = W_{0, xi/2}(2/x), unread at or below
    # UNDERFLOW_X
    if x <= UNDERFLOW_X:
        return 0.0
    val = sys.C * math.exp(-1.0 / x) * w
    if val < 0.0 or val > 1.0:
        if -_CLAMP <= val < 0.0:
            return 0.0
        if 1.0 < val <= 1.0 + _CLAMP:
            return 1.0
        raise ConsistencyError(f"distribution value {val!r} at x={x} escapes [0, 1]")
    return val


def qsd_pdf(x: float, sys: EigenSystem) -> float:
    """Conditioned density at x in [0, A]. Exactly 0 at both endpoints."""
    x = _check_point(x)
    if not 0.0 <= x <= sys.A:
        raise DomainError(f"point {x!r} outside [0, {sys.A}]")
    if x <= UNDERFLOW_X or x == sys.A:
        return 0.0
    return _pdf_of(x, sys, macdonald_w(sys.A, sys.lam, 1.0 / x)[1])


def qsd_cdf(x: float, sys: EigenSystem) -> float:
    """Conditioned distribution function; 0 below the support, 1 from A on."""
    x = _check_point(x)
    if x < 0.0:
        return 0.0
    if x >= sys.A:
        return 1.0
    if x <= UNDERFLOW_X:
        return 0.0
    return _cdf_of(x, sys, macdonald_w(sys.A, sys.lam, 1.0 / x)[0])


def _pdf_cdf(xs, sys: EigenSystem) -> list[tuple[float, float]]:
    # qsd_pdf and qsd_cdf at each x of xs, with their values and errors; the
    # points inside (UNDERFLOW_X, A) read one macdonald_w_grid pass
    xs = [_check_point(x) for x in xs]
    inner = [x for x in xs if UNDERFLOW_X < x < sys.A]
    ws = dict(zip(inner, macdonald_w_grid(sys.A, sys.lam, [1.0 / x for x in inner])))
    return [
        (_pdf_of(x, sys, ws[x][1]), _cdf_of(x, sys, ws[x][0])) if x in ws
        else (qsd_pdf(x, sys), qsd_cdf(x, sys))
        for x in xs
    ]
