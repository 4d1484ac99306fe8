"""Density and distribution function of the conditioned law on (0, A],
plus the unrestricted stationary law they collapse to as A grows.

Both closed forms share the normalizer C carried by the EigenSystem:

    pdf(x) = C exp(-1/x) (1/x) W_{1, xi/2}(2/x)
    cdf(x) = C exp(-1/x)       W_{0, xi/2}(2/x)

Both W come from one trapezoid sum of Macdonald's K_nu integral at
X = 1/x, so one pass serves the pdf and the cdf: macdonald_w at a point
(qsd_pdf, qsd_cdf), and macdonald_w_grid, to the same bits, over the
interior points of a table (_pdf_cdf) and over verify's grid.

Values are clamped only inside a narrow roundoff band at the edges of
[0, 1]; anything farther out raises ConsistencyError, because it means
the spectral data and the kernel disagree about the same function.
"""

from __future__ import annotations

import math

from .errors import ConsistencyError, DomainError, real_number
from .spectral import _K_CUT, EigenSystem, _check_sys, _macdonald_index, _macdonald_step

# exp(-1/x) underflows to subnormal mush below ~1/745; cut a little early
UNDERFLOW_X = 1.0 / 700.0
_CLAMP = 1e-12


def stationary_cdf(x: float) -> float:
    """Limiting (A -> infinity) distribution function exp(-2/x)."""
    x = real_number(x, "evaluation point")
    if x <= 2.0 * UNDERFLOW_X:
        return 0.0
    return math.exp(-2.0 / x)


def stationary_pdf(x: float) -> float:
    """Density of the limiting law: (2/x^2) exp(-2/x)."""
    x = real_number(x, "evaluation point")
    if x <= 2.0 * UNDERFLOW_X:
        return 0.0
    return 2.0 / (x * x) * math.exp(-2.0 / x)


def _macdonald_rate_nodes(h: float, X: float, eta: float, beta: float):
    # (sinh(t_k/2), a_k, b_k) at t_k = k h until X (cosh t_k - 1) - t_k
    # reaches _K_CUT, w_k = h (h/2 at t = 0): a_k = w_k cosh(xi t_k/2) and
    # b_k = a_k + w_k cosh((1 + eta) t_k/2) at a real index, from e^{eta t_k/2}
    # so that eta stays exact, and a_k = w_k, b_k = cos(beta t_k) at an imaginary one
    exp, sinh, cos = math.exp, math.sinh, math.cos
    k, s, sh = 0, 0.0, 0.0  # s = t_k/2
    w = 0.5 * h
    while 2.0 * X * sh * sh - 2.0 * s < _K_CUT:  # inf, never raising, past the double range
        if beta:
            yield sh, w, cos(beta * (2.0 * s))
        else:
            e, f = exp(s), exp(eta * s)
            a = 0.5 * w * (e / f + f / e)
            yield sh, a, a + 0.5 * w * (e * f + 1.0 / (e * f))
        k += 1
        w = h
        s = 0.5 * k * h
        sh = sinh(s)


def _rate_sum(X: float, nodes, eta: float, beta: float) -> tuple[float, float]:
    # macdonald_w's pair at X from X's nodes, d_k = 2 X sinh^2(t_k/2): over
    # e^{-X}, K = sum e^{-d_k} a_k and G = X sum e^{-d_k} b_k - eta/2 K at a
    # real index, spectral._macdonald_sum's products at an imaginary one.
    # Left to right, not by sum(), which compensates from Python 3.12 on
    exp = math.exp
    x2 = 2.0 * X
    k = g = 0.0
    if beta:
        for sh, w, c in nodes:
            d = x2 * sh * sh
            p = w * exp(-d)
            k += p * c
            g += p * (x2 + d - 0.5) * c
    else:
        mx2 = -x2
        for sh, a, b in nodes:
            e = exp(mx2 * sh * sh)
            k += a * e
            g += b * e
        g = X * g - 0.5 * eta * k
    f = math.sqrt(x2 / math.pi) * exp(-X)
    return f * k, f * g


def macdonald_w(A: float, lam: float, X: float) -> tuple[float, float]:
    """W_{0, xi/2}(2X) and W_{1, xi/2}(2X), xi = sqrt(1 - 8 lam), for the
    system at cutoff A: the pair of the cdf and the pdf at x = 1/X.

    W_{0,nu}(2X) = sqrt(2X/pi) K_nu(X) (DLMF 13.18.9), with
    K_nu(X) = int_0^inf e^{-X cosh t} cosh(nu t) dt (DLMF 10.32.9). DLMF
    13.15 and K_nu' = -K_{nu-1} - (nu/X) K_nu (DLMF 10.29.2) then give
    W_{1, xi/2}(2X) = sqrt(2X/pi) G with, for lam <= 1/8 and
    eta = 1 - xi = 8 lam / (1 + xi),

        G = (X - eta/2) K_{1/2 - eta/2}(X) + X K_{1/2 + eta/2}(X),

    and for lam > 1/8, where K_{i beta} has cos(beta t), beta = sqrt(8 lam - 1)/2,

        G = int_0^inf e^{-X cosh t} cos(beta t) (X (1 + cosh t) - 1/2) dt.

    Both are trapezoid sums at t_k = k h, h = min(0.2, 0.8 / beta,
    0.7 / sqrt(X)), beta the largest of A's proven bracket (or lam's own
    above it). DomainError where lam's own beta passes the sum's index
    ceiling, 80.64.
    """
    h, eta, beta = _macdonald_index(A, lam)
    return _rate_sum(X, _macdonald_rate_nodes(_macdonald_step(h, X), X, eta, beta), eta, beta)


def macdonald_w_grid(A: float, lam: float, Xs) -> list[tuple[float, float]]:
    """macdonald_w(A, lam, X) for each X of Xs, to its bits, from one node
    table per step, built to the smallest X's cut (a point whose step is its
    own 0.7 / sqrt(X) builds its own); each value depends on its X alone.
    """
    h0, eta, beta = _macdonald_index(A, lam)
    steps: dict[float, list[float]] = {}
    for X in Xs:
        steps.setdefault(_macdonald_step(h0, X), []).append(X)
    ws = {}
    for h, group in steps.items():
        nodes = list(_macdonald_rate_nodes(h, min(group), eta, beta))
        n, lo = len(nodes), 1
        # X (cosh t - 1) - t is convex in t and 0 at t = 0, so it crosses the
        # cut once, later the smaller X is: one walk finds each (t_k = lo * h)
        for X in sorted(set(group), reverse=True):
            x2 = 2.0 * X
            while lo < n and x2 * nodes[lo][0] * nodes[lo][0] - lo * h < _K_CUT:
                lo += 1
            ws[X] = _rate_sum(X, nodes[:lo], eta, beta)
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
    x, A = real_number(x, "evaluation point"), _check_sys(sys).A
    if not 0.0 <= x <= A:
        raise DomainError(f"point {x!r} outside [0, {A}]")
    if x <= UNDERFLOW_X or x == A:
        return 0.0
    return _pdf_of(x, sys, macdonald_w(A, sys.lam, 1.0 / x)[1])


def qsd_cdf(x: float, sys: EigenSystem) -> float:
    """Conditioned distribution function; 0 below the support, 1 from A on."""
    x, A = real_number(x, "evaluation point"), _check_sys(sys).A
    if x < 0.0:
        return 0.0
    if x >= A:
        return 1.0
    if x <= UNDERFLOW_X:
        return 0.0
    return _cdf_of(x, sys, macdonald_w(A, sys.lam, 1.0 / x)[0])


def _pdf_cdf(xs, sys: EigenSystem) -> list[tuple[float, float]]:
    # qsd_pdf and qsd_cdf at each x of xs, with their values and errors; the
    # points inside (UNDERFLOW_X, A) read one macdonald_w_grid pass
    inner = [x for x in xs if UNDERFLOW_X < x < sys.A]
    ws = dict(zip(inner, macdonald_w_grid(sys.A, sys.lam, [1.0 / x for x in inner])))
    return [
        (_pdf_of(x, sys, ws[x][1]), _cdf_of(x, sys, ws[x][0])) if x in ws
        else (qsd_pdf(x, sys), qsd_cdf(x, sys))
        for x in xs
    ]
