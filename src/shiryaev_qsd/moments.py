"""Moments of arbitrary real order for the conditioned law.

The closed form at order s has two pieces:

    M(s) = 2 lam A^s / (s(s-1) + 2 lam) * 2F2(1, -s; b1, b2; 2/A)
         + C 2^s / Gamma(-s) * Gamma(1/2 + xi/2 - s) Gamma(1/2 - xi/2 - s)

with b1 = 3/2 + xi/2 - s and b2 = 3/2 - xi/2 - s. The second piece
vanishes identically at nonnegative integer s (reciprocal Gamma zero),
where the 2F2 terminates and the formula is exact term by term. The 2F2
is specfun's one series loop, which hyp2f2 reads too, at (1, -s; b1, b2).

The moments obey one order-shift identity,

    (s(s-1) + 2 lam) M(s) = 2 lam A^s - 2 s M(s-1),

and moment_integer climbs it from M(0) = 1.

The formula's two pieces develop pole pairs at the ladder of orders
s = 1/2 +- xi/2 + k (k = 0, 1, ...). The function M(s) itself is
analytic there; only the representation degenerates. Orders close to the
ladder are therefore evaluated by quintic interpolation through nearby
clean orders. For real xi the ladder points themselves also have a
dedicated branch, exposed for direct use and cross-checking: a
logarithmic series serves the bottom order (moment_singular_base), its
digamma bracket seeded from three digamma values and stepped term by term
by psi(u + 1) = psi(u) + 1/u, and the shifted orders climb from it by
moment_integer's recurrence (moment_singular_shifted). The bottom order
is a root of s(s-1) + 2 lam, where the identity reads 2 s M(s-1) =
2 lam A^s; that root identity is the closed-form special value one order
below, M(s) = lam A^(s+1) / (s+1) (moment_special_value).

One rule dispatches (_ladder_window): take the member of each family
nearest s. If the two are closer than _CROWDED (xi near 0: pairs around
half-integers, complex just past the rate 1/8; xi near 1: pairs around
integers), one window covers both; otherwise s is interpolated when it
lies within the 1e-3 band of the nearer one.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import ConvergenceError, DomainError, RegimeError, real_number
from .specfun import _hyp2f2, digamma, documented_real, gamma, rgamma
from .spectral import EigenSystem, _check_sys

_MAX_ORDER = 50.0
_INT_SNAP = 1e-12      # this close to an integer counts as that integer
_BAND = 1e-3           # half-width of the interpolation band around the ladder
_CROWDED = 6e-3        # ladder families closer than this are handled jointly
_SPACING = 4e-3        # node spacing: least in a crowded window, most otherwise
_EXP_LIMIT = 700.0     # |s ln A| beyond this cannot be represented anyway


class MomentResult(namedtuple("MomentResult", "s value branch")):
    """Moment of the conditioned law: order s, value, and which evaluation
    branch produced it ("series", "interpolated", "singular", "special",
    or "recurrence")."""

    __slots__ = ()


def _check_order(s, A: float) -> float:
    s = real_number(s, "order")
    if abs(s) > _MAX_ORDER:
        raise DomainError(f"order magnitude capped at {_MAX_ORDER}, got {s!r}")
    if abs(s) * abs(math.log(A)) > _EXP_LIMIT:
        raise DomainError(f"A**s overflows doubles for A={A}, s={s}")
    return s


def nonnegative_int(n, what: str) -> int:
    """n as an int; DomainError naming `what` unless n is a nonnegative
    integer that real_number takes (nan, the infinities and 2**1100 are not)."""
    if (x := real_number(n, f"{what} (a nonnegative integer)")) < 0.0 or x != int(x):
        raise DomainError(f"{what} must be a nonnegative integer, got {n!r}")
    return int(x)


def _climb(m: float, s: float, k: int, sys: EigenSystem) -> float:
    """M(s + k) from m = M(s) by k upward steps of the order-shift identity
    (t(t-1) + 2 lam) M(t) = 2 lam A^t - 2 t M(t-1), t = s + j."""
    lam, A = sys.lam, sys.A
    for j in range(1, k + 1):
        t = s + j
        m = (2.0 * lam * A**t - 2.0 * t * m) / (t * (t - 1.0) + 2.0 * lam)
    return m


def moment_integer(n: int, sys: EigenSystem) -> MomentResult:
    """Integer moment by the upward recurrence from M_0 = 1.

    Independent of the hypergeometric machinery, which makes it the
    cross-check partner for moment_frac at integer orders.
    """
    n = nonnegative_int(n, "integer order")
    _check_order(n, _check_sys(sys).A)
    return MomentResult(s=float(n), value=_climb(1.0, 0.0, n, sys), branch="recurrence")


def _regular_value(s: float, sys: EigenSystem) -> float:
    # closed form with no dispatch; callers keep s clear of the ladder
    lam, A, C = sys.lam, sys.A, sys.C
    half_eta = 0.5 * sys.eta                        # (1 - xi)/2, stable; real at real xi
    # all four parameters built as (integer - s) +- half_eta so that a
    # small result keeps the relative accuracy of half_eta instead of
    # absorbing an absolute eps from 0.5 + 0.5*xi rounded near 1
    g1 = (1.0 - s) - half_eta                       # 1/2 + xi/2 - s
    g2 = half_eta - s                               # 1/2 - xi/2 - s
    b1 = (2.0 - s) - half_eta
    b2 = (1.0 - s) + half_eta
    # s(s-1) + 2 lam factored through its roots (1 +- xi)/2; the product
    # form keeps relative accuracy when s grazes a root, the expanded sum
    # cancels to ~|s|^2 eps there
    den = g1 * g2
    pref = 2.0 * lam * math.pow(A, s) / den
    m = pref * _hyp2f2(1.0, -s, b1, b2, 2.0 / A)
    rg = rgamma(-s)
    if rg:
        m += C * math.pow(2.0, s) * rg * gamma(g1) * gamma(g2)
    return documented_real(m, lambda: f"moment of order {s}")


def _ladder_window(s: float, sys: EigenSystem) -> tuple[float, float, float] | None:
    """(center, halfwidth, node spacing) of the interpolation stencil if s
    sits inside the band around the degenerate-order ladder, else None.

    p and q are the members of the families 1/2 + xi/2 + k and
    1/2 - xi/2 + k (k >= 0) nearest s, complex when xi is. A pair closer
    than _CROWDED shares one window, with nodes pushed clear of both;
    otherwise the nearer member gets its own band, with a spacing that
    keeps all six nodes away from the other one (a complex member is never
    within the band). The spacing balances two error sources: node values
    lose ~eps * scale / dist^2 to cancellation at distance dist from a
    ladder order, while quintic truncation grows like (h log A)^6.
    """
    xi = sys.xi
    half_eta = 0.5 * sys.eta                       # (1 - xi)/2, stable
    # the nearest members p = 1 - half_eta + kp and q = half_eta + kq are
    # the poles of _regular_value; q is on p's rung or the next, so they
    # are xi or 1 - xi apart, and their midpoint is (1 + kp + kq)/2 exactly
    kp = max(0, round(s - 1.0 + half_eta.real))
    kq = max(0, round(s - half_eta.real))
    gap = abs(2.0 * half_eta if kq > kp else xi)
    if gap < _CROWDED:
        c, half, step = 0.5 * (1 + kp + kq), 0.5 * gap + _BAND, max(_SPACING, 1.5 * gap)
    else:
        p, q = (1.0 - half_eta) + kp, half_eta + kq
        c = p if abs(s - p) < abs(s - q) else q
        half, step = _BAND, min(_SPACING, (gap - 2.0 * _BAND) / 3.0)
    return (c.real, half, step) if abs(s - c) <= half else None


def moment_frac(s: float, sys: EigenSystem) -> MomentResult:
    """Moment of real order s in [-50, 50] via the closed form.

    Orders within 1e-12 of a nonnegative integer snap to it (the series
    terminates there and the Gamma piece is exactly zero). Orders inside
    the band around the degenerate ladder are produced by quintic
    interpolation through six clean neighbors; everything else is the
    direct two-piece formula.
    """
    s = _check_order(s, _check_sys(sys).A)
    n = round(s)
    if abs(s - n) <= _INT_SNAP and n >= 0:
        return MomentResult(s=float(n), value=_regular_value(float(n), sys), branch="series")
    window = _ladder_window(s, sys)
    if window is None:
        return MomentResult(s=s, value=_regular_value(s, sys), branch="series")
    c, _, h = window
    nodes = [c + j * h for j in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)]
    vals = [_regular_value(t, sys) for t in nodes]
    acc = 0.0
    for j, (tj, fj) in enumerate(zip(nodes, vals)):
        w = 1.0
        for i, ti in enumerate(nodes):
            if i != j:
                w *= (s - ti) / (tj - ti)
        acc += w * fj
    return MomentResult(s=s, value=acc, branch="interpolated")


def _ladder_index(sys: EigenSystem, sigma: int, what: str) -> float:
    """The real positive index xi of sys for the singular branch at sign
    sigma of the ladder 1/2 + sigma xi/2 + k."""
    _check_sys(sys)
    if sys.xi.imag != 0.0 or sys.xi.real == 0.0:
        raise RegimeError(
            f"{what} needs a real positive index xi; at A={sys.A} the rate "
            "sits past the oscillatory threshold (or exactly on it)"
        )
    if sigma not in (-1, 1):
        raise DomainError(f"sigma must be +1 or -1, got {sigma!r}")
    return sys.xi.real


def moment_special_value(sys: EigenSystem, sigma: int) -> MomentResult:
    """Moment at the distinguished order s = -1/2 + sigma xi/2, where the
    closed form collapses: M = (1 - sigma xi)/4 * A^{(1 + sigma xi)/2}.
    This is the order-shift identity at its root s + 1, where
    s(s+1) + 2 lam = 0 leaves M(s) = lam A^(s+1) / (s+1).

    sigma is +1 or -1. Real index only (RegimeError otherwise).
    """
    xi = _ladder_index(sys, sigma, "the distinguished-order shortcut")
    h = 0.5 * sys.eta                               # (1 - xi)/2, stable
    t = 1.0 - h if sigma > 0 else h                 # s + 1 = (1 + sigma xi)/2
    s = -0.5 + 0.5 * sigma * xi
    _check_order(s + 1.0, sys.A)  # the value itself scales like A^(s+1)
    return MomentResult(s=s, value=sys.lam / t * math.exp(t * math.log(sys.A)), branch="special")


def moment_singular_base(sys: EigenSystem, sigma: int) -> MomentResult:
    """Moment exactly at the bottom ladder order s = 1/2 + sigma xi/2 via
    the logarithmic series (the representation both regular pieces
    degenerate into). Real index only."""
    xi = _ladder_index(sys, sigma, "the degenerate-order branch")
    lam, A = sys.lam, sys.A
    s_star = 0.5 + 0.5 * sigma * xi
    z = 2.0 / A
    h = 0.5 * sys.eta                               # (1 - xi)/2, stable
    # bracket_j = psi(1 + j) + psi(d + j) - psi(a + j) - log z, with
    # a = -1/2 - sigma xi/2 and d = 1 - sigma xi. For xi near 1, a + j and
    # d + j graze the digamma poles at -1 and 0 with offsets ~h, where plain
    # doubles keep only |offset|/eps relative digits: both are formed as an
    # exact integer plus an offset from h. psi(u) = psi(u + 1) - 1/u steps a
    # grazing seed down from psi(1 + offset), then the bracket up per term.
    if sigma > 0:
        ka, ha, kd, hd = -1.0, h, 0.0, 2.0 * h     # a = -1 + h, d = 2h
        psi_d = digamma(complex(1.0 + hd)).real - 1.0 / hd
        psi_a = digamma(complex(1.0 + h)).real - 1.0 / h - 1.0 / (h - 1.0)
    else:
        ka, ha, kd, hd = 0.0, -h, 2.0, -2.0 * h    # a = -h, d = 2 - 2h
        psi_d = digamma(complex(kd + hd)).real
        psi_a = digamma(complex(1.0 - h)).real + 1.0 / h
    bracket = digamma(1 + 0j).real + psi_d - psi_a - math.log(z)
    total = 0.0
    coef = 1.0                                      # (a)_j z^j / (j! (d)_j)
    small = 0
    for j in range(300):
        term = coef * bracket
        total += term
        if abs(term) < 1e-15 * max(1.0, abs(total)):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        a_j, d_j = (ka + j) + ha, (kd + j) + hd
        bracket += 1.0 / (j + 1.0) + 1.0 / d_j - 1.0 / a_j
        coef *= a_j * z / (d_j * (j + 1.0))
    else:
        raise ConvergenceError("degenerate-order series did not settle in 300 terms")
    value = sigma * (2.0 * lam / xi) * math.pow(A, s_star) * total
    return MomentResult(s=s_star, value=value, branch="singular")


def moment_singular_shifted(sys: EigenSystem, sigma: int, k: int) -> MomentResult:
    """Moment at the shifted ladder order s = 1/2 + sigma xi/2 + k, climbed
    from the bottom-order value by k steps of moment_integer's recurrence."""
    k = nonnegative_int(k, "ladder shift")
    base = moment_singular_base(sys, sigma)
    if k == 0:
        return base
    s_star = base.s + k
    _check_order(s_star, sys.A)
    value = _climb(base.value, base.s, k, sys)
    return MomentResult(s=s_star, value=value, branch="singular")


def moment_log(sys: EigenSystem) -> float:
    """Expected logarithm under the conditioned law:
    E[log X] = log A - (M(-1) - 1/2) / lam."""
    m_neg1 = moment_frac(-1.0, sys).value
    return math.log(sys.A) - (m_neg1 - 0.5) / sys.lam


def limit_moment(s: float) -> float:
    """Limit of the order-s moment as A grows: 2^s Gamma(1 - s), s < 1."""
    s = _check_order(s, 1.0)
    if s >= 1.0:
        raise DomainError(f"the limiting moment needs s < 1, got {s!r}")
    return math.pow(2.0, s) * math.gamma(1.0 - s)


def moment_recurrence_residual(s: float, sys: EigenSystem) -> float:
    """Dimensionless defect of the order-shift identity
    (s(s-1) + 2 lam) M(s) = 2 lam A^s - 2 s M(s-1),
    using independently evaluated closed-form moments on both sides."""
    s = _check_order(s, _check_sys(sys).A)
    return recurrence_defect(
        s, sys, moment_frac(s, sys).value, moment_frac(s - 1.0, sys).value
    )


def recurrence_defect(s: float, sys: EigenSystem, ms: float, ms1: float) -> float:
    """Dimensionless defect of (s(s-1) + 2 lam) M(s) = 2 lam A^s - 2 s M(s-1)
    at the given values ms = M(s) and ms1 = M(s-1)."""
    lam, A = sys.lam, sys.A
    lhs = (s * (s - 1.0) + 2.0 * lam) * ms
    r1 = 2.0 * lam * math.pow(A, s)
    r2 = 2.0 * s * ms1
    scale = abs(lhs) + abs(r1) + abs(r2)
    if scale == 0.0:
        return 0.0
    return abs(lhs - r1 + r2) / scale
