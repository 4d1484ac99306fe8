"""Density and distribution function of the conditioned law on (0, A],
plus the unrestricted stationary law they collapse to as A grows.

Both closed forms share the normalizer C carried by the EigenSystem:

    pdf(x) = C exp(-1/x) (1/x) W_{1, xi/2}(2/x)
    cdf(x) = C exp(-1/x)       W_{0, xi/2}(2/x)

Both W come from spectral.macdonald_w at X = 1/x, the sum that also gives
the rate and C, so one pass at a point serves the pdf and the cdf.

Values are clamped only inside a narrow roundoff band at the edges of
[0, 1]; anything farther out raises ConsistencyError, because it means
the spectral data and the kernel disagree about the same function.
"""

from __future__ import annotations

import math

from .errors import ConsistencyError, DomainError
from .spectral import EigenSystem, macdonald_w

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


def _pdf_cdf(x: float, sys: EigenSystem) -> tuple[float, float]:
    # qsd_pdf and qsd_cdf at x, with their values and errors, from one W pass
    # inside (UNDERFLOW_X, A)
    x = _check_point(x)
    if not UNDERFLOW_X < x < sys.A:
        return qsd_pdf(x, sys), qsd_cdf(x, sys)
    w0, w1 = macdonald_w(sys.A, sys.lam, 1.0 / x)
    return _pdf_of(x, sys, w1), _cdf_of(x, sys, w0)
