"""Exception taxonomy: three families, one per CLI exit code.

* DomainError (exit 2): the input lies outside the documented contract,
  checked where it enters (real_number, spectral._check_sys). RegimeError
  narrows it to a rate past the real-index threshold.
* ConvergenceError (exit 3): the answer exists but an iteration or series
  did not reach it. ToleranceNotMetError is the quadrature case and
  carries its partial estimate.
* ConsistencyError (exit 1): the machinery or an internal cross-check
  broke. PoleError and DenominatorPoleError are the kernel's pole cases.

Python's OverflowError, which the kernel raises when a value it computes
leaves the double range, also maps to exit 1. EXIT_CODES below is that map.
"""

from math import isfinite


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


def real_number(x, what: str) -> float:
    """float(x), if float() takes x and the result is finite; DomainError
    naming `what` otherwise. The caller's range test follows."""
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be a finite real number: {exc}") from None
    if not isfinite(v):
        raise DomainError(f"{what} must be finite, got {v!r}")
    return v


class RegimeError(DomainError):
    """Operation requires the real-index regime (lambda <= 1/8) but got the other one."""


class ConvergenceError(RuntimeError):
    """An iteration or series stopped without meeting its tolerance, or a
    root could not be bracketed."""


class ToleranceNotMetError(ConvergenceError):
    """Adaptive quadrature exhausted its subdivision budget.

    Carries the best estimate and its error bound so callers can decide
    whether the partial answer is still useful.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (dual normalizer forms, cdf range,
    realness...) or a kernel function is undefined where it was asked for."""


class PoleError(ConsistencyError):
    """Gamma or digamma evaluated at (or within 1e-12 of) a nonpositive integer."""


class DenominatorPoleError(ConsistencyError):
    """A hypergeometric denominator parameter sits on a nonpositive integer.

    The moment code keeps its orders off these parameters (the ladder
    band), so reaching one means the formula was used where it degenerates.
    """


# the one exception-to-exit-code map (cli.main); a subclass takes its
# family's code
EXIT_CODES = ((DomainError, 2), (ConvergenceError, 3), (ConsistencyError, 1), (OverflowError, 1))

# what a check row absorbs as a failure (report.guarded_row): every family
# but the input's own errors. A wildly wrong rate makes evaluation itself
# blow up (cdf past 1, kernel poles, series or quadrature that cannot
# settle, values past the double range), and the battery must still report
CHECK_ERRORS = tuple(family for family, code in EXIT_CODES if code != 2)
