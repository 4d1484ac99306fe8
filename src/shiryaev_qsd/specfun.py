"""Self-contained complex special-function kernel.

Scalar double precision throughout (Python ``complex``); no third-party
dependencies. Provides Gamma, reciprocal Gamma, digamma, Pochhammer
symbols, the confluent series 1F1 and 2F2, Whittaker M and W,
and the z-derivative of W. Gamma and its reciprocal at a real argument
use the standard library's math.gamma (within 1e-15 relative of a
40-digit reference on [-52, 60]); at a complex argument they use a
Lanczos sum.

The kernel is tuned for the windows this package actually visits: real
arguments z = 2/x, second Whittaker indices b that are real in [0, 1/2],
purely imaginary, or parked close to +-1/2 (the large-A regime pushes
2b toward 1), and hypergeometric denominator parameters passing near
nonpositive integers. Three regimes for W:

* generic parameters: the M-based connection formula. At purely
  imaginary b and real kappa its second term is the complex conjugate of
  the first, so it takes one M series instead of two;
* |2b - m| < 1e-3 for an integer m: the connection formula develops a
  0/0 pole pair, so W is reconstructed by symmetric 4-point Richardson
  extrapolation in the second index (offsets +-7.5e-4, +-1.5e-3, shrunk
  by a quarter when an arm would land on the pole pair itself);
* large z with moderate indices: the divergent large-z expansion summed
  to its smallest term, which avoids the exp(z) cancellation the
  connection formula suffers at large arguments. Mandatory from z = 20,
  but already preferred from z = 14 whenever its truncation error is
  measured below 1e-10 or 2b sits within 1e-2 of an integer (there the
  near-pole factors amplify the connection cancellation, while an index
  difference close to an odd integer makes the expansion nearly
  terminating).
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DenominatorPoleError,
    DomainError,
    PoleError,
)

_EPS = 2.220446049250313e-16
_POLE_TOL = 1e-12          # this close to a nonpositive integer counts as on it
_NEAR_INT_2B = 1e-3        # |2b - nearest integer| below this -> extrapolated W
_NEAR_INT_WIDE = 1e-2      # within this of an integer, large-z expansion preferred
_RICH_OFFSET = 7.5e-4      # b-offset of the 4-point extrapolation stencil ...
_RICH_OFFSET_SMALL_Z = 2e-5  # ... shrunk for z < 1 where arms stay clean and
                             # the quartic bias would poison small-argument roots
_ARM_POLE_GAP = 1e-9       # a stencil arm with 2b this close to an integer is on
                           # the pole pair; the offset then shrinks by a quarter
_ASYM_Z_HARD = 20.0        # large-z expansion mandatory beyond this (if eligible)
_ASYM_Z_SOFT = 14.0        # ... opportunistic from here when measurably accurate
_ASYM_TRUNC_OK = 1e-10     # measured truncation below this accepts the expansion
_ASYM_MAX_TERMS = 80

# stopping rule of the ascending series (see _hyp_series)
_SERIES_REL_TOL = 1e-15
_SERIES_SMALL_RUN = 3
_SERIES_MAX_TERMS = 10000

# Lanczos rational approximation, g = 7, 9 terms. Standard coefficient set;
# ~1e-14 relative over the right half plane, which is what the Gamma
# recurrence and reflection tests budget for.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# digamma asymptotic tail: B_2k / 2k for 2k = 2..16
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)


def _nonpositive_int_near(z: complex, tol: float = _POLE_TOL) -> int | None:
    """Nearest nonpositive integer within tol of z, or None."""
    n = round(z.real)
    if n <= 0 and abs(z - n) < tol:
        return n
    return None


def _sinpi(z: complex | float) -> complex | float:
    # sin(pi z) with the argument reduced against the nearest integer first,
    # so near-integer z keeps full relative accuracy (z - n is exact there).
    # A float argument stays in real arithmetic.
    n = round(z.real)
    t = math.pi * (z - n)
    s = math.sin(t) if isinstance(t, float) else cmath.sin(t)
    return s if n % 2 == 0 else -s


def _tanpi(z: complex) -> complex:
    n = round(z.real)
    return cmath.tan(math.pi * (z - n))


def _gamma_one_minus(x: float) -> float:
    # Gamma(1 - x) for real x < 0.5 off the poles of Gamma(x). Gamma
    # amplifies a rounding of its argument y by |y psi(y)|, about 1e2 at
    # y = 33, and 1 - x rounds for x in (-2^k, 1 - 2^k): 1.3e-14 relative at
    # x = -31.6. From x = -1 down, (-x) Gamma(-x) uses the exact -x instead.
    if x > -1.0:
        return math.gamma(1.0 - x)
    g = -x * math.gamma(-x)
    if math.isinf(g):
        raise OverflowError("math range error")
    return g


def gamma(z: complex) -> complex:
    """Complex Gamma function.

    Real arguments go through math.gamma, complex ones through
    a Lanczos sum.

    Raises:
        PoleError: z within 1e-12 of a nonpositive integer.
        OverflowError: |Gamma(z)| exceeds the double range.
    """
    z = complex(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"gamma pole at z={z}")
    if z.imag == 0.0:
        x = z.real
        try:
            if x < 0.5:
                # reflection; sin(pi x) is bounded away from 0 by the pole check
                return complex(math.pi / (_sinpi(x) * _gamma_one_minus(x)))
            return complex(math.gamma(x))
        except OverflowError as exc:
            raise OverflowError(f"gamma({z}) overflows double precision") from exc
    if z.real < 0.5:
        # reflection; sin(pi z) is bounded away from 0 by the pole check
        return math.pi / (_sinpi(z) * gamma(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    # exponentials folded together so representable values never overflow
    # through the t**(w+1/2) intermediate
    try:
        out = math.sqrt(2.0 * math.pi) * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc
    except OverflowError as exc:
        raise OverflowError(f"gamma({z}) overflows double precision") from exc
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"gamma({z}) overflows double precision")
    return out


def rgamma(z: complex) -> complex:
    """1/Gamma(z); exact 0 at exact nonpositive integers, smooth nearby.

    Near-pole arguments keep full relative accuracy via the reflection form
    1/Gamma(z) = sin(pi z) Gamma(1-z) / pi, so callers may cancel the zero
    against a matching pole without losing digits.
    """
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        # round() goes first: it rejects inf and nan as gamma's pole test does
        if x == round(x) and x <= 0.0:
            return 0j
        try:
            if x < 0.5:
                return complex(_sinpi(x) * _gamma_one_minus(x) / math.pi)
            return complex(1.0 / math.gamma(x))
        except OverflowError as exc:
            raise OverflowError(f"rgamma({z}) overflows double precision") from exc
    if z.real < 0.5:
        return _sinpi(z) * gamma(1.0 - z) / math.pi
    return 1.0 / gamma(z)


def digamma(z: complex) -> complex:
    """Complex digamma via reflection, upward recurrence, and the Stirling tail."""
    z = complex(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"digamma pole at z={z}")
    if z.real < 0.5:
        return digamma(1.0 - z) - math.pi / _tanpi(z)
    acc = 0j
    while z.real < 10.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    out = cmath.log(z) - 0.5 / z
    p = inv2
    for coeff in _DIGAMMA_TAIL:
        out -= coeff * p
        p *= inv2
    return out + acc


def pochhammer(z: complex, n: int) -> complex:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1); (z)_0 = 1.

    Exact zeros for nonpositive-integer z with n > -z come out of the product
    naturally. n must be a nonnegative integer.
    """
    if n != int(n) or n < 0:
        raise DomainError(f"pochhammer order must be a nonnegative integer, got {n}")
    out = 1.0 + 0j
    z = complex(z)
    for k in range(int(n)):
        out *= z + k
    return out


def _hyp_series(
    num: tuple[complex, ...],
    den: tuple[complex, ...],
    z: complex,
    pole_tol: float,
) -> complex:
    """Ascending pFq series with the recurrent term update.

    term_{n+1} = term_n * prod(a_i + n) / prod(b_j + n) * z / (n + 1),
    summed in increasing n until _SERIES_SMALL_RUN terms in a row fall
    below _SERIES_REL_TOL relative to the partial sum.

    A numerator parameter at a nonpositive integer terminates the series. A
    denominator parameter within pole_tol of a nonpositive integer raises
    DenominatorPoleError unless the series terminates: with finitely many
    terms each near-pole division is by an exactly-known parameter and the
    result stays fully accurate, whereas an infinite tail through the pole
    means the caller picked a formula about to lose its meaning.
    """
    terminates = False
    for a in num:
        a = complex(a)
        if a.imag == 0.0 and a.real <= 0.0 and a.real == round(a.real):
            terminates = True
    if not terminates:
        for b in den:
            if _nonpositive_int_near(complex(b), pole_tol) is not None:
                raise DenominatorPoleError(
                    f"denominator parameter {b} within {pole_tol} of nonpositive integer"
                )
    rel_tol, small_run, max_terms = _SERIES_REL_TOL, _SERIES_SMALL_RUN, _SERIES_MAX_TERMS
    term = 1.0 + 0j
    total = 1.0 + 0j
    small = 0
    for n in range(max_terms):
        fac = 1.0 + 0j
        for a in num:
            fac *= a + n
        if fac == 0:
            return total  # terminated exactly
        dfac = 1.0 + 0j
        for b in den:
            dfac *= b + n
        if dfac == 0:
            raise DenominatorPoleError(
                f"denominator parameter hits a nonpositive integer at term {n}"
            )
        term *= fac / dfac * z / (n + 1)
        total += term
        if abs(term) < rel_tol * abs(total):
            small += 1
            if small >= small_run:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"series pFq({num};{den};{z}) did not meet its stopping rule in {max_terms} terms"
    )


def hyp1f1(a: complex, b: complex, z: complex) -> complex:
    """Kummer's 1F1(a; b; z) by ascending series (entire in z)."""
    return _hyp_series((complex(a),), (complex(b),), complex(z), _POLE_TOL)


def hyp2f2(a1: complex, a2: complex, b1: complex, b2: complex, z: complex) -> complex:
    """2F2(a1, a2; b1, b2; z) by ascending series (entire in z).

    Denominator parameters closer than 1e-6 to a nonpositive integer raise
    DenominatorPoleError (the moment code must switch branches well before
    that); a terminating numerator parameter disarms the check.
    """
    return _hyp_series(
        (complex(a1), complex(a2)), (complex(b1), complex(b2)), complex(z), 1e-6
    )


def whittaker_m(kappa: complex, b: complex, z: float) -> complex:
    """Whittaker M_{kappa,b}(z) for real z > 0.

    M = z^(1/2+b) exp(-z/2) 1F1(1/2 + b - kappa; 1 + 2b; z).

    Raises:
        ConsistencyError: -2b is a positive integer (within 1e-12), where M
            is not defined.
        DomainError: z is not a positive real.
    """
    z = _require_positive_real(z)
    kappa = complex(kappa)
    b = complex(b)
    if _nonpositive_int_near(1.0 + 2.0 * b) is not None:
        raise ConsistencyError(f"whittaker_m undefined at 2b = {2 * b}")
    pref = cmath.exp((0.5 + b) * math.log(z) - 0.5 * z)
    return pref * hyp1f1(0.5 + b - kappa, 1.0 + 2.0 * b, z)


def _require_positive_real(z) -> float:
    if isinstance(z, complex):
        if z.imag != 0.0:
            raise DomainError(f"argument must be real and positive, got {z}")
        z = z.real
    z = float(z)
    if not (z > 0.0) or not math.isfinite(z):
        raise DomainError(f"argument must be real and positive, got {z}")
    return z


def _w_asymptotic(kappa: complex, b: complex, z: float) -> tuple[complex, float]:
    # z^kappa exp(-z/2) sum_s (-1)^s (1/2+b-k)_s (1/2-b-k)_s / (s! z^s),
    # truncated at the smallest term. Returns (value, trunc) where trunc is
    # the magnitude of the last kept term relative to the sum: the standard
    # optimal-truncation error estimate the dispatcher screens against.
    c1 = 0.5 + b - kappa
    c2 = 0.5 - b - kappa
    term = 1.0 + 0j
    total = 1.0 + 0j
    prev = math.inf
    last = 0.0
    for s in range(1, _ASYM_MAX_TERMS):
        term *= -(c1 + s - 1) * (c2 + s - 1) / (s * z)
        mag = abs(term)
        if mag >= prev:
            break  # divergent tail reached; stop at the smallest term
        total += term
        prev = mag
        last = mag
        if mag < _EPS * abs(total):
            break
    trunc = last / max(abs(total), 1e-300)
    return cmath.exp(kappa * math.log(z) - 0.5 * z) * total, trunc


class WPlan:
    """Whittaker W_{kappa,b}(z) at one index pair, for many real z > 0.

    The Gamma products of the connection formula,
    Gamma(-+2b) / Gamma(1/2 -+ b - kappa), do not depend on z. A plan
    computes them on first use, for b itself or for one arm of the
    near-integer-2b stencil, and keeps them: one pair, or the four stencil
    arms at each offset it uses, whatever the number of z it serves. At
    purely imaginary b and real kappa the second product and the second M
    series are the complex conjugates of the first, so the plan computes
    only the first of each and W is twice the real part of their product.
    Every value equals what a fresh computation gives. Two threads
    reaching a first use together compute the same products twice;
    nothing else is shared.
    """

    __slots__ = ("kappa", "b", "_c1c2", "_dist", "_coef")

    def __init__(self, kappa: complex, b: complex) -> None:
        self.kappa = complex(kappa)
        self.b = complex(b)
        self._c1c2 = abs((0.5 + self.b - self.kappa) * (0.5 - self.b - self.kappa))
        two_b = 2.0 * self.b
        self._dist = abs(two_b - round(two_b.real))
        self._coef: dict[complex, tuple[complex, complex]] = {}

    def _connection(self, b: complex, z: float) -> complex:
        # W = G(-2b)/G(1/2-b-k) M_{k,b} + G(2b)/G(1/2+b-k) M_{k,-b}; the
        # dispatcher keeps 2b off integers, so the Gammas are safe and the
        # two M series are regular. At b = i beta and real kappa the kernel
        # is conjugate-symmetric term by term, so the second term is the
        # exact conjugate of the first and their sum is 2 Re of the first.
        kappa = self.kappa
        conjugate = b.real == 0.0 and b.imag != 0.0 and kappa.imag == 0.0
        coef = self._coef.get(b)
        if coef is None:
            c0 = gamma(-2.0 * b) * rgamma(0.5 - b - kappa)
            c1 = c0.conjugate() if conjugate else gamma(2.0 * b) * rgamma(0.5 + b - kappa)
            coef = self._coef[b] = (c0, c1)
        first = coef[0] * whittaker_m(kappa, b, z)
        if conjugate:
            return complex(2.0 * first.real)
        return first + coef[1] * whittaker_m(kappa, -b, z)

    def __call__(self, z: float) -> complex:
        """W_{kappa,b}(z); dispatches between the connection formula, the
        near-integer-2b Richardson stencil, and the large-z expansion (see
        module docstring)."""
        z = _require_positive_real(z)
        kappa, b = self.kappa, self.b
        if z >= _ASYM_Z_SOFT and self._c1c2 <= z / 3.0:
            val, trunc = _w_asymptotic(kappa, b, z)
            # Below the hard cutoff the expansion is kept only when its measured
            # truncation already beats what exp(z)-scale cancellation leaves of
            # the connection formula, or when near-integer 2b would force the
            # pole-amplified stencil (strictly worse here).
            if z >= _ASYM_Z_HARD or trunc <= _ASYM_TRUNC_OK or self._dist < _NEAR_INT_WIDE:
                return val
        elif z >= 200.0:
            # indices too large for the eligibility screen, but the connection
            # route is hopeless at this magnitude; best-effort expansion
            return _w_asymptotic(kappa, b, z)[0]
        if self._dist < _NEAR_INT_2B:
            # quartic bias ~ W''''(b) eps^4 / 6; at small z the connection pieces
            # shrink with the offset, so a tight stencil costs no cancellation
            # and keeps eigencondition roots sharp at large cutoffs
            eps = _RICH_OFFSET if z >= 1.0 else _RICH_OFFSET_SMALL_Z
            d = 2.0 * b - round(2.0 * b.real)  # 2b less its nearest integer
            if min(abs(d + k * eps) for k in (-4.0, -2.0, 2.0, 4.0)) < _ARM_POLE_GAP:
                # an arm 2(b +- eps) or 2(b +- 2eps) on the integer: at 3/4 of
                # the offset every arm is at least eps/2 from it, and |d| < 1e-3
                # keeps the other integers far away
                eps *= 0.75
            s1 = 0.5 * (self._connection(b + eps, z) + self._connection(b - eps, z))
            s2 = 0.5 * (self._connection(b + 2 * eps, z) + self._connection(b - 2 * eps, z))
            return (4.0 * s1 - s2) / 3.0
        return self._connection(b, z)


def whittaker_w(kappa: complex, b: complex, z: float) -> complex:
    """Whittaker W_{kappa,b}(z) for real z > 0; even in b.

    One evaluation of WPlan(kappa, b). Never raises on near-integer 2b;
    that case is handled internally.
    """
    return WPlan(kappa, b)(z)


def whittaker_w_dz(kappa: complex, b: complex, z: float) -> complex:
    """d/dz W_{kappa,b}(z) via the inverted forward recurrence:

    W' = ((z/2 - kappa) W_{kappa,b}(z) - W_{kappa+1,b}(z)) / z.
    """
    z = _require_positive_real(z)
    kappa = complex(kappa)
    b = complex(b)
    w0 = whittaker_w(kappa, b, z)
    w1 = whittaker_w(kappa + 1.0, b, z)
    return ((0.5 * z - kappa) * w0 - w1) / z


def documented_real(value: complex, what: str = "value") -> float:
    """Collapse a complex result that is real on paper to a float.

    Enforces |Im| <= 1e-10 * max(1, |Re|); anything larger means the kernel
    or the formula wiring is broken, not the caller's input.
    """
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ConsistencyError(
            f"{what} should be real, got imaginary residue {value.imag!r} "
            f"against real part {value.real!r}"
        )
    return value.real
