"""Self-contained special-function kernel.

Scalar double precision; no third-party dependencies. Provides Gamma,
reciprocal Gamma, digamma, the confluent series 1F1 and 2F2, Whittaker M
and W, and the z-derivative of W. Gamma, its reciprocal, 1F1 and 2F2 work
in the arguments' type: a float at all-real arguments, a Python
``complex`` as soon as one is complex. At real values the complex path
keeps a zero imaginary part, and the real path repeats the bits of its
real part at less cost. Gamma and its reciprocal at a real argument use
the standard library's math.gamma (within 1e-15 relative of a 40-digit
reference on [-52, 60]); at a complex argument they use a Lanczos sum.
Digamma and Whittaker M and W stay complex.

One loop, _hyp2f2, sums every hypergeometric series: hyp2f2, hyp1f1 as
2F2(a, 1; b, 1), and at a1 = 1 the moment closed form and the
normalizer's series, which call it without hyp2f2's name.

Whittaker W here serves any (kappa, b); the law's own W_{0, xi/2} and
W_{1, xi/2} come from Temme's series (spectral) and the Macdonald sum
(distribution.macdonald_w), and nothing inside the package reads this
one; it stays as an independent kernel to test that sum against.
It is the Laplace integral (DLMF 13.4.4 through 13.14.3)

    W_{kappa,b}(z) = z^kappa e^{-z/2} / Gamma(a)
                     * int_0^inf e^{-u} u^{a-1} (1 + u/z)^{b+kappa-1/2} du,

a = 1/2 + b - kappa, summed by the exp-sinh rule of Takahasi and Mori:
u = exp(pi/2 sinh t), t from -4.5 at step h until u passes 750. W is even
in b, so Re b >= 0; kappa is shifted down until Re a >= 1/2, and the
kappa-recurrence climbs back. h is 1/16, halved each time |Im b| doubles
past 1.26, as u^b oscillates in log u, and the ray turns by pi/4 toward
Im b. At imaginary b, W is far smaller than its integrand, and the sum's
loss is not bounded by exp(pi |Im b| / 4) eps; it grows as z falls: against
mpmath's whitw at kappa = 0 and b = 6.75i the relative error is 1.1e-8 at
z = 0.015, 2.5e-10 at z = 1 and 8e-13 at z = 10, where that bound gives
4.4e-14; at b = 3i it is 2e-13 at z = 0.1. The z-derivative reads W_kappa
and W_{kappa+1} from two such sums.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable

from .errors import (
    ConsistencyError,
    ConvergenceError,
    DenominatorPoleError,
    DomainError,
    PoleError,
    real_number,
)

_POLE_TOL = 1e-12          # this close to a nonpositive integer counts as on it

# exp-sinh rule of the W integral (see module docstring)
_DE_T_MIN = -4.5
_DE_U_MAX = 750.0
_DE_H = 1.0 / 16.0
_DE_IMAG_B = 1.26          # |Im b| the step h = 1/16 resolves
_DE_TURN = math.pi / 4     # the ray's angle at complex b
_DE_MAX_HALVINGS = 6       # node ceiling: h = 1/1024 (6,856 nodes), |Im b| <= 80.64

# stopping rule of the ascending series (see _hyp2f2)
_SERIES_REL_TOL = 1e-15
_SERIES_SMALL_RUN = 3
_SERIES_MAX_TERMS = 10000
_HYP2F2_POLE_TOL = 1e-6    # hyp2f2's denominator pole distance

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


def _nonpositive_int_near(z: float | complex, tol: float = _POLE_TOL) -> int | None:
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


def _lanczos(z: complex) -> complex:
    # Gamma(z) for Re z >= 1/2
    w = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    # exponentials folded together so representable values never overflow
    # through the t**(w+1/2) intermediate
    out = math.sqrt(2.0 * math.pi) * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError("math range error")
    return out


def _gamma_pq(z: float | complex) -> tuple:
    """(p, q) with Gamma(z) = p / q, z off the poles. Left of Re z = 1/2 it
    is the reflection (pi, sin(pi z) Gamma(1 - z)), whose q vanishes with
    full relative accuracy at a pole; right of it q is 1 and p is Gamma(z),
    by math.gamma at a real z and the Lanczos sum at a complex one."""
    x = z.real
    if z.imag == 0.0:
        if x < 0.5:
            return math.pi, _sinpi(x) * _gamma_one_minus(x)
        return math.gamma(x), 1
    if x < 0.5:
        try:
            return math.pi, _sinpi(z) * _lanczos(1.0 - z)
        except OverflowError:
            return math.pi, _sin_gamma_far(z)
    return _lanczos(z), 1


def _sin_gamma_far(z: complex) -> complex:
    # sin(pi z) Gamma(1 - z) for Re z < 1/2 where sin(pi z) alone overflows,
    # from |Im z| ~ 226 up. With d = z - n, n = round(Re z), and Im d > 0
    # (the conjugate otherwise), sin(pi d) = (i/2) e^{-i pi d} (1 - e^{2i pi d}),
    # and e^{-i pi d} joins Gamma(1 - z) in one exponential. Overflows only
    # where the product does
    if z.imag < 0.0:
        return _sin_gamma_far(z.conjugate()).conjugate()
    n = round(z.real)
    d = z - n
    g = _lanczos(1.0 - z)
    if not g:
        raise OverflowError("math range error")
    q = 0.5j * (1.0 - cmath.exp(2j * math.pi * d)) * cmath.exp(cmath.log(g) - 1j * math.pi * d)
    return q if n % 2 == 0 else -q


def gamma(z: float | complex) -> float | complex:
    """Gamma function: a float at a real argument, a complex number at a
    complex one (the same bits as its real part at zero imaginary part).

    Real arguments go through math.gamma, complex ones through
    a Lanczos sum.

    Raises:
        PoleError: z within 1e-12 of a nonpositive integer.
        OverflowError: |Gamma(z)| exceeds the double range.
    """
    cplx = isinstance(z, complex)
    if not cplx:
        z = float(z)
    if _nonpositive_int_near(z) is not None:
        raise PoleError(f"gamma pole at z={z}")
    try:
        p, q = _gamma_pq(z)
    except OverflowError as exc:
        raise OverflowError(f"gamma({z}) overflows double precision") from exc
    # p itself when q is 1: a complex division by 1 may flip the sign of an
    # underflowed zero part
    g = p if q == 1 else p / q
    return complex(g) if cplx else g


def rgamma(z: float | complex) -> float | complex:
    """1/Gamma(z) in the argument's type, as gamma; exact 0 at exact
    nonpositive integers, smooth nearby.

    Near-pole arguments keep full relative accuracy via the reflection form
    1/Gamma(z) = sin(pi z) Gamma(1-z) / pi, so callers may cancel the zero
    against a matching pole without losing digits.
    """
    cplx = isinstance(z, complex)
    if not cplx:
        z = float(z)
    x = z.real
    # round() goes first: it rejects inf and nan as gamma's pole test does
    if x == round(x) and x <= 0.0 and z.imag == 0.0:
        return 0j if cplx else 0.0
    try:
        p, q = _gamma_pq(z)
    except OverflowError as exc:
        raise OverflowError(f"rgamma({z}) overflows double precision") from exc
    return complex(q / p) if cplx else q / p


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


def _hyp2f2(
    a1: float | complex,
    a2: float | complex,
    b1: float | complex,
    b2: float | complex,
    z: float | complex,
    pole_tol: float = _HYP2F2_POLE_TOL,
) -> float | complex:
    """2F2(a1, a2; b1, b2; z) by its ascending series, in the arguments'
    type: floats if all are real, else complex numbers.

    term_{n+1} = term_n (a1 + n)(a2 + n) / ((b1 + n)(b2 + n)) z / (n + 1),
    summed in increasing n until _SERIES_SMALL_RUN terms in a row fall
    below _SERIES_REL_TOL relative to the partial sum, in at most
    _SERIES_MAX_TERMS terms (ConvergenceError past them). A numerator
    parameter at a nonpositive integer -m ends the series after m terms.
    Unless one does, a denominator parameter within pole_tol of a
    nonpositive integer raises DenominatorPoleError: with finitely many
    terms each near-pole division is by an exactly known parameter and the
    sum stays accurate, but an infinite tail through the pole means the
    caller picked a formula about to lose its meaning.
    """
    cplx = isinstance(a1, complex) or isinstance(a2, complex) or isinstance(b1, complex)
    kind = complex if cplx or isinstance(b2, complex) or isinstance(z, complex) else float
    a1, a2, b1, b2, z = kind(a1), kind(a2), kind(b1), kind(b2), kind(z)
    stop, ends = _SERIES_MAX_TERMS, False
    for a in (a1, a2):
        if a.real <= 0.0 and a.imag == 0.0 and a.real == round(a.real):
            stop, ends = min(stop, round(-a.real)), True
    if not ends:
        for b in (b1, b2):
            # near a nonpositive integer Re b < pole_tol; nan goes on to raise
            if not b.real >= pole_tol and _nonpositive_int_near(b, pole_tol) is not None:
                raise DenominatorPoleError(
                    f"denominator parameter {b} within {pole_tol} of nonpositive integer"
                )
    term = total = kind(1.0)
    small = 0
    for n in range(stop):
        try:
            term *= (a1 + n) * (a2 + n) / ((b1 + n) * (b2 + n)) * z / (n + 1)
        except ZeroDivisionError:  # only a terminating series' denominator reaches 0
            raise DenominatorPoleError(
                f"denominator parameter hits a nonpositive integer at term {n}"
            ) from None
        total += term
        if abs(term) < _SERIES_REL_TOL * abs(total):
            small += 1
            if small == _SERIES_SMALL_RUN:
                return total
        else:
            small = 0
    if stop < _SERIES_MAX_TERMS:
        return total  # terminated exactly
    raise ConvergenceError(
        f"series 2F2({a1}, {a2}; {b1}, {b2}; {z}) did not meet its stopping rule "
        f"in {_SERIES_MAX_TERMS} terms"
    )


def hyp1f1(a: float | complex, b: float | complex, z: float | complex) -> float | complex:
    """Kummer's 1F1(a; b; z) = 2F2(a, 1; b, 1; z) by ascending series
    (entire in z); a float at all-real arguments, else a complex number. A
    denominator within 1e-12 of a nonpositive integer raises."""
    return _hyp2f2(a, 1.0, b, 1.0, z, _POLE_TOL)


def hyp2f2(
    a1: float | complex,
    a2: float | complex,
    b1: float | complex,
    b2: float | complex,
    z: float | complex,
) -> float | complex:
    """2F2(a1, a2; b1, b2; z) by ascending series (entire in z); a float at
    all-real arguments, else a complex number.

    Denominator parameters closer than 1e-6 to a nonpositive integer raise
    DenominatorPoleError (the moment code must switch branches well before
    that); a terminating numerator parameter disarms the check.
    """
    return _hyp2f2(a1, a2, b1, b2, z)


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
    if isinstance(z, complex) and z.imag == 0.0:
        z = z.real
    z = real_number(z, "argument")
    if not z > 0.0:
        raise DomainError(f"argument must be real and positive, got {z}")
    return z


@functools.cache
def _de_rule(halvings: int, turn: int) -> tuple[tuple, tuple, tuple]:
    # nodes u_k, log u_k and weights w_k e^{-u_k} of the exp-sinh rule at
    # step _DE_H / 2^halvings on the ray arg u = turn * _DE_TURN; floats if
    # turn = 0
    h = _DE_H / 2**halvings
    theta = turn * _DE_TURN
    ray, exp = (cmath.exp(1j * theta), cmath.exp) if turn else (1.0, math.exp)
    nodes, logs, weights = [], [], []
    t = _DE_T_MIN
    while math.exp(log_r := 0.5 * math.pi * math.sinh(t)) * math.cos(theta) <= _DE_U_MAX:
        u = math.exp(log_r) * ray
        nodes.append(u)
        logs.append(complex(log_r, theta) if turn else log_r)
        weights.append(h * 0.5 * math.pi * math.cosh(t) * u * exp(-u))
        t += h
    return tuple(nodes), tuple(logs), tuple(weights)


def _w_index(kappa: complex, b: complex) -> tuple:
    # (b, kappa0, n, 1/Gamma(a0), rule key, real) for W_{kappa,b}: Re b >= 0, and
    # kappa0 = kappa - n has Re a0 >= 1/2, a0 = 1/2 + b - kappa0; floats if real
    kappa, b = complex(kappa), complex(b)
    if b.real < 0.0 or (b.real == 0.0 and b.imag < 0.0):
        b = -b
    halvings = max(0, math.ceil(math.log2(abs(b.imag) / _DE_IMAG_B))) if b.imag else 0
    if halvings > _DE_MAX_HALVINGS:
        raise DomainError(f"W at |Im b| = {abs(b.imag):.4g} is past its rule's node ceiling")
    n = max(0, math.ceil(kappa.real - b.real))
    if real := kappa.imag == 0.0 and b.imag == 0.0:
        kappa, b = kappa.real, b.real
    kappa0 = kappa - n
    rule = (halvings, (b.imag > 0.0) - (b.imag < 0.0) if halvings else 0)
    return b, kappa0, n, rgamma(0.5 + b - kappa0), rule, real


def _w_climb(ix: tuple, z: float, j0: complex, j1: complex) -> complex:
    # W_{kappa,b}(z) from j0 = sum of w_k e^{-u_k} u_k^{a0-1} (1 + u_k/z)^{p0},
    # p0 = b + kappa0 - 1/2, and j1 = the same times u_k / (1 + u_k/z), needed
    # once the climb has a rung. Over e^{-z/2} z^{kappa0-1} / Gamma(a0),
    # W_{kappa0} is z j0, W_{kappa0-1} is j1 / a0, and the recurrence of
    # DLMF 13.15 climbs to kappa, with its coefficient kept factored, so exact
    # where it vanishes.
    b, k, n, rg, _, real = ix
    scale = math.exp(-0.5 * z) * z ** (k - 1.0) * rg
    prev, cur = j1 / (0.5 + b - k), z * j0
    for _ in range(n):
        prev, cur = cur, (z - 2.0 * k) * cur - (k - b - 0.5) * (k + b - 0.5) * prev
        k += 1.0
    w = complex(scale * cur)
    # at b = i beta and real kappa, W = W_{kappa,-b} is its own conjugate
    if not real and b.real == 0.0 and k.imag == 0.0:
        return complex(w.real)
    return w


def whittaker_w(kappa: complex, b: complex, z: float) -> complex:
    """Whittaker W_{kappa,b}(z) for real z > 0, by the Laplace integral of
    the module docstring; even in b.

    Raises:
        DomainError: z is not a positive real, or |Im b| is past the
            rule's node ceiling.
    """
    z = _require_positive_real(z)
    ix = b, kappa0, n, _, rule, real = _w_index(kappa, b)
    nodes, logs, weights = _de_rule(*rule)
    exp, am1 = (math.exp if real else cmath.exp), b - kappa0 - 0.5
    iz, p = 1.0 / z, b + kappa0 - 0.5
    j0 = j1 = 0.0
    for u, s, w in zip(nodes, logs, weights):
        q = 1.0 + u * iz
        t = w * exp(am1 * s) * q**p
        j0 += t
        if n:
            j1 += t * u / q
    return _w_climb(ix, z, j0, j1)


def whittaker_w_dz(kappa: complex, b: complex, z: float) -> complex:
    """d/dz W_{kappa,b}(z) via the inverted forward recurrence:

    W' = ((z/2 - kappa) W_{kappa,b}(z) - W_{kappa+1,b}(z)) / z,

    from two whittaker_w sums, so with whittaker_w's accuracy at kappa and
    at kappa + 1.
    """
    z = _require_positive_real(z)
    kappa = complex(kappa)
    w0, w1 = whittaker_w(kappa, b, z), whittaker_w(kappa + 1.0, b, z)
    return ((0.5 * z - kappa) * w0 - w1) / z


def documented_real(value: float | complex, what: str | Callable[[], str]) -> float:
    """Collapse a result that is real on paper to a float.

    Enforces |Im| <= 1e-10 * max(1, |Re|); anything larger means the kernel
    or the formula wiring is broken, not the caller's input. what names the
    value in the error: a label, or a function returning one, called only
    when the check fails.
    """
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        if callable(what):
            what = what()
        raise ConsistencyError(
            f"{what} should be real, got imaginary residue {value.imag!r} "
            f"against real part {value.real!r}"
        )
    return value.real
