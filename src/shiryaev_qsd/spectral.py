"""Principal eigenvalue, index, and normalizer of the killed diffusion.

Everything downstream hangs off one number per cutoff A: the smallest
positive root lam of the boundary condition W_{1, xi/2}(2/A) = 0 with
xi = sqrt(1 - 8 lam), so the rate alone fixes the index: no function here
takes xi beside lam. This module brackets that root with the proven
two-sided bounds, polishes it with Brent iteration on W at 2/A
(eigencondition), checks that the root found is the smallest, and
packages the result as a validated EigenSystem the distribution and
moment code can trust blindly. One helper (_endpoint_w) gives W at the
endpoint X = 1/A, and with it Brent's root, C and the residual: at a
real index Temme's series of the pair K_{1/2 -+ eta/2}(X), which takes 2
to 7 terms at X <= 1/8 (_temme_k), and at an imaginary one Macdonald's
trapezoid sum at that X (_macdonald_sum), on one node table per solve.
The pdf and the cdf read that sum at every point (distribution.macdonald_w).
The battery's second route to the root and to C is the confluent series
of C, which reads no W.

The check needs no W and no march. At the n-th root lam, the
eigenfunction f of 1/2 x^2 f'' + f' + lam f = 0 with f(0) = 1 vanishes at
A and, by the oscillation theorem, has n - 1 zeros in (0, A). x = e^y and
f = x^{1/2} e^{1/x} v turn the equation into v'' + (E - V) v = 0 with
E = 2 lam - 1/4 and the Morse potential V = e^{-2y} - 2 e^{-y} >= -1
(Morse, Phys. Rev. 34, 57, 1929). _is_principal proves in O(1) that the
second rate lam_2 exceeds lam, so that lam is the first:

- Were lam_2 <= lam, the second eigenfunction would vanish at some x_1 in
  (0, A) and at A. As E_2 - V <= E + 1, Sturm comparison puts two zeros of
  its v at least pi / sqrt(E + 1) apart in y, so
  x_1 <= x_c = A exp(-pi / sqrt(E + 1)).
- On (0, x_1] it is the principal eigenfunction, so lam_2 is the
  principal rate at x_1, which is at least the one at x_c: the principal
  rate falls as the interval grows.
- The principal rate at x_c exceeds lam if lambda_bounds(x_c) says so, or
  if f at rate lam has no zero in (0, x_c]. Left of the turning point
  y_t = -log(1 + sqrt(1 + E)), where V > E, the decaying v is positive and
  increasing, so its Pruefer angle for v'' + Q v = 0, Q = E - min V on
  [y_t, log x_c], starts in (0, pi/2) and grows at most at sqrt(Q). It
  cannot reach pi by log x_c if (log x_c - y_t) sqrt(Q) < pi/2.

This certifies every rate the solve returns from A = 0.1608 to 1e15,
plus the 21 cutoffs 10^(-1.4 + k/100) in [0.0724, 0.1148], with room: it
would still certify 1.26 lam at A = 0.1608, 2.2 lam at 1, 10 lam at 20
and 37 lam from 1e5 up, where the second rate lies at 1.72 lam, 3.2 lam,
15 lam and 1.8e4 lam. Being a proof, it refuses every higher root.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .errors import ConsistencyError, ConvergenceError, DomainError, real_number
from .report import CheckRow, guarded_row
from .specfun import _hyp2f2, documented_real, gamma, rgamma

_EPS = 2.220446049250313e-16
_SERIES_C_TOL = 1e-10      # agreement of the series and endpoint normalizers
_BRACKET_SLACK = 1e-9      # relative slack when re-checking the bracket
_BRENT_REL_TOL = 1e-12     # relative width at which Brent stops
_K_STEP = 0.2              # trapezoid step of the Macdonald integrals ...
_K_WAVES = 0.8             # ... at most this over beta at an imaginary index ...
_K_PEAK = 0.7              # ... and at most this over sqrt(X)
_K_CUT = 50.0              # nodes stop where X (cosh t - 1) - t reaches this
_K_BETA_MAX = 80.64        # index ceiling: inherited from specfun's Laplace W, it is
                           # the DomainError edge where the bracket top's beta passes it
_TEMME_X_MAX = 0.125       # Temme's series serves the endpoint up to this X: every real
                           # rate of a solve's bracket has X = 1/A <= 1/8.815
_TEMME_TOL = 1e-17         # Temme's series stops at terms this far below its sums
_INV_E = math.exp(-1.0)

# (c_{2j+1}, c_{2j+2}), j = 0..10, of 1/Gamma(z) = sum_{k >= 1} c_k z^k
# (DLMF 5.7.1): mpmath.taylor(mpmath.rgamma, 0, 22) at 50 digits, rounded
# to doubles. On |mu| <= 1/2 the terms past c_22 are below 5e-19
_RGAMMA_PAIRS = (
    (1.0, 0.5772156649015329),
    (-0.6558780715202539, -0.04200263503409524),
    (0.16653861138229148, -0.04219773455554433),
    (-0.009621971527876973, 0.0072189432466631),
    (-0.0011651675918590652, -0.00021524167411495098),
    (0.0001280502823881162, -2.013485478078824e-05),
    (-1.2504934821426706e-06, 1.133027231981696e-06),
    (-2.056338416977607e-07, 6.116095104481416e-09),
    (5.002007644469223e-09, -1.18127457048702e-09),
    (1.0434267116911005e-10, 7.782263439905071e-12),
    (-3.696805618642206e-12, 5.100370287454476e-13),
)


def _check_cutoff(A) -> float:
    A = real_number(A, "cutoff")
    if A <= 0.0:
        raise DomainError(f"cutoff must be a finite positive number, got {A!r}")
    return A


def _xi_root(lam: float) -> tuple[float, float]:
    # (xi^2, |xi|), xi^2 = 1 - 8 lam: every index's one square root, at a checked float
    d = 1.0 - 8.0 * lam
    if not lam > 0.0 or d == -math.inf:
        raise DomainError(f"rate must be positive with 8 * rate finite, got {lam!r}")
    return d, math.sqrt(abs(d))


def xi_of_lambda(lam: float) -> complex:
    """Index xi = sqrt(1 - 8 lam); real in (0, 1] for lam <= 1/8, else
    positive imaginary (principal branch)."""
    d, r = _xi_root(real_number(lam, "rate"))
    return complex(r, 0.0) if d >= 0.0 else complex(0.0, r)


def one_minus_xi(lam: float) -> float | complex:
    """1 - xi without cancellation: 8 lam / (1 + xi), xi = xi_of_lambda(lam)
    (whose DomainError it raises); a float at a real index (zero imaginary
    part), a complex number at an imaginary one.

    For large cutoffs xi creeps toward 1 and the direct subtraction
    loses the leading digits; this form keeps full relative accuracy.
    This is the one place that fixes the type of the moment closed form's
    and the normalizer series' parameters, and with it their arithmetic.
    """
    lam = real_number(lam, "rate")
    d, r = _xi_root(lam)
    return 8.0 * lam / (1.0 + (r if d >= 0.0 else complex(0.0, r)))


def lambda_bounds(A: float) -> tuple[float, float]:
    """Two-sided bounds (lo, hi) for the principal rate at cutoff A.

    Raises DomainError when A is so small (below about 7e-155) that the
    bounds overflow the double range.
    """
    A = _check_cutoff(A)
    try:
        lo = 1.0 / A + 1.0 / (A * (A + 1.0))
        hi = 1.0 / A + (1.0 + math.sqrt(4.0 * A + 1.0)) / (2.0 * A * A)
    except ZeroDivisionError:  # 2*A*A underflowed to 0
        lo = hi = math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"rate bounds are not finite at cutoff {A!r}")
    return lo, hi


@functools.lru_cache(maxsize=1)
def _macdonald_nodes(X: float, h: float) -> tuple[list, list, list]:
    # read-only nodes (t_k, w_k e^{-d_k}, w_k e^{-d_k} (2 X + d_k - 1/2)) at
    # X of distribution._rate_sum at an imaginary index, d_k = 2 X
    # sinh^2(t_k/2), kept for the last (X, h): a solve's, at X = 1/A
    exp, sinh = math.exp, math.sinh
    ts, ps, qs = [], [], []
    k, s, d = 0, 0.0, 0.0  # s = t_k/2
    w = 0.5 * h
    while d - 2.0 * s < _K_CUT:  # d turns inf, never raises, past the double range
        c = w * exp(-d)
        ts.append(2.0 * s)
        ps.append(c)
        qs.append(c * (2.0 * X + d - 0.5))
        k += 1
        w = h
        s = 0.5 * k * h
        sh = sinh(s)
        d = 2.0 * X * sh * sh
    return ts, ps, qs


def _macdonald_eta_beta(lam: float) -> tuple[float, float]:
    # (eta = 1 - xi, 0) at a real index and (0, beta = Im xi / 2) at an
    # imaginary one, from _xi_root and no complex xi: the bits of
    # one_minus_xi and xi_of_lambda
    d, r = _xi_root(lam)
    if d >= 0.0:
        return 8.0 * lam / (1.0 + r), 0.0
    beta = 0.5 * r
    if beta > _K_BETA_MAX:
        raise DomainError(
            f"beta {beta:.4g} passes the Macdonald sum's index ceiling {_K_BETA_MAX:g}"
        )
    return 0.0, beta


@functools.lru_cache(maxsize=4)
def _macdonald_index(A: float, lam: float) -> tuple[float, float, float]:
    # (step before its peak term, eta, beta) of the Macdonald sum at (A, lam),
    # kept for the last four; the step is the same for every lam up to A's
    # upper bound, so that one evaluation serves a whole solve
    eta, beta = _macdonald_eta_beta(lam)
    top = math.sqrt(max(0.0, 8.0 * max(lam, lambda_bounds(A)[1]) - 1.0)) / 2.0
    h = min(_K_STEP, _K_WAVES / min(top, _K_BETA_MAX)) if top else _K_STEP
    return h, eta, beta


def _macdonald_sum(X: float, h: float, beta: float) -> tuple[float, float]:
    # distribution.macdonald_w's pair at X, step h and index i beta, to its
    # bits, on the node table of X: the solve's endpoint W, one table and a
    # new beta each Brent step. Left to right, not by sum() (see _rate_sum)
    ts, ps, qs = _macdonald_nodes(X, h)
    cos = math.cos
    k = g = 0.0
    for t, p, q in zip(ts, ps, qs):
        c = cos(beta * t)
        k += p * c
        g += q * c
    f = math.sqrt(2.0 * X / math.pi) * math.exp(-X)
    return f * k, f * g


def _macdonald_step(h: float, X: float) -> float:
    # every Macdonald sum's step at X from the rate's step h
    # (_macdonald_index): it resolves the peak of e^{-X (cosh t - 1)} at t = 0
    return min(h, _K_PEAK / math.sqrt(X))


def _temme_k(eps: float, X: float) -> tuple[float, float]:
    # (K_{1/2 - eps}(X), K_{1/2 + eps}(X)) for eps in [0, 1/2] and X <= 1/8:
    # K_mu and K_{mu + 1} at mu = eps - 1/2 by Temme's series (Temme,
    # J. Comput. Phys. 19, 1975; Gil, Segura and Temme, SIAM 2007, 7.5)
    #   K_mu = sum c_k f_k,  K_{mu + 1} = (2/X) sum c_k (p_k - k f_k),
    # c_k = (X^2/4)^k / k!, p_k = p_{k-1} / (k - mu), q_k = q_{k-1} / (k + mu),
    # f_k = (k f_{k-1} + p_{k-1} + q_{k-1}) / (k^2 - mu^2), from
    #   p_0 = (2/X)^mu Gamma(1 + mu) / 2,  q_0 = (2/X)^-mu Gamma(1 - mu) / 2,
    #   f_0 = Gamma(1 + mu) Gamma(1 - mu) (gamma_1 cosh s + gamma_2 L sinh(s) / s),
    # L = log(2/X), s = mu L, gamma_1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu))
    # / (2 mu) and gamma_2 = (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2. Both
    # gammas are parts of one series in mu (_RGAMMA_PAIRS), so gamma_1 does
    # not cancel as mu -> 0 and mu = 0 (lam = 1/8) needs no limit.
    # e^s = (2/X)^mu is sqrt(X/2) (2/X)^eps by pow, so that L, up to 42 at
    # X = 1e-18, enters no rounded exponent
    mu = eps - 0.5
    m2 = mu * mu
    g1 = g2 = 0.0
    for odd, even in reversed(_RGAMMA_PAIRS):
        g2 = g2 * m2 + odd
        g1 = g1 * m2 + even
    g1 = -g1
    r_plus, r_minus = g2 - mu * g1, g2 + mu * g1  # 1/Gamma(1 + mu), 1/Gamma(1 - mu)
    a = math.sqrt(0.5 * X) * (2.0 / X) ** eps
    if _INV_E < a < math.e:
        # |s| < 1, where (e^s - e^-s) / (2 mu) would cancel
        big_l = math.log(2.0 / X)
        s = mu * big_l
        sh = big_l * math.sinh(s) / s if s else big_l
    else:
        sh = 0.5 * (a - 1.0 / a) / mu
    f = (g1 * 0.5 * (a + 1.0 / a) + g2 * sh) / (r_plus * r_minus)
    p, q = 0.5 * a / r_plus, 0.5 / (a * r_minus)
    d, c = 0.25 * X * X, 1.0
    k0, k1 = f, p
    k = 0
    while True:
        k += 1
        f = (k * f + p + q) / ((k - mu) * (k + mu))
        c *= d / k
        p /= k - mu
        q /= k + mu
        t = c * f
        u = c * p - k * t
        k0 += t
        k1 += u
        if abs(t) <= _TEMME_TOL * k0 and abs(u) <= _TEMME_TOL * abs(k1):
            return k0, 2.0 * k1 / X


def _endpoint_w(X: float, h: float | None, lam: float) -> tuple[float, float]:
    # (W_{0, xi/2}(2X), W_{1, xi/2}(2X)) at X = 1/A, step h (_endpoint_step;
    # Temme's pair reads none): the W of Brent's steps, C and the residual.
    # At a real index up to X = 1/8
    # Temme's pair in distribution.macdonald_w's formulas, eta = 1 - xi exact;
    # past it, off the spectrum, that module's sum, by a deferred import
    eta, beta = _macdonald_eta_beta(lam)
    if beta:
        return _macdonald_sum(X, h, beta)
    if X > _TEMME_X_MAX:
        from .distribution import _macdonald_rate_nodes, _rate_sum

        return _rate_sum(X, _macdonald_rate_nodes(h, X, eta, 0.0), eta, 0.0)
    k_minus, k_plus = _temme_k(0.5 * eta, X)
    f = math.sqrt(2.0 * X / math.pi)
    return f * k_minus, f * ((X - 0.5 * eta) * k_minus + X * k_plus)


def _endpoint_step(A: float, lam: float) -> float:
    # the Macdonald sum's trapezoid step at X = 1/A for (A, lam)
    return _macdonald_step(_macdonald_index(A, lam)[0], 1.0 / A)


def eigencondition(A: float, lam: float) -> float:
    """Boundary-condition function g(lam) = W_{1, xi/2}(2/A); vanishes at
    the spectrum. The W that Brent solves on: Temme's series at a real
    index up to X = 1/8, else distribution.macdonald_w's W_1, to its bits.
    """
    A, lam = _check_cutoff(A), real_number(lam, "rate")
    return _endpoint_w(1.0 / A, _endpoint_step(A, lam), lam)[1]


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    # classic Brent: bisection safeguarded by secant / inverse quadratic
    # steps; the caller has checked that exactly one of fa, fb is positive
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * _BRENT_REL_TOL * abs(b)
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise ConvergenceError("root refinement did not converge in 200 iterations")


def _normalizer_endpoint(A: float, w0: float) -> float:
    # C = 1 / (e^{-1/A} W_{0, xi/2}(2/A)), from w0 = the real part of that W;
    # infinite where the product is 0
    d = math.exp(-1.0 / A) * w0
    return 1.0 / d if d else math.inf


def _normalizer_series(A: float, lam: float, sigma: int) -> float:
    # confluent-series route to the same constant; exercised as a check.
    # plus Gamma(plus/2) / (2 Gamma(plus)) is taken as Gamma(1 + plus/2) /
    # Gamma(plus), and 1F1(a; plus; z) as 1 + a z / plus 2F2(1, a + 1; 2,
    # plus + 1; z), summed by specfun's one series loop, so that no Gamma
    # argument or series parameter nears a pole as plus = 1 - xi ~ 4/A
    # nears 0 at sigma = -1
    eta = one_minus_xi(lam)                # 1 - xi, cancellation-free; real at real xi
    if sigma > 0:
        plus, minus = 2.0 - eta, eta       # 1 + s*xi, 1 - s*xi
    else:
        plus, minus = eta, 2.0 - eta
    a, z = -0.5 * minus, 2.0 / A
    val = (
        gamma(1.0 + 0.5 * plus)
        * rgamma(plus)
        * cmath.exp(0.5 * minus * math.log(0.5 * A))
        * (1.0 + a * z / plus * _hyp2f2(1.0, a + 1.0, 2.0, plus + 1.0, z))
    )
    return documented_real(val, "series form of the normalizer")


def eigen_checks(A: float, lam: float, C: float) -> list[CheckRow]:
    """Invariant battery for a candidate cutoff A, rate lam and normalizer C.

    Every row's residual is the dimensionless metric the pass/fail
    threshold applies to. Every row is recomputed from the three values, so
    a stale or tampered one cannot hide. normalizer-series compares C with
    its confluent series at lam, which reads no W: a second route to C and
    to the root. It sums the series at sigma = +1 and -1 at a real index,
    and at sigma = +1 alone at an imaginary one: there sigma = -1's
    parameters are the conjugates of sigma = +1's (2 - eta is conj(eta)),
    so its series is the conjugate, with the same real part and the same
    |Im| for documented_real. At a rate lam (1 + eps), with C summed
    afresh there, the series at a real index (A above 10.24) moves from C
    by 0.54 |eps| near 10.24 and 2 |eps| from about 1e5 up. At an
    imaginary index it is complex off the root: its real part may barely
    move (1e-3 |eps| at A = 1.8), but from |eps| near 1e-10 (A = 1 to 3)
    or 1e-9 (A = 10) its imaginary part fails documented_real, and the row
    fails with no metric. At solved rates it reads at most 7.9e-13 from
    A = 0.1175 to 1e12, against its 1e-10 gate.

    C is a solve's output, which the rows judge: an infinite or nan C
    fails them, and a C that float() refuses raises DomainError.
    """
    A, lam = _check_cutoff(A), real_number(lam, "rate")
    try:
        C = float(C)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"normalizer must be a real number: {exc}") from None
    rows: list[CheckRow] = []

    lo, hi = lambda_bounds(A)
    in_bracket = lo * (1.0 - _BRACKET_SLACK) <= lam <= hi * (1.0 + _BRACKET_SLACK)
    # from about A = 1e33 on, lo and hi round to one point: 0 on it, inf off it
    where = (lam - lo) / (hi - lo) if hi > lo else (0.0 if lam == lo else math.inf)
    rows.append(CheckRow("rate-bracket", in_bracket, where))

    ok_c = math.isfinite(C) and C > 0.0
    rows.append(CheckRow("normalizer-positive", ok_c, C))

    if ok_c:
        sigmas = (1, -1) if 8.0 * lam <= 1.0 else (1,)
        rows.append(guarded_row(
            "normalizer-series",
            lambda: max(abs(_normalizer_series(A, lam, s) - C) / C for s in sigmas),
            lambda m: m <= _SERIES_C_TOL,
        ))
    else:
        rows.append(CheckRow("normalizer-series", False, math.inf))
    return rows


class EigenSystem(namedtuple("EigenSystem", "A lam C residual")):
    """Validated spectral data for one cutoff: rate lam, normalizer C, and
    the eigencondition residual left by the solver; `xi` is lam's index.

    Construction stores A and lam as floats, raising DomainError unless A
    is finite and positive and lam is a rate with an index; C and the
    residual are stored as given. It then runs the invariant battery and
    raises ConsistencyError if anything fails; validate=False skips the
    battery alone (used to inject known-bad systems when exercising the
    verification path, never in normal flow). The battery's rows are kept
    and served by `checks`; the pdf and cdf read distribution.macdonald_w
    or macdonald_w_grid at (A, lam), so no W state is kept. The
    record is read-only: setting or deleting any attribute raises
    AttributeError. The class has no __slots__, so the cached properties
    below write their values to the instance __dict__ directly.
    """

    def __new__(cls, A: float, lam: float, C: float, residual: float, validate: bool = True):
        self = tuple.__new__(cls, (_check_cutoff(A), real_number(lam, "rate"), C, residual))
        _xi_root(self.lam)
        if validate:
            failed = [row for row in self.checks if not row.passed]
            if failed:
                raise ConsistencyError(
                    "eigdata invariants violated: "
                    + ", ".join(f"{row.name} (metric {row.residual:.3e})" for row in failed)
                )
        return self

    @classmethod
    def _make(cls, iterable):
        # the namedtuple constructor from fields, which _replace calls too:
        # through __new__, so A and lam are checked, unvalidated like a copy
        return cls(*iterable, validate=False)

    def __getnewargs__(self):
        # copy and pickle rebuild through __new__: keep an unvalidated
        # system unvalidated (a validated one carries its checks along)
        return (*self, False)

    def __setattr__(self, name, value):
        raise AttributeError(f"EigenSystem is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"EigenSystem is read-only: cannot delete {name!r}")

    @functools.cached_property
    def checks(self) -> tuple[CheckRow, ...]:
        """eigen_checks rows of this system: those construction computed, or
        computed on first use when it skipped validation. A race between
        threads computes equal rows twice."""
        return tuple(eigen_checks(self.A, self.lam, self.C))

    @functools.cached_property
    def xi(self) -> complex:
        """xi_of_lambda(lam), derived on first read: no copy, pickle or
        _replace can pair one rate with another rate's index."""
        return xi_of_lambda(self.lam)

    @functools.cached_property
    def eta(self) -> float | complex:
        """one_minus_xi(lam), 1 - xi without cancellation, derived like xi."""
        return one_minus_xi(self.lam)

    @functools.cached_property
    def generator(self) -> Eigenfunction:
        """Dense march of the generator's eigenfunction at this rate, the
        W-free route to the pdf and cdf; built on first use. Raises
        ConsistencyError (and caches nothing) when its endpoint flux is not
        positive and finite. The generator module loads here, so a process
        that never marches never compiles it."""
        from .generator import Eigenfunction

        return Eigenfunction(self.A, self.lam)


def _check_sys(sys) -> EigenSystem:
    if not isinstance(sys, EigenSystem):
        raise DomainError(f"expected an EigenSystem, got {type(sys).__name__}")
    return sys


def assemble_system(A: float, lam: float, validate: bool = True) -> EigenSystem:
    """Build the full spectral record for a given rate.

    The normal path is solve_lambda, which packages its root with the W
    pair of the Brent step that found it; this entry sums that pair afresh
    (the endpoint W of eigencondition), to the same bits, so that a deliberately
    off-eigenvalue rate can be packaged (validate=False) and fed to the
    verification battery, which must then flag it. Only a validated system
    needs a positive endpoint W; otherwise C may come out negative or
    infinite, and the battery's normalizer rows fail.
    """
    A, lam = _check_cutoff(A), real_number(lam, "rate")
    return _system(A, lam, _endpoint_w(1.0 / A, _endpoint_step(A, lam), lam), validate)


def _system(A: float, lam: float, w: tuple[float, float], validate: bool) -> EigenSystem:
    # the record of (A, lam) from the pair w = (W_0, W_1) at z = 2/A:
    # C from W_0, the residual from W_1
    w0, w1 = w
    if validate and w0 <= 0.0:
        raise ConsistencyError(
            f"endpoint Whittaker value must be positive, got {w0!r} at A={A}"
        )
    C = _normalizer_endpoint(A, w0)
    return EigenSystem(A=A, lam=lam, C=C, residual=abs(w1), validate=validate)


def solve_lambda(A: float) -> EigenSystem:
    """Solve the boundary condition for the principal rate at cutoff A.

    Brent iteration on the proven bracket (lambda_bounds) stops at a
    relative width of 1e-12. Each Brent step reads W at X = 1/A from
    _endpoint_w: Temme's series at a real index, and at an imaginary one
    the Macdonald sum, whose step (the bracket top's) and node table the
    solve prepares once, and only when the bracket reaches past the rate
    1/8, so that a step forms only eta or beta. Its root
    is a rate Brent evaluated, and C and the residual read that step's W
    pair, the bits assemble_system would sum again. Raises
    ConvergenceError if W has no sign change on the bracket, which is
    proven for the principal rate only (from about A = 2.7e17 the rate is
    within a rounding or two of its lower end, and W's computed signs
    there decide; below about 0.072 it holds two roots),
    or if the iteration stalls; DomainError from A = 0.0178 down, where the
    bracket passes the Macdonald sum's index ceiling; and ConsistencyError
    if the root fails its invariants or if the closed-form certificate
    cannot prove it the smallest root (module docstring). Every root from
    A = 0.1608 to 1e15 is certified; the margin is thinnest at 0.1608,
    where the certificate would still accept 1.26 times the rate. Below
    that the certificate still proves each root on the 21 cutoffs
    10^(-1.4 + k/100) in [0.0724, 0.1148], where the series normalizer
    reads at most 1.1e-11.
    """
    A = _check_cutoff(A)
    lo, hi = lambda_bounds(A)
    X = 1.0 / A
    # every rate Brent reads lies in [lo, hi] and so takes the step of hi:
    # one index evaluation, at lo, which raises first past the ceiling; a
    # real-index bracket reads Temme's pair alone (X = 1/A < 1/8 there), no step
    h = _endpoint_step(A, lo) if 8.0 * hi > 1.0 else None
    pairs = {}

    def g(lam: float) -> float:
        pairs[lam] = w = _endpoint_w(X, h, lam)
        return w[1]

    glo, ghi = g(lo), g(hi)
    if (glo > 0.0) == (ghi > 0.0):
        raise ConvergenceError(
            f"eigencondition does not change sign on the proven bracket "
            f"[{lo!r}, {hi!r}] at A={A!r}; the bracket is proven for the "
            f"principal rate only and may hold an even number of roots"
        )
    lam = _brent(g, lo, hi, glo, ghi)
    if not _is_principal(A, lam):
        raise ConsistencyError(
            f"rate {lam!r} at A={A!r} is not certified as the principal one: "
            f"a smaller root may exist"
        )
    return _system(A, lam, pairs[lam], True)


def _is_principal(A: float, lam: float) -> bool:
    # True proves that the root lam at cutoff A is the principal rate: the
    # second rate exceeds the principal rate at x_c (module docstring), and
    # that one exceeds lam by lambda_bounds or by the quarter-wave bound on v
    e = 2.0 * lam - 0.25
    xc = A * math.exp(-math.pi / math.sqrt(e + 1.0))
    if lambda_bounds(xc)[0] > lam:
        return True
    yt = -math.log(1.0 + math.sqrt(1.0 + e))
    y = math.log(xc)
    v_min = -1.0 if y >= 0.0 else (1.0 / xc - 2.0) / xc
    return (y - yt) ** 2 * (e - v_min) < 0.25 * math.pi**2
