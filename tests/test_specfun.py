import math
import random

import pytest

import shiryaev_qsd.specfun as specfun
from shiryaev_qsd.errors import (
    ConsistencyError,
    ConvergenceError,
    DenominatorPoleError,
    DomainError,
    PoleError,
)
from shiryaev_qsd.specfun import (
    _hyp2f2,
    digamma,
    documented_real,
    gamma,
    hyp1f1,
    hyp2f2,
    rgamma,
    whittaker_m,
    whittaker_w,
    whittaker_w_dz,
)
from shiryaev_qsd.spectral import solve_lambda

# reference values frozen from 40-digit evaluations
GAMMA_C = complex(0.309686256743749129, -0.85678775293927049595)
PSI_QUARTER = -4.2274535333762654081
F22 = 0.83751961133885706467
F11_REAL = 2.3644538928052092846
F11_CPLX = complex(0.28831637337894328925, 0.057672079123884973589)
WHIT_M = 0.95425189958467891473
WHIT_W = 0.63998985469550709937
WHIT_W_SMALLZ = -0.070137014544984922988
WHIT_W_IMAG_B = 0.078119276157416346175
WHIT_W_HALF = 0.6693904804452894868  # 3 e^{-3/2}, elementary case
WHIT_W_DZ = -0.26214753138115296131


def rel(a, b):
    return abs(a - b) / abs(b)


def test_gamma_complex_anchor():
    assert rel(gamma(complex(0.3, 0.7)), GAMMA_C) < 1e-12


def test_gamma_real_factorials():
    for n in range(1, 15):
        assert rel(gamma(complex(n)), math.factorial(n - 1)) < 1e-13


def test_gamma_recurrence_property():
    # Gamma(z+1) = z Gamma(z) across quadrants and magnitudes
    pts = [
        complex(a, b)
        for a in (-6.3, -2.7, -0.4, 0.2, 1.9, 7.5, 23.0)
        for b in (-11.0, -0.8, 0.0, 0.3, 4.0)
    ]
    for z in pts:
        g1 = gamma(z + 1)
        g0 = gamma(z)
        assert abs(g1 - z * g0) / max(abs(g1), abs(z * g0)) < 5e-13, z


def test_gamma_reflection_near_pole():
    # relative accuracy must survive next to the poles of the reflection
    z = complex(-5.0 + 1e-9, 0.0)
    # Gamma(-5 + eps) ~ -1/(120 eps)
    assert rel(gamma(z), -1.0 / (120.0 * 1e-9)) < 1e-6


def test_rgamma_zero_at_nonpositive_integers():
    for n in range(0, 51):
        assert rgamma(complex(-n)) == 0


def _real_axis_points():
    # a uniform grid over [-52, 60] that misses the integers, plus offsets
    # from 1e-11 to 1e-1 on each side of every pole from -50 to 0
    grid = [-52.0 + 112.0 * (k + 0.37) / 5000 for k in range(5000)]
    offsets = [10.0 ** (-11.0 + 10.0 * j / 19) for j in range(20)]
    return grid + [n + sgn * e for n in range(-50, 1) for e in offsets for sgn in (1, -1)]


def test_real_axis_gamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    worst_g = worst_r = 0.0
    with mpmath.workdps(40):
        for x in _real_axis_points():
            ref = mpmath.gamma(mpmath.mpf(x))
            g, r = gamma(x), rgamma(x)
            assert g.imag == 0.0 and r.imag == 0.0, x
            worst_g = max(worst_g, float(abs(mpmath.mpf(g.real) / ref - 1)))
            worst_r = max(worst_r, float(abs(mpmath.mpf(r.real) * ref - 1)))
    assert worst_g <= 2e-15 and worst_r <= 2e-15, (worst_g, worst_r)


def test_real_gamma_repeats_the_complex_bits():
    # a float argument gives a float with the bits of the real part at the
    # complex argument, on the grid, next to every pole from -50 to 0, and
    # within the pole test's 1e-12, where gamma raises and rgamma is smooth
    near = [n + d for n in range(-50, 1) for d in (5e-13, -5e-13, 1e-13)]
    for x in _real_axis_points() + near:
        r, rc = rgamma(x), rgamma(complex(x))
        assert type(r) is float and rc.imag == 0.0 and r.hex() == rc.real.hex(), x
        try:
            g = gamma(x)
        except PoleError:
            with pytest.raises(PoleError):
                gamma(complex(x))
            continue
        gc = gamma(complex(x))
        assert type(g) is float and gc.imag == 0.0 and g.hex() == gc.real.hex(), x
    for n in range(0, 51):
        assert rgamma(float(-n)) == 0.0 and type(rgamma(float(-n))) is float
        assert rgamma(complex(-n)) == 0j


def test_real_axis_gamma_poles_and_overflow():
    for n in range(0, 51):
        for d in (0.0, 9e-13, -9e-13):
            with pytest.raises(PoleError):
                gamma(-n + d)
    for f, x in (
        (gamma, 172.0),
        (gamma, -200.5),
        (rgamma, -200.5),
        (gamma, complex(-0.5, 1e3)),  # |Gamma| is 1.6e-685 here
        (rgamma, complex(-0.5, 1e3)),
    ):
        with pytest.raises(OverflowError, match=r"gamma\(.*\)"):
            f(x)


def test_gamma_reflection_past_sine_overflow():
    # sin(pi z) of the reflection overflows from |Im z| ~ 226 up; Gamma
    # there is small but in range (about 2e-212 at -2.5 + 300i)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for z in (complex(-2.5, 300.0), complex(-2.5, -300.0)):
            ref = complex(mpmath.gamma(z))
            assert rel(gamma(z), ref) < 1e-12, z
            assert rel(rgamma(z), 1.0 / ref) < 1e-12, z


def test_rgamma_matches_reciprocal():
    for z in (complex(0.3, 0.7), complex(4.5), complex(-2.3, 1.1)):
        assert rel(rgamma(z), 1.0 / gamma(z)) < 1e-13


def test_digamma_anchor():
    assert rel(digamma(complex(0.25)), PSI_QUARTER) < 1e-13


def test_digamma_recurrence():
    for z in (complex(0.17), complex(3.3, -2.0), complex(-4.6, 0.2)):
        assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-13 * max(
            1.0, abs(digamma(z))
        )


def test_hyp1f1_real_anchor():
    assert rel(hyp1f1(0.5, 1.5, 2.0), F11_REAL) < 1e-13


def test_hyp1f1_complex_anchor():
    got = hyp1f1(complex(-0.3, 0.2), complex(1.1, -0.4), 1.7)
    assert rel(got, F11_CPLX) < 1e-13


def test_hyp2f2_anchor():
    assert rel(hyp2f2(1.0, -0.5, 1.2, 0.8, 0.3), F22) < 1e-13


def test_hyp2f2_terminating_is_finite_polynomial():
    # a2 a nonpositive integer cuts the series; sum the polynomial by hand
    a1, a2, b1, b2, z = 1.0, -3.0, 0.7, 1.9, 0.4
    acc, term = 0.0, 1.0
    for j in range(4):
        acc += term
        term *= (a1 + j) * (a2 + j) * z / ((b1 + j) * (b2 + j) * (j + 1.0))
    assert hyp2f2(a1, a2, b1, b2, z) == pytest.approx(acc, rel=1e-15)


def test_terminating_series_ignores_denominator_graze():
    # numerator terminates at j=2, denominator pole sits at j=3: fine
    val = hyp2f2(1.0, -1.0, 0.5, -2.0 + 1e-9, 0.3)
    assert math.isfinite(val.real)


def _hyp_cases(count: int) -> list[tuple]:
    # seeded (a1, a2, b1, b2, z): generic parameters; a2 = -n, a terminating
    # numerator (the moment formula's -s at integer s); and denominators
    # 1e-6 to 1e-3 from a pole, on either side
    rng = random.Random(20261020)
    cases = []
    for k in range(count):
        a1, a2 = rng.uniform(-3.0, 3.0), rng.uniform(-9.0, 9.0)
        b1, b2 = rng.uniform(-8.0, 9.0), rng.uniform(0.1, 9.0)
        z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 1.3)
        if k % 3 == 1:
            a2 = -float(rng.randint(0, 12))
        if k % 4 == 2:
            d = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.8, -3.0)
            b1 = -float(rng.randint(0, 8)) + d
        cases.append((a1, a2, b1, b2, z))
    return cases


def test_hyp_float_arguments_repeat_the_complex_bits():
    # all-float arguments give a float with the bits of the real part of
    # the all-complex result, on 400 cases for each: 101 with a denominator
    # near a pole and 133 terminating
    for a1, a2, b1, b2, z in _hyp_cases(400):
        for f, args in ((hyp2f2, (a1, a2, b1, b2, z)), (hyp1f1, (a2, b1, z))):
            got, want = f(*args), f(*map(complex, args))
            assert type(got) is float and want.imag == 0.0, (f, args)
            assert got.hex() == want.real.hex(), (f, args)


def test_hyp_type_follows_the_arguments():
    assert type(hyp2f2(1, -2, 3, 4, 0.5)) is float
    assert type(hyp2f2(1.0, -0.5, complex(1.2, 0.1), 0.8, 0.3)) is complex
    assert type(hyp1f1(0.5, 1.5, 2.0)) is float
    assert type(hyp1f1(0.5, 1.5, complex(2.0))) is complex


def _pfq(num: tuple, den: tuple, z, pole_tol: float = 1e-6):
    # a second implementation of _hyp2f2's series, stopping rule, term cap
    # and pole rule: the pFq recurrence term_{n+1} = term_n prod(a + n) /
    # prod(b + n) z / (n + 1) over parameter tuples, each product started
    # from 1, in the arguments' type, with a test of each product for 0
    kind = complex if any(isinstance(x, complex) for x in (*num, *den, z)) else float
    num, den, z, one = tuple(map(kind, num)), tuple(map(kind, den)), kind(z), kind(1.0)
    if not any(a.imag == 0.0 and a.real <= 0.0 and a.real == round(a.real) for a in num):
        for b in den:
            if round(b.real) <= 0 and abs(b - round(b.real)) < pole_tol:
                raise DenominatorPoleError(
                    f"denominator parameter {b} within {pole_tol} of nonpositive integer")
    term = total = one
    small = 0
    for n in range(specfun._SERIES_MAX_TERMS):
        fac = dfac = one
        for a in num:
            fac *= a + n
        if fac == 0:
            return total
        for b in den:
            dfac *= b + n
        if dfac == 0:
            raise DenominatorPoleError(
                f"denominator parameter hits a nonpositive integer at term {n}")
        term *= fac / dfac * z / (n + 1)
        total += term
        small = small + 1 if abs(term) < 1e-15 * abs(total) else 0
        if small == 3:
            return total
    raise ConvergenceError(f"no convergence in {specfun._SERIES_MAX_TERMS} terms")


def _outcome(f, *args):
    # f's value as (type, bits), or its exception as (type, message)
    try:
        v = f(*args)
    except DenominatorPoleError as exc:
        return type(exc), str(exc)
    return type(v), v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("A", (0.5, 3.0, 10.2406, 20.0, 1e5, 1e9))
def test_one_2f2_loop_is_the_pfq_series(A, pinned, monkeypatch):
    # the package's one series loop, at a1 = 1 as the moment closed form and
    # the normalizer series call it, returns the pFq recurrence's bits and
    # type, or raises its error, and so does hyp2f2(1.0, ...), on both
    # callers' families: the closed form's (-s, 2 - s - eta/2, 1 - s +
    # eta/2, 2/A) at 300 seeded orders in [-5, 8] and the terminating 0..8,
    # and the series' tail (1 - minus/2, 2, plus + 1, 2/A) at both signs; in
    # float at a real index (10.2406 up) and complex at an imaginary one. At
    # a real index 20 orders put 1 - s + eta/2 within 1e-6 of -k, where both
    # raise DenominatorPoleError. Off the families: a terminating series
    # through an exact denominator pole raises at the same term, and one
    # past a grazing pole returns. With the term cap at 5 both raise
    # ConvergenceError (at z = 3, so that the series is longer than that at
    # every A), also where a = -5 and -7 would end the series at or past the
    # cap, and both return where a = -4 ends it first
    es = pinned(A)
    eta, z = es.eta, 2.0 / A
    h = 0.5 * eta
    rng = random.Random(20261022)
    orders = [rng.uniform(-5.0, 8.0) for _ in range(300)] + [float(n) for n in range(9)]
    if isinstance(eta, float):
        orders += [1.0 + rng.randint(0, 6) + h + rng.uniform(-9.9e-7, 9.9e-7) for _ in range(20)]
    cases = [(-s, (2.0 - s) - h, (1.0 - s) + h, z) for s in orders]
    cases += [(1.0 - 0.5 * minus, 2.0, plus + 1.0, z)
              for plus, minus in ((2.0 - eta, eta), (eta, 2.0 - eta))]
    kinds = []
    for a, b1, b2, x in cases + [(-5.0, -2.0, 1.5, 0.3), (-1.0, 0.5, -2.0 + 1e-9, 0.3)]:
        got = _outcome(_hyp2f2, 1.0, a, b1, b2, x)
        assert got == _outcome(_pfq, (1.0, a), (b1, b2), x), (A, a, b1, b2, x)
        assert got == _outcome(hyp2f2, 1.0, a, b1, b2, x), (A, a, b1, b2, x)
        kinds.append(got[0])
    poles = 20 if isinstance(eta, float) else 0
    assert kinds[:-2].count(DenominatorPoleError) == poles, A
    assert kinds[:-2].count(type(eta)) == len(cases) - poles, A
    assert kinds[-2:] == [DenominatorPoleError, float], A
    monkeypatch.setattr(specfun, "_SERIES_MAX_TERMS", 5)
    for a, b1, b2 in (cases[0][:3], (-5.0, 0.5, 1.5), (-7.0, 0.5, 1.5)):
        for f, args in ((_hyp2f2, (1.0, a, b1, b2, 3.0)), (_pfq, ((1.0, a), (b1, b2), 3.0))):
            with pytest.raises(ConvergenceError, match="in 5 terms"):
                f(*args)
    want = _outcome(_pfq, (1.0, -4.0), (0.5, 1.5), 3.0)
    assert _outcome(_hyp2f2, 1.0, -4.0, 0.5, 1.5, 3.0) == want


def test_hyp2f2_is_the_pfq_series():
    # hyp2f2 at any parameters is the pFq recurrence to its bits, type and
    # pole errors, on 400 cases: 101 with a denominator near a pole and 133
    # terminating, each in float, in complex and mixed
    for a1, a2, b1, b2, z in _hyp_cases(400):
        for args in ((a1, a2, b1, b2, z), (complex(a1, 0.2), a2, complex(b1, -0.1), b2, z),
                     tuple(map(complex, (a1, a2, b1, b2, z)))):
            want = _outcome(_pfq, args[:2], args[2:4], args[4])
            assert _outcome(hyp2f2, *args) == want, args


def test_hyp1f1_is_the_2f2_loop_to_rounding():
    # hyp1f1 sums 2F2(a, 1; b, 1; z), whose update carries (1 + n) / (1 + n)
    # and so may differ from the 1F1 recurrence in the last bits: on 400
    # cases the gap reads at most 6.8e-15 of the largest term, gated at 10x
    worst = 0.0
    for _, a, b, _, z in _hyp_cases(400):
        got, want = hyp1f1(a, b, z), _pfq((a,), (b,), z, 1e-12)
        t = big = 1.0
        for n in range(200):
            t *= (a + n) / (b + n) * z / (n + 1)
            big = max(big, abs(t))
        worst = max(worst, abs(got - want) / big)
    assert worst <= 7e-14, worst


def test_nonterminating_denominator_pole_raises():
    with pytest.raises(DenominatorPoleError):
        hyp1f1(0.3, -2.0, 0.5)


def test_whittaker_m_anchor():
    assert rel(whittaker_m(0.3, 0.4, 1.1), WHIT_M) < 1e-13


def test_whittaker_w_anchor():
    assert rel(whittaker_w(0.3, 0.4, 1.1), WHIT_W) < 1e-9


def test_whittaker_w_small_z():
    assert rel(whittaker_w(1.0, 0.35, 0.02), WHIT_W_SMALLZ) < 1e-8


def test_whittaker_w_imaginary_second_index():
    got = whittaker_w(0.0, complex(0.0, 0.2), 5.0)
    assert abs(got.imag) < 1e-10
    assert rel(got.real, WHIT_W_IMAG_B) < 1e-9


def test_whittaker_w_elementary_case():
    # kappa = 1, b = 1/2 collapses to z e^{-z/2}
    assert rel(whittaker_w(1.0, 0.5, 3.0), WHIT_W_HALF) < 1e-10
    assert rel(whittaker_w(1.0, 0.5, 3.0), 3.0 * math.exp(-1.5)) < 1e-10


def test_whittaker_w_even_in_b():
    for b in (0.37, 1.21):
        for z in (0.6, 2.5, 9.0):
            assert whittaker_w(0.8, b, z) == whittaker_w(0.8, -b, z)


def test_whittaker_w_near_integer_2b_stencil():
    # 2b near an integer, where W's connection formula has a 0/0 pole
    # pair; the limit itself must come out clean
    direct = whittaker_w(1.0, 0.5 + 2e-4, 2.0)
    nearby = whittaker_w(1.0, 0.5 + 2e-3, 2.0)
    assert abs(direct - nearby) < 5e-3 * abs(nearby)
    assert rel(whittaker_w(1.0, 0.5, 2.0), 2.0 * math.exp(-1.0)) < 1e-10


def test_whittaker_w_regime_seam_accuracy():
    # accuracy straddling z = 20, where an older kernel handed over from
    # the connection formula to the large-z expansion
    anchors = [
        (0.11, 19.995, 0.00089927836334820911298),
        (0.11, 20.005, 0.00089524602962649956254),
        (complex(0.0, 0.3), 19.995, 0.00089469604778835491305),
        (complex(0.0, 0.3), 20.005, 0.0008906865374920346333),
    ]
    for b, z, want in anchors:
        assert rel(whittaker_w(1.0, b, z), want) < 2e-6, (b, z)


def test_stencil_arms_stay_off_the_poles():
    # 2b at 2 or 4 times 2e-5 from an integer: an older kernel's Richardson
    # stencil in b put an arm on a pole of Gamma(-2b) here and raised
    # PoleError
    mpmath = pytest.importorskip("mpmath")
    cases = [
        (1.0, 0.5 - 2e-5, 0.5),   # arm 2(b + eps) at 1
        (1.0, 0.5 - 4e-5, 0.5),   # arm 2(b + 2 eps) at 1
        (1.0, 0.5 - 2e-5, 0.02),
        (0.0, 0.5 - 2e-5, 0.7),
        (0.0, 2e-5, 0.3),         # arm 2(b - eps) at 0
        (0.0, 4e-5, 0.3),         # arm 2(b - 2 eps) at 0
    ]
    with mpmath.workdps(40):
        for kappa, b, z in cases:
            got = whittaker_w(kappa, b, z)
            want = complex(mpmath.whitw(kappa, b, z))
            assert got.imag == 0.0 and rel(got, want) < 1e-10, (kappa, b, z)


# cutoffs whose solved index b = xi/2 the W kernel is checked at: imaginary
# b, b through 0 near A = 10.248, and 2b within 1e-4 of 1 at large A
W_CHECK_CUTOFFS = (0.7, 1.0, 3.0, 10.248157433479623, 20.0, 1e3, 1e4, 50145.466016517465, 1e5)


def test_w_matches_mpmath_at_solved_indices():
    mpmath = pytest.importorskip("mpmath")
    worst0 = worst1 = worst_k = 0.0
    with mpmath.workdps(40):
        for A in W_CHECK_CUTOFFS:
            b = 0.5 * solve_lambda(A).xi
            for j in range(13):
                z = 2.0 / A * (350.0 * A) ** (j / 12)  # log-spaced over [2/A, 700]
                w0 = mpmath.whitw(0, b, z)
                w1 = mpmath.whitw(1, b, z)
                scale1 = max(abs(w1), abs(z * w0))  # W1 = z W0 - (1/4 - b^2) W-1
                got0, got1 = whittaker_w(0.0, b, z), whittaker_w(1.0, b, z)
                worst0 = max(worst0, float(abs(got0 - w0) / abs(w0)))
                worst1 = max(worst1, float(abs(got1 - w1) / scale1))
        # the other indices the suite evaluates W at
        others = [(0.3, 0.4, 1.1)]
        others += [(0.8, b, z) for b in (0.37, 1.21) for z in (0.6, 2.5, 9.0)]
        for A in (20.0, 100.0):
            xi = solve_lambda(A).xi.real
            others += [(0.5, 0.5 * (xi - sigma), 2.0 / A) for sigma in (1, -1)]
        for kappa, b, z in others:
            want = mpmath.whitw(kappa, b, z)
            got = whittaker_w(kappa, b, z)
            worst_k = max(worst_k, float(abs(got - want) / abs(want)))
    assert max(worst0, worst1, worst_k) < 1e-13, (worst0, worst1, worst_k)


def test_w_calls_in_mixed_order():
    # whittaker_w and whittaker_w_dz give the same bits whatever z, entry
    # and index they served before
    zs = (3.0, 0.4, 25.0, 0.05, 15.0, 2.0, 0.4, 3.0, 250.0, 9.0)
    for kappa, b in ((1.0, 0.5 - 1e-4), (0.0, 0.3), (0.0, 0.2j), (1.0, 2.7j), (0.8, 1.21)):
        first = {}
        for z in zs:
            w = first.setdefault(z, (whittaker_w(kappa, b, z), whittaker_w_dz(kappa, b, z)))
            assert whittaker_w_dz(kappa, b, z) == w[1], (kappa, b, z)
            assert whittaker_w(kappa, b, z) == w[0], (kappa, b, z)
            whittaker_w(1.0 - kappa, 0.25, z)  # another index at the same z


def _bits(w: complex) -> tuple[str, str]:
    return w.real.hex(), w.imag.hex()


def test_w_dz_is_the_recurrence_over_two_single_passes_bit_for_bit():
    # dz = ((z/2 - kappa) W_kappa - W_{kappa+1}) / z over two whittaker_w
    # sums, at kappa = 0 and kappa = 1: at real b in (0, 1/2], at b = 0
    # (rate 1/8), and at imaginary b in every band of the rule's step up to
    # the index of A = 0.2 (|Im b| = 7.34)
    rng = random.Random(20250613)
    bs = [rng.uniform(1e-3, 0.5) for _ in range(4)] + [0.5, 0.0]
    edges = (0.0, 1.26, 2.52, 5.04, 7.34)
    bs += [1j * rng.uniform(lo, hi) for lo, hi in zip(edges, edges[1:]) for _ in range(2)]
    bs += [1j * (hi + 1e-9) for hi in edges[1:-1]]
    for b in bs:
        for z in [math.exp(rng.uniform(math.log(2e-3), math.log(1400.0))) for _ in range(6)]:
            for kappa in (0.0, 1.0):
                w0, w1 = whittaker_w(kappa, b, z), whittaker_w(kappa + 1.0, b, z)
                want = ((0.5 * z - kappa) * w0 - w1) / z
                assert _bits(whittaker_w_dz(kappa, b, z)) == _bits(want), (kappa, b, z)


# (kappa, b, z, Re, Im) of whittaker_w_dz in float.hex, pinned from the
# kernel that summed W_kappa and W_{kappa+1} in one pass over the nodes: the
# two sums take that pass's route and climb, so the bits stay
W_DZ_BITS = (
    (0, 0.35, 0.1, "0x1.b84248e97d826p-2", "0x0.0p+0"),
    (0, 0.5, 0.1, "-0x1.e7078b0a726a7p-2", "0x0.0p+0"),
    (0, 0.0, 0.1, "0x1.00849ce6a7e08p+0", "0x0.0p+0"),
    (0, 2.5j, 0.1, "0x1.f3cb02dc074cdp-4", "0x0.0p+0"),
    (0, 20j, 0.1, "0x1.74b8342a5fa55p-29", "0x0.0p+0"),
    (0, (0.25+3j), 0.1, "-0x1.fc18a4efa7c93p-4", "-0x1.bbf35cf00ba67p-7"),
    (1, 0.35, 0.1, "0x1.bcb8c4f12efbbp-1", "-0x0.0p+0"),
    (1, 0.5, 0.1, "0x1.cead90e3864b7p-1", "0x0.0p+0"),
    (1, 0.0, 0.1, "0x1.66eee013e2e8ap-1", "-0x0.0p+0"),
    (1, 2.5j, 0.1, "-0x1.e6cc8bba77418p-3", "0x0.0p+0"),
    (1, 20j, 0.1, "-0x1.76211f4ecc763p-21", "0x0.0p+0"),
    (1, (0.25+3j), 0.1, "0x1.f5a565bb0d5e9p-6", "-0x1.43d5f4100f5abp-2"),
    (0, 0.35, 0.8, "-0x1.0c70670809682p-2", "0x0.0p+0"),
    (0, 0.5, 0.8, "-0x1.57343067270eep-2", "0x0.0p+0"),
    (0, 0.0, 0.8, "-0x1.98d6d11c868c8p-3", "0x0.0p+0"),
    (0, 2.5j, 0.8, "-0x1.d449a868d97d5p-9", "0x0.0p+0"),
    (0, 20j, 0.8, "-0x1.211a5238d2c1dp-34", "0x0.0p+0"),
    (0, (0.25+3j), 0.8, "-0x1.e0f1d5c457238p-6", "-0x1.a72f7c1016a82p-8"),
    (1, 0.35, 0.8, "0x1.c195335e58f42p-2", "0x0.0p+0"),
    (1, 0.5, 0.8, "0x1.9bd83a156211ep-2", "0x0.0p+0"),
    (1, 0.0, 0.8, "0x1.db66f37ca02fcp-2", "0x0.0p+0"),
    (1, 2.5j, 0.8, "-0x1.0ab318062e88ap-3", "0x0.0p+0"),
    (1, 20j, 0.8, "0x1.6d91f046f2159p-25", "0x0.0p+0"),
    (1, (0.25+3j), 0.8, "-0x1.1ac4d00e6d481p-8", "-0x1.d605dec8772bdp-5"),
)


@pytest.mark.parametrize("kappa, b, z, re, im", W_DZ_BITS)
def test_whittaker_w_dz_keeps_its_bits(kappa, b, z, re, im):
    # at kappa 0 and 1, real, zero and imaginary b with Re b <= 1/2
    assert _bits(whittaker_w_dz(kappa, b, z)) == (re, im)


def test_whittaker_w_dz_anchor():
    assert rel(whittaker_w_dz(0.0, 0.35, 0.8), WHIT_W_DZ) < 1e-8


def test_whittaker_w_dz_finite_difference():
    b, k, z = 0.27, 1.0, 1.7
    h = 1e-6
    fd = (whittaker_w(k, b, z + h) - whittaker_w(k, b, z - h)) / (2 * h)
    assert rel(whittaker_w_dz(k, b, z), fd) < 1e-8


def test_whittaker_w_rejects_bad_z():
    with pytest.raises(DomainError):
        whittaker_w(1.0, 0.3, 0.0)
    with pytest.raises(DomainError):
        whittaker_w(1.0, 0.3, -2.0)


def test_documented_real_accepts_and_rejects():
    assert documented_real(complex(2.0, 1e-12), "z") == 2.0
    assert documented_real(2.0, "z") == 2.0
    with pytest.raises(ConsistencyError):
        documented_real(complex(2.0, 1e-3), "z")


def test_documented_real_names_the_value_only_on_failure():
    def label():
        raise AssertionError("label built for a value that passed")

    assert documented_real(complex(2.0, 1e-12), label) == 2.0
    with pytest.raises(ConsistencyError, match=r"^the sum should be real"):
        documented_real(complex(2.0, 1e-3), lambda: "the sum")
    with pytest.raises(ConsistencyError, match=r"^the sum should be real"):
        documented_real(complex(2.0, 1e-3), "the sum")
