import cmath
import math

import pytest

from shiryaev_qsd.errors import (
    ConsistencyError,
    DenominatorPoleError,
    DomainError,
    PoleError,
)
from shiryaev_qsd.specfun import (
    WPlan,
    digamma,
    documented_real,
    gamma,
    hyp1f1,
    hyp2f2,
    pochhammer,
    rgamma,
    whittaker_m,
    whittaker_w,
    whittaker_w_dz,
)

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


def test_real_axis_gamma_poles_and_overflow():
    for n in range(0, 51):
        for d in (0.0, 9e-13, -9e-13):
            with pytest.raises(PoleError):
                gamma(-n + d)
    for f, x in ((gamma, 172.0), (gamma, -200.5), (rgamma, -200.5)):
        with pytest.raises(OverflowError):
            f(x)


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


def test_pochhammer_integer_cases():
    assert pochhammer(complex(3.0), 4) == 3.0 * 4.0 * 5.0 * 6.0
    assert pochhammer(complex(-2.0), 3) == 0.0
    assert pochhammer(complex(1.5), 0) == 1.0


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
    # 2b within 1e-3 of an integer routes through the Richardson stencil;
    # the limit itself must come out clean
    direct = whittaker_w(1.0, 0.5 + 2e-4, 2.0)
    nearby = whittaker_w(1.0, 0.5 + 2e-3, 2.0)
    assert abs(direct - nearby) < 5e-3 * abs(nearby)
    assert rel(whittaker_w(1.0, 0.5, 2.0), 2.0 * math.exp(-1.0)) < 1e-10


def test_whittaker_w_regime_seam_accuracy():
    # accuracy straddling the connection/asymptotic handoff near z = 20,
    # the weakest stretch of the kernel (both routes bottom out here)
    anchors = [
        (0.11, 19.995, 0.00089927836334820911298),
        (0.11, 20.005, 0.00089524602962649956254),
        (complex(0.0, 0.3), 19.995, 0.00089469604778835491305),
        (complex(0.0, 0.3), 20.005, 0.0008906865374920346333),
    ]
    for b, z, want in anchors:
        assert rel(whittaker_w(1.0, b, z), want) < 2e-6, (b, z)


def _w_reference(kappa, b, z):
    """(route, W) by the dispatch of whittaker_w with every Gamma product of
    the connection formula recomputed on each call from the public kernel."""
    kappa, b = complex(kappa), complex(b)
    c1, c2 = 0.5 + b - kappa, 0.5 - b - kappa

    def expansion():
        term = total = 1.0 + 0j
        prev, last = math.inf, 0.0
        for s in range(1, 80):
            term *= -(c1 + s - 1) * (c2 + s - 1) / (s * z)
            if abs(term) >= prev:
                break
            total += term
            prev = last = abs(term)
            if last < 2.220446049250313e-16 * abs(total):
                break
        val = cmath.exp(kappa * math.log(z) - 0.5 * z) * total
        return val, last / max(abs(total), 1e-300)

    def connection(b):
        return gamma(-2.0 * b) * rgamma(0.5 - b - kappa) * whittaker_m(
            kappa, b, z
        ) + gamma(2.0 * b) * rgamma(0.5 + b - kappa) * whittaker_m(kappa, -b, z)

    dist = abs(2.0 * b - round((2.0 * b).real))
    if z >= 14.0 and abs(c1 * c2) <= z / 3.0:
        val, trunc = expansion()
        if z >= 20.0:
            return "expansion-hard", val
        if trunc <= 1e-10 or dist < 1e-2:
            return "expansion-soft", val
    elif z >= 200.0:
        return "expansion-fallback", expansion()[0]
    if dist < 1e-3:
        eps = 7.5e-4 if z >= 1.0 else 2e-5
        route = "stencil" if z >= 1.0 else "stencil-small-z"
        arms = (2.0 * (b + k * eps) for k in (-2, -1, 1, 2))
        if min(abs(a - round(a.real)) for a in arms) < 1e-9:
            eps *= 0.75
            route = "stencil-arm-moved"
        s1 = 0.5 * (connection(b + eps) + connection(b - eps))
        s2 = 0.5 * (connection(b + 2 * eps) + connection(b - 2 * eps))
        return route, (4.0 * s1 - s2) / 3.0
    return "connection", connection(b)


def test_w_plan_matches_per_call_reference_on_every_route():
    cases = [
        (0.0, 0.3, 25.0),                  # expansion past the hard threshold
        (1.0, 0.45, 15.0),                 # soft: truncation measured small
        (1.0, 0.5 + 4e-3, 16.0),           # soft: 2b within 1e-2 of an integer
        (0.0, 0.3, 15.0),                  # soft expansion rejected
        (0.0, 10j, 250.0),                 # indices too large, z >= 200
        (1.0, 0.5 - 1e-4, 0.4),            # stencil, small-z offset
        (1.0, 0.5 - 2e-5, 0.4),            # stencil, an arm moved off 2b = 1
        (0.0, 2e-4, 0.3),
        (1.0, 0.5 - 1e-4, 3.0),            # stencil, wide offset
        (0.0, 2e-4, 6.0),
        (1.0, 0.3, 2.0),                   # connection
        (0.0, 0.2j, 5.0),
        (1.0, 0.35j, 0.02),
    ]
    routes = set()
    for kappa, b, z in cases:
        route, want = _w_reference(kappa, b, z)
        routes.add(route)
        assert WPlan(kappa, b)(z) == want, (kappa, b, z, route)
        assert whittaker_w(kappa, b, z) == want, (kappa, b, z, route)
    assert routes == {
        "expansion-hard",
        "expansion-soft",
        "expansion-fallback",
        "stencil",
        "stencil-small-z",
        "stencil-arm-moved",
        "connection",
    }


def test_stencil_arms_stay_off_the_poles():
    # 2b two or four times the small-z offset from an integer puts an arm of
    # the stencil on a pole of Gamma(-2b), which used to raise PoleError; the
    # moved stencil must keep the usual accuracy there
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
            got = WPlan(kappa, b)(z)
            want = complex(mpmath.whitw(kappa, b, z))
            assert got.imag == 0.0 and rel(got, want) < 1e-10, (kappa, b, z)


def test_w_at_imaginary_index_is_one_conjugate_pair():
    # at b = i beta and real kappa the connection formula's second term is the
    # conjugate of its first, so one M series gives the whole sum, exactly
    for kappa in (0.0, 1.0):
        for beta in (0.05, 0.2, 0.7, 1.5, 3.0):
            b = complex(0.0, beta)
            plan = WPlan(kappa, b)
            for z in (1e-3, 0.02, 0.5, 3.0, 13.0):
                route, two_term = _w_reference(kappa, b, z)
                assert route == "connection"
                got = plan(z)
                assert got == two_term, (kappa, beta, z)
                assert got.imag == 0.0, (kappa, beta, z)


def test_w_plan_reuse_across_routes_in_mixed_order():
    for kappa, b in ((1.0, 0.5 - 1e-4), (0.0, 0.3), (0.0, 0.2j)):
        plan = WPlan(kappa, b)
        for z in (3.0, 0.4, 25.0, 0.05, 15.0, 2.0, 0.4, 3.0, 250.0, 9.0):
            assert plan(z) == _w_reference(kappa, b, z)[1], (kappa, b, z)


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
    assert documented_real(complex(2.0, 1e-12)) == 2.0
    with pytest.raises(ConsistencyError):
        documented_real(complex(2.0, 1e-3))
