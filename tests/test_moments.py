import importlib.util
import math
from pathlib import Path

import pytest

import shiryaev_qsd.moments as moments
from shiryaev_qsd.errors import ConsistencyError, DomainError, RegimeError
from shiryaev_qsd.moments import (
    limit_moment,
    moment_frac,
    moment_integer,
    moment_log,
    moment_recurrence_residual,
    moment_singular_base,
    moment_singular_shifted,
    moment_special_value,
)
from shiryaev_qsd.quadrature import quad_moment
from shiryaev_qsd.spectral import EigenSystem

# frozen from 40-digit quadrature of the solved-density integrand
FRAC_20 = {-0.7: 0.681515360166309512937, 0.3: 1.29761742395592314376, 3.7: 706.829627314892243863}
FRAC_1 = {-0.7: 1.55361017826736129488, 0.3: 0.839886209368132177692, 3.7: 0.185760033874500877722}
INT_20 = {1: 3.0094217271136325, 2: 16.549571929403787, 3: 137.69868628058134,
          5: 17996.375966178672, 8: 52701518.940209989}
SINGULAR_20 = {(1, 0): 2.4916135295975166, (-1, 0): 1.1172912859878478,
               (1, 1): 12.744090995797648, (-1, 1): 3.6767746891852283,
               (1, 2): 101.38586381961855, (-1, 2): 21.655730624395374}
SPECIAL_20 = {1: 0.90602360887622891, -1: 0.64960943672142163}
LOG_MOMENT = {20.0: 0.76869754340116908, 100.0: 1.0685916998164794}


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("s,want", sorted(FRAC_20.items()))
def test_fractional_anchors_A20(s, want, solved):
    assert rel(moment_frac(s, solved(20.0)).value, want) < 1e-12


@pytest.mark.parametrize("s,want", sorted(FRAC_1.items()))
def test_fractional_anchors_A1(s, want, solved):
    assert rel(moment_frac(s, solved(1.0)).value, want) < 1e-12


@pytest.mark.parametrize("n,want", sorted(INT_20.items()))
def test_integer_recurrence_anchors(n, want, solved):
    assert rel(moment_integer(n, solved(20.0)).value, want) < 1e-13


def test_zeroth_moment_exact(solved):
    assert moment_integer(0, solved(20.0)).value == 1.0
    assert rel(moment_frac(0.0, solved(20.0)).value, 1.0) < 1e-13


def test_first_moment_identity(solved):
    for A in (5.0, 20.0, 1000.0):
        es = solved(A)
        assert rel(moment_integer(1, es).value, A - 1.0 / es.lam) < 1e-12


@pytest.mark.parametrize("key,want", sorted(SINGULAR_20.items()))
def test_singular_ladder_anchors(key, want, solved):
    sg, k = key
    es = solved(20.0)
    got = moment_singular_shifted(es, sg, k) if k else moment_singular_base(es, sg)
    assert rel(got.value, want) < 1e-12
    assert got.branch == "singular"


@pytest.mark.parametrize("sg,want", sorted(SPECIAL_20.items()))
def test_special_value_anchors(sg, want, solved):
    got = moment_special_value(solved(20.0), sg)
    assert rel(got.value, want) < 1e-13
    assert got.branch == "special"


def test_log_moment_anchors(solved):
    for A, want in LOG_MOMENT.items():
        assert rel(moment_log(solved(A)), want) < 1e-11


# largest relative gap between moment_frac and the singular branch over
# sigma = +-1 and k = 0, 1, 2, measured with the three-regime ladder
# dispatch that the one ladder rule replaced (it gives the same worst
# gaps). 10.26 and 667 sit just outside the crowded regimes (xi = 0.047,
# 1 - xi = 6.1e-3), 700 and 1e4 inside the one near xi = 1
SINGULAR_GAP = {10.26: 4.8e-11, 20.0: 1.4e-12, 300.0: 2.9e-12, 667.0: 2.7e-12,
                700.0: 7.5e-10, 1e4: 7.6e-11}


@pytest.mark.parametrize("A", sorted(SINGULAR_GAP))
def test_interpolation_band_agrees_with_singular_branch(A, solved):
    # the generic dispatcher must reproduce the dedicated digamma series
    # at the ladder orders it interpolates across
    es = solved(A)
    for sg in (1, -1):
        for k in (0, 1, 2):
            s = 0.5 + 0.5 * sg * es.xi.real + k
            via_frac = moment_frac(s, es)
            direct = (
                moment_singular_shifted(es, sg, k) if k else moment_singular_base(es, sg)
            )
            assert via_frac.branch == "interpolated", (A, sg, k)
            assert rel(via_frac.value, direct.value) < 2.0 * SINGULAR_GAP[A], (A, sg, k)


@pytest.fixture(scope="module")
def oracle():
    """bench/oracle.py's Oracle: mpmath solves its own rate, index and
    normalizer and never reads the package's. Loaded into its own module
    object and raised to 60 digits (90 for moments): at its default 40/60
    the closed form at an exact bottom ladder order reads the oracle's own
    error, 1e-11 at A = 12 and 2.3e-10 at A = 20."""
    pytest.importorskip("mpmath")
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    mod.DPS, mod._MOMENT_DPS = 60, 90
    return mod.Oracle()


def oracle_rel(got, A, oracle):
    # the oracle's closed form at the returned order: that float lies about
    # 1e-16 off the oracle's own ladder, so the two pole pieces are finite
    # and cancel at 90 digits. The package's float system would leave them
    # an O(1) error apart, so it is never fed to the closed form.
    mpmath = pytest.importorskip("mpmath")
    ref = oracle.value("moment", A, got.s)
    return float(abs(mpmath.mpf(got.value) - ref) / abs(ref))


# twice the worst error over sigma = +-1 of the per-term digamma series
# that the stepped bracket replaced, and never below 1e-14, as (bottom
# order, special value); from 700 up the bottom order at sigma = +1 reads
# the rate's error, amplified
LADDER_BOUND = {12.0: (1e-14, 1e-14), 20.0: (1e-14, 1e-14), 700.0: (5e-13, 1e-14),
                1e4: (8.4e-11, 2.4e-13)}


@pytest.mark.parametrize("A", sorted(LADDER_BOUND))
def test_bottom_ladder_orders_match_oracle(A, solved, oracle):
    es = solved(A)
    base_bound, special_bound = LADDER_BOUND[A]
    for sg in (1, -1):
        err = oracle_rel(moment_singular_base(es, sg), A, oracle)
        assert err < base_bound, (A, sg, err)
        err = oracle_rel(moment_special_value(es, sg), A, oracle)
        assert err < special_bound, (A, sg, err)


# twice the worst error over sigma = +-1 and k in (1, 2, 4, 8, 16) of the
# closed-form ladder sum that the climb replaced, and never below 1e-14;
# from 700 up the error is the rate's, amplified about A / M(1) times
SHIFTED_BOUND = {12.0: 1e-14, 20.0: 1e-14, 700.0: 5.2e-13, 1e4: 8.4e-11}


@pytest.mark.parametrize("A", sorted(SHIFTED_BOUND))
def test_shifted_ladder_orders_match_oracle(A, solved, oracle):
    es = solved(A)
    for sg in (1, -1):
        for k in (1, 2, 4, 8, 16):
            err = oracle_rel(moment_singular_shifted(es, sg, k), A, oracle)
            assert err < SHIFTED_BOUND[A], (A, sg, k, err)


def test_branch_dispatch(solved):
    es = solved(20.0)
    assert moment_frac(0.3, es).branch == "series"
    assert moment_frac(3.0 + 1e-13, es).branch == "series"  # integer snap
    assert moment_frac(0.5 + 0.5 * es.xi.real, es).branch == "interpolated"
    big = solved(10000.0)
    assert moment_frac(1.0001, big).branch == "interpolated"  # crowded cluster
    assert moment_frac(1.0, big).branch == "series"  # snap wins over window
    # xi about 2e-3 (real) and 3e-3 i: each pair 1/2 + k -+ xi/2 shares one
    # window around 1/2 + k; at the complex pair, every order is more than
    # the 1e-3 band away from both members
    for A in (10.2405, 10.24039):
        es = solved(A)
        assert abs(es.xi) < 6e-3 and (es.xi.imag == 0.0) == (A == 10.2405)
        for k in (0, 1, 2):
            for d in (-4e-4, 4e-4):
                assert moment_frac(0.5 + k + d, es).branch == "interpolated", (A, k, d)


# (moment_log, then (order, branch, moment_frac value) per order) as the
# all-complex closed form gave them. A = 3 has an imaginary index; from
# 10.2406 up it is real. The orders take each branch: the plain series, an
# in-band window (0.5004 lies outside any at A = 3), a crowded window
# (10.2406 around 1/2 + k, 700 and 1e5 around integers), the integer snap
# and negative orders
MOMENT_BITS = {
    3.0: ("0x1.8d5982c68cb80p-5", (
        (0.3, "series", "0x1.0672b94159036p+0"),
        (0.5004, "series", "0x1.0ddaf0187513fp+0"),
        (2.7, "series", "0x1.2b48bdab25a1ap+1"),
        (3.0 + 1e-13, "series", "0x1.6092928674d6fp+1"),
        (-2.2, "series", "0x1.a01189f261755p+0"),
        (-5.0, "series", "0x1.dd288f491711dp+3"))),
    10.2406: ("0x1.228e00e97f51ap-1", (
        (0.3, "series", "0x1.363e1f4b6d168p+0"),
        (1.5004, "interpolated", "0x1.fafc713f55a7ap+1"),
        (3.0 + 1e-13, "series", "0x1.1cc14bb1e2217p+5"),
        (-2.2, "series", "0x1.b393448fa9038p-1"))),
    12.0: ("0x1.3d6d7db18c83cp-1", (
        (0.3, "series", "0x1.3bbcf0af25500p+0"),
        (1.7039, "interpolated", "0x1.7d332a9d69418p+2"),
        (2.0 - 1e-13, "series", "0x1.276feb0d188c0p+3"),
        (-1.3, "series", "0x1.5dc2d0468e796p-1"),
        (-5.0, "series", "0x1.83041a4346a79p+2"))),
    20.0: ("0x1.8992b972d8df4p-1", (
        (0.3, "series", "0x1.4c30a7ce9c47ap+0"),
        (0.8639, "interpolated", "0x1.3f019b6f42c52p+1"),
        (2.1361, "interpolated", "0x1.5a5cd820bf0efp+4"),
        (3.0 + 1e-13, "series", "0x1.1365ba354a856p+7"),
        (-2.2, "series", "0x1.694683ef39778p-1"))),
    700.0: ("0x1.36b6ab9ae9068p+0", (
        (0.5, "series", "0x1.2116ca25ffe27p+1"),
        (0.003, "interpolated", "0x1.00ef7b4d01e13p+0"),
        (1.0005, "interpolated", "0x1.18aa1f01c2bdbp+3"),
        (2.9991, "interpolated", "0x1.3fe56b20ed320p+17"),
        (4.0 + 1e-13, "series", "0x1.b8ba6b3ce4f27p+25"),
        (-3.5, "series", "0x1.0bcfdb9d7c04ep+0"))),
    1e5: ("0x1.44e4108c437f8p+0", (
        (0.5, "series", "0x1.3db1c6b87ab17p+1"),
        (1e-4, "interpolated", "0x1.0008517a29f0ap+0"),
        (1.0001, "interpolated", "0x1.28025160043b3p+4"),
        (3.14159, "series", "0x1.c448f1abd940ap+33"),
        (8.0, "series", "0x1.603bd43305682p+111"),
        (-5.0, "series", "0x1.e01b258e19a1cp+1"))),
}


@pytest.mark.parametrize("A", sorted(MOMENT_BITS))
def test_moment_bits_are_pinned(A, pinned):
    es = pinned(A)
    log_bits, orders = MOMENT_BITS[A]
    assert moment_log(es).hex() == log_bits
    for s, branch, bits in orders:
        m = moment_frac(s, es)
        assert (m.branch, m.value.hex()) == (branch, bits), (A, s)


@pytest.mark.parametrize("A", (3.0, 20.0))
def test_imaginary_residue_names_the_order(A, solved, monkeypatch):
    # a closed form that turns complex off the real axis is refused, with
    # the order in the message, at a real index as at an imaginary one
    series = moments.hyp2f2

    def tilted(*args):
        return series(*args) * complex(1.0, 1e-6)

    monkeypatch.setattr(moments, "hyp2f2", tilted)
    with pytest.raises(ConsistencyError, match=r"^moment of order 0\.3 should be real"):
        moment_frac(0.3, solved(A))


def test_integer_snap_matches_plain_integer(solved):
    es = solved(20.0)
    assert moment_frac(3.0 + 1e-13, es).value == moment_frac(3.0, es).value


def test_integer_consistency_both_routes(solved):
    for A in (1.0, 20.0, 10000.0):
        es = solved(A)
        for n in range(0, 9):
            a = moment_frac(float(n), es).value
            b = moment_integer(n, es).value
            assert abs(a - b) / max(1.0, abs(b)) < 1e-10, (A, n)


def test_recurrence_residuals_small(solved):
    for A in (1.0, 20.0, 100.0):
        es = solved(A)
        for s in (0.5, 1.5, math.pi, -2.2):
            assert moment_recurrence_residual(s, es) < 1e-12, (A, s)


def test_negative_orders_finite_and_positive(solved):
    # values grow fast marching down (the 2^s Gamma(1-s) tail term takes
    # over), so no growth bound; pin the deepest order to quadrature
    es = solved(20.0)
    for s in (-0.5, -1.0, -2.0, -5.0, -10.0):
        v = moment_frac(s, es).value
        assert math.isfinite(v) and v > 0.0
    deep = moment_frac(-10.0, es).value
    ref = quad_moment(-10.0, es)
    assert abs(deep - ref) <= 1e-8 * max(1.0, abs(ref))


def test_order_domain_errors(solved):
    es = solved(20.0)
    with pytest.raises(DomainError):
        moment_frac(51.0, es)
    with pytest.raises(DomainError):
        moment_frac(float("nan"), es)
    with pytest.raises(DomainError):
        moment_integer(-1, es)
    with pytest.raises(DomainError):
        moment_integer(2.5, es)


@pytest.mark.parametrize(
    "bad", (math.nan, math.inf, -math.inf, -1, 2.5, pytest.param(2**1100, id="2**1100")))
def test_integer_arguments_reject_non_integers(bad, solved):
    # nan, the infinities and an integer past the double range included:
    # int() would raise ValueError or OverflowError before the domain check,
    # and 2**1100 would overflow the shifted order s + k
    es = solved(20.0)
    with pytest.raises(DomainError, match="nonnegative integer"):
        moment_integer(bad, es)
    with pytest.raises(DomainError, match="nonnegative integer"):
        moment_singular_shifted(es, 1, bad)


def test_order_overflow_guard():
    # |s log A| past exp range must be refused, not overflowed
    fake = EigenSystem(
        A=1e7, lam=4.1e-7, C=1.0000017, residual=0.0,
        validate=False,
    )
    with pytest.raises(DomainError):
        moment_frac(44.0, fake)


def test_singular_branches_need_real_index(solved):
    es = solved(1.0)  # imaginary index
    with pytest.raises(RegimeError):
        moment_singular_base(es, 1)
    with pytest.raises(RegimeError):
        moment_special_value(es, 1)
    with pytest.raises(RegimeError):
        moment_singular_shifted(es, -1, 1)


def test_singular_argument_validation(solved):
    es = solved(20.0)
    with pytest.raises(DomainError):
        moment_singular_base(es, 0)
    with pytest.raises(DomainError):
        moment_singular_shifted(es, 1, -1)


def test_limit_moment_values():
    assert limit_moment(0.5) == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-13)
    assert limit_moment(-1.0) == pytest.approx(0.5, rel=1e-14)
    assert limit_moment(0.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        limit_moment(1.0)
    with pytest.raises(DomainError):
        limit_moment(2.3)


@pytest.mark.parametrize("s", [1.0 - 1e-12, 1.0 - 5e-13, 1.0 - 2.0**-52])
def test_limit_moment_just_below_one(s):
    # 2^s Gamma(1 - s) is finite up to the last double below 1 (about 9e15
    # there); no pole window at 1 - s may turn it into a PoleError
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = 2 ** mpmath.mpf(s) * mpmath.gamma(1 - mpmath.mpf(s))
        assert float(abs(limit_moment(s) / ref - 1)) < 1e-13


def test_moments_approach_limit(solved):
    # fixed order, growing cutoff: distance to the A -> infinity value shrinks
    for s in (0.3, -1.0):
        lim = limit_moment(s)
        d = [abs(moment_frac(s, solved(A)).value - lim) for A in (100.0, 1000.0, 10000.0)]
        assert d[0] > d[1] > d[2]
