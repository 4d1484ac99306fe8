import copy
import math
import pickle
import re

import pytest

import shiryaev_qsd.cli as cli
import shiryaev_qsd.generator as generator
import shiryaev_qsd.specfun as specfun
import shiryaev_qsd.spectral as spectral
from shiryaev_qsd.errors import ConsistencyError, ConvergenceError, DomainError, PoleError
from shiryaev_qsd.spectral import (
    EigenSystem,
    assemble_system,
    eigen_checks,
    eigencondition,
    lambda_bounds,
    one_minus_xi,
    solve_lambda,
    xi_of_lambda,
)

# rate and normalizer frozen from 40-digit root solves
ANCHORS = {
    0.5: (6.44937624142237487636, 1321.75249125691054961),
    1.0: (2.36016523002323563526, 53.3028537968994300396),
    5.0: (0.29091067189229352266, 2.86864483049748121477),
    20.0: (0.0588561486218396687779, 1.41072105467430323579),
    100.0: (0.0105631060745850857798, 1.09737591318576402216),
    1000.0: (0.00100951719976295748869, 1.01351278279727610642),
    10000.0: (0.000100139277975385582812, 1.00179239008329470563),
    # 2b is 8e-5 from 1 here; an older kernel's rate was 1.8e-10 off
    50145.466016517465: (1.994879012728765521235e-05, 1.000421115162456517234),
}


@pytest.mark.parametrize("A", sorted(ANCHORS))
def test_rate_and_normalizer_anchors(A, solved):
    lam_ref, C_ref = ANCHORS[A]
    es = solved(A)
    assert abs(es.lam - lam_ref) / lam_ref < 1e-12
    assert abs(es.C - C_ref) / C_ref < 1e-11


# the rate of bench/oracle.py (40-digit mpmath root of W_{1, xi/2}(2/A)),
# from the smallest documented cutoff up to 1e12. A W whose index takes xi
# rounded, not 1 - xi, misses it by 3.9e-12 at 5.623e5 and 1.5e-10 at 1e7,
# and from about 1.5e9 up finds no sign change on the bracket
ORACLE_RATES = {
    0.1608: "3.869720447711977738626214e+1",
    0.5: "6.449376241422374876360199",
    3.0: "5.471307051568946369640777e-1",
    10.2: "1.25569808072826250107891e-1",
    10.3: "1.241706802099627119570438e-1",
    5623.0: "1.78245892120819932135586e-4",
    1e5: "1.00018493152290745073486e-5",
    5.623e5: "1.778479494521536570799018e-6",
    1e7: "1.000002769563643724316682e-7",
    1e9: "1.000000036905808936482005e-9",
    1e10: "1.000000004151097653929678e-10",
    1e12: "1.000000000050721316546392e-12",
}


@pytest.mark.parametrize("A", sorted(ORACLE_RATES))
def test_rate_matches_the_oracle(A):
    # within Brent's relative stop of 1e-12; the worst, 2.5e-13 at 5623, is
    # that stop's residue
    ref = float(ORACLE_RATES[A])
    assert abs(solve_lambda(A).lam - ref) <= 1e-12 * ref


@pytest.mark.parametrize("A", sorted(ANCHORS))
def test_rate_inside_proven_bracket(A, solved):
    lo, hi = lambda_bounds(A)
    assert lo < solved(A).lam < hi


@pytest.mark.parametrize("A", sorted(ANCHORS))
def test_boundary_residual_tiny(A, solved):
    es = solved(A)
    assert 0.0 <= es.residual < 1e-12
    assert abs(eigencondition(A, es.lam)) <= es.residual + 1e-15


def test_xi_identity_and_regimes():
    # real below the oscillatory threshold, imaginary above
    assert xi_of_lambda(0.1) == pytest.approx(math.sqrt(0.2), rel=1e-15)
    z = xi_of_lambda(0.5)
    assert z.real == 0.0 and z.imag == pytest.approx(math.sqrt(3.0), rel=1e-15)
    for lam in (0.01, 0.124999, 0.125001, 2.0):
        xi = xi_of_lambda(lam)
        assert abs(xi * xi - (1.0 - 8.0 * lam)) < 1e-14


def test_xi_rejects_nonpositive_rate():
    with pytest.raises(DomainError):
        xi_of_lambda(0.0)
    with pytest.raises(DomainError):
        xi_of_lambda(-0.3)


def test_one_minus_xi_stable_for_xi_near_one(solved):
    es = solved(10000.0)
    eta = one_minus_xi(es.lam, es.xi)
    # naive 1 - xi keeps only ~12 digits here; the stable form must agree
    # with the quadratic identity to full precision
    assert abs(eta * (1.0 + es.xi) - 8.0 * es.lam) < 1e-18


def test_oscillatory_crossover_location():
    # the rate passes 1/8 between these two cutoffs
    assert solve_lambda(10.2404).xi.imag != 0.0
    assert solve_lambda(10.2406).xi.imag == 0.0


def test_eigen_checks_all_pass_on_solved(solved):
    for A in (0.5, 5.0, 100.0):
        es = solved(A)
        rows = eigen_checks(es.A, es.lam, es.xi, es.C)
        assert rows and all(passed for _, passed, _ in rows), rows


def test_eigen_checks_series_failure_modes(solved, monkeypatch):
    es = solved(20.0)

    def pole(*args):
        raise PoleError("gamma pole")

    monkeypatch.setattr(spectral, "_normalizer_series", pole)
    rows = {
        name: (passed, metric)
        for name, passed, metric in eigen_checks(es.A, es.lam, es.xi, es.C)
    }
    assert rows["normalizer-series"] == (False, math.inf)
    assert rows["normalizer-endpoint"][0]

    def broken(*args):
        raise TypeError("wiring fault")

    monkeypatch.setattr(spectral, "_normalizer_series", broken)
    with pytest.raises(TypeError):
        eigen_checks(es.A, es.lam, es.xi, es.C)


@pytest.mark.parametrize("sigma", (1, -1))
def test_normalizer_series_overflow_fails_its_row(solved, monkeypatch, sigma):
    # an OverflowError from either series form is absorbed like the kernel's
    # own exceptions: normalizer-series fails with residual inf and every
    # other row keeps its value
    es = solved(20.0)
    series = spectral._normalizer_series

    def overflowing(A, lam, xi, s):
        if s == sigma:
            raise OverflowError("math range error")
        return series(A, lam, xi, s)

    clean = eigen_checks(es.A, es.lam, es.xi, es.C)
    monkeypatch.setattr(spectral, "_normalizer_series", overflowing)
    rows = eigen_checks(es.A, es.lam, es.xi, es.C)
    assert [r.name for r in rows] == [r.name for r in clean]
    for row, want in zip(rows, clean):
        if row.name == "normalizer-series":
            assert row == ("normalizer-series", False, math.inf)
        else:
            assert row == want


@pytest.mark.parametrize("A", (3e12, 1e13))
def test_normalizer_series_past_gamma_pole(A):
    # at sigma = -1, 1 - xi ~ 4/A passes within 1e-12 of Gamma's pole at 0
    # from A ~ 2e12 up, and of 1F1's denominator pole from ~4e12: the series
    # form has neither, and both signs meet the endpoint normalizer at the
    # asymptotic rate 1/(A - 2 log(A/2) + 2 + 2 gamma_E)
    lam = 1.0 / (A - 2.0 * math.log(0.5 * A) + 2.0 + 2.0 * 0.5772156649015329)
    es = assemble_system(A, lam, validate=False)
    for sigma in (1, -1):
        assert abs(spectral._normalizer_series(A, lam, es.xi, sigma) - es.C) < 1e-12 * es.C
    assert {r.name: r for r in es.checks}["normalizer-series"].passed


def test_eigensystem_keeps_its_checks(solved):
    es = solved(20.0)
    rows = es.checks
    assert es.checks is rows
    assert list(rows) == eigen_checks(es.A, es.lam, es.xi, es.C)
    bad = EigenSystem(
        A=es.A, lam=es.lam * 2, xi=es.xi, C=es.C, residual=1.0, validate=False
    )
    assert "checks" not in vars(bad)
    assert list(bad.checks) == eigen_checks(bad.A, bad.lam, bad.xi, bad.C)
    assert not all(passed for _, passed, _ in bad.checks)


def test_eigensystem_rejects_corrupt_rate(solved):
    es = solved(20.0)
    bad = es.lam * 1.01
    with pytest.raises(ConsistencyError):
        EigenSystem(A=es.A, lam=bad, xi=xi_of_lambda(bad), C=es.C, residual=0.0)


def test_eigensystem_positional_construction_validates(solved):
    es = solved(20.0)
    assert EigenSystem(es.A, es.lam, es.xi, es.C, es.residual) == es
    bad = es.lam * 1.01
    with pytest.raises(ConsistencyError):
        EigenSystem(es.A, bad, xi_of_lambda(bad), es.C, 0.0)


def test_copies_keep_an_unvalidated_system(solved):
    es = solved(20.0)
    bad = assemble_system(20.0, 2.0 * es.lam, validate=False)
    pairs = [(copy.copy(bad), bad), (pickle.loads(pickle.dumps(bad)), bad),
             (copy.deepcopy(es), es)]
    for twin, original in pairs:
        assert type(twin) is EigenSystem and twin == original


def test_collapsed_bracket_battery_reports():
    # from about A = 1e33 on, 1/A absorbs both bounds' corrections
    lo, hi = lambda_bounds(1e200)
    assert lo == hi == 1e-200
    on = {r.name: r for r in assemble_system(1e200, lo, validate=False).checks}
    assert on["rate-bracket"] == ("rate-bracket", True, 0.0)
    off = {r.name: r for r in assemble_system(1e200, 2.0 * lo, validate=False).checks}
    assert off["rate-bracket"] == ("rate-bracket", False, math.inf)
    with pytest.raises(ConsistencyError, match="rate-bracket"):
        assemble_system(1e200, 2.0 * lo)


def test_eigensystem_validate_false_admits_anything(solved):
    es = solved(20.0)
    bad = EigenSystem(
        A=es.A, lam=es.lam * 2, xi=es.xi, C=es.C, residual=1.0, validate=False
    )
    assert bad.lam == es.lam * 2


def test_cached_properties_keep_equality_and_repr(solved):
    # the battery's rows and the march, cached on first use, change neither
    # the fields nor equality
    es = solve_lambda(20.0)
    twin = EigenSystem(
        A=es.A, lam=es.lam, xi=es.xi, C=es.C, residual=es.residual, validate=False
    )
    before = repr(es)
    march = es.generator
    assert es.generator is march
    assert twin.checks
    assert repr(es) == before == repr(twin)
    assert es == twin and hash(es) == hash(twin) and es == solved(20.0)


def test_solve_sums_the_laplace_w_once_after_brent(monkeypatch):
    # Brent and the normalizer read the Macdonald form of W at 2/A and sum no
    # Laplace W; after them, the battery's residual and endpoint rows read
    # W_0 and W_1 at z = 2/A from one Laplace pass
    for A in (3.0, 20.0, 1e5):
        passes = []
        at_brent = []

        def counted_climb(ix, z, *args):
            passes.append(z)
            return climb(ix, z, *args)

        def marked_brent(*args):
            lam = brent(*args)
            at_brent.append(len(passes))
            return lam

        climb, brent = specfun._w_climb, spectral._brent
        with monkeypatch.context() as m:
            m.setattr(specfun, "_w_climb", counted_climb)
            m.setattr(spectral, "_brent", marked_brent)
            solve_lambda(A)
        assert at_brent == [0], (A, at_brent)
        assert passes == [2.0 / A], (A, passes)


def _count_sums(m):
    # every Macdonald W sum, and the rates at which the solve's Brent
    # iteration asks for W past the bracket's two ends
    sums, steps = [], []
    macdonald_sum, brent = spectral._macdonald_sum, spectral._brent

    def counted_sum(*args):
        sums.append(args)
        return macdonald_sum(*args)

    def counted_brent(f, *args):
        def step(lam):
            steps.append(lam)
            return f(lam)
        return brent(step, *args)

    m.setattr(spectral, "_macdonald_sum", counted_sum)
    m.setattr(spectral, "_brent", counted_brent)
    return sums, steps


def test_solve_builds_one_node_table(monkeypatch):
    # every W the solve reads, at the bracket's ends and at Brent's steps,
    # reads one Macdonald node table per index regime, two for a bracket
    # across lam = 1/8 (A = 10.24); C and the residual take the pair of
    # Brent's root and sum no W
    for A, tables in ((3.0, 1), (10.24, 2), (20.0, 1), (1e5, 1)):
        spectral._macdonald_nodes.cache_clear()
        with monkeypatch.context() as m:
            sums, steps = _count_sums(m)
            solve_lambda(A)
        info = spectral._macdonald_nodes.cache_info()
        assert len(sums) == 2 + len(steps), (A, len(sums), len(steps))
        assert (info.misses, info.hits) == (tables, len(sums) - tables), (A, info)


@pytest.mark.parametrize("A, lam, C", [
    (0.5, "0x1.9cc29491208b4p+2", "0x1.4a7028d116bcap+10"),
    (3.0, "0x1.1821840a92937p-1", "0x1.3c3f48101a18ep+2"),
    (10.24, "0x1.00036bdc23bf2p-3", "0x1.cdfb9674cfd46p+0"),
    (20.0, "0x1.e2264a2ffa673p-5", "0x1.692503d99ad19p+0"),
    (1e5, "0x1.4f9b3b3e229bep-17", "0x1.000ebd90cb672p+0"),
    (1e12, "0x1.197998131bf29p-40", "0x1.000000003c2a9p+0"),
])
def test_solve_bits_are_pinned(A, lam, C):
    # the rate and normalizer bits of the solve that summed W once more for
    # C (macdonald_w at the root); a fresh sum at the root gives the bits of
    # the pair the solve reuses
    es = solve_lambda(A)
    assert (es.lam.hex(), es.C.hex()) == (lam, C)
    again = assemble_system(A, es.lam)
    assert (again.C.hex(), again.residual.hex()) == (es.C.hex(), es.residual.hex())


# worst gaps of macdonald_w to mpmath at 13 points X from 1/A to 700, 10x
# the measured ones rounded up: W_0 relative, and W_1 relative to
# max(|W_1|, 2X |W_0|), as W_1 vanishes at X = 1/A. At an imaginary index
# far from 1/8 the sum cancels about e^{pi beta/2 - X} fold (2.4e-14 and
# 6.0e-14 at A = 0.1125, 3.3e-15 and 8.6e-15 at 0.5); elsewhere it reads at
# most 6.4e-16 and 7.1e-16
MACDONALD_TOL = {0.1125: (3e-13, 6e-13), 0.5: (4e-14, 9e-14)}


@pytest.mark.parametrize("A", (0.1125, 0.5, 3.0, 10.2, 10.3, 20.0, 1e5, 1e9))
def test_macdonald_w_matches_mpmath(A, solved):
    # the law's W_{0, xi/2}(2X) and W_{1, xi/2}(2X) against mpmath at 40
    # digits, with xi = sqrt(1 - 8 lam) formed in mpmath from the package's
    # double lam: the eta-exact reference. At the double xi the W_1 reference
    # would read xi's rounding instead, 4.1e-13 at A = 1e5 and 1.6e-8 at 1e9
    mpmath = pytest.importorskip("mpmath")
    lam = solved(A).lam
    worst0 = worst1 = 0.0
    with mpmath.workdps(40):
        b = mpmath.sqrt(1 - 8 * mpmath.mpf(lam)) / 2
        for j in range(13):
            X = 700.0 if j == 12 else (700.0 * A) ** (j / 12) / A
            w0, w1 = spectral.macdonald_w(A, lam, X)
            ref0 = mpmath.whitw(0, b, 2 * mpmath.mpf(X))
            ref1 = mpmath.whitw(1, b, 2 * mpmath.mpf(X))
            worst0 = max(worst0, float(abs(w0 - ref0) / abs(ref0)))
            worst1 = max(worst1, float(abs(w1 - ref1) / max(abs(ref1), 2 * X * abs(ref0))))
    tol0, tol1 = MACDONALD_TOL.get(A, (7e-15, 8e-15))
    assert worst0 <= tol0 and worst1 <= tol1, (A, worst0, worst1)


def test_normalizer_row_is_a_second_route(solved, monkeypatch):
    # C comes from the Macdonald W_0 at 2/A, and normalizer-endpoint from
    # the Laplace one: a Laplace W_0 scaled by 1 + 1e-7 fails that row alone
    # and leaves C as it was
    es = solved(20.0)
    laplace = spectral.whittaker_w_pair

    def scaled(kappa, b, z):
        w0, w1 = laplace(kappa, b, z)
        return w0 * (1.0 + 1e-7), w1

    monkeypatch.setattr(spectral, "whittaker_w_pair", scaled)
    with pytest.raises(ConsistencyError, match="normalizer-endpoint") as err:
        solve_lambda(20.0)
    assert "normalizer-series" not in str(err.value)
    bad = assemble_system(20.0, es.lam, validate=False)
    assert bad.C == es.C
    assert [r.name for r in bad.checks if not r.passed] == ["normalizer-endpoint"]


# |Macdonald - Laplace| / |W_0| at 11 rates across the proven bracket, as
# measured: 2.3e-13 at A = 0.5, where the Laplace sum at |Im b| = 3.6 loses
# digits, and at most 8.4e-16 at the other cutoffs
CROSS_KERNEL_TOL = {0.5: 1e-12}


@pytest.mark.parametrize("A", (0.5, 3.0, 10.2, 10.3, 20.0, 1e5))
def test_eigencondition_matches_the_laplace_w(A):
    # the Macdonald form Brent solves on against the Laplace W_{1, xi/2}(2/A)
    # that the battery's residual reads, at imaginary (0.5, 3, 10.2) and
    # real (10.3, 20, 1e5) indices; relative to |W_0|, the residual's scale
    lo, hi = lambda_bounds(A)
    worst = 0.0
    for k in range(11):
        lam = lo + (hi - lo) * k / 10
        b = 0.5 * xi_of_lambda(lam)
        w0 = abs(specfun.whittaker_w(0.0, b, 2.0 / A))
        w1 = specfun.whittaker_w(1.0, b, 2.0 / A).real
        worst = max(worst, abs(eigencondition(A, lam) - w1) / w0)
    assert worst <= CROSS_KERNEL_TOL.get(A, 4e-15), (A, worst)


def test_assemble_system_matches_solve(solved):
    es = solved(20.0)
    re = assemble_system(20.0, es.lam)
    assert re.lam == es.lam and re.C == es.C and re.xi == es.xi


def test_assemble_system_rejects_bad_rate():
    with pytest.raises(DomainError):
        assemble_system(20.0, -1.0)
    with pytest.raises(ConsistencyError):
        assemble_system(20.0, 0.03)  # positive but nowhere near the rate


def test_unvalidated_system_keeps_a_nonpositive_endpoint_w(solved):
    # off the rate the endpoint W may be negative (a doubled rate at
    # A = 0.8) or underflow to 0 (A = 1e-3): only validation refuses them
    es = solved(0.8)
    bad = assemble_system(0.8, 2.0 * es.lam, validate=False)
    assert bad.C < 0.0
    assert assemble_system(1e-3, lambda_bounds(1e-3)[0], validate=False).C == math.inf
    rows = {r.name: r for r in bad.checks}
    assert not rows["normalizer-positive"].passed
    assert rows["normalizer-endpoint"].residual == math.inf


def test_solve_rejects_bad_inputs():
    with pytest.raises(DomainError):
        solve_lambda(-2.0)
    with pytest.raises(DomainError):
        solve_lambda(0.0)
    with pytest.raises(DomainError):
        solve_lambda(1e-300)  # the proven bounds leave the double range


def test_no_sign_change_names_an_even_count_of_roots():
    # below about A = 0.07 the bracket holds the second rate as well as the
    # first, so W_1 has one sign at both ends: at A = 0.05 it is +1.1e-8 at
    # lo and +3.4e-19 at hi. The bracket is proven for the principal rate
    # only, and the message says so
    with pytest.raises(ConvergenceError) as err:
        solve_lambda(0.05)
    msg = str(err.value)
    assert "proven bracket [" in msg
    assert "principal rate only" in msg and "even number of roots" in msg


def test_no_sign_change_on_the_bracket_fails_at_once(monkeypatch):
    # at A = 1e33 the proven bounds round to one point, so W has the same
    # sign at both: the solve raises after evaluating W there, and tries no
    # wider bracket
    lo, hi = lambda_bounds(1e33)
    assert lo == hi
    with monkeypatch.context() as m:
        sums, steps = _count_sums(m)
        with pytest.raises(ConvergenceError, match="proven bracket"):
            solve_lambda(1e33)
    assert len(sums) == 2 and steps == []
    assert sums[0] == sums[1]


def test_bounds_ordering():
    for A in (0.5, 3.0, 50.0, 2e4):
        lo, hi = lambda_bounds(A)
        assert 0.0 < lo < hi


# cutoffs where the principal rate lies well above 1/8 and W's index is
# imaginary (0.5 to 3), near 1/8 (8.0 to 10.3), and below it (20, 1e5)
GUARD_CUTOFFS = (0.5, 0.7, 1.3, 3.0, 8.0, 8.3, 10.2, 10.3, 20.0, 1e5)
# every 64th of the benchmark's 16,384 cutoffs, log-spaced over [0.5, 1e5]
GRID_EVERY_64TH = [
    0.5 * math.exp(math.log(2e5) * (k + 0.5) / 16384) for k in range(0, 16384, 64)
]


def _higher_roots(A, count):
    # the next count roots of W_{1, xi/2}(2/A) above the proven bracket: a
    # scan in steps of 2% in rate, then bisection on the sign of eigencondition
    lam = lambda_bounds(A)[1]
    g = eigencondition(A, lam)
    roots = []
    while len(roots) < count:
        a, b = lam, 1.02 * lam
        gb = eigencondition(A, b)
        if (gb > 0.0) != (g > 0.0):
            while b - a > 1e-14 * b:
                mid = 0.5 * (a + b)
                if (eigencondition(A, mid) > 0.0) == (g > 0.0):
                    a = mid
                else:
                    b = mid
            roots.append(0.5 * (a + b))
        lam, g = 1.02 * lam, gb
    return roots


# Taylor terms of the zero count stop here: only signs are used
SIGN_TOL = 1e-12


def _zeros(A, lam):
    # zeros in (0, A) of the eigenfunction f at rate lam, an oracle for the
    # solve's certificate that shares nothing with it: the sign changes of f
    # at the nodes of generator.march, each placed by linear interpolation
    # between them; the sign at A never counts. With g = e^{-1/x} f the
    # equation reads g'' + Q g = 0, Q < 2 lam/x^2 + 2/x^3, a bound that falls
    # with x; every march step is shorter than the least distance between two
    # zeros that Sturm comparison allows on it, so it holds at most one zero
    xs, fs, _ = generator.march(A, lam, SIGN_TOL, joint=True)
    zeros = [
        x + (xn - x) * f / (f - fn)
        for x, xn, f, fn in zip(xs, xs[1:-1], fs, fs[1:-1])
        if (fn > 0.0) != (f > 0.0)
    ]
    assert zeros == sorted(zeros) and all(0.0 < x < A for x in zeros), (A, lam, zeros)
    return zeros


@pytest.mark.parametrize("A", GUARD_CUTOFFS)
def test_guard_covers_below_bracket_and_matches_scalar_w(A, solved):
    # the certificate rules out every smaller root at the solved rate; the
    # march's zero count agrees, and so does the scalar W_{1, xi/2}(2/A) at
    # 100 rates of (0, lo]: one sign
    lo, _ = lambda_bounds(A)
    assert spectral._is_principal(A, solved(A).lam)
    assert _zeros(A, solved(A).lam) == []
    signs = {eigencondition(A, lo * k / 100) > 0.0 for k in range(1, 101)}
    assert len(signs) == 1, A


@pytest.mark.parametrize("A", (0.2, 1e9))
def test_march_finds_no_zero_at_the_principal_rate(A, solved):
    # the march takes its most steps at A = 0.2 (rate 27); at 1e9 the rate is
    # far below 1/8, where the march still runs
    assert _zeros(A, solved(A).lam) == []


def test_march_finds_no_zero_on_the_grid():
    for A in GRID_EVERY_64TH:
        assert _zeros(A, solve_lambda(A).lam) == [], A


@pytest.mark.parametrize(
    "A, above",
    # the principal rate is 0.1256 at 10.2 and 0.1242 at 10.3
    [(0.5, True), (3.0, True), (10.2, True),
     (10.3, False), (20.0, False), (25.0, False), (35.0, False), (1e5, False)],
)
def test_solve_marches_only_at_rates_from_one_eighth(A, above, monkeypatch):
    # the closed-form certificate serves rates on both sides of 1/8 (above
    # it up to A = 10.24): the solve marches the eigenfunction at no rate,
    # through generator's name or a name of its own
    ends = []

    def spy(end, *args, **kw):
        ends.append(end)
        return march(end, *args, **kw)

    march = generator.march
    monkeypatch.setattr(generator, "march", spy)
    monkeypatch.setattr(spectral, "march", spy, raising=False)
    lam = solve_lambda(A).lam
    assert (lam >= 0.125) == above
    assert ends == []


# the cutoffs of 41 log-spaced ones in [0.15, 0.6] from 0.1608 up, the
# smallest cutoff the README documents
SMALL_CUTOFFS = [0.15 * 4 ** (k / 40) for k in range(2, 41)]


def test_certificate_accepts_the_solved_rates():
    # every rate the solve returns on the benchmark grid, at small cutoffs
    # down to the thinnest margin (A = 0.1608, certified up to 1.25 times its
    # rate) and at large cutoffs up to 1e15 is certified principal
    large = [10 ** (6 + k / 4) for k in range(37)]
    for A in GRID_EVERY_64TH + SMALL_CUTOFFS + large:
        lam = solve_lambda(A).lam
        assert spectral._is_principal(A, lam), A
    assert SMALL_CUTOFFS[0] == pytest.approx(0.1608, abs=5e-5)
    assert spectral._is_principal(SMALL_CUTOFFS[0], 1.25 * solve_lambda(SMALL_CUTOFFS[0]).lam)


@pytest.mark.parametrize("A", GUARD_CUTOFFS)
def test_certificate_rejects_higher_roots(A):
    # the certificate is a proof, so it must refuse every root above the
    # principal one: the second and third at each cutoff, and the second to
    # the ninth at A = 3
    roots = _higher_roots(A, 8 if A == 3.0 else 2)
    assert not any(spectral._is_principal(A, lam) for lam in roots), (A, roots)


@pytest.mark.parametrize("A", (0.7, 3.0, 20.0, 1e3, 1e4, 1e5))
def test_march_counts_the_zeros_of_higher_eigenfunctions(A):
    # the n-th eigenfunction has n - 1 zeros in (0, A). The second and third
    # roots lie above 1/8 (0.18 to 0.64 from A = 1e3 up), as the Morse bound
    # requires
    second, third = _higher_roots(A, 2)
    assert 0.125 < second < third
    assert len(_zeros(A, second)) == 1
    assert len(_zeros(A, third)) == 2


def test_one_zero_below_rate_one_eighth():
    # for 0 < lam < 1/8, f bounded at 0 has exactly one zero on (0, inf)
    # (Morse bound, spectral's docstring). Marched to x = 1e6, f changes sign
    # once at fixed rates across (0, 1/8), and at each grid rate below 1/8 in
    # the step that holds A
    def sign_changes(lam):
        xs, fs, _ = generator.march(1e6, lam, SIGN_TOL, joint=True)
        return [
            (x, xn) for x, xn, f, fn in zip(xs, xs[1:], fs, fs[1:]) if (f > 0.0) != (fn > 0.0)
        ]

    for lam in (1e-5, 1e-4, 1e-3, 0.01, 0.03, 0.06, 0.09, 0.11, 0.12, 0.124, 0.1249, 0.12499):
        assert len(sign_changes(lam)) == 1, lam
    below = 0
    for A in GRID_EVERY_64TH:
        lam = solve_lambda(A).lam
        if lam >= 0.125:
            continue
        below += 1
        steps = sign_changes(lam)
        assert len(steps) == 1, (A, steps)
        ((x, xn),) = steps
        assert x <= A * (1.0 + 1e-9) and A * (1.0 - 1e-9) <= xn, (A, x, xn)
    assert below > 150


def test_march_keeps_two_zeros_out_of_one_step():
    # the 13th eigenfunction at A = 3: unsplit steps of min(x/3, x^2) would
    # hold more than one of its 12 zeros, and the count would read 10
    thirteenth = _higher_roots(3.0, 12)[-1]
    assert len(_zeros(3.0, thirteenth)) == 12


@pytest.mark.parametrize(
    "A",
    # from x = 0.03, the march's steps reach 1.1674832872796603 and then
    # 1.556644383039547: 1.6e-4 before the first cutoff, one ulp before the
    # second, where f(x) is rounding noise. From that node the last two
    # cutoffs take a last step of 0.15, under a third of a full one
    (1.556804383039547, math.nextafter(1.556644383039547, 2.0),
     1.7074219126822299, math.nextafter(1.7072593985819955, 2.0)),
)
def test_march_runs_a_short_last_step_to_a(A, solved):
    assert _zeros(A, solved(A).lam) == []


@pytest.mark.parametrize("A", (3.0, 20.0))
def test_guard_rejects_a_sign_flip_below_the_bracket(A, monkeypatch, capsys):
    # a bracket around the second root: W's sign flips at the principal root,
    # below the bracket, and Brent lands on a higher root inside it. The
    # patched bounds reach the certificate too, whose quarter-wave arm alone
    # then refuses the root
    second = _higher_roots(A, 1)[0]
    monkeypatch.setattr(spectral, "lambda_bounds", lambda A: (0.99 * second, 1.01 * second))
    with pytest.raises(ConsistencyError, match="smaller root") as err:
        solve_lambda(A)
    (rate,) = re.search(r"^rate (\S+) at A=", str(err.value)).groups()
    assert abs(float(rate) - second) < 1e-9 * second

    code = cli.main(["eig", "--A", repr(A)])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == "" and "smaller root" in cap.err
    assert "Traceback" not in cap.err
