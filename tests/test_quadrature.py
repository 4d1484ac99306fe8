import math
import random

import pytest
import scipy.integrate

import shiryaev_qsd.quadrature as quadrature
from shiryaev_qsd.distribution import UNDERFLOW_X, qsd_pdf
from shiryaev_qsd.errors import DomainError, ToleranceNotMetError
from shiryaev_qsd.generator import Eigenfunction
from shiryaev_qsd.quadrature import (
    normalization_check,
    quad_log_moment,
    quad_moment,
    quad_moments,
)
from shiryaev_qsd.spectral import EigenSystem

# oracle-frozen values, same provenance as the anchors in test_moments; the
# ends of the benchmark grid (imaginary index at A = 0.7) from bench/oracle.py
# at 40 digits
QUAD_FRAC = {
    0.7: {
        -0.7: 1.83120573665026054878,
        0.5: 0.662221836702259658395,
        math.pi: 0.0940456194489488439815,
    },
    20.0: {
        -0.7: 0.681515360166309512937,
        0.3: 1.29761742395592314376,
        3.7: 706.829627314892243863,
    },
    1e5: {
        -0.7: 0.559442574256293089804,
        0.5: 2.48198780067230997412,
        math.pi: 15176596208.4897484735,
    },
}
QUAD_LOG = {20.0: 0.76869754340116908, 100.0: 1.0685916998164794}


def test_frozen_moments(solved):
    for A, refs in QUAD_FRAC.items():
        es = solved(A)
        for s, ref in refs.items():
            v = quad_moment(s, es)
            assert abs(v - ref) <= 1e-11 * abs(ref), (A, s)


def test_frozen_log_moments(solved):
    for A, ref in QUAD_LOG.items():
        v = quad_log_moment(solved(A))
        assert abs(v - ref) <= 1e-11 * abs(ref), A


def test_normalization_near_one(solved):
    for A in (1.0, 5.0, 20.0, 100.0, 10000.0):
        assert abs(normalization_check(solved(A)) - 1.0) < 1e-11, A


def test_one_pass_matches_one_weight_calls(solved):
    # each component of the joint pass is refined to its own budget, so it
    # lies within that budget of the integral taken alone
    orders = (-0.7, 0.5, math.pi)
    for A in (0.7, 20.0, 1e4, 1e5):
        es = solved(A)
        got = quad_moments(es, orders, log=True)
        want = (
            normalization_check(es),
            *(quad_moment(s, es) for s in orders),
            quad_log_moment(es),
        )
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert abs(g - w) <= max(1e-12, 1e-10 * abs(w)), (A, g, w)
    assert quad_moments(es, ()) == (normalization_check(es),)


def test_nodes_stay_in_support(solved, monkeypatch):
    # log A lies a few ulps past a seed edge, so the last seed panel is a
    # few ulps wide and exp rounds some of its nodes past A, where the
    # density raises; they must land on A itself
    es = solved(23.405714285714296)
    nodes = []
    densities = Eigenfunction.densities

    def spy(self, xs, cdf=False):
        nodes.extend(xs)
        return densities(self, xs, cdf)

    monkeypatch.setattr(Eigenfunction, "densities", spy)
    assert abs(normalization_check(es) - 1.0) < 1e-11
    assert len(nodes) >= 15 and len(nodes) % 15 == 0
    assert UNDERFLOW_X < min(nodes)
    assert max(nodes) == es.A


def test_tail_cut_is_bit_equal_to_the_full_pass(solved, monkeypatch):
    # the orders of the verify battery and of `moment --check`; the cut
    # leaves out the seed panels [1/700, 4/700] and [4/700, 16/700], whose
    # integrals are proven below 1e-30, and the pass over the rest of the
    # panels gives the same bits as the pass over all of them
    cases = (((0.5, math.pi), False), ((0.5, math.pi), True), ((-0.7, 3.7), True))
    cutoffs = (0.5, 0.7, 3.0, 20.0, 224.0, 1e4, 1e5)
    tail_cut = quadrature._tail_cut
    dropped = []

    def spy(*args):
        dropped.append(tail_cut(*args))
        return dropped[-1]

    monkeypatch.setattr(quadrature, "_tail_cut", spy)
    cut = [quad_moments(solved(A), o, log) for A in cutoffs for o, log in cases]
    assert dropped == [2] * len(cut)
    monkeypatch.setattr(quadrature, "_tail_cut", lambda *args: 0)
    assert [quad_moments(solved(A), o, log) for A in cutoffs for o, log in cases] == cut


def test_tail_cut_keeps_every_panel_with_weight(solved, monkeypatch):
    # at s = -30 and -49.5 the integrand peaks near x = 2/(1 - s), inside the
    # third seed panel; the bound leaves out only the first, [1/700, 4/700],
    # and a GK15 estimate on each seed panel agrees: below 1e-30 on the one
    # left out, far above it on the next. The result is the full pass's
    for A in (0.7, 20.0):
        es = solved(A)
        gen = es.generator
        seeds = quadrature._seed_panels(math.log(UNDERFLOW_X), math.log(A))
        for orders, log in (((0.0, -30.0), False), ((0.0, -49.5), True)):
            bounded = (*orders, -1.0) if log else orders
            n = quadrature._tail_cut(seeds, 2.0 * es.lam / gen.flux, bounded)
            assert n == 1, (A, orders)

            def f(ts):
                xs = [math.exp(t) for t in ts]
                ds = gen.densities(xs)
                cols = [[math.pow(x, s) * d * x for x, d in zip(xs, ds)] for s in orders]
                if log:
                    cols.append([math.log(x) * d * x for x, d in zip(xs, ds)])
                return cols

            assert max(map(abs, quadrature._gk15(f, *seeds[0])[0])) <= 1e-30
            assert max(map(abs, quadrature._gk15(f, *seeds[1])[0])) > 1e-10
            cut = quad_moments(es, orders[1:], log)
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_tail_cut", lambda *args: 0)
                assert quad_moments(es, orders[1:], log) == cut, (A, orders)


def _gk15_reference(f, a, b):
    # _gk15 with its pair sums formed by slice and zip and its weights read
    # by index: the same sums in the same order
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    ts = [mid]
    for xk in quadrature._XGK[:7]:
        off = half * xk
        ts += (mid - off, mid + off)
    wgk, wg = quadrature._WGK, quadrature._WG
    ks, es = [], []
    for col in f(ts):
        p0, p1, p2, p3, p4, p5, p6 = [u + v for u, v in zip(col[1::2], col[2::2])]
        k = (wgk[7] * col[0] + wgk[0] * p0 + wgk[1] * p1 + wgk[2] * p2
             + wgk[3] * p3 + wgk[4] * p4 + wgk[5] * p5 + wgk[6] * p6)
        g = wg[3] * col[0] + wg[0] * p1 + wg[1] * p3 + wg[2] * p5
        ks.append(k * half)
        es.append(abs((k - g) * half))
    return ks, es


def test_gk15_matches_the_reference_bit_for_bit():
    # random columns spanning many magnitudes and both signs, so that every
    # change of the order of a sum shows in the bits
    rng = random.Random(20)
    for _ in range(200):
        a = rng.uniform(-8.0, 4.0)
        b = a + rng.uniform(1e-6, 2.0)
        cols = [
            [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-30, 30)
             for _ in range(15)]
            for _ in range(rng.randint(1, 4))
        ]
        got = quadrature._gk15(lambda ts: cols, a, b)
        assert got == _gk15_reference(lambda ts: cols, a, b)


def test_bit_determinism(solved):
    es = solved(20.0)
    for s in (-0.7, 0.3, 3.7):
        assert quad_moment(s, es) == quad_moment(s, es)
    assert quad_log_moment(es) == quad_log_moment(es)
    assert normalization_check(es) == normalization_check(es)
    assert quad_moments(es, (0.5, 3.7), log=True) == quad_moments(es, (0.5, 3.7), log=True)


def test_tolerance_failure_carries_estimate(solved, monkeypatch):
    es = solved(20.0)
    monkeypatch.setattr(quadrature, "_ABS_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "_REL_TOL", 1e-15)
    monkeypatch.setattr(quadrature, "_MAX_SPLITS", 3)
    with pytest.raises(ToleranceNotMetError) as exc:
        quad_moment(0.3, es)
    err = exc.value
    # partial estimate still usable, bound honest
    assert abs(err.estimate - QUAD_FRAC[20.0][0.3]) < 1e-6
    assert err.error_bound > 0.0


def test_against_scipy(solved):
    es = solved(20.0)
    for s in (-0.7, 0.3, 3.7):
        ref, bound = scipy.integrate.quad(
            lambda x: x**s * qsd_pdf(x, es),
            UNDERFLOW_X,
            es.A,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=400,
        )
        assert bound < 1e-10 * max(1.0, abs(ref))
        assert abs(quad_moment(s, es) - ref) <= 1e-10 * max(1.0, abs(ref)), s


def test_domain_errors(solved):
    es = solved(20.0)
    with pytest.raises(DomainError):
        quad_moment(float("nan"), es)
    with pytest.raises(DomainError):
        quad_moment(float("inf"), es)
    with pytest.raises(DomainError):
        quad_moments(es, (0.5, float("nan")))
    tiny = EigenSystem(
        A=1e-3, lam=1.0, xi=complex(1.0), C=1.0, residual=0.0, validate=False
    )
    for fn in (normalization_check, quad_log_moment):
        with pytest.raises(DomainError):
            fn(tiny)
    with pytest.raises(DomainError):
        quad_moment(1.0, tiny)
