"""Acceptance battery: one test per shipping criterion, pinned tolerances.

Each test is a contract, not a diagnostic; if one fails the package is
wrong (or a tolerance was edited, which amounts to the same thing).
"""

import math
import time

from shiryaev_qsd.distribution import qsd_cdf, stationary_cdf
from shiryaev_qsd.moments import (
    limit_moment,
    moment_frac,
    moment_integer,
    moment_log,
    moment_singular_base,
    moment_singular_shifted,
    moment_special_value,
)
from shiryaev_qsd.quadrature import normalization_check, quad_log_moment, quad_moment
from shiryaev_qsd.specfun import (
    gamma,
    whittaker_m,
    whittaker_w,
    whittaker_w_dz,
)
from shiryaev_qsd.spectral import _normalizer_series, solve_lambda
from shiryaev_qsd.verify import run_checks

BRACKET_SET = (0.5, 1.0, 5.0, 20.0, 100.0, 1e3, 1e4)
MOMENT_AS = (1.0, 5.0, 20.0, 100.0)
MOMENT_SS = (-2.0, -0.7, 0.3, 1.0, 2.0, 3.7, 5.0)
GROWTH_AS = (1e2, 1e3, 1e4)


def _singular_orders(es):
    # bottom ladder pair and its first shift; only defined for real index
    if es.xi.imag != 0.0:
        return []
    xi = es.xi.real
    out = []
    for sigma in (1, -1):
        out.append((0.5 + 0.5 * sigma * xi, sigma, 0))
        out.append((1.5 + 0.5 * sigma * xi, sigma, 1))
    return out


def test_criterion_01_rate_bracket_and_residual():
    t0 = time.perf_counter()
    for A in BRACKET_SET:
        es = solve_lambda(A)
        lower = 1.0 / A + 1.0 / (A * (A + 1.0))
        upper = 1.0 / A + (1.0 + math.sqrt(4.0 * A + 1.0)) / (2.0 * A * A)
        assert lower < es.lam < upper, A
        w1 = abs(whittaker_w(1.0, 0.5 * es.xi, 2.0 / A))
        w0 = abs(whittaker_w(0.0, 0.5 * es.xi, 2.0 / A))
        assert w1 < 1e-9 * w0, A
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_normalization(solved):
    t0 = time.perf_counter()
    for A in MOMENT_AS:
        assert abs(normalization_check(solved(A)) - 1.0) < 1e-10, A
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_moments_match_quadrature(solved):
    t0 = time.perf_counter()
    for A in MOMENT_AS:
        es = solved(A)
        for s in MOMENT_SS:
            v = moment_frac(s, es).value
            q = quad_moment(s, es)
            assert abs(v - q) <= 1e-8 * abs(q), (A, s)
        for s, sigma, k in _singular_orders(es):
            if k == 0:
                v = moment_singular_base(es, sigma).value
            else:
                v = moment_singular_shifted(es, sigma, k).value
            q = quad_moment(s, es)
            assert abs(v - q) <= 1e-8 * abs(q), (A, s)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_recurrence_residuals(solved):
    for A in MOMENT_AS:
        es = solved(A)
        orders = list(MOMENT_SS) + [s for s, _, _ in _singular_orders(es)]
        for s in orders:
            ms = moment_frac(s, es).value
            ms1 = moment_frac(s - 1.0, es).value
            raw = abs(
                (s * (s - 1.0) + 2.0 * es.lam) * ms
                - 2.0 * es.lam * math.pow(A, s)
                + 2.0 * s * ms1
            )
            assert raw < 1e-8 * max(1.0, es.lam * math.pow(A, s)), (A, s)


def test_criterion_05_integer_consistency(solved):
    for A in (5.0, 20.0, 100.0):
        es = solved(A)
        for n in range(9):
            a = moment_frac(float(n), es).value
            b = moment_integer(n, es).value
            assert abs(a - b) <= 1e-10 * abs(b), (A, n)
        m1 = A - 1.0 / es.lam
        assert abs(moment_integer(1, es).value - m1) <= 1e-10 * abs(m1), A


def test_criterion_06_distinguished_orders(solved):
    for A in (20.0, 100.0):
        es = solved(A)
        xi = es.xi.real
        w0 = whittaker_w(0.0, 0.5 * xi, 2.0 / A).real
        for sigma in (1, -1):
            closed = moment_special_value(es, sigma).value
            via_formula = moment_frac(-0.5 + 0.5 * sigma * xi, es).value
            wr = whittaker_w(0.5, 0.5 * (xi - sigma), 2.0 / A).real
            via_ratio = wr / (math.sqrt(2.0 * A) * w0) * math.pow(
                A, 0.5 * (1.0 + sigma * xi)
            )
            assert abs(via_formula - closed) <= 1e-9 * abs(closed), (A, sigma)
            assert abs(via_ratio - closed) <= 1e-9 * abs(closed), (A, sigma)


def test_criterion_07_normalizer_dual_expression(solved):
    for A in (5.0, 20.0, 100.0):
        es = solved(A)
        forms = [
            es.C,
            _normalizer_series(A, es.lam, 1),
            _normalizer_series(A, es.lam, -1),
        ]
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                rel = abs(forms[i] - forms[j]) / abs(forms[j])
                assert rel <= 1e-8, (A, i, j)
    gap_small = abs(solved(1e4).C - 1.0)
    gap_large = abs(solved(1e2).C - 1.0)
    assert gap_small < gap_large


def test_criterion_08_eigen_identities(solved):
    for A in (5.0, 20.0, 100.0):
        es = solved(A)
        z = 2.0 / A
        b = 0.5 * es.xi
        w = whittaker_w(0.0, b, z)
        dw = whittaker_w_dz(0.0, b, z)
        assert abs(dw - 0.5 * w) <= 1e-8 * abs(0.5 * w), A

        lhs = (
            es.lam
            * A
            * gamma(0.5 * (es.xi - 1.0))
            * w
            * whittaker_m(1.0, b, z)
        )
        rhs = -gamma(es.xi + 1.0)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs), A


def test_criterion_09_growth_and_limits(solved):
    for s in (0.3, 0.5, -1.0):
        lim = limit_moment(s)
        gaps = [abs(moment_frac(s, solved(A)).value - lim) for A in GROWTH_AS]
        assert gaps[0] > gaps[1] > gaps[2], s
    assert abs(moment_frac(0.5, solved(1e4)).value - math.sqrt(2.0 * math.pi)) < 0.08
    m1 = [moment_integer(1, solved(A)).value for A in GROWTH_AS]
    assert m1[0] < m1[1] < m1[2]


def test_criterion_10_domination_and_gap_decay(solved):
    for A in (5.0, 20.0, 100.0):
        es = solved(A)
        for i in range(1000):
            x = A * i / 999.0
            assert qsd_cdf(x, es) - stationary_cdf(x) >= 0.0, (A, x)
    sups = []
    for A in GROWTH_AS:
        es = solved(A)
        sups.append(
            max(
                qsd_cdf(A * i / 999.0, es) - stationary_cdf(A * i / 999.0)
                for i in range(1000)
            )
        )
    assert sups[0] > sups[1] > sups[2]
    for sup, A in zip(sups, GROWTH_AS):
        envelope = math.log(A) / A
        assert envelope / 3.0 <= sup <= 3.0 * envelope, A


def test_criterion_11_oscillatory_regime(solved):
    es = solved(1.0)
    assert es.xi.real == 0.0 and es.xi.imag > 0.0
    rows = run_checks(es)
    assert all(r.passed for r in rows), [r.name for r in rows if not r.passed]
    # imaginary parts must be numerical dust before they are discarded
    for x in (0.2, 0.5, 0.9):
        for kappa in (0.0, 1.0):
            w = whittaker_w(kappa, 0.5 * es.xi, 2.0 / x)
            assert abs(w.imag) < 1e-10 * max(1.0, abs(w.real)), (x, kappa)


def test_criterion_12_log_moment(solved):
    for A in (20.0, 100.0):
        es = solved(A)
        v = moment_log(es)
        q = quad_log_moment(es)
        assert abs(v - q) <= 1e-7 * max(1.0, abs(q)), A
