import hashlib
import math
import random

import pytest

from shiryaev_qsd.distribution import (
    UNDERFLOW_X,
    macdonald_w,
    macdonald_w_grid,
    qsd_cdf,
    qsd_pdf,
    stationary_cdf,
    stationary_pdf,
)
from shiryaev_qsd.errors import DomainError


def test_stationary_closed_forms():
    assert stationary_cdf(2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert stationary_pdf(2.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)
    assert stationary_cdf(0.0) == 0.0
    assert stationary_pdf(0.0) == 0.0


def test_stationary_pdf_is_cdf_derivative():
    for x in (0.5, 1.7, 8.0):
        h = 1e-6 * x
        fd = (stationary_cdf(x + h) - stationary_cdf(x - h)) / (2 * h)
        assert stationary_pdf(x) == pytest.approx(fd, rel=1e-8)


def test_qsd_endpoints(solved):
    es = solved(20.0)
    assert qsd_pdf(0.0, es) == 0.0
    assert qsd_pdf(20.0, es) == 0.0
    assert qsd_cdf(0.0, es) == 0.0
    assert qsd_cdf(20.0, es) == 1.0
    assert qsd_cdf(-1.0, es) == 0.0
    assert qsd_cdf(25.0, es) == 1.0


def test_qsd_underflow_region(solved):
    es = solved(20.0)
    assert qsd_pdf(UNDERFLOW_X * 0.5, es) == 0.0
    assert qsd_cdf(UNDERFLOW_X * 0.5, es) == 0.0


def test_qsd_pdf_domain(solved):
    es = solved(20.0)
    with pytest.raises(DomainError):
        qsd_pdf(-0.1, es)
    with pytest.raises(DomainError):
        qsd_pdf(20.1, es)


def test_qsd_pdf_positive_inside(solved):
    es = solved(20.0)
    for i in range(1, 20):
        assert qsd_pdf(i, es) > 0.0


def test_qsd_cdf_monotone_and_bounded(solved):
    for A in (1.0, 20.0, 100.0):
        es = solved(A)
        vals = [qsd_cdf(A * i / 64.0, es) for i in range(65)]
        assert vals[0] == 0.0 and vals[-1] == 1.0
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_qsd_pdf_is_cdf_derivative(solved):
    es = solved(20.0)
    for x in (2.0, 7.0, 15.0):
        h = 1e-6 * x
        fd = (qsd_cdf(x + h, es) - qsd_cdf(x - h, es)) / (2 * h)
        assert qsd_pdf(x, es) == pytest.approx(fd, rel=1e-7)


def test_qsd_dominates_stationary(solved):
    for A in (5.0, 100.0):
        es = solved(A)
        for i in range(1, 50):
            x = A * i / 50.0
            assert qsd_cdf(x, es) >= stationary_cdf(x) - 1e-12


def test_imaginary_index_regime_is_real_valued(solved):
    es = solved(1.0)  # rate above 1/8, index purely imaginary
    total = 0.0
    for i in range(1, 32):
        x = i / 32.0
        p = qsd_pdf(x, es)
        assert isinstance(p, float) and p >= 0.0
        total += p / 32.0
    assert 0.9 < total < 1.1  # crude Riemann mass


@pytest.mark.parametrize("A", (0.1125, 0.2, 0.3, 0.5, 3.0, 10.2, 10.3, 20.0, 1e5, 1e9))
def test_macdonald_w_grid_matches_points(A, solved):
    # the grid pass against one macdonald_w per point, on verify's 33-point
    # grid and at points below x = 0.082, whose step is their own
    # 0.7 / sqrt(X): the same bits at both indices, as both sum one node
    # layout; a shuffled batch gives the same bits
    lam = solved(A).lam
    xs = [A * (i + 1) / 34 for i in range(33)]
    xs += [x for x in (0.0015, 0.01, 0.05, 0.08) if x < A]
    Xs = [1.0 / x for x in xs]
    got = macdonald_w_grid(A, lam, Xs)
    assert got == [macdonald_w(A, lam, X) for X in Xs], A
    order = list(range(len(Xs)))
    random.Random(7).shuffle(order)
    shuffled = macdonald_w_grid(A, lam, [Xs[i] for i in order])
    assert [got[i] for i in order] == shuffled, A


# worst gaps of single qsd_pdf / qsd_cdf points to the W-free march, 10x
# the measured ones rounded up: the pdf relative to its peak and the cdf
# absolute. At A = 0.5 the sum cancels about e^{pi beta/2 - X} fold (5.8e-15
# and 2.1e-15); elsewhere it reads at most 1.7e-15 and 1.7e-15
SINGLE_POINT_TOL = {0.5: (6e-14, 3e-14)}


@pytest.mark.parametrize("A", (0.5, 3.0, 10.3, 20.0, 1e3, 1e5, 1e7, 1e9))
def test_single_points_match_the_march(A, solved):
    # seeded points as the benchmark's density-lib draws them, half
    # log-uniform over (1/700, A) and half uniform: 83 (A = 0.5) to 179
    # (1e7) of the 400 lie below x = A/34, where verify's grid reads none
    es = solved(A)
    rng = random.Random(f"single:{A!r}")
    span = math.log(A / UNDERFLOW_X)
    xs = [UNDERFLOW_X * math.exp(span * (1.0 - rng.random())) if j % 2 == 0
          else A * (1.0 - rng.random()) for j in range(400)]
    march = es.generator.densities(xs, True)
    peak = max(p for p, _ in march)
    worst_pdf = max(abs(qsd_pdf(x, es) - p) for x, (p, _) in zip(xs, march)) / peak
    worst_cdf = max(abs(qsd_cdf(x, es) - c) for x, (_, c) in zip(xs, march))
    tol_pdf, tol_cdf = SINGLE_POINT_TOL.get(A, (2e-14, 2e-14))
    assert worst_pdf <= tol_pdf and worst_cdf <= tol_cdf, (A, worst_pdf, worst_cdf)


# macdonald_w_grid's bits on verify's 33-point grid: a sha256 prefix of the
# float.hex strings of every (W_0, W_1), in grid order, and the pair at the
# middle point x = A/2, at imaginary (0.5, 3) and real indices
GRID_BITS = {
    0.5: ("41766ec407bb56da", "0x1.072a56b9ad94ep-8", "0x1.ab5c20aa8a5e1p-6"),
    3.0: ("69a694842af70dd3", "0x1.2cfd059e36e1ep-2", "0x1.10c6d7040ca26p-2"),
    10.3: ("ec0f789b8b61e2c1", "0x1.413333bf3a8dep-1", "0x1.2b0d4d1b5f57ep-3"),
    20.0: ("bb9d71fa3ef8e252", "0x1.833543e2506a5p-1", "0x1.600c223b67e89p-4"),
    1e5: ("07cf08acb5878b1d", "0x1.ffe457973ab39p-1", "0x1.4f88704bf58c4p-16"),
    1e9: ("99d765d13b148fed", "0x1.fffffeac87ac8p-1", "0x1.12e0be72cf949p-29"),
}


@pytest.mark.parametrize("A", sorted(GRID_BITS))
def test_macdonald_w_grid_bits_are_pinned(A, pinned):
    xs = [A * (i + 1) / 34 for i in range(33)]
    ws = macdonald_w_grid(A, pinned(A).lam, [1.0 / x for x in xs])
    text = " ".join(v.hex() for w in ws for v in w)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert (digest, ws[16][0].hex(), ws[16][1].hex()) == GRID_BITS[A]
