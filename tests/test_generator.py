import math
from bisect import bisect_left

import pytest

from shiryaev_qsd.errors import DomainError
from shiryaev_qsd.generator import _TOL, Eigenfunction, march, taylor

# 40-digit mpmath values of the closed forms pdf = C e^{-1/x} W_{1,xi/2}(2/x)/x
# and cdf = C e^{-1/x} W_{0,xi/2}(2/x), C = 1 / (e^{-1/A} W_{0,xi/2}(2/A)), at
# the rate given, which is the oracle's root (bench/oracle.py) rounded to a
# double: the march runs at that same rate, so only the march is tested. Pairs
# (pdf, cdf) at x = 0.05A, 0.25A, 0.5A, 0.75A and 0.95A.
FRACTIONS = (0.05, 0.25, 0.5, 0.75, 0.95)
FROZEN = {
    0.5: (6.4493762414223745, (
        (6.49638953005150454963e-29, 2.03413007656560412675e-32),
        (0.00839156570697133723188, 0.0000687791115948911001848),
        (2.52584097440050891179, 0.0972122612371888510649),
        (4.94973712096010683273, 0.642885635276934104814),
        (1.2792243126872729237, 0.983942523811718441791),
    )),
    0.7: (3.925734405123843, (
        (4.71664130441537666672e-20, 2.89568850714266955668e-23),
        (0.0767121684614831026941, 0.00124153717986056584167),
        (2.65025721293902191851, 0.205573692239597516799),
        (2.74985437837716465359, 0.749752005286359517939),
        (0.574217573353758943356, 0.990021286691454251396),
    )),
    3.0: (0.5471307051568947, (
        (0.000655227655394925688333, 0.00000741145781855756683609),
        (0.797204569878269877425, 0.249007885567309048801),
        (0.45053977304224759706, 0.745704571213765094703),
        (0.141659705833777601763, 0.954059278899892911521),
        (0.0198420716585298735552, 0.998553037226513256803),
    )),
    20.0: (0.05885614862183967, (
        (0.359884037495333112649, 0.182949157296968461823),
        (0.055010444396763657685, 0.834582896366795683509),
        (0.0109711686197567729614, 0.965352967116843523299),
        (0.00256444826345729664263, 0.994692673068038764851),
        (0.000325184846026561620364, 0.999842749884099778294),
    )),
    1e3: (0.0010095171997629574, (
        (0.000739856513797601132944, 0.968297471173073969012),
        (0.0000241092768472855197643, 0.996750885939524341009),
        (0.00000403246917969402540677, 0.999380964703061669863),
        (8.96996030166651292744e-7, 0.999907851290727160687),
        (1.1185177475209459002e-7, 0.99999729805425257337),
    )),
    1e5: (1.0001849315229075e-05, (
        (7.59864547223021566584e-8, 0.999679916647770155888),
        (2.4003256334310184825e-9, 0.999967720812288888141),
        (4.00068426332616499782e-10, 0.999993861859294380855),
        (8.89049780590309478137e-11, 0.999999086808189069934),
        (1.10823754829630395679e-11, 0.999999973229368574783),
    )),
}
# points below the march's first node x0, served by the series at 0
BELOW_X0 = {
    20.0: (0.02, 2.62090779296465033042e-40, 5.24187609147343876279e-44),
    0.5: (0.01, 3.42982118075466072383e-80, 1.71545849337521033314e-84),
}


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("A", sorted(FROZEN))
def test_march_matches_frozen_closed_forms(A):
    lam, refs = FROZEN[A]
    e = Eigenfunction(A, lam)
    for frac, (pdf, cdf) in zip(FRACTIONS, refs):
        x = frac * A
        got_pdf, got_cdf = e.densities((x,), True)[0]
        assert rel(got_pdf, pdf) <= 1e-13, (A, frac)
        assert rel(got_cdf, cdf) <= 1e-13, (A, frac)


def test_series_below_the_first_node():
    for A, (x, pdf, cdf) in BELOW_X0.items():
        e = Eigenfunction(A, FROZEN[A][0])
        assert x < e.xs[0]
        got_pdf, got_cdf = e.densities((x,), True)[0]
        assert rel(got_pdf, pdf) <= 1e-13, A
        assert rel(got_cdf, cdf) <= 1e-13, A


def test_march_bit_determinism():
    for A in (0.7, 1e5):
        lam = FROZEN[A][0]
        a, b = Eigenfunction(A, lam), Eigenfunction(A, lam)
        assert (a.xs, a.fs, a.ds, a.flux) == (b.xs, b.fs, b.ds, b.flux)
        xs = [A * (i + 1) / 34 for i in range(33)]
        assert a.densities(xs) == b.densities(xs)
        assert a.densities(xs, True) == b.densities(xs, True)


def test_march_ends_at_A_with_unit_cdf():
    for A, (lam, _) in FROZEN.items():
        e = Eigenfunction(A, lam)
        assert e.xs[-1] == A
        assert abs(e.densities((A,), True)[0][1] - 1.0) <= 4.5e-16, A
        assert e.residual < 1e-13, A


def test_points_outside_the_support():
    e = Eigenfunction(20.0, FROZEN[20.0][0])
    for x in (0.0, -1.0, 20.000001):
        with pytest.raises(DomainError):
            e.densities((x,))
        with pytest.raises(DomainError):
            e.densities((x,), True)


@pytest.mark.parametrize("A", (0.5, 0.7, 20.0, 1e3, 1e5))
def test_dense_terms_match_a_fresh_taylor_step(A):
    # Horner over the stored terms of a step against the march's own
    # Taylor step from the node below, at 1,000 points, each fed through
    # the pdf and cdf formulas. f is measured against |f_j| + |(x - x_j) f'_j|,
    # the size of the leading terms both sums start from: near A, f -> 0
    # and both sums cancel, so f's plain relative gap reads up to 5e-14
    # there for either sum
    e = Eigenfunction(A, FROZEN[A][0])
    xs, refs = [], []
    for i in range(1000):
        x = A * (i + 1) / 1001
        j = bisect_left(e.xs, x) - 1
        if j < 0 or x == e.xs[j + 1]:
            continue
        x0, f0, d0 = e.xs[j], e.fs[j], e.ds[j]
        h = x - x0
        f, g = taylor(x0, h, e.lam, f0, h * d0, _TOL * min(abs(f0), abs(h * d0)))
        xs.append(x)
        refs.append((f, g / h, abs(f0) + abs(h * d0)))
    got = e.densities(xs, True)
    # the pdf-only Horner sum is the f of the joint one, bit for bit
    assert e.densities(xs) == [p for p, _ in got]
    worst_f = worst_d = 0.0
    for x, (p, c), (f, d, size) in zip(xs, got, refs):
        unit = e.lam * 2.0 / (x * x) * math.exp(-2.0 / x) / e.flux   # pdf per unit f
        worst_f = max(worst_f, abs(p - unit * f) / (unit * size))
        worst_d = max(worst_d, rel(c, -math.exp(-2.0 / x) * d / e.flux))
    assert worst_f <= 2e-15, worst_f
    assert worst_d <= 2e-15, worst_d


@pytest.mark.parametrize("A", (0.5, 20.0, 1e5))
def test_dense_values_at_nodes_are_the_marched_ones(A):
    e = Eigenfunction(A, FROZEN[A][0])
    want = [
        (e.lam * 2.0 / (x * x) * math.exp(-2.0 / x) * f / e.flux,
         -math.exp(-2.0 / x) * d / e.flux)
        for x, f, d in zip(e.xs, e.fs, e.ds)
    ]
    assert e.densities(e.xs, True) == want
    assert e.densities(e.xs) == [p for p, _ in want]
    assert e.densities((A,), True) == [(e.densities((A,))[0], 1.0)]


@pytest.mark.parametrize("A", (0.7, 1e5))
def test_batch_matches_one_point_calls(A):
    # a batch gives each point what a one-point call gives it; a batch
    # spanning the series below x0, march nodes and interior points
    e = Eigenfunction(A, FROZEN[A][0])
    xs = [0.5 * e.xs[0], *e.xs[::7], *(A * (i + 1) / 34 for i in range(33))]
    assert e.densities(xs) == [e.densities((x,))[0] for x in xs]
    assert e.densities(xs, True) == [e.densities((x,), True)[0] for x in xs]
    with pytest.raises(DomainError):
        e.densities([A, A * (1.0 + 1e-15)])


@pytest.mark.parametrize("A", (0.5, 20.0, 1e5, 1e9))
def test_steps_keep_the_step_rule(A, solved):
    # every step from x_j is at most min(x_j^2, x_j/3) and passes the Sturm
    # bound h sqrt(2 lam/x_j^2 + 2/x_j^3) < pi; the last step, which runs to
    # A, may be up to 1.001 times the first bound
    e = Eigenfunction(A, solved(A).lam)
    assert len(e.steps) == len(e.xs) - 1
    for j, (x, (h, _)) in enumerate(zip(e.xs, e.steps)):
        cap = min(x * x, x / 3.0) * (1.001 if j == len(e.steps) - 1 else 1.0)
        assert h <= cap, (A, x, h)
        assert h * math.sqrt(2.0 * e.lam / (x * x) + 2.0 / x**3) < math.pi, (A, x, h)


def test_eigenfunction_bounded_by_one_up_to_2(solved):
    # E = f^2 + x^2 f'^2 / (2 lam) has E' = (x - 2) f'^2 / lam <= 0 and
    # E(0+) = 1, so |f| <= 1 on (0, 2] at any rate lam > 0; the quadrature
    # leaves out its left tail on that bound. Marches at rates from 1e-5 to
    # 1e3, and at the solved rate of 0.8 and 20 times 2 and 1e3
    cases = [(2.0, lam) for lam in (1e-5, 1e-3, 0.1, 1.0, 10.0, 1e3)]
    for A in (0.8, 20.0):
        lam = solved(A).lam
        cases += [(A, 2.0 * lam), (A, 1e3 * lam)]
    for A, lam in cases:
        nodes = [(x, f, d) for x, f, d in zip(*march(A, lam, _TOL)) if x <= 2.0]
        assert len(nodes) > 30, (A, lam)
        assert max(abs(f) for _, f, _ in nodes) < 1.0, (A, lam)
        energy = [f * f + x * x * d * d / (2.0 * lam) for x, f, d in nodes]
        assert energy[0] < 1.0, (A, lam)
        assert all(b < a for a, b in zip(energy, energy[1:])), (A, lam)
