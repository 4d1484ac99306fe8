import json
import math

import pytest

import shiryaev_qsd.cli as cli
import shiryaev_qsd.distribution as distribution
import shiryaev_qsd.verify as verify
from shiryaev_qsd.errors import ConsistencyError, ConvergenceError
from shiryaev_qsd.generator import Eigenfunction
from shiryaev_qsd.moments import moment_frac, moment_log
from shiryaev_qsd.quadrature import quad_moments
from shiryaev_qsd.spectral import EigenSystem, assemble_system
from shiryaev_qsd.verify import run_checks

EXPECTED_ROWS = {
    "rate-bracket",
    "normalizer-positive",
    "normalizer-series",
    "quadrature-normalization",
    "pdf-nonnegative",
    "cdf-monotone",
    "cdf-endpoint",
    "dominates-stationary-cdf",
    "rate-generator",
    "pdf-generator",
    "cdf-generator",
}


def test_battery_passes_and_covers(solved):
    for A in (1.0, 20.0, 100.0):
        rows = run_checks(solved(A))
        names = {r.name for r in rows}
        assert EXPECTED_ROWS <= names, A
        assert any(n.startswith("moment-recurrence[") for n in names)
        assert any(n.startswith("moment-integer-consistency[") for n in names)
        assert any(n.startswith("moment-dual-route[") for n in names)
        bad = [(r.name, r.residual) for r in rows if not r.passed]
        assert bad == [], (A, bad)


def test_metrics_are_finite_on_pass(solved):
    for row in run_checks(solved(20.0)):
        assert math.isfinite(row.residual), row


def test_perturbed_rate_caught(solved):
    es = solved(20.0)
    wrong = assemble_system(es.A, es.lam * (1.0 + 1e-3), validate=False)
    rows = run_checks(wrong)
    failed = [r.name for r in rows if not r.passed]
    assert len(failed) >= 3
    # the series normalizer and the march each see the wrong rate
    assert "normalizer-series" in failed
    assert "rate-generator" in failed


def test_shrunk_normalizer_fails_cdf_endpoint(solved):
    # the closed-form cdf must reach 1 just below A, and the closed-form pdf
    # and cdf must match the generator's, which carry no normalizer, and the
    # series normalizer reads it 1e-9 off against its 1e-10 gate; a
    # normalizer 1e-9 low passes every other row
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        bad = EigenSystem(
            A=es.A, lam=es.lam, C=es.C * (1.0 - 1e-9),
            residual=es.residual, validate=False,
        )
        failed = [r.name for r in run_checks(bad) if not r.passed]
        assert failed == [
            "normalizer-series", "pdf-generator", "cdf-endpoint", "cdf-generator",
        ], (A, failed)


def test_rate_moved_off_its_normalizer_fails_generator_rows(solved):
    # a rate moved by a factor 1 + p, its normalizer left behind: the march
    # no longer vanishes at A, and the W route's pdf no longer matches the
    # generator's. At p = 1 and A = 0.8 the march's endpoint flux changes
    # sign, so the rows that read the march fail with no metric.
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        for p in (1e-9, 1e-6, 1.0):
            lam = es.lam * (1.0 + p)
            bad = EigenSystem(
                A=es.A, lam=lam, C=es.C,
                residual=es.residual, validate=False,
            )
            rows = {r.name: r for r in run_checks(bad)}
            failed = {name for name, r in rows.items() if not r.passed}
            assert {"pdf-generator", "rate-generator"} <= failed, (A, p, failed)
            if (A, p) == (0.8, 1.0):
                assert rows["rate-generator"].residual == math.inf
                with pytest.raises(ConsistencyError):
                    Eigenfunction(A, lam)


def test_shared_density_leaves_quadrature_metrics_unchanged(solved, capsys):
    # the battery's three integrals, and those of one `moment --check`
    # request, come from one quadrature pass each; every metric must equal
    # the one recomputed from the public quad_moments call, bit for bit
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        got = {r.name: r.residual for r in run_checks(es)}
        mass, *qs = quad_moments(es, (0.5, math.pi))
        assert got["quadrature-normalization"] == abs(mass - 1.0)
        argv = ["moment", "--A", repr(A), "--s", "0.5", "--s", repr(math.pi), "--log", "--check"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        cli_rows = {c["name"]: c["residual"] for c in doc["checks"]}
        _, *cli_qs, q_log = quad_moments(es, (0.5, math.pi), log=True)
        for s, q, q_cli in zip((0.5, math.pi), qs, cli_qs):
            closed = moment_frac(s, es).value
            want = abs(closed - q) / max(abs(q), 1e-300)
            assert got[f"moment-dual-route[s={s:g}]"] == want, (A, s)
            want = abs(closed - q_cli) / max(abs(q_cli), 1e-300)
            assert cli_rows[f"dual-route[s={s!r}]"] == want, (A, s)
        want = abs(moment_log(es) - q_log) / max(abs(q_log), 1e-300)
        assert cli_rows["dual-route[log]"] == want, A


# rows that fail on a solved system at the edges of verify's range: none at
# small A, where a Laplace W pdf reads pdf-generator 1.5e-11 and 1.1e-12 at
# A = 0.2 and 0.25; at large A only the integer moments, as M(1) = A - 1/lam
# cancels, where a W pdf with xi rounded reads pdf-generator 1.0e-12 at 1e7
# and 1.9e-11 at 1e8. The generator rows read at most 3.1e-14 on these four
EDGE_FAILURES = {
    0.2: set(),
    0.25: set(),
    1e7: {"moment-integer-consistency[n=2]"},
    1e8: {"moment-integer-consistency[n=1]", "moment-integer-consistency[n=2]"},
}


@pytest.mark.parametrize("A", sorted(EDGE_FAILURES))
def test_verify_edges_fail_only_the_named_rows(A, solved):
    rows = run_checks(solved(A))
    assert {r.name for r in rows if not r.passed} == EDGE_FAILURES[A], A


def test_battery_pdf_evaluation_budget(solved, monkeypatch):
    # a battery sums the Macdonald form of W in one grid pass over the
    # 33-point grid, for both closed forms, and once at a single point for
    # `cdf-endpoint`; the grid takes one batched call of the dense march for
    # both of the generator's values at all 33 points. Its one quadrature
    # pass evaluates the march's pdf in one batch of 15 nodes per GK15
    # panel: 105, 180 and 210 nodes, within 5% here, after the two leading
    # seed panels that the tail bound leaves out (135, 210 and 240 nodes
    # with them)
    for A, budget in ((20.0, 110), (1e4, 189), (1e5, 220)):
        es = solved(A)
        calls = {"w": 0, "grid": 0, "pdf_cdf": 0, "pdf": 0}
        nodes = {"grid": 0, "pdf_cdf": 0, "pdf": 0}

        def counted_w(*args):
            calls["w"] += 1
            return macdonald_w(*args)

        def counted_grid(A, lam, Xs):
            calls["grid"] += 1
            nodes["grid"] += len(Xs)
            return macdonald_w_grid(A, lam, Xs)

        def counted_densities(self, xs, cdf=False):
            key = "pdf_cdf" if cdf else "pdf"
            calls[key] += 1
            nodes[key] += len(xs)
            return densities(self, xs, cdf)

        macdonald_w, macdonald_w_grid = distribution.macdonald_w, verify.macdonald_w_grid
        densities = Eigenfunction.densities
        with monkeypatch.context() as m:
            m.setattr(verify, "macdonald_w_grid", counted_grid)
            m.setattr(distribution, "macdonald_w", counted_w)
            m.setattr(Eigenfunction, "densities", counted_densities)
            run_checks(es)
        assert (calls["grid"], nodes["grid"]) == (1, verify.GRID_POINTS), (A, calls)
        assert calls["w"] == 1, (A, calls)
        assert (calls["pdf_cdf"], nodes["pdf_cdf"]) == (1, verify.GRID_POINTS), (A, calls)
        assert nodes["pdf"] == 15 * calls["pdf"], (A, calls, nodes)
        assert 0 < nodes["pdf"] <= budget, (A, nodes)


# the rows of run_checks after sys.checks that read each battery input,
# directly or through another input: the quadrature pass and the W grid
# ("pair": W_0 and W_1 at each point, from one grid pass) feed several
# rows, and the march feeds the quadrature
_QUAD_ROWS = {
    "quadrature-normalization", "moment-dual-route[s=0.5]", "moment-dual-route[s=3.14159]"}
_CDF_ROWS = {"cdf-monotone", "cdf-endpoint", "dominates-stationary-cdf"}
_INPUT_READERS = {
    "quad_moments": _QUAD_ROWS,
    "moment_frac": {
        "moment-recurrence[s=0.5]", "moment-recurrence[s=1.5]",
        "moment-recurrence[s=3.14159]", "moment-integer-consistency[n=1]",
        "moment-integer-consistency[n=2]", "moment-integer-consistency[n=3]",
        "moment-dual-route[s=0.5]", "moment-dual-route[s=3.14159]",
    },
    "moment_integer": {
        "moment-integer-consistency[n=1]", "moment-integer-consistency[n=2]",
        "moment-integer-consistency[n=3]",
    },
    "generator": {"rate-generator", *_QUAD_ROWS, "pdf-generator", "cdf-generator"},
    "pair": {"pdf-nonnegative", "pdf-generator", *_CDF_ROWS, "cdf-generator"},
    "qsd_cdf": _CDF_ROWS,
}


@pytest.mark.parametrize("exc", (ConsistencyError, ConvergenceError, OverflowError))
@pytest.mark.parametrize("source", sorted(_INPUT_READERS))
def test_raising_input_fails_exactly_its_rows(solved, monkeypatch, source, exc):
    # one rule turns an absorbed exception into a failed row with residual
    # inf: every row that reads the raising input fails that way, every
    # other row keeps its clean value, and the names keep their order
    def raising(*args, **kwargs):
        raise exc(f"{source} raised")

    for A in (0.8, 20.0):
        es = solved(A)
        clean = run_checks(es)
        with monkeypatch.context() as m:
            if source == "generator":
                m.setattr(EigenSystem, "generator", property(raising))
            elif source == "pair":
                m.setattr(verify, "macdonald_w_grid", raising)
            else:
                m.setattr(verify, source, raising)
            rows = run_checks(es)
        assert [r.name for r in rows] == [r.name for r in clean], (A, source)
        assert _INPUT_READERS[source] <= {r.name for r in clean}, source
        for row, want in zip(rows, clean):
            if row.name in _INPUT_READERS[source]:
                assert row == (row.name, False, math.inf), (A, source, row)
            else:
                assert row == want, (A, source, row)
