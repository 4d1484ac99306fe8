import json
import math

import shiryaev_qsd.cli as cli
from shiryaev_qsd.moments import moment_frac
from shiryaev_qsd.quadrature import normalization_check, quad_moment
from shiryaev_qsd.spectral import EigenSystem, assemble_system
from shiryaev_qsd.verify import run_checks

EXPECTED_ROWS = {
    "rate-bracket",
    "index-identity",
    "eigencondition-residual",
    "normalizer-positive",
    "normalizer-endpoint",
    "normalizer-series",
    "quadrature-normalization",
    "pdf-nonnegative",
    "cdf-monotone",
    "cdf-endpoint",
    "dominates-stationary-cdf",
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
    # the residual-based rows are the sensitive ones by design
    assert "eigencondition-residual" in failed
    assert "normalizer-series" in failed


def test_shrunk_normalizer_fails_cdf_endpoint(solved):
    # the closed-form cdf must reach 1 just below A; a normalizer 1e-9 low
    # passes every other row
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        bad = EigenSystem(
            A=es.A, lam=es.lam, xi=es.xi, C=es.C * (1.0 - 1e-9),
            residual=es.residual, validate=False,
        )
        failed = [r.name for r in run_checks(bad) if not r.passed]
        assert failed == ["cdf-endpoint"], (A, failed)


def test_shared_density_leaves_quadrature_metrics_unchanged(solved, capsys):
    # the battery's quadratures share one memoised density; every metric
    # must equal the one recomputed through the unshared public routes, and
    # the CLI's moment check, which applies the same dual-route rule
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        got = {r.name: r.residual for r in run_checks(es)}
        assert got["quadrature-normalization"] == abs(normalization_check(es) - 1.0)
        argv = ["moment", "--A", repr(A), "--s", "0.5", "--s", repr(math.pi), "--check"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        cli_rows = {c["name"]: c["residual"] for c in doc["checks"]}
        for s in (0.5, math.pi):
            q = quad_moment(s, es)
            want = abs(moment_frac(s, es).value - q) / max(abs(q), 1e-300)
            assert got[f"moment-dual-route[s={s:g}]"] == want, (A, s)
            assert cli_rows[f"dual-route[s={s!r}]"] == want, (A, s)
