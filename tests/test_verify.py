import json
import math

import shiryaev_qsd.cli as cli
import shiryaev_qsd.verify as verify
from shiryaev_qsd.distribution import qsd_pdf
from shiryaev_qsd.moments import moment_frac, moment_log
from shiryaev_qsd.quadrature import normalization_check, quad_log_moment, quad_moment
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
    # the battery's quadratures, and those of one `moment --check` request,
    # share one memoised density; every metric must equal the one
    # recomputed through the unshared public routes
    for A in (0.8, 20.0, 1e4):
        es = solved(A)
        got = {r.name: r.residual for r in run_checks(es)}
        assert got["quadrature-normalization"] == abs(normalization_check(es) - 1.0)
        argv = ["moment", "--A", repr(A), "--s", "0.5", "--s", repr(math.pi), "--log", "--check"]
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        cli_rows = {c["name"]: c["residual"] for c in doc["checks"]}
        for s in (0.5, math.pi):
            q = quad_moment(s, es)
            want = abs(moment_frac(s, es).value - q) / max(abs(q), 1e-300)
            assert got[f"moment-dual-route[s={s:g}]"] == want, (A, s)
            assert cli_rows[f"dual-route[s={s!r}]"] == want, (A, s)
        q = quad_log_moment(es)
        want = abs(moment_log(es) - q) / max(abs(q), 1e-300)
        assert cli_rows["dual-route[log]"] == want, A


def test_battery_pdf_evaluation_budget(solved, monkeypatch):
    # qsd_pdf calls of one battery, the 33-point grid included: 168, 243 and
    # 273 with GK15 on panels in log x, 318, 663 and 753 on panels in x
    for A, budget in ((20.0, 185), (1e4, 267), (1e5, 300)):
        es = solved(A)
        calls = 0

        def counted(x, sys):
            nonlocal calls
            calls += 1
            return qsd_pdf(x, sys)

        with monkeypatch.context() as m:
            m.setattr(verify, "qsd_pdf", counted)
            run_checks(es)
        assert calls <= budget, (A, calls)
