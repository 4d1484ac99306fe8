import json
import math

import pytest

from shiryaev_qsd.errors import DomainError
from shiryaev_qsd.moments import moment_frac
from shiryaev_qsd.report import SCHEMA_VERSION, CheckRow, EvalReport, ResultRow, _emit, _escape


def _report(**kw):
    base = dict(command="eig", inputs={"A": 20.0, "tol": 1e-12})
    base.update(kw)
    return EvalReport(**base)


def test_json_round_trips_doubles():
    ugly = 0.1 + 0.2  # not representable, classic round-trip trap
    rep = _report(results=[ResultRow("x", ugly, "closed_form")])
    doc = json.loads(rep.to_json())
    assert doc["results"][0]["value"] == ugly
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["inputs"]["A"] == 20.0


def test_json_complex_as_re_im():
    rep = _report(results=[ResultRow("index", complex(0.0, 0.25), "closed_form")])
    doc = json.loads(rep.to_json())
    assert doc["results"][0]["value"] == {"re": 0.0, "im": 0.25}


def test_json_string_escaping():
    rep = _report(command='weird "name"\twith\\controls')
    doc = json.loads(rep.to_json())
    assert doc["command"] == 'weird "name"\twith\\controls'


def _escape_by_loop(s):
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out) + '"'


def test_escape_matches_the_per_character_loop():
    names = [
        "",
        "rate",
        "pdf[x=1.5]",
        "dual-route[s=-0.7]",
        "caf\u00e9 \u03be",                # printable non-ASCII
        'say "hi"',
        "back\\slash",
        "tab\there",
        "nul\x00 and unit sep\x1f",
        "del\x7f, nbsp\u00a0, line sep\u2028",  # not printable, not escaped
        '"\\\n',
    ]
    for s in names:
        assert _escape(s) == _escape_by_loop(s), repr(s)
        assert json.loads(_escape(s)) == s, repr(s)


def test_nonfinite_rejected():
    rep = _report(results=[ResultRow("x", float("nan"), "quadrature")])
    with pytest.raises(DomainError):
        rep.to_json()
    rep = _report(results=[ResultRow("x", float("inf"), "quadrature")])
    with pytest.raises(DomainError):
        rep.to_csv()


def test_unevaluated_check_renders_empty():
    # a check whose evaluation raised carries residual inf; it renders as
    # JSON null and an empty CSV field instead of aborting the report
    rep = _report(checks=[CheckRow("norm", True, 0.25), CheckRow("pdf", False, math.inf)])
    doc = json.loads(rep.to_json())
    assert [c["residual"] for c in doc["checks"]] == [0.25, None]
    assert doc["ok"] is False
    lines = rep.to_csv().splitlines()
    assert lines[1] == "norm,true,0.25"
    assert lines[2] == "pdf,false,"


def test_provenance_validated():
    with pytest.raises(DomainError):
        ResultRow("x", 1.0, "vibes")
    for p in ("closed_form", "quadrature", "identity"):
        ResultRow("x", 1.0, p)


def test_records_are_read_only(solved):
    es = solved(20.0)
    records = [
        (es, "lam"),
        (moment_frac(0.5, es), "value"),
        (ResultRow("x", 1.0, "identity"), "value"),
        (CheckRow("a", True, 0.0), "passed"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, 2.0)


def test_reports_get_fresh_lists():
    a, b = EvalReport("eig", {}), EvalReport("eig", {})
    a.results.append(ResultRow("x", 1.0, "identity"))
    a.checks.append(CheckRow("a", True, 0.0))
    assert b.results == [] and b.checks == []


def test_ok_follows_checks():
    assert _report().ok  # vacuous
    assert _report(checks=[CheckRow("a", True, 0.0)]).ok
    assert not _report(checks=[CheckRow("a", True, 0.0), CheckRow("b", False, 9.0)]).ok


def test_csv_results_table():
    rep = _report(
        results=[
            ResultRow("rate", 0.0588561486218396687779, "closed_form"),
            ResultRow("index", complex(0.75, -0.5), "closed_form"),
        ],
        checks=[CheckRow("ignored-when-results-present", True, 0.0)],
    )
    lines = rep.to_csv().splitlines()
    assert lines[0] == "name,value,provenance"
    assert lines[1].startswith("rate,0.058856148621839")
    assert "0.75-0.5j" in lines[2]
    assert len(lines) == 3


def test_csv_checks_table():
    rep = _report(checks=[CheckRow("norm", True, 2.5e-13), CheckRow("mono", False, 1.0)])
    lines = rep.to_csv().splitlines()
    assert lines[0] == "name,passed,residual"
    assert lines[1].split(",")[1] == "true"
    assert lines[2].split(",")[1] == "false"


def test_json_is_deterministic():
    rep = _report(
        results=[ResultRow("rate", math.pi, "closed_form")],
        checks=[CheckRow("norm", True, 1e-14)],
    )
    assert rep.to_json() == rep.to_json()
    assert rep.to_csv() == rep.to_csv()


def _document(rep):
    # the report as a plain document, rendered by the generic _emit walk
    return _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": rep.command,
            "inputs": rep.inputs,
            "results": [
                {"name": r.name, "value": r.value, "provenance": r.provenance}
                for r in rep.results
            ],
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual if math.isfinite(c.residual) else None,
                }
                for c in rep.checks
            ],
            "ok": rep.ok,
        }
    )


@pytest.mark.parametrize(
    "rep",
    [
        # a verify report: checks only, one unevaluated (null), so ok is false
        _report(
            command="verify",
            inputs={"A": 0.8, "tol": 1e-12, "perturb_lambda": 1.0},
            checks=[
                CheckRow("rate-bracket", False, 3.5),
                CheckRow("norm", False, math.inf),
                CheckRow("gap", True, -0.0),
                CheckRow("nan", False, math.nan),
            ],
        ),
        # verify with no rows at all
        _report(command="verify", inputs={"A": 20.0, "tol": 1e-12}),
        _report(
            inputs={"A": 7.5, "tol": 1e-12, "x": [0.5, 3.0], "log": True},
            results=[
                ResultRow("rate", 0.1 + 0.2, "closed_form"),
                ResultRow("index", complex(0.0, 0.25), "identity"),
                ResultRow("index", complex(-1e-300, -5e300), "identity"),
                ResultRow('say "hi"\\\t\x00\x1f', 1e-320, "quadrature"),
            ],
            checks=[CheckRow('q"\\\n', True, 2.5e-13)],
        ),
        _report(command='weird "name"\twith\\controls', inputs={'k"\x01': [1, None, "s"]}),
    ],
)
def test_json_matches_the_generic_walk(rep):
    assert rep.to_json() == _document(rep)
