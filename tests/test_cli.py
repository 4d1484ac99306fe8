import contextlib
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiryaev_qsd.cli as cli
import shiryaev_qsd.quadrature as quadrature
from shiryaev_qsd.distribution import qsd_cdf, qsd_pdf
from shiryaev_qsd.errors import (
    ConsistencyError,
    ConvergenceError,
    DenominatorPoleError,
    DomainError,
    PoleError,
    RegimeError,
    ToleranceNotMetError,
)
from shiryaev_qsd.spectral import solve_lambda


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
_IMPORT_SET = """
import sys
sys.path.insert(0, sys.argv[1])
import shiryaev_qsd.cli as cli
heavy = {"dataclasses", "inspect", "typing", "csv"}
print(sorted(heavy & set(sys.modules)))
cli.main(["pdf", "--A", "20", "--x", "3", "--format", "csv"])
"""


def test_cli_import_loads_no_heavy_standard_modules():
    # -S: a site module may load typing on its own; csv loads only to write
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SET, str(_SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == (
        "[]\n"
        "name,value,provenance\n"
        "pdf[x=3.0],0.13402287711300787,closed_form\n"
    )


_COMMAND_MODULES = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import shiryaev_qsd.cli as cli
lazy = {"generator", "distribution", "moments", "quadrature", "verify"}
loaded = lambda: sorted(m for m in lazy if "shiryaev_qsd." + m in sys.modules)
print(loaded())
for argv in (["eig", "--A", "20"], ["pdf", "--A", "20", "--x", "3"], ["verify", "--A", "20"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(loaded())
"""


def test_each_command_loads_only_the_modules_it_runs():
    # the CLI imports each command's modules in its handler and spectral
    # imports generator only to march: eig loads none of the five deferred
    # modules, pdf distribution alone, verify all five
    out = subprocess.run(
        [sys.executable, "-S", "-c", _COMMAND_MODULES, str(_SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.splitlines() == [
        "[]",
        "[]",
        "['distribution']",
        "['distribution', 'generator', 'moments', 'quadrature', 'verify']",
    ]


def test_eig_json(capsys):
    code, out, err = run(capsys, "eig", "--A", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "eig"
    assert doc["inputs"] == {"A": 20.0}
    assert doc["ok"] is True
    by_name = {r["name"]: r for r in doc["results"]}
    assert abs(by_name["rate"]["value"] - 0.0588561486218396688) < 1e-12
    assert by_name["rate"]["provenance"] == "closed_form"
    assert by_name["boundary-residual"]["provenance"] == "identity"


def test_eig_csv_shape(capsys):
    code, out, _ = run(capsys, "eig", "--A", "20", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,value,provenance"
    assert any(line.startswith("rate,") for line in lines)


def test_imaginary_regime_index_serializes(capsys):
    # A below the oscillatory crossover: index is purely imaginary
    code, out, _ = run(capsys, "eig", "--A", "1")
    assert code == 0
    doc = json.loads(out)
    by_name = {r["name"]: r for r in doc["results"]}
    idx = by_name["index"]["value"]
    assert idx["re"] == 0.0
    assert idx["im"] > 0.0


def test_pdf_and_cdf_points(capsys):
    code, out, _ = run(capsys, "pdf", "--A", "20", "--x", "1.5", "--x", "10")
    assert code == 0
    doc = json.loads(out)
    names = [r["name"] for r in doc["results"]]
    assert names == ["pdf[x=1.5]", "pdf[x=10.0]"]
    code, out, _ = run(capsys, "cdf", "--A", "20", "--x", "20")
    vals = [r["value"] for r in json.loads(out)["results"]]
    assert abs(vals[0] - 1.0) < 1e-12


def test_moment_with_check(capsys):
    code, out, _ = run(
        capsys, "moment", "--A", "20", "--s", "0.3", "--s", "-0.7", "--check", "--log"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    kinds = {c["name"] for c in doc["checks"]}
    assert "dual-route[s=0.3]" in kinds
    assert "dual-route[log]" in kinds
    for c in doc["checks"]:
        assert c["residual"] < 1e-8


def test_table_grid(capsys):
    code, out, _ = run(capsys, "table", "--A", "5", "--points", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 10  # pdf and cdf per node
    assert doc["results"][0]["name"] == "pdf[x=0.0]"


@pytest.mark.parametrize("A", ("0.7", "20", "1e5"))
def test_table_matches_the_point_functions(capsys, A, solved):
    # table reads its interior points from one Macdonald grid pass, which
    # sums the nodes of the point functions: the same bits at every point;
    # the endpoints keep their rules
    code, out, err = run(capsys, "table", "--A", A, "--points", "65")
    assert code == 0, err
    es = solved(float(A))
    rows = json.loads(out)["results"]
    assert len(rows) == 130
    for pdf_row, cdf_row in zip(rows[::2], rows[1::2]):
        x = float(pdf_row["name"][len("pdf[x="):-1])
        pdf, cdf = pdf_row["value"], cdf_row["value"]
        if x in (0.0, es.A):
            assert (pdf, cdf) == (0.0, 0.0 if x == 0.0 else 1.0), (A, x)
            continue
        assert (pdf, cdf) == (qsd_pdf(x, es), qsd_cdf(x, es)), (A, x)


@pytest.mark.parametrize("A", ("0.6", "3", "10.3", "20", "1e3", "1e5"))
def test_point_requests_print_the_table_rows(capsys, A):
    # pdf --x and cdf --x at each interior point of a table print that
    # table's row byte for byte, at imaginary (0.6, 3) and real indices
    code, out, err = run(capsys, "table", "--A", A, "--points", "9")
    assert code == 0, err
    xs = [float(r["name"][len("pdf[x="):-1]) for r in json.loads(out)["results"][::2]]
    assert len(xs) == 9
    for x in xs[1:-1]:
        for cmd in ("pdf", "cdf"):
            code, point, err = run(capsys, cmd, "--A", A, "--x", repr(x))
            assert code == 0, err
            row = point[point.index('"results":[') + len('"results":['):point.index('],"checks"')]
            assert row.startswith(f'{{"name":"{cmd}[x={x!r}]"') and row in out, (A, row)


@pytest.mark.parametrize(
    "A, points",
    [("7.804667522990713", 10), ("6488.24373215018", 4), ("445.75230493229776", 7)],
)
def test_table_ends_at_A(capsys, A, points):
    # A * (n - 1) / (n - 1) rounds one ulp past A at these inputs; the last
    # point must be A itself, where the pdf is 0 and the cdf 1
    code, out, err = run(capsys, "table", "--A", A, "--points", str(points))
    assert code == 0, err
    last_pdf, last_cdf = json.loads(out)["results"][-2:]
    assert last_pdf["name"] == f"pdf[x={float(A)!r}]"
    assert (last_pdf["value"], last_cdf["value"]) == (0.0, 1.0)


def test_verify_clean_and_perturbed(capsys):
    code, out, _ = run(capsys, "verify", "--A", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and len(doc["checks"]) >= 10

    code, out, _ = run(capsys, "verify", "--A", "20", "--perturb-lambda", "1e-3")
    assert code == 1
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert len(failed) >= 3  # a wrong rate cannot sneak through

    # rows whose evaluation raised carry no residual; they still render
    code, out, _ = run(capsys, "verify", "--A", "20", "--perturb-lambda", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False


@pytest.mark.parametrize("A", ["0.8", "20"])
def test_verify_far_off_rate_still_reports(capsys, A):
    # a doubled rate: at A = 0.8 the endpoint W is negative, so the system's
    # normalizer is too, and the rows that read it fail instead of the
    # request aborting before the battery
    code, out, err = run(capsys, "verify", "--A", A, "--perturb-lambda", "1")
    assert code == 1 and err == ""
    doc = json.loads(out)
    rows = {c["name"]: c for c in doc["checks"]}
    assert doc["ok"] is False
    assert rows["rate-bracket"]["passed"] is False
    assert rows["pdf-generator"]["passed"] is False
    if A == "0.8":
        assert rows["normalizer-positive"]["residual"] < 0.0
        assert rows["normalizer-series"]["residual"] is None


def test_exit_code_bad_inputs(capsys):
    assert run(capsys, "pdf", "--A", "20", "--x", "-3")[0] == 2
    assert run(capsys, "eig", "--A", "-1")[0] == 2
    assert run(capsys, "eig", "--A", "1e-300")[0] == 2  # A*A underflows
    assert run(capsys, "eig", "--A", "1e-154")[0] == 2  # 8 * rate overflows
    assert run(capsys, "table", "--A", "5", "--points", "1")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--A", "20", "--s", "-1e-3"),
        ("moment", "--A", "20", "--s", "-5E-1"),
        ("cdf", "--A", "20", "--x", "-1e-3"),
        ("pdf", "--A", "20", "--x", "-1e-3"),
        ("cdf", "--A", "20", "--x", "-inf"),
        ("pdf", "--A", "20", "--x", "-Infinity"),
        ("moment", "--A", "20", "--s", "-inf"),
        ("moment", "--A", "20", "--s", "-NaN"),
        ("eig", "--A", "-inf"),
        ("verify", "--A", "-INF"),
    ],
)
def test_negative_values_in_exponent_notation(capsys, argv):
    # argparse on its own reads -1e-3, the repr of a small negative order,
    # and -inf as option flags and exits 2 with a usage error; both
    # spellings must give the same bytes, and a value outside the domain
    # the package's own message
    *head, option, value = argv
    spaced = run(capsys, *argv)
    joined = run(capsys, *head, f"{option}={value}")
    assert spaced == joined
    bad = argv[0] == "pdf" or not math.isfinite(float(value))
    assert spaced[0] == (2 if bad else 0)
    assert "expected one argument" not in spaced[2]
    if bad:
        assert spaced[2].startswith("error: "), spaced[2]


# 40-digit mpmath roots of W_{1, xi/2}(2/A) (bench/oracle.py's at 0.1 and
# 0.1125; at 0.0724 its Anderson step misses its tolerance, and an Illinois
# root seeded within 1e-9 of the package's rate stands in)
LOW_EDGE_RATES = {
    "0.0724": 151.0933961407925098,
    "0.1": 86.25743426518078701,
    "0.1125": 70.523860095916049572,
}


@pytest.mark.parametrize("A", sorted(LOW_EDGE_RATES))
def test_eig_passes_below_the_certified_range(capsys, A):
    # below the certificate's documented range (from 0.1608) it still proves
    # these roots, and the series normalizer reads 8.2e-13 to 1.7e-12
    # against its 1e-10 gate; the rate is within 6.2e-13 of mpmath's
    code, out, err = run(capsys, "eig", "--A", A)
    assert code == 0 and err == "", err
    doc = json.loads(out)
    rate = {r["name"]: r["value"] for r in doc["results"]}["rate"]
    assert abs(rate - LOW_EDGE_RATES[A]) / LOW_EDGE_RATES[A] < 1e-12, rate
    assert all(c["passed"] for c in doc["checks"]), doc["checks"]


@pytest.mark.parametrize("A", ("0.0625", "1.2724849808380784e+162"))
def test_no_sign_change_on_the_bracket_exits_3(capsys, A):
    # at 0.0625 W has one sign on the proven rate bracket; the solve tries
    # no wider bracket, on which a root failed `normalizer-series` (exit 1).
    # At 1.27e162 the bracket is one point and W there is 0, which is no
    # sign change either; Brent would return it and the battery would
    # divide by the bracket's zero width
    code, out, err = run(capsys, "eig", "--A", A)
    assert code == 3 and out == ""
    assert "proven bracket" in err


@pytest.mark.parametrize("A, code", (("0.0177", 2), ("0.0178", 2), ("0.01785", 3)))
def test_macdonald_index_ceiling_edge(capsys, A, code):
    # the bracket top's beta passes the Macdonald sum's index ceiling, 80.64,
    # between 0.01785 (80.62; W has one sign on the bracket, exit 3) and
    # 0.0178 (80.84): a DomainError, exit 2, that names the sum's ceiling
    error = DomainError if code == 2 else ConvergenceError
    with pytest.raises(error) as err:
        solve_lambda(float(A))
    assert type(err.value) is error
    got, out, msg = run(capsys, "eig", "--A", A)
    assert (got, out) == (code, "")
    assert ("passes the Macdonald sum's index ceiling 80.64" in msg) == (code == 2), msg


def test_table_points_above_the_cap_fail_before_solving(capsys, monkeypatch):
    def solve(*args, **kw):
        raise AssertionError("solved")

    with monkeypatch.context() as m:
        m.setattr(cli, "solve_lambda", solve)
        for points in (cli._TABLE_POINTS_MAX + 1, 10**20):
            code, out, err = run(capsys, "table", "--A", "20", "--points", str(points))
            assert code == 2 and out == "" and "--points" in err, points
    monkeypatch.setattr(cli, "_TABLE_POINTS_MAX", 5)
    assert run(capsys, "table", "--A", "20", "--points", "5")[0] == 0
    assert run(capsys, "table", "--A", "20", "--points", "6")[0] == 2


def test_exit_code_usage_errors(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "eig")[0] == 2  # missing --A
    assert run(capsys, "eig", "--A", "20", "--tol", "1e-12")[0] == 2  # no such option
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


_TOP_USAGE = "usage: shiryaev-qsd [-h] {eig,pdf,cdf,moment,table,verify} ...\n"
_EIG_USAGE = "usage: shiryaev-qsd eig [-h] --A A [--format {json,csv}]\n"
_COMMANDS = "(choose from 'eig', 'pdf', 'cdf', 'moment', 'table', 'verify')"


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", _TOP_USAGE
     + "shiryaev-qsd: error: the following arguments are required: command\n"),
    (["frob"], 2, "", _TOP_USAGE
     + f"shiryaev-qsd: error: argument command: invalid choice: 'frob' {_COMMANDS}\n"),
    # arguments left over after a valid command: the top-level usage
    (["eig", "--A", "3", "extra"], 2, "", _TOP_USAGE
     + "shiryaev-qsd: error: unrecognized arguments: extra\n"),
    (["eig", "--A", "20", "--tol", "1e-12"], 2, "", _TOP_USAGE
     + "shiryaev-qsd: error: unrecognized arguments: --tol 1e-12\n"),
    # an option before the command: the option's value is read as the command
    (["--format", "csv", "eig", "--A", "3"], 2, "", _TOP_USAGE
     + f"shiryaev-qsd: error: argument command: invalid choice: 'csv' {_COMMANDS}\n"),
    (["--A=3"], 2, "", _TOP_USAGE
     + "shiryaev-qsd: error: the following arguments are required: command\n"),
    (["eig", "--A=x"], 2, "", _EIG_USAGE
     + "shiryaev-qsd eig: error: argument --A: invalid float value: 'x'\n"),
    (["eig"], 2, "", _EIG_USAGE
     + "shiryaev-qsd eig: error: the following arguments are required: --A\n"),
    (["eig", "--A", "3", "--format", "xml"], 2, "", _EIG_USAGE
     + "shiryaev-qsd eig: error: argument --format: invalid choice: 'xml' "
     "(choose from 'json', 'csv')\n"),
    (["eig", "--help"], 0, _EIG_USAGE + "\noptions:\n"
     "  -h, --help           show this help message and exit\n"
     "  --A A                confinement cutoff, > 0\n"
     "  --format {json,csv}  output shape\n", ""),
], ids=["no-command", "unknown-command", "left-over", "unknown-option",
        "option-first", "no-command-A", "bad-A", "missing-A", "bad-format", "eig-help"])
def test_usage_errors_byte_for_byte(capsys, monkeypatch, argv, code, out, err):
    # argparse wraps its usage and help at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == (code, out, err)


def test_well_formed_request_parses_once(capsys, monkeypatch):
    # a request that starts with a command and leaves nothing over takes one
    # argparse pass, and `--A=3` is the request `--A 3`
    passes = []
    parse = cli.argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        passes.append(self.prog)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, "eig", "--A=3") == run(capsys, "eig", "--A", "3")
    assert passes == ["shiryaev-qsd eig"] * 2


def test_byte_determinism(capsys):
    _, out1, _ = run(capsys, "moment", "--A", "100", "--s", "2.5", "--check")
    _, out2, _ = run(capsys, "moment", "--A", "100", "--s", "2.5", "--check")
    assert out1 == out2


@pytest.mark.parametrize(
    "exc, expected",
    [
        (ToleranceNotMetError("cap", estimate=1.0, error_bound=1.0), 3),
        (ConvergenceError("stalled"), 3),
        (DomainError("outside"), 2),
        (RegimeError("wrong regime"), 2),
        (ConsistencyError("disagree"), 1),
        (PoleError("pole"), 1),
        (DenominatorPoleError("pole"), 1),
        (OverflowError("math range error"), 1),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exceptions_map_to_exit_codes(capsys, monkeypatch, exc, expected):
    def boom(*a, **k):
        raise exc

    monkeypatch.setattr(quadrature, "quad_moments", boom)
    code, out, err = run(capsys, "moment", "--A", "20", "--s", "0.3", "--check")
    assert code == expected
    assert out == ""
    assert "error:" in err


def test_rate_solve_stays_off_stencil_poles(capsys):
    # cutoffs where an older kernel's Richardson stencil in b, used for 2b
    # near an integer, failed: at the first a below-bracket guard sample put
    # an arm within 1e-12 of Gamma's pole at -1 (exit 1, PoleError); at the
    # second an arm 2.4e-8 from 2b = 1 cost the normalizer check (exit 1)
    for A in ("12506.18935485437", "50018.035540315264"):
        code, out, err = run(capsys, "eig", "--A", A)
        assert code == 0, (A, err)
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["checks"] and all(c["passed"] for c in doc["checks"])


def test_integer_moment_check_at_large_cutoffs(capsys):
    # M(1) = A - 1/rate multiplies the rate's error by about A/M(1), some
    # 5,000 here: the closed form passes its quadrature check only with a
    # rate good to about 1e-13
    for A in ("47623.2", "69009.6", "1e5"):
        code, out, err = run(capsys, "moment", "--A", A, "--s", "1", "--check")
        assert code == 0, (A, err)
        assert json.loads(out)["ok"] is True


def test_parser_is_built_once_and_keeps_no_state(capsys):
    cli._build_parser.cache_clear()
    code, out, _ = run(capsys, "pdf", "--A", "20", "--x", "1.5", "--x", "3.0")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["results"]] == ["pdf[x=1.5]", "pdf[x=3.0]"]
    code, out, _ = run(capsys, "pdf", "--A", "20", "--x", "10")
    assert code == 0
    doc = json.loads(out)
    assert [r["name"] for r in doc["results"]] == ["pdf[x=10.0]"]
    assert doc["inputs"]["x"] == [10.0]

    assert run(capsys, "eig", "--A", "20", "--bogus")[0] == 2
    assert run(capsys, "eig", "--A", "20")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "--help")[0] == 0

    info = cli._build_parser.cache_info()
    assert info.misses == 1 and info.hits == 5


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


def _value(inside):
    # arbitrary floats mixed with values inside the domain
    return st.one_of(_ANY_FLOAT, st.sampled_from(inside))


def _values(inside):
    return st.lists(_value(inside), min_size=1, max_size=3)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["eig", "pdf", "cdf", "moment", "table", "verify"]))
    a = draw(_value([0.7, 1.0, 3.0, 20.0, 1e3, 1e5]))
    argv = [cmd, f"--A={a!r}"]
    if cmd in ("pdf", "cdf"):
        argv += [f"--x={x!r}" for x in draw(_values([0.0, 0.3, 0.5, 1.0, 2.5]))]
    if cmd == "moment":
        argv += [f"--s={s!r}" for s in draw(_values([-1.2, 0.3, 0.5, 1.0, 2.5]))]
        if draw(st.booleans()):
            argv.append("--log")
    if cmd in ("pdf", "cdf", "moment") and draw(st.booleans()):
        argv.append("--check")
    if cmd == "table":
        argv.append(f"--points={draw(st.integers(-2, 40))}")
    fmt = draw(st.sampled_from(["json", "csv"]))
    return argv + [f"--format={fmt}"], fmt


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_argv())
def test_any_argv_exits_with_a_documented_code(case):
    # the exit-code contract of cli.main: a documented code for any float
    # input, never a traceback, and JSON output that parses
    argv, fmt = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
    if fmt == "json" and out.getvalue():
        json.loads(out.getvalue())
