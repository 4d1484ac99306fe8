"""Per-layer tracing from outside the package.

Wraps the public functions of each module of shiryaev_qsd and records, in
memory, the call count and self time of every span (span time minus the
time of the wrapped calls it made). The modules bind each other's names at
import (`from .specfun import whittaker_w`), so a wrapper is installed in
every package namespace that holds the original function object, not only
in the defining module; otherwise those calls would be missed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> span name. Spans sharing a name are one layer.
SPANS = {
    ("specfun", "gamma"): "specfun.gamma",
    ("specfun", "rgamma"): "specfun.gamma",
    ("specfun", "digamma"): "specfun.digamma",
    ("specfun", "hyp1f1"): "specfun.hyp",
    ("specfun", "hyp2f2"): "specfun.hyp",
    ("specfun", "whittaker_m"): "specfun.whittaker_m",
    ("specfun", "whittaker_w"): "specfun.whittaker_w",
    ("specfun", "whittaker_w_dz"): "specfun.whittaker_w_dz",
    ("spectral", "solve_lambda"): "spectral.solve",
    ("spectral", "assemble_system"): "spectral.assemble",
    ("spectral", "eigen_checks"): "spectral.eigen_checks",
    ("spectral", "eigencondition"): "spectral.eigencondition",
    ("distribution", "qsd_pdf"): "distribution.pdf",
    ("distribution", "qsd_cdf"): "distribution.cdf",
    ("distribution", "stationary_pdf"): "distribution.stationary",
    ("distribution", "stationary_cdf"): "distribution.stationary",
    ("moments", "moment_frac"): "moments.moment_frac",
    ("moments", "moment_integer"): "moments.moment_integer",
    ("moments", "moment_log"): "moments.moment_log",
    ("moments", "moment_recurrence_residual"): "moments.recurrence",
    ("moments", "moment_singular_base"): "moments.singular",
    ("moments", "moment_singular_shifted"): "moments.singular",
    ("moments", "moment_special_value"): "moments.singular",
    ("moments", "limit_moment"): "moments.limit",
    ("quadrature", "quad_moment"): "quadrature",
    ("quadrature", "quad_log_moment"): "quadrature",
    ("quadrature", "normalization_check"): "quadrature",
    ("verify", "run_checks"): "verify.run_checks",
    ("report", "EvalReport.to_json"): "report",
    ("report", "EvalReport.to_csv"): "report",
    ("cli", "main"): "cli",
}

# Spans whose nested calls are counted, for the per-call ratios below.
_SCOPES = ("spectral.solve", "moments.moment_frac", "quadrature")


class Tracer:
    """Install with install(), run the workload, then uninstall() and read
    metrics(). Not reentrant across threads: the span stack is shared."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.nested: Counter = Counter()      # (scope, span) -> calls inside scope
        self._stack: list[float] = []          # child time accumulated per open span
        self._open: Counter = Counter()        # open scope spans
        self._undo: list[tuple] = []

    def _wrap(self, fn, name: str):
        stack, calls, self_s, nested, open_ = (
            self._stack, self.calls, self.self_s, self.nested, self._open)
        clock = time.perf_counter
        scope = name in _SCOPES

        def wrapper(*args, **kwargs):
            for s in _SCOPES:
                if open_[s]:
                    nested[s, name] += 1
            if scope:
                open_[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                calls[name] += 1
                if scope:
                    open_[name] -= 1
            if name == "moments.moment_frac":
                calls["moments.branch." + result.branch] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        homes = {mod: importlib.import_module(f"shiryaev_qsd.{mod}") for mod, _ in SPANS}
        pkg_modules = [m for k, m in sorted(sys.modules.items())
                       if k == "shiryaev_qsd" or k.startswith("shiryaev_qsd.")]
        for (mod, attr), name in SPANS.items():
            home = homes[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, name)
            for m in pkg_modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def metrics(self, ms_factor: float) -> dict:
        """Per-layer metrics; self times scaled by ms_factor (1e3 times the
        host-speed factor of the traced run). trace.overhead_ratio needs an
        untraced run and is added by the caller."""
        c, n = self.calls, self.nested

        def ratio(a, b):
            return a / b if b else 0.0

        def self_ms(prefix):
            return ms_factor * sum(v for k, v in self.self_s.items()
                                   if k == prefix or k.startswith(prefix + "."))

        hyp = c["specfun.hyp"]
        frac = c["moments.moment_frac"]
        out = {
            "specfun.hyp.calls": (hyp, "count"),
            "specfun.hyp.self_ms": (self_ms("specfun.hyp"), "ms"),
            "specfun.gamma.calls": (c["specfun.gamma"], "count"),
            "specfun.gamma.self_ms": (self_ms("specfun.gamma"), "ms"),
            "specfun.digamma.calls": (c["specfun.digamma"], "count"),
            "specfun.whittaker_w.calls": (c["specfun.whittaker_w"], "count"),
            "specfun.whittaker_w.self_ms": (self_ms("specfun.whittaker_w"), "ms"),
            "specfun.whittaker_m.calls": (c["specfun.whittaker_m"], "count"),
            "specfun.m_per_w": (ratio(c["specfun.whittaker_m"], c["specfun.whittaker_w"]), "ratio"),
            "specfun.self_ms": (self_ms("specfun"), "ms"),
            "spectral.solve.calls": (c["spectral.solve"], "count"),
            "spectral.solve.self_ms": (self_ms("spectral.solve"), "ms"),
            "spectral.self_ms": (self_ms("spectral"), "ms"),
            "spectral.w_per_solve": (
                ratio(n["spectral.solve", "specfun.whittaker_w"], c["spectral.solve"]), "ratio"),
            "spectral.eigen_checks_per_solve": (
                ratio(c["spectral.eigen_checks"], c["spectral.solve"]), "ratio"),
            "distribution.pdf.calls": (c["distribution.pdf"], "count"),
            "distribution.cdf.calls": (c["distribution.cdf"], "count"),
            "distribution.self_ms": (self_ms("distribution"), "ms"),
            "moments.moment_frac.calls": (frac, "count"),
            "moments.self_ms": (self_ms("moments"), "ms"),
            "moments.branch.series": (c["moments.branch.series"], "count"),
            "moments.branch.interpolated": (c["moments.branch.interpolated"], "count"),
            "moments.interp_share": (ratio(c["moments.branch.interpolated"], frac), "ratio"),
            "moments.hyp_per_moment": (
                ratio(n["moments.moment_frac", "specfun.hyp"], frac), "ratio"),
            "quadrature.calls": (c["quadrature"], "count"),
            "quadrature.self_ms": (self_ms("quadrature"), "ms"),
            "quadrature.pdf_evals_per_call": (
                ratio(n["quadrature", "distribution.pdf"], c["quadrature"]), "ratio"),
            "verify.run_checks.calls": (c["verify.run_checks"], "count"),
            "verify.self_ms": (self_ms("verify"), "ms"),
            "report.calls": (c["report"], "count"),
            "report.self_ms": (self_ms("report"), "ms"),
            "cli.calls": (c["cli"], "count"),
            "cli.self_ms": (self_ms("cli"), "ms"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def counters(self) -> dict:
        """Every deterministic count, for comparing two traced runs."""
        out = dict(self.calls)
        out.update({f"{s}>{k}": v for (s, k), v in self.nested.items()})
        return dict(sorted(out.items()))
