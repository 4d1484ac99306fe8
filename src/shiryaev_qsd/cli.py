"""Command line front end.

Every command first solves the rate at --A by solve_lambda, which has no
options. Exit codes: 0 success, 1 verification or invariant failure,
2 usage or domain error, 3 convergence failure, such as no sign change of
W on the proven rate bracket; errors.EXIT_CODES maps each exception
family to its code. Output is a single JSON document
(default) or CSV on stdout; diagnostics go to stderr.

Each handler imports the modules its command runs, so a fresh process
compiles only those. Past the package's own import (errors, specfun,
spectral, report): eig loads nothing more; pdf, cdf and table load
distribution; moment loads moments; verify and every --check load verify,
which loads distribution, moments, quadrature and, for its march, generator.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys as _sys

from .errors import EXIT_CODES, DomainError
from .report import EvalReport, ResultRow
from .spectral import assemble_system, solve_lambda

__all__ = ["main"]

_TABLE_POINTS_MAX = 10_000   # table grid sizes above this are refused


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The argument parser and its command subparsers by name, built on
    first use and kept for the process: parsing reads them and never
    changes them."""
    p = argparse.ArgumentParser(
        prog="shiryaev-qsd",
        description=(
            "Quasi-stationary law of the drifting ratio process confined "
            "to (0, A): decay rate, density, distribution function and "
            "real-order moments, each cross-checkable against quadrature."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--A", type=float, required=True, help="confinement cutoff, > 0")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output shape"
    )

    sp = sub.add_parser("eig", parents=[common], help="solve the decay rate")

    sp = sub.add_parser("pdf", parents=[common], help="density at points")
    sp.add_argument("--x", type=float, action="append", required=True, help="repeatable")
    sp.add_argument("--check", action="store_true", help="append the verification battery")

    sp = sub.add_parser("cdf", parents=[common], help="distribution function at points")
    sp.add_argument("--x", type=float, action="append", required=True, help="repeatable")
    sp.add_argument("--check", action="store_true", help="append the verification battery")

    sp = sub.add_parser("moment", parents=[common], help="moments of real order")
    sp.add_argument("--s", type=float, action="append", required=True, help="repeatable")
    sp.add_argument(
        "--log", action="store_true", help="also report the expected logarithm"
    )
    sp.add_argument(
        "--check",
        action="store_true",
        help="recompute every order by quadrature and compare",
    )

    sp = sub.add_parser("table", parents=[common], help="density/cdf on a uniform grid")
    sp.add_argument("--points", type=int, default=33, help=f"grid size, 2 to {_TABLE_POINTS_MAX}")

    sp = sub.add_parser("verify", parents=[common], help="run the full check battery")
    sp.add_argument("--perturb-lambda", type=float, default=None, help=argparse.SUPPRESS)

    # argparse reads -1e-3, the repr of a small negative order, and -inf as
    # option flags; no option here starts with "-" and a digit or spells a
    # float's infinity or nan, so such words are values
    negative = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)
    for sp in sub.choices.values():
        sp._negative_number_matcher = negative
    return p, sub.choices


def _cmd_eig(args) -> EvalReport:
    es = solve_lambda(args.A)
    rep = EvalReport(command="eig", inputs={"A": args.A})
    rep.results = [
        ResultRow("rate", es.lam, "closed_form"),
        ResultRow("index", es.xi, "identity"),
        ResultRow("normalizer", es.C, "closed_form"),
        ResultRow("boundary-residual", es.residual, "identity"),
    ]
    rep.checks = list(es.checks)
    return rep


def _cmd_points(args, which: str) -> EvalReport:
    from .distribution import qsd_cdf, qsd_pdf

    es = solve_lambda(args.A)
    f = qsd_pdf if which == "pdf" else qsd_cdf
    rep = EvalReport(command=which, inputs={"A": args.A, "x": list(args.x)})
    for x in args.x:
        rep.results.append(ResultRow(f"{which}[x={x!r}]", f(x, es), "closed_form"))
    if args.check:
        from .verify import run_checks

        rep.checks = run_checks(es)
    return rep


def _cmd_moment(args) -> EvalReport:
    from .moments import moment_frac, moment_log

    es = solve_lambda(args.A)
    rep = EvalReport(
        command="moment", inputs={"A": args.A, "s": list(args.s), "log": args.log}
    )
    closed = [moment_frac(s, es).value for s in args.s]
    lv = moment_log(es) if args.log else None
    quads = ()
    if args.check:
        from .quadrature import quad_moments
        from .verify import dual_route_row

        # one quadrature pass recomputes every order and the logarithm
        quads = quad_moments(es, args.s, args.log)[1:]
    for k, (s, m) in enumerate(zip(args.s, closed)):
        rep.results.append(ResultRow(f"moment[s={s!r}]", m, "closed_form"))
        if args.check:
            q = quads[k]
            rep.results.append(ResultRow(f"moment-quad[s={s!r}]", q, "quadrature"))
            rep.checks.append(dual_route_row(f"dual-route[s={s!r}]", m, q))
    if args.log:
        rep.results.append(ResultRow("log-moment", lv, "closed_form"))
        if args.check:
            q = quads[-1]
            rep.results.append(ResultRow("log-moment-quad", q, "quadrature"))
            rep.checks.append(dual_route_row("dual-route[log]", lv, q))
    return rep


def _cmd_table(args) -> EvalReport:
    if not 2 <= args.points <= _TABLE_POINTS_MAX:
        raise DomainError(f"--points must be 2 to {_TABLE_POINTS_MAX}, got {args.points}")
    from .distribution import _pdf_cdf

    es = solve_lambda(args.A)
    rep = EvalReport(command="table", inputs={"A": args.A, "points": args.points})
    last = args.points - 1
    # A * last / last may round one ulp past A, outside the support
    xs = [args.A * i / last for i in range(last)] + [args.A]
    for x, (pdf, cdf) in zip(xs, _pdf_cdf(xs, es)):
        rep.results.append(ResultRow(f"pdf[x={x!r}]", pdf, "closed_form"))
        rep.results.append(ResultRow(f"cdf[x={x!r}]", cdf, "closed_form"))
    return rep


def _cmd_verify(args) -> EvalReport:
    from .verify import run_checks

    inputs = {"A": args.A}
    es = solve_lambda(args.A)
    if args.perturb_lambda is not None:
        inputs["perturb_lambda"] = args.perturb_lambda
        es = assemble_system(args.A, es.lam * (1.0 + args.perturb_lambda), validate=False)
    rep = EvalReport(command="verify", inputs=inputs)
    rep.checks = run_checks(es)
    return rep


_DISPATCH = {
    "eig": _cmd_eig,
    "pdf": lambda a: _cmd_points(a, "pdf"),
    "cdf": lambda a: _cmd_points(a, "cdf"),
    "moment": _cmd_moment,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def _parse(argv) -> argparse.Namespace:
    # a request that starts with a command and leaves nothing over is parsed
    # by that command's subparser alone, in one pass, as the full parser
    # would hand it on; every other request, and every usage error the
    # subparser does not raise itself, goes through the full parser
    parser, commands = _build_parser()
    argv = _sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
        return 0 if code == 0 else 2
    try:
        rep = _DISPATCH[args.command](args)
        out = rep.to_csv() if args.format == "csv" else rep.to_json() + "\n"
    except tuple(family for family, _ in EXIT_CODES) as e:
        print(f"error: {e}", file=_sys.stderr)
        return next(code for family, code in EXIT_CODES if isinstance(e, family))
    _sys.stdout.write(out)
    return 0 if rep.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
