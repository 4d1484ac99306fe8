"""Host-normalized timings of the ROADMAP "Baseline" table entries.

    python3 bench/roadmap_table.py

Times solve_lambda, qsd_pdf per point (uniform grid on (0, A)),
moment_frac(0.3), quad_moment(0.3) and run_checks at A = 20, 1e4 and 1e5
with the benchmark's closed loop and calibration, and counts the pdf
evaluations of one quad_moment(0.3) with the tracer. Prints a markdown table
of host-normalized medians with the raw medians in brackets.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import shiryaev_qsd as sq  # noqa: E402

import harness  # noqa: E402
import tracer  # noqa: E402

CUTOFFS = (20.0, 1e4, 1e5)
PDF_POINTS = 200


def _median_ms(fn, count: int, per: int = 1) -> str:
    """Host-normalized median per call, with the raw median in brackets."""
    loop = harness.closed_loop(lambda i: fn(), lambda i, out: True, 1, count=count,
                               capacity=count)
    t = loop.summary()
    norm, raw = t["latency_p50_ms"] / per, t["raw_latency_p50_ms"] / per
    if norm < 1.0:
        return f"{norm * 1e3:.0f} µs [{raw * 1e3:.0f}]"
    return f"{norm:.1f} ms [{raw:.1f}]"


def _pdf_evals_per_quad(es) -> float:
    t = tracer.Tracer()
    t.install()
    try:
        sq.quad_moment(0.3, es)
    finally:
        t.uninstall()
    return t.nested["quadrature", "distribution.pdf"]


def main() -> None:
    print("| A | solve | pdf/pt | moment_frac(0.3) | quad_moment(0.3) | run_checks |")
    print("|---|---|---|---|---|---|")
    for A in CUTOFFS:
        es = sq.solve_lambda(A)
        xs = [A * (i + 0.5) / PDF_POINTS for i in range(PDF_POINTS)]
        solve = _median_ms(lambda: sq.solve_lambda(A), 40)
        pdf = _median_ms(lambda: [sq.qsd_pdf(x, es) for x in xs], 20, PDF_POINTS)
        frac = _median_ms(lambda: sq.moment_frac(0.3, es), 400)
        quad = _median_ms(lambda: sq.quad_moment(0.3, es), 10)
        checks = _median_ms(lambda: sq.run_checks(es), 6)
        evals = _pdf_evals_per_quad(es)
        print(f"| {A:g} | {solve} | {pdf} | {frac} | {quad} ({evals} pdf evals) | {checks} |")


if __name__ == "__main__":
    main()
