"""Check every cutoff the workloads can draw, and list those the package
fails on. A failing cutoff would make some seeds report correct: false, so
run this after a change to the package's numerics:

    python3 bench/screen_grid.py [--part 0/2]

A cutoff passes when `eig --A a` and `verify --A a` exit 0 with every check
passed and moment_log is finite (grid from A_MIN), and when solve_lambda
succeeds (grid from DENSITY_A_MIN). Exits 1 if any cutoff fails.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--part", default="0/1", help="i/n: screen every n-th cutoff from the i-th")
    i, n = map(int, p.parse_args(argv).part.split("/"))
    sq = workloads.sq
    # at any seed, GRID_N inputs visit every grid cutoff once
    cli = (workloads.RateSweep(0, workloads.GRID_N), workloads.VerifyCli(0, workloads.GRID_N))
    density = workloads.cutoffs(0, workloads.GRID_N, workloads.DENSITY_A_MIN)
    bad = []
    for k in range(i, workloads.GRID_N, n):
        found = []
        for wl in cli:
            try:
                ok = wl.check(k, wl.op(k))
            except Exception:
                ok = False
            if not ok:
                found.append(" ".join(wl.argv(k)))
        for what, A in (("moment_log", cli[0].A[k]), ("solve_lambda", density[k])):
            try:
                es = sq.solve_lambda(A)
                if what == "moment_log" and not math.isfinite(sq.moment_log(es)):
                    raise ArithmeticError("not finite")
            except Exception as exc:
                found.append(f"{what} at A = {A!r}: {type(exc).__name__}: {exc}")
        for line in found:
            print("fails:", line, flush=True)
        bad += found
    print(f"{len(bad)} failures over {len(range(i, workloads.GRID_N, n))} grid indices")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
