"""Self-tests of the benchmark: seeded inputs, the tail-percentile rule, and
repeatable trace counters."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402


def _inputs(wl):
    if isinstance(wl, workloads.CliWorkload):
        return [wl.argv(i) for i in range(wl.n)], sorted(wl.repeat)
    if isinstance(wl, workloads.DensityLib):
        return wl.A, list(wl.x), bytes(wl.is_cdf)
    return wl.A, list(wl.s), bytes(wl.in_band)


@pytest.mark.parametrize("make", [
    lambda seed: workloads.VerifyCli(seed, 50),
    lambda seed: workloads.RateSweep(seed, 50),
    lambda seed: workloads.DensityLib(seed, 3, 40),
    lambda seed: workloads.MomentLib(seed, 3, 40),
], ids=["verify-cli", "rate-sweep", "density-lib", "moment-lib"])
def test_seed_fixes_inputs(make):
    assert _inputs(make(7)) == _inputs(make(7))
    assert _inputs(make(7)) != _inputs(make(8))


def test_cutoffs_walk_the_grid_without_repeats():
    for a_min in (workloads.A_MIN, workloads.DENSITY_A_MIN):
        grid = workloads.grid(a_min)
        walk = workloads.cutoffs(7, workloads.GRID_N, a_min)
        assert sorted(walk) == grid
        assert a_min < grid[0] and grid[-1] < workloads.A_MAX
        # every prefix spreads over the range: each decile of log A gets a share
        head = [math.log(A / a_min) / math.log(workloads.A_MAX / a_min) for A in walk[:100]]
        assert all(8 <= sum(d / 10 <= u < (d + 1) / 10 for u in head) <= 12 for d in range(10))


def test_moment_orders_hit_the_ladder_band():
    wl = workloads.MomentLib(3, 6, 400)
    for k, es in enumerate(wl.systems):
        flags = wl.in_band[k * wl.p:(k + 1) * wl.p]
        if es.xi.imag != 0.0:
            assert not any(flags)
            continue
        share = sum(flags) / wl.p
        assert 0.15 < share < 0.35
        ladder = [0.5 + 0.5 * sg * es.xi.real + m for sg in (1, -1) for m in range(9)]
        for s, flag in zip(wl.s[k * wl.p:(k + 1) * wl.p], flags):
            if flag:
                assert min(abs(s - c) for c in ladder) <= workloads.LADDER_BAND


@pytest.mark.parametrize("n, expected", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (10**6, 90.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_interpolates():
    vals = [float(v) for v in range(11)]
    assert harness.percentile(vals, 50.0) == 5.0
    assert harness.percentile(vals, 95.0) == pytest.approx(9.5)


def _traced(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--child", "traced"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["rate-sweep", "density-lib", "moment-lib"])
def test_traced_counters_repeat(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["failed"] == 0
    assert first["counters"] and first["counters"] == second["counters"]
    assert first["digest"] == second["digest"]


def test_refuses_to_run_without_the_package(monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "SRC", BENCH / "no-package-here")
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "rate-sweep", "--seed", "1", "--seconds", "1"])
    assert exc.value.code not in (0, None)
    assert capsys.readouterr().out == ""
