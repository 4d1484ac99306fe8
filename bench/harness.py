"""Closed-loop timing with host-speed normalization, and the statistics the
benchmark reports.

The shared host changes speed by tens of percent from minute to minute, so a
raw wall time says little about the code. Every timed phase therefore
interleaves a fixed, package-independent chunk of pure-Python complex
arithmetic (the calibration chunk) at a small duty cycle, and scales each
timing by CAL_NOMINAL_S / cal_local, where cal_local is the median of the
chunks nearest the segment the timing fell in. The ratio of package work to
calibration work stays within a few percent while the raw times swing.
"""

from __future__ import annotations

import cmath
import math
import statistics
import time
from array import array
from dataclasses import dataclass, field

# Typical duration of one calibration chunk on the reference host (2-vCPU
# x86-64 VM, CPython 3.11.7), fixed once. Normalized timings are in "seconds
# on that host at its typical speed".
CAL_NOMINAL_S = 2.0e-3
CAL_EVERY_S = 0.05     # one chunk per 50 ms of work: a ~4% duty cycle
_CAL_WINDOW = 3        # chunks on each side whose median sets a segment's speed

# Percentiles the tail rule may report, in thousandths. Rungs stop at p90:
# on the shared host, ops repeated in isolation show that beyond p90 the
# slowest ~1% are preemption spikes at twice the op's own cost.
TAIL_LADDER_PM = (500, 750, 900)
TAIL_MIN_BEYOND = 10

# The chunk is shaped like special-function code (a Lanczos Gamma with
# reflection and a generic pFq term loop, called with tuples), not like a
# tight arithmetic loop: on the shared host the package's time follows such
# code much more closely (slope 1.06 against 1.21 over 120 s of speed swings).
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _cal_gamma(z: complex) -> complex:
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * _cal_gamma(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (w + i)
    t = w + 7.5
    return math.sqrt(2.0 * math.pi) * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc


def _cal_series(num: tuple, den: tuple, z: complex) -> complex:
    term = total = 1.0 + 0j
    small = 0
    for n in range(500):
        fac = 1.0 + 0j
        for a in num:
            fac *= a + n
        for b in den:
            fac /= b + n
        term *= fac * z / (n + 1)
        total += term
        small = small + 1 if abs(term) < 1e-15 * abs(total) else 0
        if small >= 3:
            break
    return total


def calibration_chunk() -> float:
    """Time one fixed chunk of pure-Python complex special-function work."""
    t0 = time.perf_counter()
    acc = 0j
    for k in range(40):
        b = 0.3 + 0.013 * (k % 10)
        acc += (_cal_gamma(complex(-2.0 * b)) / _cal_gamma(complex(0.5 - b))
                * _cal_series((0.5 + b,), (1.0 + 2.0 * b,), complex(1.7 + k % 10)))
        acc += _cal_series((1.0, -0.5 - b), (1.5 + b, 2.5 - b), 0.2 + 0.1j)
    return time.perf_counter() - t0


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND of n samples
    beyond it, or None when n is too small for any rung."""
    best = None
    for pm in TAIL_LADDER_PM:
        if n * (1000 - pm) // 1000 >= TAIL_MIN_BEYOND:
            best = pm / 10.0
    return best


def percentile(sorted_vals, p: float) -> float:
    """Linear-interpolated p-th percentile of an ascending sequence."""
    pos = (len(sorted_vals) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


@dataclass
class LoopResult:
    """Raw record of one closed-loop phase."""

    latencies: array               # raw seconds per op, first `ops` entries valid
    ops: int = 0
    failed: int = 0
    seg_first: list = field(default_factory=lambda: [0])  # first op of each segment
    seg_wall: list = field(default_factory=list)          # op wall per segment, cal excluded
    cal: list = field(default_factory=list)               # chunk times bracketing segments
    errors: list = field(default_factory=list)            # first few failure descriptions

    def factors(self) -> list[float]:
        """Host-speed factor CAL_NOMINAL_S / cal_local for each segment, with
        cal_local the median of the chunks nearest the segment (chunk k
        precedes segment k), so one preempted chunk cannot skew it."""
        last = len(self.cal)
        return [
            CAL_NOMINAL_S / statistics.median(
                self.cal[max(0, k + 1 - _CAL_WINDOW):min(last, k + 1 + _CAL_WINDOW)])
            for k in range(len(self.seg_wall))
        ]

    def normalized_latencies(self) -> list[float]:
        out = []
        for k, f in enumerate(self.factors()):
            for i in range(self.seg_first[k], self.seg_first[k + 1]):
                out.append(self.latencies[i] * f)
        return out

    def normalized_wall(self) -> float:
        return sum(w * f for w, f in zip(self.seg_wall, self.factors()))

    def summary(self) -> dict:
        """End-to-end timing figures plus the raw diagnostics behind them."""
        lat = sorted(self.normalized_latencies())
        p_tail = tail_percentile(len(lat))
        tail = percentile(lat, p_tail) if p_tail is not None else lat[-1]
        return {
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "tail_percentile": p_tail if p_tail is not None else 100.0,
            "samples": len(lat),
            "throughput_ops_s": self.ops / self.normalized_wall(),
            "raw_seconds": sum(self.seg_wall),
            "raw_latency_p50_ms": statistics.median(self.latencies[: self.ops]) * 1e3,
            "cal_local_ms": {
                "median": statistics.median(self.cal) * 1e3,
                "min": min(self.cal) * 1e3,
                "max": max(self.cal) * 1e3,
            },
        }


def closed_loop(op, check, n_inputs: int, *, seconds=None, count=None, capacity=0,
                on_result=None) -> LoopResult:
    """One client, one thread: run op(i mod n_inputs) back to back until
    `seconds` have passed or `count` ops are done.

    Only op() is inside the per-op timer; check(i, out) -> bool and
    on_result(i, out) run between ops. An op that raises or fails its check
    counts as failed. The latency buffer is preallocated to `capacity` so the
    process's peak memory does not depend on how many ops the host managed.
    """
    res = LoopResult(latencies=array("d", bytes(8 * max(capacity, 1))))
    lat = res.latencies
    res.cal.append(calibration_chunk())
    deadline = math.inf if seconds is None else time.perf_counter() + seconds
    limit = math.inf if count is None else count
    seg_t0 = time.perf_counter()
    i = 0
    while i < limit:
        idx = i % n_inputs
        t0 = time.perf_counter()
        try:
            out = op(idx)
        except Exception as exc:  # a failed op is a result to count, not a crash
            t1 = time.perf_counter()
            out, ok = None, False
            if len(res.errors) < 5:
                res.errors.append(f"op {idx}: {type(exc).__name__}: {exc}")
        else:
            t1 = time.perf_counter()
            ok = check(idx, out)
            if not ok and len(res.errors) < 5:
                res.errors.append(f"op {idx}: check failed on {out!r:.200}")
        if i < len(lat):
            lat[i] = t1 - t0
        else:
            lat.append(t1 - t0)
        res.failed += not ok
        if on_result is not None:
            on_result(idx, out)
        i += 1
        now = time.perf_counter()
        done = now >= deadline or i >= limit
        if now - seg_t0 >= CAL_EVERY_S or done:
            res.seg_wall.append(now - seg_t0)
            res.cal.append(calibration_chunk())
            res.seg_first.append(i)
            seg_t0 = time.perf_counter()
        if done:
            break
    res.ops = i
    return res
