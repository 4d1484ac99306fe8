"""Seeded inputs, the operation each workload times, and the checks on its
outputs.

Every workload draws its cutoffs A from a fixed grid of GRID_N points
log-spaced over [0.5, 1e5], visited in golden-ratio stride order from a
seeded start: every prefix covers the range evenly, so a run that gets
through only part of its input list still sees the same mix of cutoffs
whatever the seed or the host speed, and no cutoff repeats within GRID_N
ops.
The grid is finite so that every cutoff a run can draw has been checked
once: the package fails at isolated cutoffs (BASELINE.md, "Defects"), and
`KNOWN_BAD` lists such inputs, which every run re-checks and reports. The
package receives only the generated numbers.

Library calls go through the package namespaces at call time, so the
wrappers of a traced run see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from array import array

import shiryaev_qsd as sq
import shiryaev_qsd.cli as sq_cli
import shiryaev_qsd.quadrature as sq_quad

A_MIN, A_MAX = 0.5, 1e5
GRID_N = 16384
_STRIDE = 10125                # odd, so coprime to GRID_N; about GRID_N * golden ratio
# density-lib's lower end: below about 0.65 the connection route of W loses
# the cdf's accuracy at z = 2/x near 30 to 38 (1e-5 relative at A = 0.58,
# 4e-3 at 0.5), a defect that KNOWN_BAD keeps in view.
DENSITY_A_MIN = 0.7
X_MIN = 1.0 / 700.0            # where the package's pdf/cdf underflow to 0
BAND_X = (0.1, 0.2)            # z = 2/x in [10, 20]: the moderate-z band
ORDER_RANGE = (-5.0, 8.0)
LADDER_BAND = 1e-3
LADDER_SHARE = 0.25            # share of orders placed in the ladder band
# The orders at which verify's battery evaluates moment_frac (recurrence at
# s and s - 1, integer consistency, dual route) and quad_moment (dual route).
VERIFY_ORDERS = (-0.5, 0.5, 1.0, 1.5, 2.0, 3.0, math.pi - 1.0, math.pi)
VERIFY_QUAD_ORDERS = (0.5, math.pi)
# Inputs on which the package is known to fail today, left out of the
# workloads and reported on every run, so that a fix or a spread shows:
# (what, cutoff, x) with x the cdf point or None for an `eig` request.
KNOWN_BAD = (
    ("cdf", 0.5, 0.05424306285918006),             # z = 36.9: 4e-3 relative error
    ("eig", 12506.18935485437, None),              # gamma pole in the rate solve
    ("eig", 50018.035540315264, None),             # normalizer-series 2.2e-8 > 1e-8
)


def grid(a_min: float = A_MIN) -> list[float]:
    """The GRID_N cutoffs, log-spaced over [a_min, A_MAX], in index order."""
    span = math.log(A_MAX / a_min)
    return [a_min * math.exp(span * (k + 0.5) / GRID_N) for k in range(GRID_N)]


def cutoffs(seed: int, n: int, a_min: float = A_MIN) -> list[float]:
    """n cutoffs of grid(a_min) in golden-ratio stride order from a seeded
    start; distinct while n <= GRID_N."""
    k0 = random.Random(f"cutoffs:{seed}").randrange(GRID_N)
    g = grid(a_min)
    return [g[(k0 + i * _STRIDE) % GRID_N] for i in range(n)]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI request: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sq_cli.main(argv)
    return rc, out.getvalue()


def _finite(v) -> bool:
    return isinstance(v, float) and math.isfinite(v)


def _solve_or_none(A: float):
    """The solved system, or None where the package refuses the cutoff (the
    ops that need it then fail and are counted; no sample is taken)."""
    try:
        return sq.solve_lambda(A)
    except Exception:
        return None


class CliWorkload:
    """One in-process CLI request per op: `<command> --A a`.

    An op passes when the exit code is 0, stdout parses as JSON whose "ok"
    is true and every check row passed. A seeded ~1/20 of the requests run
    again after the timed phase and must print the same bytes.
    """

    command = ""
    repeat_share = 0.05

    def __init__(self, seed: int, n: int):
        self.seed = seed
        self.A = cutoffs(seed, n)
        self.n = n
        rng = random.Random(f"{self.command}:repeat:{seed}")
        self.repeat = {i for i in range(n) if rng.random() < self.repeat_share}
        self.first_stdout: dict[int, bytes] = {}

    def argv(self, i: int) -> list[str]:
        return [self.command, "--A", repr(self.A[i])]

    def op(self, i: int):
        return run_cli(self.argv(i))

    def check(self, i: int, out) -> bool:
        rc, text = out
        if rc != 0:
            return False
        try:
            doc = json.loads(text)
        except ValueError:
            return False
        if doc.get("ok") is not True or not all(c["passed"] for c in doc["checks"]):
            return False
        return self.check_values(i, {r["name"]: r["value"] for r in doc["results"]})

    def check_values(self, i: int, values: dict) -> bool:
        return True

    def on_result(self, i: int, out) -> None:
        if i in self.repeat and out is not None and i not in self.first_stdout:
            self.first_stdout[i] = out[1].encode()

    def repeat_mismatches(self) -> int:
        """Re-run the seeded subset that ran; count byte differences."""
        bad = 0
        for i, first in sorted(self.first_stdout.items()):
            try:
                again = self.op(i)[1].encode()
            except Exception:
                again = None
            bad += again != first
        return bad


class VerifyCli(CliWorkload):
    command = "verify"

    def samples(self, count: int, quad_count: int) -> list[tuple]:
        """What a verify request computes, for the first `count` cutoffs: the
        solved rate and normalizer and the closed-form moments its battery
        checks; for the first `quad_count` also the quadrature moments.
        verify prints residuals only, so these come from the library calls
        it makes."""
        out = []
        for k, A in enumerate(self.A[:count]):
            es = _solve_or_none(A)
            if es is None:
                continue
            out.append(("rate", A, None, es.lam))
            out.append(("normalizer", A, None, es.C))
            for s in VERIFY_ORDERS:
                out.append(("moment", A, s, sq.moment_frac(s, es).value))
            if k < quad_count:
                for s in VERIFY_QUAD_ORDERS:
                    out.append(("quad_moment", A, s, sq_quad.quad_moment(s, es)))
        return out


class RateSweep(CliWorkload):
    command = "eig"

    def check_values(self, i: int, values: dict) -> bool:
        lam, C = values.get("rate"), values.get("normalizer")
        return _finite(lam) and lam > 0.0 and _finite(C) and C > 0.0

    def samples(self, count: int) -> list[tuple]:
        out = []
        for i in range(count):
            rc, text = self.op(i)
            if rc != 0:
                continue
            values = {r["name"]: r["value"] for r in json.loads(text)["results"]}
            out.append(("rate", self.A[i], None, values["rate"]))
            out.append(("normalizer", self.A[i], None, values["normalizer"]))
        return out


class _PerCutoff:
    """Op list of `k` cutoffs, each a head op followed by `p` point ops."""

    a_min = A_MIN

    def __init__(self, seed: int, k: int, p: int):
        self.seed = seed
        self.A = cutoffs(seed, k, self.a_min)
        self.p = p
        self.n = k * (p + 1)

    def split(self, i: int) -> tuple[int, int]:
        """(cutoff index, point index or -1 for the head op)."""
        k, j = divmod(i, self.p + 1)
        return k, j - 1

    def on_result(self, i: int, out) -> None:
        pass

    def repeat_mismatches(self) -> int:
        return 0


class DensityLib(_PerCutoff):
    """Head op: solve_lambda(A). Point ops: qsd_pdf or qsd_cdf at x, half
    of the x log-uniform over (1/700, A] (asymptotic, stencil, connection
    routes and the moderate-z band), half uniform over (0, A]. Cutoffs
    start at DENSITY_A_MIN."""

    a_min = DENSITY_A_MIN

    def __init__(self, seed: int, k: int, p: int):
        super().__init__(seed, k, p)
        self.x = array("d")
        self.is_cdf = bytearray()
        for c, A in enumerate(self.A):
            rng = random.Random(f"density:{seed}:{c}")
            span = math.log(A / X_MIN)
            for j in range(p):
                r = 1.0 - rng.random()                     # (0, 1]
                self.x.append(X_MIN * math.exp(span * r) if j % 2 == 0 else A * r)
                self.is_cdf.append(rng.random() < 0.5)
        self.systems: dict = {}

    def op(self, i: int):
        k, j = self.split(i)
        if j < 0:
            es = self.systems[k] = sq.solve_lambda(self.A[k])
            return es.lam
        es = self.systems[k]
        x = self.x[k * self.p + j]
        return sq.qsd_cdf(x, es) if self.is_cdf[k * self.p + j] else sq.qsd_pdf(x, es)

    def check(self, i: int, out) -> bool:
        k, j = self.split(i)
        if not _finite(out):
            return False
        if j < 0:
            return out > 0.0
        if self.is_cdf[k * self.p + j]:
            return 0.0 <= out <= 1.0
        return out >= 0.0

    def samples(self, cutoffs: int, band_points: int, other_points: int) -> list[tuple]:
        """For each of the first `cutoffs` cutoffs: the rate, then the first
        `band_points` points inside the moderate-z band and the first
        `other_points` outside it."""
        out = []
        for k, A in enumerate(self.A[:cutoffs]):
            es = _solve_or_none(A)
            if es is None:
                continue
            out.append(("rate", A, None, es.lam))
            band, other = [], []
            for j in range(self.p):
                x = self.x[k * self.p + j]
                if x <= X_MIN:
                    continue
                (band if BAND_X[0] <= x <= BAND_X[1] else other).append(j)
            for j in band[:band_points] + other[:other_points]:
                x = self.x[k * self.p + j]
                if self.is_cdf[k * self.p + j]:
                    out.append(("cdf", A, x, sq.qsd_cdf(x, es)))
                else:
                    out.append(("pdf", A, x, sq.qsd_pdf(x, es)))
        return out


class MomentLib(_PerCutoff):
    """Head op: moment_log. Point ops: moment_frac(s). Cutoffs are solved
    during set-up, because the ladder band positions 1/2 +- xi/2 + k depend
    on the solved index xi; for real xi a quarter of the orders lie inside
    the 1e-3 band around the ladder, the rest are uniform over [-5, 8]."""

    def __init__(self, seed: int, k: int, p: int):
        super().__init__(seed, k, p)
        self.systems = [_solve_or_none(A) for A in self.A]
        self.s = array("d")
        self.in_band = bytearray()
        lo, hi = ORDER_RANGE
        for c, es in enumerate(self.systems):
            rng = random.Random(f"moment:{seed}:{c}")
            ladder = []
            if es is not None and es.xi.imag == 0.0:
                for sign in (1.0, -1.0):
                    base = 0.5 + 0.5 * sign * es.xi.real
                    ladder += [base + m for m in range(int(hi) + 1) if base + m <= hi]
            for _ in range(p):
                band = bool(ladder) and rng.random() < LADDER_SHARE
                if band:
                    self.s.append(rng.choice(ladder) + LADDER_BAND * (2.0 * rng.random() - 1.0))
                else:
                    self.s.append(lo + (hi - lo) * rng.random())
                self.in_band.append(band)

    def op(self, i: int):
        k, j = self.split(i)
        if j < 0:
            return sq.moment_log(self.systems[k])
        return sq.moment_frac(self.s[k * self.p + j], self.systems[k]).value

    def check(self, i: int, out) -> bool:
        k, j = self.split(i)
        if not _finite(out):
            return False
        if j < 0:
            return out <= math.log(self.A[k])
        return out > 0.0

    def samples(self, cutoffs: int, band_orders: int, other_orders: int) -> list[tuple]:
        """For each of the first `cutoffs` cutoffs: the rate and log-moment,
        then the first `band_orders` in-band orders and `other_orders` others."""
        out = []
        for k, es in enumerate(self.systems[:cutoffs]):
            if es is None:
                continue
            A = self.A[k]
            out.append(("rate", A, None, es.lam))
            out.append(("moment_log", A, None, sq.moment_log(es)))
            band, other = [], []
            for j in range(k * self.p, (k + 1) * self.p):
                (band if self.in_band[j] else other).append(self.s[j])
            for s in band[:band_orders] + other[:other_orders]:
                out.append(("moment", A, s, sq.moment_frac(s, es).value))
        return out
