"""High-precision reference values from mpmath, used only by the benchmark.

Everything is recomputed at 40 significant digits from the paper's formulas.
The rate is the oracle's own root of W_{1, xi/2}(2/A) = 0, bracketed by the
proven two-sided bounds; it never starts from the package's rate.
"""

from __future__ import annotations

import math
import sys

import mpmath as mp

DPS = 40
_MOMENT_DPS = 60   # the closed form cancels near the order ladder


def _bounds(A):
    lo = 1 / A + 1 / (A * (A + 1))
    hi = 1 / A + (1 + mp.sqrt(4 * A + 1)) / (2 * A * A)
    return lo, hi


class Oracle:
    """Reference rate, index and normalizer per cutoff, and the pdf, cdf and
    moments built on them."""

    def __init__(self):
        self._systems: dict[float, tuple] = {}

    def system(self, A: float) -> tuple:
        """(lam, xi, C) at cutoff A."""
        if A not in self._systems:
            with mp.workdps(DPS):
                self._systems[A] = self._solve(mp.mpf(A))
        return self._systems[A]

    @staticmethod
    def _solve(A) -> tuple:
        z = 2 / A

        def g(lam):
            return mp.re(mp.whitw(1, mp.sqrt(1 - 8 * lam) / 2, z))

        lo, hi = _bounds(A)
        g_lo, width = g(lo), hi - lo
        # the same allowance as the package: the upper end may drift outward
        for grow in range(9):
            if grow:
                hi = lo + width * mp.mpf(1.5) ** grow
            if g_lo * g(hi) < 0:
                break
        else:
            raise ArithmeticError(f"no sign change near the proven bracket at A={A}")
        lam = mp.findroot(g, (lo, hi), solver="anderson")
        if not lo <= lam <= hi:
            raise ArithmeticError(f"oracle root {lam} left its bracket at A={A}")
        xi = mp.sqrt(1 - 8 * lam)
        C = mp.re(1 / (mp.exp(-1 / A) * mp.whitw(0, xi / 2, z)))
        return lam, xi, C

    def value(self, kind: str, A: float, arg):
        """Reference for one sampled output (see workloads' samples())."""
        lam, xi, C = self.system(A)
        if kind == "rate":
            return lam
        if kind == "normalizer":
            return C
        if kind in ("pdf", "cdf"):
            with mp.workdps(DPS):
                x = mp.mpf(arg)
                w = mp.whitw(1 if kind == "pdf" else 0, xi / 2, 2 / x)
                v = C * mp.exp(-1 / x) * w
                return mp.re(v / x if kind == "pdf" else v)
        if kind in ("moment", "quad_moment"):
            return self._moment(mp.mpf(arg), mp.mpf(A), lam, xi, C)
        if kind == "moment_log":
            m1 = self._moment(mp.mpf(-1), mp.mpf(A), lam, xi, C)
            with mp.workdps(DPS):
                return mp.log(A) - (m1 - mp.mpf(1) / 2) / lam
        raise ValueError(f"unknown sample kind {kind!r}")

    @staticmethod
    def _moment(s, A, lam, xi, C):
        with mp.workdps(_MOMENT_DPS):
            half = mp.mpf(1) / 2
            t1 = (
                2 * lam * A**s / (s * (s - 1) + 2 * lam)
                * mp.hyp2f2(1, -s, 3 * half + xi / 2 - s, 3 * half - xi / 2 - s, 2 / A)
            )
            t2 = C * 2**s * mp.rgamma(-s) * mp.gamma(half + xi / 2 - s) * mp.gamma(half - xi / 2 - s)
            return mp.re(t1 + t2)


def rel_errors(samples, oracle: Oracle) -> list[tuple[float, dict]]:
    """|value - ref| / max(|ref|, smallest normal double) for each sample,
    with where it was taken. The floor keeps references that underflow in
    double precision (deep left tail) from counting a correctly rounded 0.0
    as a total loss; a nan counts as inf."""
    out = []
    for kind, A, arg, value in samples:
        ref = oracle.value(kind, A, arg)
        with mp.workdps(DPS):
            err = float(abs(mp.mpf(value) - ref) / max(abs(ref), sys.float_info.min))
        out.append((math.inf if math.isnan(err) else err,
                    {"kind": kind, "A": A, "arg": arg, "value": value}))
    return out
