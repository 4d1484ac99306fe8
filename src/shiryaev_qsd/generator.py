"""The generator's principal eigenfunction by Taylor marching: a route to
the density and distribution function that uses no Whittaker W.

The diffusion dR = dt + R dB has generator L f = 1/2 x^2 f'' + f'. Its
principal Dirichlet eigenfunction on (0, A] solves L f = -lam f with
f(0) = 1 (bounded at 0) and f(A) = 0. With the speed density
m(x) = (2/x^2) e^{-2/x}, (e^{-2/x} f')' = -lam m f, so the conditioned law
is

    pdf(x) = lam m(x) f(x) / F,   cdf(x) = -e^{-2/x} f'(x) / F,

with the endpoint flux F = -e^{-2/A} f'(A) > 0. It integrates to 1 for
any lam: this route shares only the rate with the closed forms.

march() starts at x0 = min(0.03, A/4, 0.1/lam) from the asymptotic series
f = sum c_n x^n, c_{n+1} = -(n(n-1)/2 + lam) c_n / (n+1), summed in terms
t_n = c_n x^n. It diverges, but its terms fall until n nears 2/x, to about
e^{-2/x} relative: below 1e-28 at x <= 0.03. From x0 it steps to A by
Taylor series over h = min(x^2, x/3, A - x). h <= x^2 keeps the rounding
of the other solution, e^{2/x} near 0, from growing; x/3 sizes a step for
the dense reads below (see march). A step is halved
while h sqrt(2 lam/x^2 + 2/x^3) >= pi: by Sturm comparison such a step
holds at most one zero of f, so the sign changes at the nodes count the
zeros of f, the oracle the tests hold the rate solver's certificate to.
Every march runs one rule: its series and Taylor terms stop at _TOL of
min(|f|, |h f'|), and it returns its nodes and its steps as four lists.

Eigenfunction keeps each step's scaled Taylor terms b_k, which taylor()
appends as it sums them, and gives f, and f' where the cdf needs it, at
any point of a step by Horner in (x - x_j) / h_j, about a quarter of the
cost of a fresh Taylor step for the pdf. Its densities() takes a list of
points.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .errors import ConsistencyError, DomainError

# the series and Taylor terms of every march stop at this fraction of |f|
# and, separately, of |h f'|, so that f' (the cdf) is as accurate as f
_TOL = 2e-17
_PI2 = math.pi**2


def series(x: float, lam: float):
    """f(x) and x f'(x) from the series at 0, for x <= min(0.03, 0.1/lam):
    terms stop once n |t_n| is within _TOL of both sums."""
    t, f, g, n = 1.0, 1.0, 0.0, 0
    while True:
        t *= -(0.5 * n * (n - 1) + lam) * x / (n + 1)
        n += 1
        f += t
        g += n * t
        if n * abs(t) <= _TOL * min(abs(f), abs(g)):
            return f, g


def taylor(x: float, h: float, lam: float, f: float, g: float, small: float, out: list):
    """f(x + h) and h f'(x + h) from f(x) and g = h f'(x).

    The scaled terms b_k = a_k h^k of f(x + s) = sum a_k s^k obey
    b_{k+2} = -[(x k(k+1) + k+1) h b_{k+1} + (k(k-1)/2 + lam) h^2 b_k]
              / (x^2 (k+2)(k+1)/2),
    with b_0 = f(x), b_1 = g; f(x + h) = sum b_k, h f'(x + h) = sum k b_k.
    The sums stop once (k+1)(|b_k| + |b_{k+1}|) <= small. Each b_k from
    b_2 on is appended to out.
    """
    u = 2.0 * h / x
    v = u / x
    q = 0.5 * h * v
    q2 = 2.0 * q
    # b0, b1, b2 hold b_{k-1}, b_k, b_{k+1}, a1 = |b_k| and km = k - 1;
    # c = ((k-1)(k-2) + 2 lam) h^2/x^2
    b0, b1, fn, gn, km, k, c = f, g, f + g, g, 0.0, 1.0, 2.0 * lam * q
    a1 = g if g >= 0.0 else -g
    while True:
        k1 = k + 1.0
        b2 = -((km * u + v) * b1 + c * b0 / k) / k1
        fn += b2
        gn += k1 * b2
        out.append(b2)
        a2 = b2 if b2 >= 0.0 else -b2
        if k1 * (a2 + a1) <= small:
            return fn, gn
        c += km * q2
        km = k
        k = k1
        b0, b1, a1 = b1, b2, a2


def march(A: float, lam: float):
    """Nodes (xs, fs, ds) of f and f' from x0 to xs[-1] = A, and the steps:
    for each, its length h and its scaled Taylor terms b_k, highest k first.

    The step from x is h = min(x^2, x/3, A - x), halved while it fails the
    Sturm bound (module docstring). The cap x/3 sizes a step for its dense
    reads: a march sums about as many Taylor terms for any cap from x/4 to
    x/2 (945 a march at x/3 and 954 at x/2, over 149 cutoffs of the
    benchmark's grid), while a Horner read sums all of one step's terms,
    21.8 at x/3 against 28.6 at x/2 over verify's reads (x/4 reads 12%
    fewer, but marches 5% more terms over 11% more steps, and timed no
    faster in verify). The series at x0 stops at _TOL, and so do the
    Taylor terms, of min(|f|, |h f'|) at the step's start. A step that
    would leave less than 1/1000 of itself to A runs to A instead, so that
    no node but A lies too close to A for the sign of f there to be
    resolved.
    """
    x = min(0.03, 0.25 * A, 0.1 / lam)
    f, g = series(x, lam)
    xs, fs, ds, steps = [x], [f], [g / x], []
    h, lam2 = x, 2.0 * lam            # g = h f'(x) from here on
    while True:
        step = x * x if x < 1.0 / 3.0 else x / 3.0
        last = x + 1.001 * step >= A
        if last:
            step = A - x
        bound = (lam2 + 2.0 / x) / (x * x) * step * step
        while bound >= _PI2:
            step *= 0.5
            bound *= 0.25
            last = False
        g *= step / h
        h = step
        bs = [f, g]
        f, g = taylor(x, h, lam, f, g, _TOL * min(abs(f), abs(g)), bs)
        bs.reverse()
        steps.append((h, bs))
        x = A if last else x + h
        xs.append(x)
        fs.append(f)
        ds.append(g / h)
        if last:
            return xs, fs, ds, steps


class Eigenfunction:
    """Dense march of f at rate lam on (0, A]: pdf and cdf at any point
    from the Taylor terms of the step that holds it, summed by Horner in
    (x - x_j) / h_j (by the series below x0). At a node they are the
    march's own values, so cdf(A) = 1.

    Raises ConsistencyError when the endpoint flux -e^{-2/A} f'(A) is not
    positive and finite, as at a rate far from the spectrum.
    """

    def __init__(self, A: float, lam: float):
        self.A, self.lam = A, lam
        self.xs, self.fs, self.ds, self.steps = march(A, lam)
        self.flux = -math.exp(-2.0 / A) * self.ds[-1]
        if not 0.0 < self.flux < math.inf:
            raise ConsistencyError(
                f"eigenfunction flux {self.flux!r} at A={A} is not positive and finite"
            )

    @property
    def residual(self) -> float:
        """|f(A)| / (A |f'(A)|): the distance from A to the march's zero of
        f, relative to A."""
        return abs(self.fs[-1]) / (self.A * abs(self.ds[-1]))

    def densities(self, xs, cdf: bool = False) -> list:
        """pdf at each point of xs in (0, A], or (pdf, cdf) pairs if cdf,
        from one Horner pass per point (f and f' together for the cdf)."""
        A, lam, flux, nodes, fs, ds, steps = (
            self.A, self.lam, self.flux, self.xs, self.fs, self.ds, self.steps)
        lam2, exp = lam * 2.0, math.exp
        out = []
        for x in xs:
            if not 0.0 < x <= A:
                raise DomainError(f"point {x!r} outside (0, {A}]")
            # j with nodes[j] < x <= nodes[j + 1], or -1 below the first node
            j = bisect_left(nodes, x) - 1
            if j < 0:
                f, d = series(x, lam)
                d /= x
            elif x == nodes[j + 1]:
                f, d = fs[j + 1], ds[j + 1]
            else:
                h, bs = steps[j]
                t = (x - nodes[j]) / h
                f = d = 0.0           # d = h f'(x) = sum k b_k t^{k-1}
                if cdf:
                    for b in bs:
                        d = d * t + f
                        f = f * t + b
                    d /= h
                else:
                    for b in bs:
                        f = f * t + b
            e = exp(-2.0 / x)
            pdf = lam2 / (x * x) * e * f / flux
            out.append((pdf, -e * d / flux) if cdf else pdf)
        return out
