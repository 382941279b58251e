"""An independent model of a config, for making inputs and checking outputs.

Nothing here imports fractalsio.  From the config alone it re-derives the
group law (Euclidean addition, or the Heisenberg law
(x,y,t)*(x',y',t') = (x+x', y+y', t+t' + (x y' - y x')/2)), the dilations,
the gauge, the kernel Omega(z)/|z|^s and the natural measure, whose letter
weights are r_i^s for the similarity dimension s.

Integrals are seeded Monte Carlo over the natural measure.  A sample point
is S_{a_1} o ... o S_{a_D}(0) with letters drawn i.i.d. with the natural
weights and D large enough that r_max^D < 1e-16.  An integral over a union
of cylinders C_v is sum_v mu(C_v) E[f(S_v(Y))], evaluated on one shared
sample Y, so each sample contributes one term and the standard error is
that of a plain mean.
"""

from __future__ import annotations

import math

import numpy as np


def _similarity_dimension(r) -> float:
    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.sum(r ** mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Model:
    """Geometry, kernel and natural measure of one config, in plain numpy."""

    def __init__(self, cfg: dict):
        self.heisenberg = cfg["geometry"]["kind"] == "heisenberg1"
        self.r = np.array([m["r"] for m in cfg["maps"]], dtype=float)
        self.q = np.array([m["q"] for m in cfg["maps"]], dtype=float)
        self.n = len(self.r)
        self.dim = self.q.shape[1]
        self.degrees = np.ones(self.dim)
        if self.heisenberg:
            self.degrees[2] = 2.0
        self.s = _similarity_dimension(self.r)
        self.p = self.r ** self.s
        self.levels = int(math.ceil(math.log(1e-16) / math.log(self.r.max())))
        self.ks = float(cfg["kernel"]["s"])
        self.omega = cfg["kernel"]["omega"]

    # ---- group ----------------------------------------------------------

    def op(self, a, b):
        c = a + b
        if self.heisenberg:
            c[..., 2] += 0.5 * (a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0])
        return c

    def norm(self, z):
        if self.heisenberg:
            planar = z[..., 0] ** 2 + z[..., 1] ** 2
            return (planar ** 2 + z[..., 2] ** 2) ** 0.25
        return np.sqrt(np.sum(z * z, axis=-1))

    def dist(self, x, y):
        return self.norm(self.op(-np.asarray(x, dtype=float), y))

    def apply(self, word, pts):
        """S_word applied to points; letters are 1-based."""
        for a in reversed(word):
            pts = self.op(self.q[a - 1], self.r[a - 1] ** self.degrees * pts)
        return pts

    def code_point(self, pre, period):
        """The point coded by pre . period period ..., by iterating S_period."""
        x = np.zeros(self.dim)
        for _ in range(self.levels // len(period) + 2):
            x = self.apply(period, x)
        return self.apply(pre, x)

    def ratio(self, word) -> float:
        return float(np.prod(self.r[np.asarray(word, dtype=int) - 1])) if word else 1.0

    def weight(self, word) -> float:
        return float(np.prod(self.p[np.asarray(word, dtype=int) - 1])) if word else 1.0

    def diameter_1d(self) -> float:
        """Attractor diameter of a 1-d system: the span of the maps' fixed points."""
        if self.dim != 1 or self.heisenberg:
            raise ValueError("closed-form diameter is for 1-d systems only")
        fixed = self.q[:, 0] / (1.0 - self.r)
        return float(fixed.max() - fixed.min())

    # ---- kernel and measure ------------------------------------------------

    def kernel(self, x, y):
        """k(x, y) with z = x - y, or x^{-1} * y in the group."""
        x = np.asarray(x, dtype=float)
        z = self.op(-x, y) if self.heisenberg else x - y
        d = self.norm(z)
        kind = self.omega["kind"]
        if kind == "sign":
            om = np.sign(z[..., 0])
        elif kind == "riesz":
            axis = int(self.omega["axis"]) - 1
            om = z[..., axis] / d ** self.degrees[axis]
        else:
            raise ValueError(f"no reference for omega kind {kind!r}")
        return om / d ** self.ks

    def sample(self, count: int, rng) -> np.ndarray:
        """``count`` points distributed by the natural measure."""
        pts = np.zeros((count, self.dim))
        for _ in range(self.levels):
            a = rng.choice(self.n, size=count, p=self.p / self.p.sum())
            scale = self.r[a][:, None] ** self.degrees
            pts = self.op(self.q[a], scale * pts)
        return pts

    def cylinders(self, x, bases, pts):
        """Per-sample terms of the integral of k(x, .) over the union of C_v, v in bases."""
        out = np.zeros(len(pts))
        for v in bases:
            out += self.weight(v) * self.kernel(x, self.apply(v, pts))
        return out


def complement_bases(word, n_letters):
    """Cylinders partitioning C minus C_word: siblings leaving ``word`` at each position."""
    return [list(word[:j]) + [e] for j in range(len(word))
            for e in range(1, n_letters + 1) if e != word[j]]


def mean_se(terms) -> tuple:
    return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(len(terms)))


def block_frequency_se(p_letters, target, n_steps) -> float:
    """Exact standard error of the overlapping-window frequency of ``target``.

    Windows at lag d < len(target) are dependent exactly when the block
    overlaps itself at shift d; then both occur with probability
    P(target) * P(last d letters).
    """
    m = len(target)
    p = float(np.prod([p_letters[a - 1] for a in target]))
    var = n_steps * p * (1.0 - p)
    for d in range(1, m):
        joint = 0.0
        if list(target[d:]) == list(target[:m - d]):
            joint = p * float(np.prod([p_letters[a - 1] for a in target[m - d:]]))
        var += 2.0 * (n_steps - d) * (joint - p * p)
    return math.sqrt(max(var, 0.0)) / n_steps
