"""Ambient spaces: Euclidean R^d and the first Heisenberg group.

Both spaces are groups carrying a one-parameter family of dilations and a
homogeneous norm (gauge).  Everything downstream touches only the small
surface defined here: ``op``, ``inv``, ``dilate``, ``scale``, ``norm``,
``dist``, ``displacement_box``, ``gauge_bounds`` and the per-coordinate
homogeneity degrees.  ``scale(r)`` gives the per-coordinate factors of the
dilation by r, as products of r (r itself, and r * r for the group's last
coordinate), so each factor is correctly rounded; ``dilate(r, p)`` is
``scale(r) * p``, and a caller that applies one dilation to many points
gathers its ``scale`` row once.  ``displacement_box(a, ha, b, hb)`` bounds
the displacements b'^{-1} * a' between two coordinate boxes a +- ha and b +-
hb.  Both gauges are monotone in the absolute value of each coordinate, so
over a box z +- H the gauge lies between ``norm(max(|z| - H, 0))`` and
``norm(|z| + H)`` (``gauge_bounds``).  Points are float64
arrays of shape ``(d,)``; every operation also accepts stacked arrays of
shape ``(..., d)`` and maps over the leading axes.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, InputError, integer


class _Geometry:
    """What both geometries share: the identity, point checks, equality,
    ``inv``, ``dilate``, ``dist``, ``gauge_bounds`` and the coordinatewise
    part of ``displacement_box``."""

    def identity(self) -> np.ndarray:
        return np.zeros(self.dim)

    def check_point(self, p) -> np.ndarray:
        try:
            p = np.asarray(p, dtype=float)
        except (TypeError, ValueError):
            raise InputError("point coordinates must be numbers") from None
        if p.shape[-1:] != (self.dim,):
            raise InputError(
                f"expected point(s) with last axis {self.dim}, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise InputError("point coordinates must be finite")
        return p

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.dim == self.dim

    def __hash__(self):
        return hash((self.kind, self.dim))

    def inv(self, p):
        # in the group the twist term vanishes on (p, -p), so negation is the inverse
        return -np.asarray(p, dtype=float)

    def dilate(self, r, p):
        return self.scale(r) * np.asarray(p, dtype=float)

    def dist(self, p, q):
        """The gauge of q^{-1} * p."""
        return self.norm(self.op(self.inv(q), np.asarray(p, dtype=float)))

    def gauge_bounds(self, z, half):
        """(lo, hi) = (norm(max(|z| - H, 0)), norm(|z| + H)), bounds on the
        gauge over the box z +- H."""
        a = np.abs(z)
        hi = self.norm(np.add(a, half, out=a))
        np.subtract(np.abs(z, out=a), half, out=a)
        return self.norm(np.maximum(a, 0.0, out=a)), hi

    def displacement_box(self, a, ha, b, hb):
        """(z, H) with a' - b' in z +- H for every a' in the box a +- ha and b'
        in b +- hb: z = a - b and H = ha + hb, the Euclidean rule (half-widths
        are arrays whose last axis is the dimension).  Both are filled column
        by column at the common shape, since numpy broadcasting a short last
        axis against many rows is several times slower than a whole column."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        ha, hb = np.asarray(ha, dtype=float), np.asarray(hb, dtype=float)
        shape = np.broadcast(a, b, ha, hb).shape
        z, half = np.empty(shape), np.empty(shape)
        for j in range(self.dim):
            np.subtract(a[..., j], b[..., j], out=z[..., j])
            np.add(ha[..., j], hb[..., j], out=half[..., j])
        return z, half


class Euclidean(_Geometry):
    """R^d with vector addition, scalar dilation, and the l2 metric."""

    kind = "euclidean"

    def __init__(self, dim: int):
        self.dim = integer(dim, "euclidean dimension", 1)
        self.coord_degrees = np.ones(self.dim)

    def op(self, p, q):
        return np.asarray(p, dtype=float) + np.asarray(q, dtype=float)

    def scale(self, r):
        """The factor r of every coordinate, shape ``r.shape + (1,)``, which
        broadcasts against points."""
        return np.asarray(r, dtype=float)[..., np.newaxis]

    def norm(self, z):
        """The l2 norm, its squares added column by column in coordinate order:
        on a short last axis that is much faster than a reduction over it."""
        z = np.asarray(z, dtype=float)
        out = z[..., 0] * z[..., 0]
        for j in range(1, self.dim):
            out += z[..., j] * z[..., j]
        return np.sqrt(out, out=out) if out.ndim else np.sqrt(out)

    def dist(self, p, q):
        return self.norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))

    def to_config(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}

    def __repr__(self) -> str:
        return f"Euclidean(dim={self.dim})"


class Heisenberg1(_Geometry):
    """First Heisenberg group on coordinates (x, y, t).

    Group law: (x,y,t) * (x',y',t') = (x+x', y+y', t+t' + (x y' - y x')/2).
    Dilations scale (x, y) by r and t by r^2.  The gauge is
    ((x^2+y^2)^2 + t^2)^(1/4) and the distance is the gauge of q^{-1} * p.
    """

    kind = "heisenberg1"
    dim = 3

    def __init__(self):
        self.coord_degrees = np.array([1.0, 1.0, 2.0])

    def op(self, p, q):
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        out = p + q
        out[..., 2] += 0.5 * (p[..., 0] * q[..., 1] - p[..., 1] * q[..., 0])
        return out

    def scale(self, r):
        """The factors (r, r, r * r) of the three coordinates, shape ``r.shape + (3,)``."""
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape + (3,))
        out[..., 0] = out[..., 1] = r
        out[..., 2] = r * r
        return out

    def displacement_box(self, a, ha, b, hb):
        """(z, H) with b'^{-1} * a' in z +- H for every a' in the box a +- ha and
        b' in b +- hb (half-widths are arrays with a last axis of 3): z =
        b^{-1} * a and H = ha + hb, widened in t by the twist.  With a' = a + u
        and b' = b + v, the t of b'^{-1} * a' is that of b^{-1} * a plus u_t -
        v_t + (b'_y a'_x - b_y a_x - b'_x a'_y + b_x a_y) / 2, and |b'_y a'_x -
        b_y a_x| = |b_y u_x + v_y a_x + v_y u_x| <= (|b_y| + hb_y) ha_x + |a_x|
        hb_y, likewise for the other product; all four are arrays."""
        z, half = super().displacement_box(a, ha, b, hb)
        z[..., 2] += 0.5 * (b[..., 1] * a[..., 0] - b[..., 0] * a[..., 1])
        twist = (np.abs(b[..., 0]) + hb[..., 0]) * ha[..., 1] + np.abs(a[..., 1]) * hb[..., 0]
        twist += (np.abs(b[..., 1]) + hb[..., 1]) * ha[..., 0] + np.abs(a[..., 0]) * hb[..., 1]
        half[..., 2] += 0.5 * twist
        return z, half

    def norm(self, z):
        z = np.asarray(z, dtype=float)
        planar = z[..., 0] ** 2 + z[..., 1] ** 2
        return (planar ** 2 + z[..., 2] ** 2) ** 0.25

    def to_config(self) -> dict:
        return {"kind": self.kind}

    def __repr__(self) -> str:
        return "Heisenberg1()"


def geometry_from_config(cfg: dict):
    """Build a geometry from ``{"kind": "euclidean", "dim": d}`` or ``{"kind": "heisenberg1"}``."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("geometry config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    if kind == "euclidean":
        if "dim" not in cfg:
            raise ConfigError("euclidean geometry config needs 'dim'")
        return Euclidean(cfg["dim"])
    if kind == "heisenberg1":
        return Heisenberg1()
    raise ConfigError(f"unknown geometry kind {kind!r}")
