"""Homogeneous kernels k(x, y) = Omega(z) / d(x, y)^s.

The displacement is z = x - y in Euclidean geometry and z = x^{-1} * y in
group geometry (replacing Omega(z) by Omega(z^{-1}) converts between the two
orientations).  Omega is 0-homogeneous: it only sees the direction of z.
Each family has ``eval(geom, z, norm)``, Omega at the displacements z (a
caller that holds their gauges passes them as ``norm``), ``sup_for``, a
bound on |Omega|, and ``osc(geom, z, half, spread, lo, norm)``, a bound on
|Omega(z') - Omega(z)| over the displacements z' of a cell around a node at
displacement z.  A cell is its box: its displacements lie in z +- ``half``
(node-centred half-widths), with lo <= ||z'|| and | ||z'|| - norm | <=
``spread`` (norm = ||z||, lo the cell's certified pole distance), and each
family bounds Omega over that box by interval reasoning (Moore, Kearfott and
Cloud, *Introduction to Interval Analysis*, SIAM 2009), capped at 2 sup, so
no constant is sampled and no jump needs a mark of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, config_section, integer, positive, real
from .geometry import Euclidean

def bump_profile(t):
    """The standard smooth bump phi(t) = exp(1 - 1/(1 - t^2)) on |t| < 1, else 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    m = np.abs(t) < 1.0
    tm = t[m]
    out[m] = np.exp(1.0 - 1.0 / (1.0 - tm * tm))
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ConstantOmega:
    """Omega(z) = c."""

    c: float = 1.0
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        object.__setattr__(self, "c", real(self.c, "omega constant c"))

    def eval(self, geom, z, norm=None):
        z = np.asarray(z, dtype=float)
        return np.full(z.shape[:-1], self.c)

    def sup_for(self, geom) -> float:
        return abs(self.c)

    def osc(self, geom, z, half, spread, lo, norm):
        return 0.0

    def to_config(self) -> dict:
        return {"kind": "constant", "c": self.c}


@dataclass(frozen=True)
class SignOmega:
    """Omega(z) = sign(z_1)."""

    kind: str = field(default="sign", init=False)

    def eval(self, geom, z, norm=None):
        z = np.asarray(z, dtype=float)
        return np.sign(z[..., 0])

    def sup_for(self, geom) -> float:
        return 1.0

    def osc(self, geom, z, half, spread, lo, norm):
        z1 = z[..., 0]
        meets = np.abs(z1) <= half[..., 0]  # the box's z_1 range reaches the jump
        return meets * (1.0 + (z1 != 0.0)) if meets.any() else 0.0

    def to_config(self) -> dict:
        return {"kind": "sign"}


@dataclass(frozen=True)
class RieszComponent:
    """Omega(z) = z_axis / ||z||^degree(axis), the axis-th Riesz direction.

    ``axis`` is 1-based.  The homogeneity degree of the coordinate comes from
    the geometry (1 for Euclidean coordinates, 2 for the group's last one),
    so the quotient is 0-homogeneous in every supported geometry.
    """

    axis: int = 1
    kind: str = field(default="riesz", init=False)

    def __post_init__(self):
        object.__setattr__(self, "axis", integer(self.axis, "riesz axis", 1))

    def _degree(self, geom) -> float:
        if self.axis > geom.dim:
            raise InputError(
                f"riesz axis {self.axis} exceeds geometry dimension {geom.dim}"
            )
        return float(geom.coord_degrees[self.axis - 1])

    def eval(self, geom, z, norm=None):
        z = np.asarray(z, dtype=float)
        deg = self._degree(geom)
        norm = geom.norm(z) if norm is None else norm
        return z[..., self.axis - 1] / norm ** deg

    def sup_for(self, geom) -> float:
        self._degree(geom)
        return 1.0

    def osc(self, geom, z, half, spread, lo, norm):
        # z_i moves by its half-width; | ||z'||^-deg - norm^-deg | <= deg spread / (lo^deg norm)
        deg, i = self._degree(geom), self.axis - 1
        step = np.abs(z[..., i])
        step /= norm
        step *= spread
        step *= deg
        step += half[..., i]
        step /= lo ** deg
        return np.minimum(step, 2.0, out=step)

    def to_config(self) -> dict:
        return {"kind": "riesz", "axis": self.axis}


@dataclass(frozen=True)
class PolynomialOverNorm:
    """Omega(z) = P(z) / ||z||^degree for a weighted-homogeneous polynomial P.

    ``coeffs`` is a list of monomials [c, [e_1, ..., e_d]]; each must have
    weighted degree sum_j e_j * degree_j equal to ``degree`` so the quotient
    is 0-homogeneous.
    """

    coeffs: tuple
    degree: int
    kind: str = field(default="poly_over_norm", init=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            (real(c, "monomial coefficient"),
             tuple(integer(e, "monomial exponent", 0) for e in exps))
            for c, exps in self.coeffs))
        object.__setattr__(self, "degree", integer(self.degree, "polynomial degree", 1))

    def _check_dim(self, geom):
        for c, exps in self.coeffs:
            if len(exps) != geom.dim:
                raise InputError(
                    f"monomial exponent tuple {exps} does not match dimension "
                    f"{geom.dim}"
                )
            wdeg = float(np.dot(exps, geom.coord_degrees))
            if wdeg != float(self.degree):
                raise InputError(
                    f"monomial {exps} has weighted degree {wdeg}, "
                    f"expected {self.degree}"
                )

    def eval(self, geom, z, norm=None):
        self._check_dim(geom)
        z = np.asarray(z, dtype=float)
        total = np.zeros(z.shape[:-1])
        for c, exps in self.coeffs:
            term = np.full(z.shape[:-1], c)
            for j, e in enumerate(exps):
                if e:
                    term = term * z[..., j] ** e
            total = total + term
        norm = geom.norm(z) if norm is None else norm
        return total / norm ** float(self.degree)

    def sup_for(self, geom) -> float:
        self._check_dim(geom)
        return float(sum(abs(c) for c, _ in self.coeffs))

    def osc(self, geom, z, half, spread, lo, norm):
        # as for a Riesz component, with |P(z') - P(z)| <= Q(|z| + h) - Q(|z|)
        # over the box and |P(z)| <= Q(|z|), Q the polynomial with coefficients |c|
        a = np.abs(z)
        b = a + half
        near = sum(abs(c) * np.prod(a ** np.array(e), axis=-1) for c, e in self.coeffs)
        far = sum(abs(c) * np.prod(b ** np.array(e), axis=-1) for c, e in self.coeffs)
        step = far - near + near * (self.degree * spread / norm)
        return np.minimum(step / lo ** self.degree, 2.0 * self.sup_for(geom))

    def to_config(self) -> dict:
        return {"kind": "poly_over_norm",
                "coeffs": [[c, list(e)] for c, e in self.coeffs],
                "degree": self.degree}


@dataclass(frozen=True)
class PerturbedOmega:
    """A base angular part plus a smooth cap bump.

    The bump is even: it evaluates the profile at theta / rho where theta is
    the angle between the direction line (through +-direction) and z, so the
    perturbation is insensitive to the orientation of the displacement.  It
    is C-infinity on the sphere for rho < pi/2 and nonnegative, hence the
    perturbed part dominates the base everywhere and strictly on the cap.
    """

    base: object
    direction: tuple
    rho: float
    eps: float
    kind: str = field(default="perturbed", init=False)

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.ndim != 1 or not np.all(np.isfinite(d)):
            raise InputError("bump direction must be a finite vector")
        n = float(np.sqrt(np.sum(d * d)))
        if n == 0.0:
            raise InputError("bump direction must be nonzero")
        object.__setattr__(self, "direction", tuple(float(x) for x in d / n))
        object.__setattr__(self, "rho", positive(self.rho, "bump width rho", math.pi))
        object.__setattr__(self, "eps", positive(self.eps, "bump amplitude eps"))

    def _require_euclidean(self, geom):
        if not isinstance(geom, Euclidean):
            raise InputError("cap perturbations are defined for euclidean geometry")
        if len(self.direction) != geom.dim:
            raise InputError(
                f"bump direction has dimension {len(self.direction)}, "
                f"geometry needs {geom.dim}"
            )

    def _bump_at(self, cos):
        """The bump at angle arccos(cos) to the direction line; it rises with cos."""
        return self.eps * bump_profile(np.arccos(np.clip(cos, 0.0, 1.0)) / self.rho)

    def eval(self, geom, z, norm=None):
        self._require_euclidean(geom)
        z = np.asarray(z, dtype=float)
        norm = geom.norm(z) if norm is None else norm
        u = z / norm[..., np.newaxis]
        cos = np.abs(np.sum(u * np.asarray(self.direction), axis=-1))
        return self.base.eval(geom, z, norm) + self._bump_at(cos)

    def sup_for(self, geom) -> float:
        return self.base.sup_for(geom) + self.eps

    def osc(self, geom, z, half, spread, lo, norm):
        # |z' . e| / ||z'|| lies in [(ze - m) / (norm + spread), (ze + m) / lo],
        # e unit and m = sum_j |e_j| half_j
        e = np.asarray(self.direction)
        ze = np.abs(np.sum(z * e, axis=-1))
        m = np.sum(np.abs(e) * half, axis=-1)
        bump = self._bump_at((ze + m) / lo) - self._bump_at((ze - m) / (norm + spread))
        return np.minimum(self.base.osc(geom, z, half, spread, lo, norm) + bump,
                          2.0 * self.sup_for(geom))

    def to_config(self) -> dict:
        return {"kind": "perturbed", "base": self.base.to_config(),
                "direction": list(self.direction), "rho": self.rho,
                "eps": self.eps}


def omega_from_config(cfg: dict):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("omega config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    with config_section("omega"):
        if kind == "constant":
            return ConstantOmega(cfg.get("c", 1.0))
        if kind == "sign":
            return SignOmega()
        if kind == "riesz":
            if "axis" not in cfg:
                raise ConfigError("riesz omega config needs 'axis'")
            return RieszComponent(cfg["axis"])
        if kind == "poly_over_norm":
            if "coeffs" not in cfg or "degree" not in cfg:
                raise ConfigError("poly_over_norm config needs 'coeffs' and 'degree'")
            return PolynomialOverNorm(tuple((c, tuple(e)) for c, e in cfg["coeffs"]),
                                      cfg["degree"])
        if kind == "perturbed":
            for key in ("base", "direction", "rho", "eps"):
                if key not in cfg:
                    raise ConfigError(f"perturbed omega config needs {key!r}")
            return PerturbedOmega(omega_from_config(cfg["base"]),
                                  tuple(cfg["direction"]), cfg["rho"], cfg["eps"])
    raise ConfigError(f"unknown omega kind {kind!r}")


class HomogeneousKernel:
    """A kernel Omega(z)/d^s bound to a geometry, with certified per-cell bounds."""

    def __init__(self, geometry, s: float, omega):
        self.geometry = geometry
        self.s = positive(s, "kernel exponent s")
        self.omega = omega
        self.omega_sup = float(omega.sup_for(geometry))

    def displacement(self, x, y):
        """z with k(x, y) = Omega(z)/||z||^s: x - y, or x^{-1} * y in a group."""
        geom, none = self.geometry, np.zeros(self.geometry.dim)
        if isinstance(geom, Euclidean):  # x - y, filled column by column
            return geom.displacement_box(x, none, y, none)[0]
        return geom.op(geom.inv(np.asarray(x, dtype=float)), np.asarray(y, dtype=float))

    def eval(self, x, y):
        """k(x, y); raises at the pole x = y."""
        return self.pole_terms(x, y)[0]

    def pole_terms(self, pole, points):
        """(kernel values, gauge distances) for one pole against many points."""
        geom = self.geometry
        pole = geom.check_point(pole)
        points = geom.check_point(points)
        z = self.displacement(pole, points)
        d = geom.norm(z)
        if np.any(d == 0.0):
            raise InputError("kernel evaluated at its pole")
        return self.omega.eval(geom, z, d) / d ** self.s, d

    def cell_err_bound(self, z, norm, half, lo, hi, omega_z, inv_s):
        """Per-cell bounds err_v >= |k(x, y) - Omega(z_v) P_v| over each cell v.

        The displacements from the pole x to cell v lie in the box z_v +-
        ``half`` around its node's displacement z_v, with gauges in [lo_v,
        hi_v], lo_v > 0 certified; ``norm`` is ||z_v||, ``omega_z``
        Omega(z_v) and ``inv_s`` P_v = ||z_v||^-s.  By the product rule,
        err_v = osc_v lo_v^-s + |Omega(z_v)| max(lo_v^-s - P_v, P_v -
        hi_v^-s) + rho sup lo_v^-s, with osc_v the family's ``osc`` at the
        gauge spread max(hi_v - ||z_v||, ||z_v|| - lo_v).  The margin, rho =
        2^-40 = 8192u (u = 2^-53), covers rounding after z_v, ||z_v||, the
        box and its gauge bounds, taken as exact as in the pole test: each
        term is within a few dozen u sup lo_v^-s (|Omega| <= sup, osc_v <= 2
        sup, each pow within 2u), or 2^D u sup lo_v^-s for a degree D < 12.
        """
        spread = np.subtract(hi, norm)
        np.maximum(spread, np.subtract(norm, lo), out=spread)
        osc = self.omega.osc(self.geometry, z, half, spread, lo, norm)
        osc += 2.0 ** -40 * self.omega_sup
        near = lo ** -self.s
        err = hi ** -self.s
        np.subtract(inv_s, err, out=err)
        np.maximum(err, np.subtract(near, inv_s, out=spread), out=err)
        err *= omega_z
        np.abs(err, out=err)
        near *= osc
        err += near
        return err

    def pole_sup(self, eps: float) -> float:
        """Sup bound for |k(x, .)| outside the ball of radius eps around x."""
        return self.omega_sup / positive(eps, "eps") ** self.s

    def perturb(self, z_direction, rho: float, eps: float) -> "HomogeneousKernel":
        """This kernel with a smooth cap bump of width rho and amplitude eps added."""
        omega = PerturbedOmega(self.omega, tuple(np.asarray(z_direction, float)),
                               rho, eps)
        omega._require_euclidean(self.geometry)
        return HomogeneousKernel(self.geometry, self.s, omega)

    def to_config(self) -> dict:
        return {"s": self.s, "omega": self.omega.to_config()}

    @classmethod
    def from_config(cls, cfg: dict, geometry) -> "HomogeneousKernel":
        if not isinstance(cfg, dict) or "s" not in cfg or "omega" not in cfg:
            raise ConfigError("kernel config needs 's' and 'omega'")
        with config_section("kernel"):
            return cls(geometry, cfg["s"], omega_from_config(cfg["omega"]))

    def __repr__(self) -> str:
        return (f"HomogeneousKernel(s={self.s:.12g}, "
                f"omega={self.omega.to_config()!r})")

