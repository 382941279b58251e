"""Homogeneous kernels k(x, y) = Omega(z) / d(x, y)^s.

The displacement is z = x - y in Euclidean geometry and z = x^{-1} * y in
group geometry (replacing Omega(z) by Omega(z^{-1}) converts between the two
orientations).  Omega is 0-homogeneous: it only sees the direction of z, and
each family carries two constants for its restriction to the gauge sphere, a
sup bound and a Lipschitz bound.  Those give the certified kernel modulus

    |k(x, y) - k(x, y')| <= L(delta) d(y, y'),
    L(delta) = 2 (s sup + lip) / delta^(s+1),

valid when y, y' stay at distance >= delta from the pole x; the factor 2
covers the renormalization |u/|u| - v/|v|| <= 2 |u - v| / delta.  Euclidean
constants (and the first two group Riesz components) are derived; remaining
group-geometry constants are sampled bounds with a safety margin and assume
the compared points are no farther from each other than from the pole, which
holds for quadrature cells resolved below their pole distance.

A family whose Omega jumps says where: ``jumps(geom, z, radius)`` marks the
displacements z whose ball of that radius meets the jump set, or is None when
no evaluated cell can meet it.  The sign family jumps across z_1 = 0; the first
coordinate is additive in both geometries, so a cell B(x_v, d_v) meets it
exactly when |z_1(x_v)| <= d_v.  In one dimension that set is the pole, which
every evaluated cell is certified away from.  ``cell_err_bound`` charges a
marked cell the full oscillation 2 sup / delta^s instead of L(delta) d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, config_section, integer, positive, real
from .geometry import Euclidean

MODULUS_SCALE = 2.0
PHI_DERIV_BOUND = 2.2  # max |phi'| for the bump profile is about 2.1704


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


class _Smooth:
    def jumps(self, geom, z, radius):
        """None: Omega is Lipschitz on the whole sphere."""
        return None


@dataclass(frozen=True)
class ConstantOmega(_Smooth):
    """Omega(z) = c."""

    c: float = 1.0
    kind: str = field(default="constant", init=False)

    def __post_init__(self):
        object.__setattr__(self, "c", real(self.c, "omega constant c"))

    def eval(self, geom, z):
        z = np.asarray(z, dtype=float)
        return np.full(z.shape[:-1], self.c)

    def sup_for(self, geom) -> float:
        return abs(self.c)

    def lip_for(self, geom) -> float:
        return 0.0

    def to_config(self) -> dict:
        return {"kind": "constant", "c": self.c}


@dataclass(frozen=True)
class SignOmega:
    """Omega(z) = sign(z_1)."""

    kind: str = field(default="sign", init=False)

    def eval(self, geom, z):
        z = np.asarray(z, dtype=float)
        return np.sign(z[..., 0])

    def sup_for(self, geom) -> float:
        return 1.0

    def lip_for(self, geom) -> float:
        return 1.0  # 0 off the jump, which ``jumps`` marks

    def jumps(self, geom, z, radius):
        return None if geom.dim == 1 else np.abs(z[..., 0]) <= radius

    def to_config(self) -> dict:
        return {"kind": "sign"}


@dataclass(frozen=True)
class RieszComponent(_Smooth):
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

    def eval(self, geom, z):
        z = np.asarray(z, dtype=float)
        deg = self._degree(geom)
        return z[..., self.axis - 1] / geom.norm(z) ** deg

    def sup_for(self, geom) -> float:
        self._degree(geom)
        return 1.0

    def lip_for(self, geom) -> float:
        deg = self._degree(geom)
        if deg == 1.0:
            return 1.0
        return 6.0  # sampled bound for the degree-2 group coordinate

    def to_config(self) -> dict:
        return {"kind": "riesz", "axis": self.axis}


@dataclass(frozen=True)
class PolynomialOverNorm(_Smooth):
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
            (float(c), tuple(integer(e, "monomial exponent", 0) for e in exps))
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

    def eval(self, geom, z):
        self._check_dim(geom)
        z = np.asarray(z, dtype=float)
        total = np.zeros(z.shape[:-1])
        for c, exps in self.coeffs:
            term = np.full(z.shape[:-1], c)
            for j, e in enumerate(exps):
                if e:
                    term = term * z[..., j] ** e
            total = total + term
        return total / geom.norm(z) ** float(self.degree)

    def sup_for(self, geom) -> float:
        self._check_dim(geom)
        return float(sum(abs(c) for c, _ in self.coeffs))

    def lip_for(self, geom) -> float:
        a = self.sup_for(geom)
        base = 2.0 * self.degree * a
        if float(np.max(geom.coord_degrees)) > 1.0:
            return 3.0 * base  # sampled margin for group geometry
        return base

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

    def bump(self, geom, z):
        """The bump alone, eps * phi(theta_line / rho)."""
        self._require_euclidean(geom)
        z = np.asarray(z, dtype=float)
        u = z / geom.norm(z)[..., np.newaxis]
        c = np.abs(np.sum(u * np.asarray(self.direction), axis=-1))
        theta = np.arccos(np.clip(c, 0.0, 1.0))
        return self.eps * bump_profile(theta / self.rho)

    def eval(self, geom, z):
        return self.base.eval(geom, z) + self.bump(geom, z)

    def sup_for(self, geom) -> float:
        return self.base.sup_for(geom) + self.eps

    def lip_for(self, geom) -> float:
        extra = self.eps * PHI_DERIV_BOUND * (math.pi / 2.0) / self.rho
        return self.base.lip_for(geom) + extra

    def jumps(self, geom, z, radius):
        return self.base.jumps(geom, z, radius)

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
    """A kernel Omega(z)/d^s bound to a geometry, with certified moduli."""

    def __init__(self, geometry, s: float, omega):
        self.geometry = geometry
        self.s = positive(s, "kernel exponent s")
        self.omega = omega
        self.omega_sup = float(omega.sup_for(geometry))
        self.omega_lip = float(omega.lip_for(geometry))

    def displacement(self, x, y):
        """z with k(x, y) = Omega(z)/||z||^s: x - y, or x^{-1} * y in a group."""
        geom = self.geometry
        if isinstance(geom, Euclidean):
            return np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return geom.op(geom.inv(np.asarray(x, dtype=float)),
                       np.asarray(y, dtype=float))

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
        return self.omega.eval(geom, z) / d ** self.s, d

    def lipschitz_on(self, delta):
        """Certified Lipschitz constant for y -> k(x, y) at distance >= delta."""
        delta = np.asarray(delta, dtype=float)
        if np.any(delta <= 0.0):
            raise InputError("pole distance delta must be positive")
        scale = MODULUS_SCALE * (self.s * self.omega_sup + self.omega_lip)
        out = scale / delta ** (self.s + 1.0)
        if out.ndim == 0:
            return float(out)
        return out

    def cell_err_bound(self, delta, diams, z):
        """Per-cell oscillation bounds of y -> k(x, y): L(delta_v) d_v, or
        2 sup / delta_v^s where ``omega.jumps`` marks the node displacement."""
        err = self.lipschitz_on(delta) * np.asarray(diams, dtype=float)
        jump = self.omega.jumps(self.geometry, z, diams)
        return err if jump is None else np.where(
            jump, 2.0 * self.omega_sup / delta ** self.s, err)

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

