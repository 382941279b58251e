import math

import numpy as np
import pytest

import _helpers as h
from fractalsio import (ConstantOmega, Euclidean, Heisenberg1, HomogeneousKernel,
                        InputError, PerturbedOmega, PolynomialOverNorm,
                        RieszComponent, SignOmega, bump_profile, complement_base_words,
                        omega_from_config, region_cells)

E1 = Euclidean(1)
E2 = Euclidean(2)
HG = Heisenberg1()


def _omega_battery():
    return [
        (E1, SignOmega()),
        (E1, ConstantOmega(2.0)),
        (E2, RieszComponent(1)),
        (E2, RieszComponent(2)),
        (E2, PolynomialOverNorm(coeffs=(((1.0), (2, 0)), ((-0.5), (0, 2))),
                                degree=2)),
        (HG, RieszComponent(1)),
        (HG, RieszComponent(3)),
        (HG, PolynomialOverNorm(coeffs=(((1.0), (1, 1, 0)),), degree=2)),
    ]


def test_sign_kernel_value():
    # k(x, y) = sign(x - y) / |x - y|^s
    kern = HomogeneousKernel(E1, 0.6309297535714574, SignOmega())
    y = np.array([0.7])
    assert kern.eval(np.array([0.0]), y) == pytest.approx(
        -1.0 / 0.7 ** 0.6309297535714574)
    assert kern.eval(y, np.array([0.0])) == pytest.approx(
        1.0 / 0.7 ** 0.6309297535714574)


def test_riesz_component_value():
    kern = HomogeneousKernel(E2, 1.0, RieszComponent(1))
    x = np.zeros(2)
    y = np.array([3.0, 4.0])
    # displacement x - y = (-3, -4) has norm 5; omega = -3/5, kernel = -3/25
    assert kern.eval(x, y) == pytest.approx(-0.12)


def test_pole_eval_rejected():
    kern = HomogeneousKernel(E1, 0.5, ConstantOmega())
    with pytest.raises(InputError):
        kern.eval(np.array([0.3]), np.array([0.3]))


@pytest.mark.parametrize("geom,omega", _omega_battery())
def test_omega_degree_zero_homogeneous(geom, omega):
    rng = np.random.default_rng(17)
    pts = h.random_points(rng, geom.dim, 400)
    vals = omega.eval(geom, pts)
    for r in (0.25, 0.5, 0.9):
        scaled = omega.eval(geom, geom.dilate(r, pts))
        assert np.allclose(scaled, vals, atol=1e-12)


@pytest.mark.parametrize("geom,omega", _omega_battery())
def test_omega_sup_bound(geom, omega):
    rng = np.random.default_rng(23)
    pts = h.random_points(rng, geom.dim, 2000)
    pts = geom.dilate(1.0 / geom.norm(pts), pts)  # project to unit sphere
    vals = np.abs(omega.eval(geom, pts))
    assert np.all(vals <= omega.sup_for(geom) + 1e-12)


def test_scaling_identity(middle_thirds, four_corner, heis_cantor):
    # k(S_v x, S_v y) * (prod r)^s = k(x, y)
    for ifs, omega in ((middle_thirds, SignOmega()),
                       (four_corner, RieszComponent(1)),
                       (heis_cantor, ConstantOmega())):
        kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, omega)
        rng = np.random.default_rng(31)
        for _ in range(100):
            x = rng.standard_normal(ifs.geometry.dim)
            y = rng.standard_normal(ifs.geometry.dim)
            if ifs.geometry.dist(x, y) < 1e-6:
                continue
            word = tuple(rng.integers(1, ifs.n_letters + 1, size=3))
            ratio = ifs.word_ratio(word)
            lhs = kern.eval(ifs.apply_word(word, x), ifs.apply_word(word, y))
            lhs *= ratio ** kern.s
            assert lhs == pytest.approx(kern.eval(x, y), rel=1e-11, abs=1e-12)


def test_translation_invariance_euclidean():
    kern = HomogeneousKernel(E2, 1.0, RieszComponent(2))
    rng = np.random.default_rng(37)
    for _ in range(50):
        x, y, t = rng.standard_normal((3, 2))
        assert kern.eval(x + t, y + t) == pytest.approx(kern.eval(x, y),
                                                        rel=1e-12)


# families beyond the battery: sign and the cap bump off the line, in both geometries
_OSC_EXTRA = [
    (E2, SignOmega()),
    (HG, SignOmega()),
    (E2, PerturbedOmega(SignOmega(), (1.0, 0.0), 0.5, 0.1)),
    (E2, PerturbedOmega(RieszComponent(2), (0.6, 0.8), 1.2, 0.3)),
    # t / ||z||^2: near z_2 = 0 with z_1^2 near |z_3|, z * (u_1, 0, 0) leaves
    # P(z) = t almost as it is while the gauge moves, a change only the norm
    # term of ``osc`` covers
    (HG, PolynomialOverNorm(coeffs=((1.0, (0, 0, 1)),), degree=2)),
]


def _cell_terms(kern, pole, nodes, radii, floor=0.0):
    """(value_v, err_v) of each cell, as ``sio._bracket`` forms them."""
    z = kern.displacement(pole, nodes)
    dist = kern.geometry.norm(z)
    delta = np.maximum(dist - radii, floor)
    assert np.all(delta > 0.0)
    omega_z = kern.omega.eval(kern.geometry, z)
    inv_s = dist ** -kern.s
    err = kern.cell_err_bound(z, dist, delta, radii, omega_z, inv_s, np.any(floor > 0.0))
    return omega_z * inv_s, err


def _ball_samples(rng, geom, nodes, radii, k):
    """k points of each cell's ball B(x_v, d_v), a quarter of them on its edge:
    x_v + u in Euclidean space and x_v * u in the group, ||u|| <= d_v."""
    u = rng.standard_normal((len(nodes), k, geom.dim))
    radius = radii[:, None] * np.where(rng.random((len(nodes), k)) < 0.25, 1.0,
                                       rng.random((len(nodes), k)))
    u = geom.dilate(radius * (1.0 - 1e-12) / geom.norm(u), u)
    return geom.op(nodes[:, None], u)


@pytest.mark.parametrize("geom,omega", _omega_battery() + _OSC_EXTRA)
def test_cell_err_bound_holds_in_cell_balls(geom, omega):
    # |k(pole, y) - value_v| <= err_v at many y in each random cell's ball, for
    # cells far from and near the pole, cells whose ball straddles z_1 = 0
    # (some with z_1 = 0 at the node, off the line), and cells whose pole
    # distance is floored
    rng = np.random.default_rng(53)
    kern = HomogeneousKernel(geom, 0.8, omega)
    pole = rng.standard_normal(geom.dim)
    m = 300
    z = h.random_points(rng, geom.dim, m)[:m]
    z = geom.dilate(rng.uniform(0.05, 2.0, len(z)) / geom.norm(z), z)
    radii = geom.norm(z) * rng.uniform(0.001, 0.7, len(z))
    z[: m // 3, 0] = radii[: m // 3] * rng.uniform(-1.0, 1.0, m // 3)
    if geom.dim > 1:
        z[: m // 15, 0] = 0.0
    nodes = pole - z if isinstance(geom, Euclidean) else geom.op(pole, z)
    dist = geom.norm(kern.displacement(pole, nodes))
    ys = _ball_samples(rng, geom, nodes, radii, 64)
    k = kern.eval(pole, ys.reshape(-1, geom.dim)).reshape(ys.shape[:2])
    straddle = np.abs(kern.displacement(pole, nodes)[:, 0]) <= radii

    live = dist - radii > 0.0
    assert geom.dim == 1 or np.count_nonzero(straddle & live) > m // 5
    value, err = _cell_terms(kern, pole, nodes[live], radii[live])
    assert np.all(np.abs(k[live] - value[:, None]) <= err[:, None])

    # a floor between max(||z_v|| - d_v, 0) and ||z_v||, which the samples kept
    # respect; in one dimension only a floor lets a cell straddle the pole
    lo = np.maximum(dist - radii, 0.0)
    floor = lo + (dist - lo) * rng.uniform(0.05, 1.0, len(dist))
    assert np.count_nonzero(straddle) > m // 5
    value, err = _cell_terms(kern, pole, nodes, radii, floor)
    held = geom.norm(kern.displacement(pole, ys)) >= floor[:, None]
    assert np.all((np.abs(k - value[:, None]) <= err[:, None]) | ~held)


@pytest.mark.parametrize("fixture,omega,s", [
    ("middle_thirds", SignOmega(), 0.63),
    ("four_corner", SignOmega(), 1.0),
    ("four_corner", RieszComponent(1), 1.0),
    ("heis_twisted", RieszComponent(3), 0.9),
    ("heis_twisted", SignOmega(), 0.9),
    ("heis_quarter", PolynomialOverNorm(((1.0, (1, 1, 0)), (-0.5, (0, 0, 1))), 2), 0.8),
])
def test_cell_bracket_holds_at_subcell_nodes(request, fixture, omega, s):
    # each depth-2 cell around the periodic point of (1,) brackets k at the
    # nodes of all its depth-6 subcells, which lie in the cell
    ifs = request.getfixturevalue(fixture)
    kern = HomogeneousKernel(ifs.geometry, s, omega)
    pole = ifs.fixed_point((1,))
    bases = complement_base_words((1,), ifs.n_letters)
    cells, sub = region_cells(ifs, bases, 2), region_cells(ifs, bases, 6)
    dist = ifs.geometry.norm(kern.displacement(pole, cells.points))
    live = dist - cells.radii > 0.0
    assert np.count_nonzero(live) > cells.count // 2
    value, err = _cell_terms(kern, pole, cells.points[live], cells.radii[live])
    k = kern.eval(pole, sub.points).reshape(cells.count, -1)[live]
    assert np.all(np.abs(k - value[:, None]) <= err[:, None])


@pytest.mark.parametrize("c", ["x", math.nan, True, None])
def test_constant_omega_refuses_non_numbers(c):
    # refused by the constructor, not later by the kernel that evaluates it
    with pytest.raises(InputError, match="^omega constant c must be a finite number"):
        ConstantOmega(c)


def test_pole_sup():
    kern = HomogeneousKernel(E1, 0.5, ConstantOmega(3.0))
    assert kern.pole_sup(0.25) == pytest.approx(3.0 / 0.25 ** 0.5)


def test_perturbed_omega_properties():
    base = RieszComponent(1)
    pert = PerturbedOmega(base=base, direction=(1.0, 0.0), rho=0.5, eps=0.1)
    rng = np.random.default_rng(43)
    pts = h.random_points(rng, 2, 10000)
    pts = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    b = base.eval(E2, pts)
    p = pert.eval(E2, pts)
    diff = p - b
    assert np.all(diff >= -1e-15)          # perturbation never decreases omega
    assert np.max(np.abs(diff)) <= 0.1 + 1e-12
    # exactly eps at the chosen direction, unchanged far away from the cap
    u = np.array([1.0, 0.0])
    assert pert.eval(E2, u) - base.eval(E2, u) == pytest.approx(0.1)
    v = np.array([0.0, 1.0])
    assert pert.eval(E2, v) == pytest.approx(base.eval(E2, v))
    # the change is even: mirrored directions get the same bump
    w = np.array([-1.0, 0.0])
    assert pert.eval(E2, w) - base.eval(E2, w) == pytest.approx(0.1)


def test_perturbed_requires_euclidean():
    with pytest.raises(InputError):
        PerturbedOmega(base=ConstantOmega(), direction=(1.0, 0.0, 0.0),
                       rho=0.5, eps=0.1).eval(HG, np.array([1.0, 0.0, 0.0]))


def test_perturb_method_and_flag():
    kern = HomogeneousKernel(E2, 1.0, RieszComponent(2))
    new = kern.perturb((1.0, 0.0), 0.5, 0.1)
    assert isinstance(new.omega, PerturbedOmega)


def test_bump_profile_shape():
    assert bump_profile(0.0) == pytest.approx(1.0)
    assert bump_profile(0.999) < 1e-6
    assert bump_profile(1.0) == 0.0
    assert bump_profile(-0.5) == bump_profile(0.5)
    ts = np.linspace(-2, 2, 101)
    vals = bump_profile(ts)
    assert np.all(vals[np.abs(ts) >= 1] == 0.0)
    assert np.all(vals <= 1.0)


def test_config_round_trip():
    omegas = [
        ConstantOmega(2.5),
        SignOmega(),
        RieszComponent(2),
        PolynomialOverNorm(coeffs=((1.0, (2, 0)), (-0.5, (0, 2))), degree=2),
        PerturbedOmega(base=SignOmega(), direction=(0.0, 1.0), rho=0.7,
                       eps=0.05),
    ]
    for om in omegas:
        cfg = om.to_config()
        again = omega_from_config(cfg)
        assert again.to_config() == cfg
    kern = HomogeneousKernel(E2, 1.0, RieszComponent(1))
    cfg = kern.to_config()
    again = HomogeneousKernel.from_config(cfg, E2)
    assert again.to_config() == cfg


def test_kernel_eval(middle_thirds):
    # k(x, y) = sign(x - y) / |x - y|^s
    kern = h.sign_kernel(middle_thirds)
    assert kern.eval(np.array([0.0]), np.array([1.0])) == pytest.approx(-1.0)
    assert kern.eval(np.array([0.0]), np.array([-2.0])) == pytest.approx(
        2.0 ** -middle_thirds.dim_s)
