import math

import numpy as np
import pytest

import _helpers as h
from fractalsio import (ConstantOmega, Euclidean, Heisenberg1, HomogeneousKernel,
                        InputError, PerturbedOmega, PolynomialOverNorm,
                        RieszComponent, SignOmega, bump_profile, complement_base_words,
                        criterion, omega_from_config, region_cells)

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


def _cell_terms(kern, z, box, half, floor=0.0):
    """(value_v, err_v, lo_v, hi_v) of each cell whose displacements from the
    pole lie in the box ``box`` +- ``half``, with its node at displacement
    ``z``, as ``sio._bracket`` forms them."""
    geom = kern.geometry
    lo, hi = geom.gauge_bounds(box, half)
    lo = np.maximum(lo, floor)
    assert np.all(lo > 0.0)
    dist = geom.norm(z)
    omega_z = kern.omega.eval(geom, z)
    inv_s = dist ** -kern.s
    err = kern.cell_err_bound(z, dist, np.abs(box - z) + half, lo, hi, omega_z, inv_s)
    return omega_z * inv_s, err, lo, hi


def _box_samples(rng, box, half, k):
    """k displacements of each box, a quarter of them on its corners."""
    u = rng.uniform(-1.0, 1.0, (len(box), k, box.shape[-1]))
    corner = rng.random((len(box), k)) < 0.25
    u[corner] = np.sign(u[corner])
    return box[:, None] + (1.0 - 1e-12) * u * half[:, None]


@pytest.mark.parametrize("geom,omega", _omega_battery() + _OSC_EXTRA)
def test_cell_err_bound_holds_in_cell_balls(geom, omega):
    # |k(pole, y) - value_v| <= err_v and lo_v <= d(pole, y) <= hi_v at many y
    # in each random cell box, for cells far from and near the pole, boxes
    # that straddle z_1 = 0 (some with z_1 = 0 at the node, off the line),
    # and cells whose pole distance is floored; k is evaluated at the sampled
    # displacements themselves, so the pole's rounding plays no part
    rng = np.random.default_rng(53)
    kern = HomogeneousKernel(geom, 0.8, omega)
    m = 300
    box = h.random_points(rng, geom.dim, m)[:m]
    box = geom.dilate(rng.uniform(0.05, 2.0, len(box)) / geom.norm(box), box)
    size = geom.norm(box) * rng.uniform(0.001, 0.7, len(box))
    half = geom.scale(size) * rng.uniform(0.2, 1.0, box.shape)
    box[: m // 3, 0] = half[: m // 3, 0] * rng.uniform(-1.0, 1.0, m // 3)
    z = box + half * rng.uniform(-1.0, 1.0, box.shape)  # the node, inside its box
    if geom.dim > 1:
        z[: m // 15, 0] = 0.0
    lo = geom.gauge_bounds(box, half)[0]
    ys = _box_samples(rng, box, half, 64)
    norm = geom.norm(ys)
    k = kern.omega.eval(geom, ys, norm) / norm ** kern.s
    straddle = np.abs(box[:, 0]) <= half[:, 0]

    live = lo > 0.0
    assert geom.dim == 1 or np.count_nonzero(straddle & live) > m // 5
    value, err, lo_v, hi_v = _cell_terms(kern, z[live], box[live], half[live])
    assert np.all((lo_v[:, None] <= norm[live]) & (norm[live] <= hi_v[:, None]))
    assert np.all(np.abs(k[live] - value[:, None]) <= err[:, None])

    # a floor between lo_v and ||z_v||, which the samples kept respect; in one
    # dimension only a floor lets a cell straddle the pole
    dist = geom.norm(z)
    floor = lo + (dist - lo) * rng.uniform(0.05, 1.0, len(dist))
    assert np.count_nonzero(straddle) > m // 5
    value, err, _, _ = _cell_terms(kern, z, box, half, floor)
    held = norm >= floor[:, None]
    assert np.all((np.abs(k - value[:, None]) <= err[:, None]) | ~held)


@pytest.mark.parametrize("fixture,omega,s", [
    ("middle_thirds", SignOmega(), 0.63),
    ("four_corner", SignOmega(), 1.0),
    ("four_corner", RieszComponent(1), 1.0),
    ("heis_twisted", RieszComponent(3), 0.9),
    ("heis_twisted", SignOmega(), 0.9),
    ("heis_quarter", PolynomialOverNorm(((1.0, (1, 1, 0)), (-0.5, (0, 0, 1))), 2), 0.8),
    ("four_corner_far", RieszComponent(2), 1.0),
    ("heis_quarter_far", RieszComponent(3), 0.9),
    ("heis_quarter_far", SignOmega(), 0.9),
])
def test_cell_bracket_holds_at_subcell_nodes(request, fixture, omega, s):
    # each depth-2 cell next to the periodic point of (1,) brackets k at the
    # nodes of all its depth-6 subcells, which lie in the cell, and their
    # distances from the pole lie between the gauge bounds of its box; the
    # ``_far`` systems are conjugated by a translation that puts the pole far
    # from the origin
    if fixture.endswith("_far"):
        name = fixture[:-len("_far")]
        cfg = getattr(h, f"{name}_config")()
        ifs = h.make_ifs(h.translated_config(cfg, _FAR[len(cfg["maps"][0]["q"])]))
    else:
        ifs = request.getfixturevalue(fixture)
    geom = ifs.geometry
    kern = HomogeneousKernel(geom, s, omega)
    pole = ifs.fixed_point((1,))
    bases = complement_base_words((1,), ifs.n_letters)
    cells, sub = region_cells(ifs, bases, 2), region_cells(ifs, bases, 6)
    box, half = ifs.cylinder_box(cells.ratios, cells.shifts, pole)
    live = geom.gauge_bounds(box, half)[0] > 0.0
    assert np.count_nonzero(live) > cells.count // 2
    z = kern.displacement(pole, cells.points)
    value, err, lo, hi = _cell_terms(kern, z[live], box[live], half[live])
    k, d = kern.pole_terms(pole, sub.points)
    k, d = k.reshape(cells.count, -1)[live], d.reshape(cells.count, -1)[live]
    assert np.all((lo[:, None] <= d) & (d <= hi[:, None]))
    assert np.all(np.abs(k - value[:, None]) <= err[:, None])


_FAR = {2: [40.0, -30.0], 3: [30.0, -20.0, 50.0]}


@pytest.mark.parametrize("name,omega,tol", [
    ("four_corner", RieszComponent(1), 1e-9),
    ("heis_quarter", RieszComponent(3), 0.05),
    ("heis_twisted", RieszComponent(2), 0.05),
])
def test_cell_boxes_are_taken_in_the_poles_frame(name, omega, tol):
    # k(a x, a y) = k(x, y), so a system conjugated by a translation a gives
    # the same values, and each cell's box is taken in the pole's frame, from
    # p^{-1} * q_v, so its twist does not grow with |p|.  In the group the
    # box E of the moved set is sheared by a, hence the looser tolerance; a
    # box of S_v(E) taken in absolute coordinates gives 29 to 51 times the
    # heis_quarter err here.
    cfg = getattr(h, f"{name}_config")()
    near = h.make_ifs(cfg)
    far = h.make_ifs(h.translated_config(cfg, _FAR[len(cfg["maps"][0]["q"])]))
    kern = HomogeneousKernel(near.geometry, 1.0, omega)
    for w in [(1,), (2, 1), (3,)]:
        a, b = (criterion(ifs, kern, w, 4).result for ifs in (near, far))
        assert b.err == pytest.approx(a.err, rel=tol)
        assert abs(a.value - b.value) <= 1e-9 * a.err


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
