import math

import numpy as np
import pytest

import _helpers as h
from fractalsio import (ConstantOmega, Euclidean, Heisenberg1, HomogeneousKernel,
                        InputError, PerturbedOmega, PolynomialOverNorm,
                        RieszComponent, SignOmega, bump_profile, omega_from_config)

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


@pytest.mark.parametrize("geom,omega", _omega_battery())
def test_omega_sphere_lipschitz_sampled(geom, omega):
    rng = np.random.default_rng(29)
    pts = h.random_points(rng, geom.dim, 3000)
    pts = geom.dilate(1.0 / geom.norm(pts), pts)
    a, b = pts[:1500], pts[1500:3000]
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    va = omega.eval(geom, a)
    vb = omega.eval(geom, b)
    # compare against the gauge distance used by the kernel modulus
    d = np.array([geom.dist(p, q) for p, q in zip(a, b)])
    lip = omega.lip_for(geom)
    mask = d > 1e-9
    if isinstance(omega, SignOmega):
        # discontinuous at the origin hyperplane: restrict to one side
        mask &= (a[:, 0] * b[:, 0]) > 0
    assert np.all(np.abs(va - vb)[mask] <= 1.01 * lip * d[mask] + 1e-12)


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


def test_modulus_monotone():
    kern = h.sign_kernel(h.make_ifs(h.middle_thirds_config()))
    assert kern.lipschitz_on(0.2) > kern.lipschitz_on(0.4)
    with pytest.raises(InputError):
        kern.lipschitz_on(0.0)


def test_finite_difference_respects_modulus(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    rng = np.random.default_rng(41)
    x = np.array([-1.0])
    base = np.array([0.5])
    for _ in range(300):
        step = rng.uniform(-0.05, 0.05, size=1)
        y1 = base + step
        y2 = base
        delta = min(kern.geometry.dist(x, y1), kern.geometry.dist(x, y2))
        bound = kern.lipschitz_on(delta) * kern.geometry.dist(y1, y2)
        diff = abs(kern.eval(x, y1) - kern.eval(x, y2))
        assert diff <= 1.01 * bound + 1e-12


def test_cell_err_bound_shapes(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    deltas = np.array([0.5, 1.0])
    diams = np.array([0.1, 0.2])
    out = kern.cell_err_bound(deltas, diams, np.array([[0.5], [1.0]]))
    assert out.shape == (2,)
    assert np.all(out > 0)


def test_jump_sets():
    # sign jumps where a displacement ball meets z_1 = 0, in both geometries;
    # in one dimension that set is the pole, and smooth families have none
    z2 = np.array([[0.05, 1.0], [-0.5, 1.0], [0.0, 0.0]])
    z3 = np.array([[0.05, 1.0, 2.0], [-0.5, 1.0, 2.0]])
    r = np.array([0.1, 0.1, 0.1])
    bumped = PerturbedOmega(SignOmega(), (1.0, 0.0), 0.5, 0.1)
    for geom, z, want in [(E2, z2, [True, False, True]), (HG, z3, [True, False])]:
        assert SignOmega().jumps(geom, z, r[:len(z)]).tolist() == want
    assert bumped.jumps(E2, z2, r).tolist() == [True, False, True]
    assert SignOmega().jumps(E1, z2[:, :1], r) is None
    for geom, omega in _omega_battery():
        if not isinstance(omega, SignOmega):
            assert omega.jumps(geom, np.ones((1, geom.dim)), r[:1]) is None


def test_cell_err_bound_charges_jumps():
    # a cell meeting the jump is charged 2 sup / delta^s, the others L(delta) d
    kern = HomogeneousKernel(E2, 1.0, SignOmega())
    delta, diams = np.array([0.5, 0.5]), np.array([0.1, 0.1])
    out = kern.cell_err_bound(delta, diams, np.array([[0.05, 0.6], [0.6, 0.05]]))
    assert out.tolist() == [2.0 / 0.5, kern.lipschitz_on(0.5) * 0.1]


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
