import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalsio import Euclidean, Heisenberg1, InputError, geometry_from_config

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
point3 = st.tuples(coord, coord, coord).map(lambda t: np.array(t))
ratio = st.floats(0.05, 0.95)


def test_euclidean_basics():
    g = Euclidean(2)
    p = np.array([1.0, 2.0])
    q = np.array([4.0, 6.0])
    assert g.dist(p, q) == pytest.approx(5.0)
    assert np.allclose(g.op(p, q), p + q)
    assert np.allclose(g.inv(p), -p)
    assert np.allclose(g.dilate(0.5, q), q / 2)
    assert g.kind == "euclidean"
    assert list(g.coord_degrees) == [1, 1]


def test_heisenberg_product_value():
    g = Heisenberg1()
    p = np.array([1.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0])
    assert np.allclose(g.op(p, q), [1.0, 1.0, 0.5])
    assert np.allclose(g.op(q, p), [1.0, 1.0, -0.5])


@settings(max_examples=200, deadline=None)
@given(point3, point3, point3)
def test_heisenberg_group_axioms(p, q, r):
    g = Heisenberg1()
    lhs = g.op(g.op(p, q), r)
    rhs = g.op(p, g.op(q, r))
    assert np.allclose(lhs, rhs, atol=1e-9)
    e = g.identity()
    assert np.allclose(g.op(p, e), p)
    assert np.allclose(g.op(e, p), p)
    assert np.allclose(g.op(p, g.inv(p)), e, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(point3, point3, ratio)
def test_heisenberg_dilation_homomorphism(p, q, r):
    g = Heisenberg1()
    lhs = g.dilate(r, g.op(p, q))
    rhs = g.op(g.dilate(r, p), g.dilate(r, q))
    assert np.allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(point3, ratio)
def test_gauge_homogeneity(p, r):
    g = Heisenberg1()
    assert g.norm(g.dilate(r, p)) == pytest.approx(r * g.norm(p), abs=1e-12)


def test_gauge_values():
    g = Heisenberg1()
    assert g.norm(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert g.norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    assert g.norm(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)


@settings(max_examples=100, deadline=None)
@given(point3, point3)
def test_heisenberg_dist_symmetry(p, q):
    g = Heisenberg1()
    assert g.dist(p, q) == pytest.approx(g.dist(q, p), abs=1e-12)
    assert g.dist(p, p) == 0.0


def test_dist_left_invariance():
    g = Heisenberg1()
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q, a = rng.standard_normal((3, 3))
        d0 = g.dist(p, q)
        d1 = g.dist(g.op(a, p), g.op(a, q))
        assert d1 == pytest.approx(d0, rel=1e-10, abs=1e-12)


def test_batch_shapes():
    g = Heisenberg1()
    pts = np.random.default_rng(0).standard_normal((7, 3))
    q = np.array([0.2, -0.1, 0.3])
    assert g.op(q, pts).shape == (7, 3)
    assert g.norm(pts).shape == (7,)
    assert g.dist(q, pts).shape == (7,)
    rs = np.full(7, 0.5)
    assert g.dilate(rs, pts).shape == (7, 3)


def test_heisenberg_dilate_is_exact_products():
    # the t factor is r * r, correctly rounded, and not a float pow; the
    # ratios of thirds include products where numpy's pow rounds otherwise
    g = Heisenberg1()
    rng = np.random.default_rng(3)
    r = np.concatenate([np.cumprod(np.full(30, 1.0 / 3.0)), rng.uniform(0.01, 1.0, 200)])
    pts = rng.standard_normal((len(r), 3))
    expected = np.stack([r * pts[:, 0], r * pts[:, 1], (r * r) * pts[:, 2]], axis=-1)
    np.testing.assert_array_equal(g.dilate(r, pts), expected)
    np.testing.assert_array_equal(g.scale(r), np.stack([r, r, r * r], axis=-1))
    e = Euclidean(2)
    np.testing.assert_array_equal(e.dilate(r, pts[:, :2]), r[:, np.newaxis] * pts[:, :2])


def test_check_point_rejects_bad_input():
    g = Euclidean(2)
    with pytest.raises(InputError):
        g.check_point(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        g.check_point(np.array([np.nan, 0.0]))


def test_config_round_trip():
    for cfg in ({"kind": "euclidean", "dim": 3}, {"kind": "heisenberg1"}):
        g = geometry_from_config(cfg)
        assert g.to_config() == cfg
    with pytest.raises(Exception):
        geometry_from_config({"kind": "nope"})


def test_geometry_equality():
    assert Euclidean(3) != Heisenberg1()  # same dim, different group
    assert Heisenberg1() == Heisenberg1()
    assert Euclidean(2) == Euclidean(2)
    assert hash(Euclidean(2)) == hash(Euclidean(2))
    assert Euclidean(2) != Euclidean(3)
