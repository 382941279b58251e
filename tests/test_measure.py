import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import _helpers as h
from fractalsio import (IFS, EvaluationError, InputError, QuadratureResult,
                        ResourceLimitError, cells_for_words, complement_base_words, integrate,
                        integrate_ball_complement, integrate_cells,
                        integrate_complement, integrate_cylinder, mc_integrate,
                        measure, net, pairwise_sum, region_cells)
from fractalsio.ifs import _compose

LIP1 = 1.0


def _coord(pts):
    pts = np.asarray(pts, dtype=float)
    return pts[..., 0]


def _coord_sq(pts):
    return _coord(pts) ** 2


def test_pairwise_sum_matches_fsum():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal(1003)
    assert pairwise_sum(vals) == pytest.approx(math.fsum(vals), abs=1e-12)
    assert pairwise_sum(vals) == pairwise_sum(vals.copy())
    assert pairwise_sum([]) == 0.0
    assert pairwise_sum([2.5]) == 2.5

    # numpy's pairwise reduction: a block of b <= 128 values meets at most
    # (b // 8 - 1) + 3 + b % 8 roundings, and each of the at most
    # ceil(log2 n) halvings above the blocks adds one.
    c = max(b // 8 - 1 + 3 + b % 8 for b in range(1, 129))
    assert c == 24
    u = 2.0 ** -53
    n = 10 ** 6
    k = math.ceil(math.log2(n)) + c
    for big in (rng.random(n), rng.standard_normal(n)):
        bound = k * u / (1 - k * u) * math.fsum(np.abs(big))
        # fsum is the correctly rounded sum, off the exact one by u |fsum|
        ref = math.fsum(big)
        assert abs(pairwise_sum(big) - ref) <= bound + u * abs(ref)
        if big.min() >= 0.0:
            # a left-to-right sum of the positive set grows linearly past it
            assert abs(np.cumsum(big)[-1] - ref) > 2 * bound


def test_cell_bracket_is_two_pairwise_sums():
    empty = np.empty(0)
    assert measure._cell_bracket(empty, empty, empty, 3) == QuadratureResult(0.0, 0.0, 3, 0)
    rng = np.random.default_rng(5)
    weights, values, errs = rng.random(1003), rng.standard_normal(1003), rng.random(1003)
    # the err adds gamma_{k+2} times the absolute sums, k = ceil(log2 n) + 24
    gamma = 36 * 2.0 ** -53 / (1 - 36 * 2.0 ** -53)
    quad = measure._cell_bracket(weights, values, errs, 7)
    err = pairwise_sum(weights * errs)
    assert quad == QuadratureResult(
        pairwise_sum(weights * values),
        err + gamma * (pairwise_sum(np.abs(weights * values)) + err), 7, 1003)
    quad = measure._cell_bracket(weights, 0.0, 0.3, 2)  # scalars broadcast
    err = pairwise_sum(weights * 0.3)
    assert quad == QuadratureResult(pairwise_sum(weights * 0.0), err + gamma * err, 2, 1003)
    # dyadic products on a common grid sum exactly, and carry no rounding term
    quad = measure._cell_bracket(np.full(1024, 2.0 ** -10), np.arange(1024.0) % 3, 0.5, 1)
    assert quad == QuadratureResult(1023 / 1024, 0.5, 1, 1024)


def test_cell_bracket_holds_adversarial_sums():
    # 10^6 terms of magnitudes 2^-60 to 2^60 that cancel down to a few units:
    # a pairwise sum is off by far more than u times the result, and the
    # bracket still holds the correctly rounded sum math.fsum gives
    rng = np.random.default_rng(8)
    n = 10 ** 6
    big = rng.standard_normal(n // 2) * 2.0 ** rng.integers(-60, 61, n // 2)
    small = rng.standard_normal(n - 2 * len(big))
    values = rng.permutation(np.concatenate([big, -big * (1.0 + 2.0 ** -52), small]))
    weights = 2.0 ** -rng.integers(0, 4, n)
    ref = math.fsum(weights * values)
    quad = measure._cell_bracket(weights, values, 0.0, 0)
    assert pairwise_sum(weights * values) != ref
    assert abs(quad.value - ref) <= quad.err
    assert quad.err <= 1e-10 * math.fsum(np.abs(weights * values))


@pytest.mark.parametrize("lipschitz", [-1.0, math.nan, math.inf, "1", None, [1.0]])
def test_integrate_cells_rejects_bad_lipschitz(middle_thirds, lipschitz):
    with pytest.raises(InputError, match="Lipschitz constant"):
        integrate_cells(net(middle_thirds, 2), _coord, lipschitz)


def test_net_weights_sum_to_one(middle_thirds, four_corner):
    for ifs, depth in ((middle_thirds, 6), (four_corner, 3)):
        cells = net(ifs, depth)
        assert cells.count == ifs.n_letters ** depth
        assert pairwise_sum(cells.weights) == pytest.approx(1.0, abs=1e-12)


def _reference_radius(ifs, ratio, p):
    """ratio * rho(p), rho(p) the gauge of |c^{-1} p| + H over the attractor
    box c +- h, H = h widened in t by (|p_y| h_x + |p_x| h_y) / 2 in the group,
    with the group law written out."""
    lo, hi = ifs.attractor_box()
    c, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if ifs.geometry.kind != "heisenberg1":
        return ratio * math.sqrt(sum((np.abs(p - c) + hw) ** 2))
    x, y = abs(p[0] - c[0]) + hw[0], abs(p[1] - c[1]) + hw[1]
    t = abs(p[2] - c[2] + 0.5 * (c[1] * p[0] - c[0] * p[1]))
    t += hw[2] + 0.5 * (abs(p[1]) * hw[0] + abs(p[0]) * hw[1])
    # the fourth root of an array, as the library takes it: numpy's vectorised
    # pow rounds some values differently from the scalar one
    return ratio * float((np.array([(x ** 2 + y ** 2) ** 2 + t ** 2]) ** 0.25)[0])


def _reference_cells(ifs, words):
    """Weights, fixed points and radii of S_w, one word at a time.

    Each S_w is built by appending one map at a time, S_v o S_a, with the
    group law written out; the empty word is represented by the fixed point
    of S_1.  A cell's radius is r_w rho(x_w), from ``_reference_radius``.
    """
    twisted = ifs.geometry.kind == "heisenberg1"
    degrees = np.array([1.0, 1.0, 2.0]) if twisted else 1.0
    weights, points, radii = [], [], []
    for w in words:
        ratio, shift, weight = 1.0, np.zeros(ifs.geometry.dim), 1.0
        for a in w:
            r, q = ifs.ratios[a - 1], ifs.shifts[a - 1]
            if twisted:
                x, y, t = shift
                qx, qy, qt = ratio * q[0], ratio * q[1], ratio ** 2 * q[2]
                shift = np.array([x + qx, y + qy, t + qt + 0.5 * (x * qy - y * qx)])
            else:
                shift = shift + ratio * q
            ratio *= r
            weight *= r ** ifs.dim_s
        if w:
            points.append(shift / (1.0 - ratio ** degrees))
        else:
            r1, q1 = ifs.ratios[0], ifs.shifts[0]
            points.append(q1 / (1.0 - r1 ** degrees))
        weights.append(weight)
        radii.append(_reference_radius(ifs, ratio, points[-1]))
    return np.array(weights), np.array(points), np.array(radii)


REFERENCE_DEPTH = {"middle_thirds": 7, "four_corner": 4, "heis_twisted": 5}


@pytest.mark.parametrize("name", sorted(REFERENCE_DEPTH))
def test_cells_match_reference(request, name):
    ifs = request.getfixturevalue(name)
    depth = REFERENCE_DEPTH[name]
    letters = range(1, ifs.n_letters + 1)
    bases = complement_base_words((1, 2, 1), ifs.n_letters)
    cases = [(net(ifs, d), [()], d) for d in (0, depth, depth + 1)]
    cases.append((region_cells(ifs, bases, depth), bases, depth))
    mixed = [(2, 1), (), (1,), (2, 2, 1), (1, 2)]  # lengths out of order
    cases.append((cells_for_words(ifs, mixed), mixed, 0))
    for cells, heads, d in cases:
        words = [b + u for b in heads for u in itertools.product(letters, repeat=d)]
        weights, points, radii = _reference_cells(ifs, words)
        assert cells.count == len(words)
        assert cells.depth == max(len(w) for w in words)
        assert h.cell_words(cells) == words
        np.testing.assert_allclose(cells.points, points, rtol=0.0, atol=4e-16)
        np.testing.assert_allclose(cells.weights, weights, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(cells.radii, radii, rtol=1e-15, atol=0.0)


def _nodes_within_radii(ifs, cells, extra):
    """Every node of the ``extra``-letter subcells of each cell lies within
    that cell's radius."""
    fine = region_cells(ifs, h.cell_words(cells), extra)
    fine_points = fine.points.reshape(cells.count, ifs.n_letters ** extra, -1)
    d = ifs.geometry.dist(fine_points, cells.points[:, np.newaxis])
    assert np.all(d <= cells.radii[:, np.newaxis])


@pytest.mark.parametrize("name", ["middle_thirds", "four_corner", "heis_twisted",
                                  "heis_quarter"])
def test_cell_radius_holds_subcell_nodes(name, request):
    # the radius r_v rho(x_v) bounds the distance from the node to every
    # point of the cylinder: nodes of the depth-7 subcells of each depth-2
    # cell, and of the depth-5 cells under the root
    ifs = request.getfixturevalue(name)
    _nodes_within_radii(ifs, net(ifs, 2), 5)
    _nodes_within_radii(ifs, net(ifs, 0), 5)


@pytest.mark.parametrize("name, center, eps, outer", [
    ("four_corner", [0.3, 0.4], 0.2, 0.6),
    ("heis_quarter", [0.2, 0.1, 0.0], 0.25, 0.6),
])
def test_ball_cell_radii_hold_subcell_nodes(name, center, eps, outer, request):
    # the kept and straddling cells of one shell, whose maps the splitter
    # composed level by level
    ifs = request.getfixturevalue(name)
    kept, straddlers, _ = measure._ball_cells(ifs, np.array(center), eps, 3, outer)
    assert kept.count and straddlers.count
    for cells in (kept, straddlers):
        _nodes_within_radii(ifs, cells, 3)


def test_moment_oracles(middle_thirds):
    # closed forms from the self-similarity recursion
    m1 = integrate(middle_thirds, _coord, LIP1, depth=10)
    assert h.within(0.5, m1)
    assert m1.err <= 1e-4
    m2 = integrate(middle_thirds, _coord_sq, 2.0, depth=10)
    assert h.within(0.375, m2)


def _exact_moments(ifs, c, order):
    """The central moments about c of the system the floats describe: every
    ratio, shift, weight and c read as the exact rational it is."""
    r = [Fraction(x) for x in ifs.ratios]
    p = [Fraction(x) for x in ifs.letter_weights]
    d = [Fraction(q) + (ri - 1) * Fraction(c) for ri, q in zip(r, ifs.shifts[:, 0])]
    mu = [Fraction(1)]
    for n in range(1, order + 1):
        rhs = sum(pi * math.comb(n, k) * ri ** k * di ** (n - k) * mu[k]
                  for pi, ri, di in zip(p, r, d) for k in range(n))
        mu.append(rhs / (1 - sum(pi * ri ** n for pi, ri in zip(p, r))))
    return mu


@pytest.mark.parametrize("cfg", [
    h.middle_thirds_config(),
    {"geometry": {"kind": "euclidean", "dim": 1},
     "maps": [{"r": 0.5, "q": [0.1]}, {"r": 0.3, "q": [0.7]}, {"r": 0.1, "q": [-0.2]}]},
], ids=["middle_thirds", "three_maps"])
def test_moments_hold_exact_values_and_a_deep_net(cfg):
    # the float moments lie within their bounds of the exact moments of the
    # float system, and within a depth-12 net bracket of each (y - c)^j
    ifs = h.make_ifs(cfg)
    assert ifs._moments is None  # nothing is computed until asked for
    c, mu, bound = measure.moments(ifs, 12)
    assert len(mu) == len(bound) == 13 and mu[0] == 1.0 and bound[0] == 0.0
    lo, hi = ifs.attractor_box()
    assert c == 0.5 * (lo[0] + hi[0])
    exact = _exact_moments(ifs, c, 12)
    half = 0.5 * float(hi[0] - lo[0])
    for j in range(1, 13):
        assert abs(Fraction(mu[j]) - exact[j]) <= Fraction(bound[j])
        assert bound[j] <= 1e-13 * half ** j
        quad = integrate(ifs, lambda pts, j=j: (pts[:, 0] - c) ** j,
                         j * (1.001 * half) ** (j - 1), depth=12)
        assert abs(quad.value - mu[j]) <= quad.err + bound[j]
    # a lower order reads the kept table; a higher one extends it
    again = measure.moments(ifs, 5)
    assert again[1].tolist() == mu[:6].tolist()
    assert len(measure.moments(ifs, 14)[1]) == 15


def test_moments_reproduce_the_hand_value(middle_thirds):
    # int y^2 dmu = 3/8 (test_acceptance derives it by hand) from the
    # central moments about c = 1/2 (in floats, 1/2 - 2^-54)
    c, mu, bound = measure.moments(h.make_ifs(h.middle_thirds_config()), 2)
    second = mu[2] + 2.0 * c * mu[1] + c * c
    assert abs(second - 0.375) <= bound[2] + bound[1] + 2.0 ** -52
    with pytest.raises(InputError, match="on the line"):
        measure.moments(h.make_ifs(h.four_corner_config()), 2)


def test_depth_brackets_nest(middle_thirds):
    prev = integrate(middle_thirds, _coord, LIP1, depth=3)
    for depth in (4, 5, 6):
        cur = integrate(middle_thirds, _coord, LIP1, depth=depth)
        assert cur.err < prev.err
        assert h.overlap(cur, prev)
        prev = cur


def test_push_forward_identity(middle_thirds):
    # integral over a cylinder equals its weight times the composed integrand
    word = (1, 2)
    lhs = integrate_cylinder(middle_thirds, _coord, LIP1, word, depth=8)
    weight = middle_thirds.word_weight(word)

    def composed(pts):
        return _coord(middle_thirds.apply_word(word, pts))

    ratio = middle_thirds.word_ratio(word)
    rhs = integrate(middle_thirds, composed,
                    ratio, depth=8).scale(weight)
    # representative points differ between the two layouts, so compare brackets
    assert h.overlap(lhs, rhs)
    assert lhs.value == pytest.approx(rhs.value, abs=lhs.err + rhs.err)


def test_partition_identity(middle_thirds):
    whole = integrate(middle_thirds, _coord, LIP1, depth=7)
    parts = [integrate_cylinder(middle_thirds, _coord, LIP1, (a,), depth=6)
             for a in (1, 2)]
    total = parts[0] + parts[1]
    assert total.value == pytest.approx(whole.value, abs=1e-12)
    assert h.overlap(total, whole)


def test_complement_plus_cylinder(middle_thirds):
    word = (1, 1)
    comp = integrate_complement(middle_thirds, _coord, LIP1, word, depth=6)
    cyl = integrate_cylinder(middle_thirds, _coord, LIP1, word, depth=6)
    whole = integrate(middle_thirds, _coord, LIP1, depth=8)
    assert h.overlap(comp + cyl, whole)


def test_second_cylinder_mean(middle_thirds):
    # int_{C_2} y dmu = (1/2)(1/3 m1 + 2/3) = 5/12
    got = integrate_cylinder(middle_thirds, _coord, LIP1, (2,), depth=9)
    assert h.within(5.0 / 12.0, got)


def test_ball_complement_matches_cylinder_complement(middle_thirds):
    # eps = 0.5 around 0 removes exactly the first cylinder
    comp = integrate_complement(middle_thirds, _coord, LIP1, (1,), depth=7)
    ball = integrate_ball_complement(middle_thirds, _coord, LIP1,
                                     np.array([0.0]), 0.5, depth=8)
    assert h.overlap(comp, ball)
    assert ball.value == pytest.approx(comp.value, abs=1e-12)


def test_ball_complement_tiny_eps_is_whole(middle_thirds):
    whole = integrate(middle_thirds, _coord, LIP1, depth=8)
    ball = integrate_ball_complement(middle_thirds, _coord, LIP1,
                                     np.array([-5.0]), 1e-9, depth=8)
    assert ball.value == pytest.approx(whole.value, abs=1e-12)


def test_ball_complement_straddlers_bracket(middle_thirds):
    # f = 1 with a zero modulus: the only err is the |f| + omega charge on the
    # cells still straddling the ball's edge at depth 6; mu outside B(0, 0.1)
    # is 1 - Cantor(0.1) = 1 - 0.2
    def f(pts):
        return np.ones(np.asarray(pts).shape[:-1])

    quad = integrate_ball_complement(middle_thirds, f, 0.0,
                                     np.array([0.0]), 0.1, depth=6)
    assert quad.err > 0.0
    assert quad.value - quad.err <= 0.8 <= quad.value + quad.err


@pytest.mark.parametrize("name, center, eps, outer, depth", [
    ("middle_thirds", [0.1], 0.15, 0.7, 7),
    ("four_corner", [0.3, 0.4], 0.2, 0.6, 5),
    ("heis_quarter", [0.2, 0.1, 0.0], 0.25, 0.6, 5),
])
def test_ball_cells_bracket_a_shell(name, center, eps, outer, depth, request):
    # kept cells lie in the shell eps <= d(center, .) <= outer and straddlers
    # cover the rest of it, so the shell's measure, from a seeded sample of
    # the natural measure, lies between their masses
    ifs = request.getfixturevalue(name)
    geom, center = ifs.geometry, np.array(center)
    kept, straddlers, lo = measure._ball_cells(ifs, center, eps, depth, outer)
    assert straddlers.count == len(lo) and np.all(lo < outer)
    d = geom.dist(kept.points, center)
    assert np.all((d >= eps) & (d <= outer))
    rng = np.random.default_rng(11)
    n = 40000
    idx = rng.choice(ifs.n_letters, size=(n, 30), p=ifs.letter_weights)
    ratio, shift = ifs.compose_batch(idx)
    d = geom.dist(geom.op(shift, geom.dilate(ratio, ifs.letter_fixed_points[0])), center)
    share = np.mean((d >= eps) & (d <= outer))
    tol = 4.0 * math.sqrt(share * (1.0 - share) / n)
    assert pairwise_sum(kept.weights) <= share + tol
    assert pairwise_sum(kept.weights) + pairwise_sum(straddlers.weights) >= share - tol


def test_mc_vs_quadrature(middle_thirds):
    quad = integrate(middle_thirds, _coord_sq, 2.0,
                     depth=10)
    mean, stderr = mc_integrate(middle_thirds, _coord_sq, 100000, seed=123)
    assert abs(mean - quad.value) <= 3.0 * stderr + quad.err
    again, _ = mc_integrate(middle_thirds, _coord_sq, 100000, seed=123)
    assert again == mean


def test_region_cells_gather_long_suffixes(heis_twisted):
    # nine bases of length 2 and four of length 16 on three maps: each cell's
    # map is the chunk fold of its base composed once onto its suffix's map
    ifs = heis_twisted
    geom = ifs.geometry
    rng = np.random.default_rng(4)
    for bases in (list(itertools.product((1, 2, 3), repeat=2)),
                  [tuple(int(a) for a in w) for w in rng.integers(1, 4, size=(4, 16))]):
        cells = region_cells(ifs, bases, 2)
        assert cells.count == 9 * len(bases)
        words = h.cell_words(cells)
        i = 0
        for b in bases:
            for u in itertools.product((1, 2, 3), repeat=2):
                ratio, shift = h.compose_pair(ifs, h.chunk_fold(ifs, b), h.right_fold(ifs, u))
                weight = 1.0
                for a in reversed(u):
                    weight = ifs.letter_weights[a - 1] * weight
                weight = np.prod(ifs.letter_weights[np.array(b) - 1]) * weight
                assert words[i] == b + u
                point = shift / (1.0 - ratio ** geom.coord_degrees)
                np.testing.assert_array_equal(cells.points[i], point)
                assert cells.radii[i] == _reference_radius(ifs, ratio, point)
                assert cells.weights[i] == weight
                i += 1


def test_mc_integrate_pinned(middle_thirds, heis_twisted):
    # exact floats: the letter stream, word length and composition order are
    # all part of the seeded result; the values are those of the reference
    # stream folded by ``_mc_points``
    assert mc_integrate(middle_thirds, _coord_sq, 2000, seed=123) == (
        0.3887153970688188, 0.008084202600443622)
    def coord_sum(pts):
        return np.sum(pts, axis=-1)

    assert mc_integrate(heis_twisted, coord_sum, 2000, seed=123) == (
        0.6681595463863904, 0.007394898620041955)


def _mc_points(ifs, n, seed):
    # the unblocked sampler: n * depth letters of the reference stream and
    # one right fold of every row from the identity
    depth = min(max(math.ceil(math.log(1e-12) / math.log(max(ifs.ratios))), 4), 256)
    letters = h.philox_letters(ifs.letter_weights, n * depth, seed).reshape(n, depth) - 1
    geom = ifs.geometry
    ratio, shift = np.ones(n), np.tile(geom.identity(), (n, 1))
    for a in letters.T[::-1]:
        ratio, shift = _compose(geom, ifs.ratios[a], ifs.shifts[a], ratio, shift)
    return geom.op(shift, geom.dilate(ratio, ifs.fixed_point((1,))))


def test_mc_integrate_blocks_match_one_fold(heis_twisted, four_corner, heis_cantor):
    # two full blocks and a partial one: the integrand sees, bit for bit, the
    # chunk maps of each sample's word applied right to left to f_1
    n = 2 * measure._MC_BLOCK + 1234
    seen = []

    def f(pts):
        seen.append(pts.copy())
        return pts[:, 0] * pts[:, 1] + pts[:, -1] ** 2

    for ifs in (heis_twisted, four_corner, heis_cantor):
        seen.clear()
        got = mc_integrate(ifs, f, n, seed=99)
        depth = min(max(math.ceil(math.log(1e-12) / math.log(max(ifs.ratios))), 4), 256)
        letters = h.philox_letters(ifs.letter_weights, n * depth, 99).reshape(n, depth)
        pts = h.chunk_points(ifs, letters, ifs.letter_fixed_points[0])
        np.testing.assert_array_equal(np.concatenate(seen), pts)
        vals = f(pts)
        assert got == (float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)))


def test_mc_integrate_applies_chunk_maps_to_points():
    # middle thirds with its maps swapped: x0 = f_1, about 1, is off the origin, so
    # composing each sample's map first and applying it to x0 rounds
    # differently; the sampler applies the chunk maps to points right to left
    cfg = h.middle_thirds_config()
    cfg["maps"].reverse()
    ifs = h.make_ifs(cfg)
    x0 = ifs.letter_fixed_points[0]
    assert x0[0] == pytest.approx(1.0)
    n = 2 * measure._MC_BLOCK + 1234
    depth = min(max(math.ceil(math.log(1e-12) / math.log(max(ifs.ratios))), 4), 256)
    letters = h.philox_letters(ifs.letter_weights, n * depth, 7).reshape(n, depth)
    pts = h.chunk_points(ifs, letters, x0)
    ratio, shift = ifs.compose_batch(letters - 1)
    assert np.any(pts != ifs.geometry.op(shift, ifs.geometry.dilate(ratio, x0)))

    def f(p):
        return p[:, 0] ** 2

    vals = f(pts)
    assert mc_integrate(ifs, f, n, seed=7) == (
        float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)))


def test_mc_integrate_memory_is_one_block(heis_twisted):
    # 200k samples of 26 letters: the unblocked sampler held ~100 MB of
    # letters and fold temporaries at once
    tracemalloc.start()
    try:
        mc_integrate(heis_twisted, _coord, 200000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_mc_nonfinite_index_counts_across_blocks(middle_thirds):
    # the integrand is NaN only at a point value that no sample of the first
    # block takes, so the first bad sample lies in a later block and is
    # named by its own index
    block = measure._MC_BLOCK
    n = 2 * block
    x = _mc_points(middle_thirds, n, 1)[:, 0]
    fresh = block + 1234 + np.flatnonzero(~np.isin(x[block + 1234:], x[:block]))
    assert len(fresh)
    bad_x = x[fresh[0]]
    first = int(np.argmax(x == bad_x))
    assert first >= block

    def bad(pts):
        return np.where(_coord(pts) == bad_x, np.nan, 0.0)

    with pytest.raises(EvaluationError, match=rf"index {first}$"):
        mc_integrate(middle_thirds, bad, n, seed=1)


@pytest.mark.filterwarnings("ignore:divide by zero")
def test_eval_error_on_nonfinite(middle_thirds):
    def bad(pts):
        return 1.0 / _coord(pts)  # infinite on the leftmost cylinder

    with pytest.raises(EvaluationError, match=r"on cell 1\.1\.1\.1$"):
        integrate(middle_thirds, bad, LIP1, depth=4)
    # the ball complement keeps C_11 and C_22 from level 2 on, refined twice
    with pytest.raises(EvaluationError, match=r"on cell 1\.1\.1\.1$"):
        integrate_ball_complement(middle_thirds, bad, LIP1, np.array([0.5]),
                                  0.2, depth=4)


def test_integrand_exception_propagates(middle_thirds):
    calls = []

    def broken(pts):
        calls.append(len(pts))
        raise ValueError("integrand bug")

    with pytest.raises(ValueError, match="integrand bug"):
        integrate(middle_thirds, broken, LIP1, depth=3)
    assert calls == [8]  # called once on all cells, never point by point


@pytest.mark.parametrize("f", [lambda pts: 1.0,
                               lambda pts: np.ones((len(pts), 2)),
                               lambda pts: np.ones(len(pts) - 1)],
                         ids=["scalar", "two_columns", "one_short"])
def test_integrand_output_shape_checked(middle_thirds, f):
    with pytest.raises(EvaluationError, match=r"expected \(8,\)"):
        integrate(middle_thirds, f, LIP1, depth=3)


def test_resource_limit(four_corner, monkeypatch):
    monkeypatch.setattr(IFS, "DEFAULT_CELL_CAP", 100)
    with pytest.raises(ResourceLimitError):
        net(four_corner, 5)
    with pytest.raises(ResourceLimitError):
        integrate_ball_complement(four_corner, _coord, LIP1, [0.0, 0.0], 1e-3, 5)


def test_letters_unravel_segments(middle_thirds, four_corner):
    # the one routine behind every cell word: 0-padded rows in uint8
    cells = region_cells(middle_thirds, complement_base_words((1, 2), 2), 1)
    assert cells.letters().dtype == np.uint8
    np.testing.assert_array_equal(cells.letters(), [[2, 1, 0], [2, 2, 0],
                                                    [1, 1, 1], [1, 1, 2]])
    assert net(four_corner, 0).letters().shape == (1, 0)
