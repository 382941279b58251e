import itertools
import math

import numpy as np
import pytest

import _helpers as h
import fractalsio.ifs
from fractalsio import (IFS, ConfigError, EPWord, Euclidean, InputError, net,
                        similarity_dimension)


def test_similarity_dimension_oracles():
    s = similarity_dimension([1.0 / 3.0, 1.0 / 3.0])
    assert s == pytest.approx(math.log(2) / math.log(3), abs=1e-14)
    assert s == pytest.approx(0.6309297535714574, abs=1e-14)
    # frozen from an independent bisection run
    assert similarity_dimension([0.5, 0.25]) == pytest.approx(
        0.6942419136306173, abs=1e-13)
    assert similarity_dimension([0.25] * 4) == pytest.approx(1.0, abs=1e-14)


def test_similarity_dimension_residual():
    for ratios in ([0.3, 0.4], [0.1, 0.2, 0.3], [0.5, 0.25]):
        s = similarity_dimension(ratios)
        assert abs(sum(r ** s for r in ratios) - 1.0) <= 1e-13


def test_similarity_dimension_bad_input():
    with pytest.raises(InputError):
        similarity_dimension([1.2, 0.3])
    with pytest.raises(InputError):
        similarity_dimension([0.5])  # a single map carries no dimension equation


def test_declared_dimension_checked():
    cfg = h.middle_thirds_config()
    cfg["s"] = 0.9
    with pytest.raises(ConfigError):
        IFS.from_config(cfg)


def test_declared_dimension_is_never_used():
    # a declared s within the 1e-8 check is accepted, but the weights come from
    # the similarity dimension, so the total mass stays 1
    cfg = h.middle_thirds_config()
    cfg["s"] = math.log(2) / math.log(3) + 5e-9
    ifs = IFS.from_config(cfg)
    assert abs(float(np.sum(ifs.letter_weights)) - 1.0) <= 1e-15
    assert ifs.dim_s == similarity_dimension(ifs.ratios)


def test_compose_four_corner(four_corner):
    ratio, shift = four_corner.compose((2, 2))
    assert ratio == pytest.approx(1.0 / 16.0)
    assert np.allclose(shift, [15.0 / 16.0, 0.0])
    # composing then applying equals applying twice
    pt = np.array([0.3, 0.7])
    geom, r, q = four_corner.geometry, four_corner.ratios[1], four_corner.shifts[1]
    twice = geom.op(q, geom.dilate(r, geom.op(q, geom.dilate(r, pt))))
    assert np.allclose(four_corner.apply_word((2, 2), pt), twice)


def test_fixed_points_are_fixed(middle_thirds, four_corner, heis_cantor):
    for ifs in (middle_thirds, four_corner, heis_cantor):
        for word in [(1,), (2,), (1, 2), (2, 1, 1)]:
            fp = ifs.fixed_point(word)
            assert np.allclose(ifs.apply_word(word, fp), fp, atol=1e-12)


def test_code_point_periodic(four_corner):
    # (1,2) repeated: x = x/16 + 3/16 gives x = 1/5
    w = EPWord((), (1, 2))
    assert np.allclose(four_corner.code_point(w), [0.2, 0.0], atol=1e-14)
    # pre-periodic word equals the map applied to the periodic point
    w2 = EPWord((3,), (1, 2))
    expect = four_corner.apply_word((3,), np.array([0.2, 0.0]))
    assert np.allclose(four_corner.code_point(w2), expect, atol=1e-14)


def test_word_ratio_weight(middle_thirds):
    assert middle_thirds.word_ratio((1, 2, 1)) == pytest.approx((1 / 3) ** 3)
    assert middle_thirds.word_weight((1, 2)) == pytest.approx(0.25, abs=1e-12)
    assert middle_thirds.word_weight(()) == 1.0


def test_word_weight_probabilities():
    # weights p and p^2 with p + p^2 = 1, so p is the golden ratio conjugate
    ifs = IFS.from_config({"geometry": {"kind": "euclidean", "dim": 1},
                           "maps": [{"r": 0.5, "q": [0.0]},
                                    {"r": 0.25, "q": [0.75]}]})
    p1 = ifs.word_weight((1,))
    p2 = ifs.word_weight((2,))
    assert p1 == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-12)
    assert p1 + p2 == pytest.approx(1.0, abs=1e-12)
    assert ifs.word_weight((1, 1)) == pytest.approx(p1 * p1, abs=1e-12)
    assert ifs.word_weight((2, 1, 2)) == pytest.approx(p1 * p2 * p2, abs=1e-12)


def _assert_close_per_point(ratio, shift, ref):
    # the letter-by-letter fold associates differently; per point both agree
    # to 1e-15 relative
    r, q = ref
    assert abs(ratio - r) <= 1e-15 * r
    assert np.linalg.norm(shift - q) <= 1e-15 * np.linalg.norm(q)


def test_compose_and_fold_match_a_right_fold(heis_twisted, middle_thirds, four_corner):
    # exactly the chunk fold (right folds of the chunks, composed right to
    # left), then S_w o S_u for every 2-letter u; words of one partial chunk,
    # one full chunk, two full chunks and up to four chunks
    rng = np.random.default_rng(5)
    assert (heis_twisted._chunk, middle_thirds._chunk, four_corner._chunk) == (7, 12, 6)
    for ifs, rows, length in ((heis_twisted, 2, 5), (heis_twisted, 30, 17),
                              (heis_twisted, 40, 14), (heis_twisted, 12, 28),
                              (middle_thirds, 20, 27), (four_corner, 70, 13),
                              (four_corner, 300, 6)):
        n = ifs.n_letters
        idx = rng.integers(0, n, size=(rows, length))
        ratio, shift = ifs.compose_batch(idx)
        fold_ratio, fold_shift = ifs._fold(idx, 2)
        assert fold_ratio.shape == (rows, n ** 2)
        assert fold_shift.shape == (rows, n ** 2, ifs.geometry.dim)
        for i, row in enumerate(idx + 1):
            r, q = h.chunk_fold(ifs, row)
            sim_ratio, sim_shift = ifs.compose(row)
            assert sim_ratio == r and ratio[i] == r
            np.testing.assert_array_equal(sim_shift, q)
            np.testing.assert_array_equal(shift[i], q)
            _assert_close_per_point(r, q, h.right_fold(ifs, tuple(row)))
            for j, u in enumerate(itertools.product(range(1, n + 1), repeat=2)):
                r, q = h.compose_pair(ifs, h.chunk_fold(ifs, row), h.right_fold(ifs, u))
                assert fold_ratio[i, j] == r
                np.testing.assert_array_equal(fold_shift[i, j], q)
                _assert_close_per_point(r, q, h.right_fold(ifs, tuple(row) + u))
    # three empty words: every row is the depth-1 net itself
    net_ratio, net_shift, _ = heis_twisted.relative_net(1)
    ratio, shift = heis_twisted._fold(np.zeros((3, 0), dtype=np.int64), 1)
    np.testing.assert_array_equal(ratio, np.tile(net_ratio, (3, 1)))
    np.testing.assert_array_equal(shift, np.tile(net_shift, (3, 1, 1)))


def test_word_floats_do_not_depend_on_the_batch(heis_twisted):
    # one 26-letter word (a Monte Carlo sample's length) composed alone, as
    # row 700 of a partial 1,234-row block and as row 3,000 of a full 4,096-row one
    rng = np.random.default_rng(8)
    word = rng.integers(0, 3, size=26)
    alone_ratio, alone_shift = heis_twisted.compose(word + 1)
    for rows, at in ((1234, 700), (4096, 3000)):
        idx = rng.integers(0, 3, size=(rows, 26))
        idx[at] = word
        ratio, shift = heis_twisted.compose_batch(idx)
        assert ratio[at] == alone_ratio
        np.testing.assert_array_equal(shift[at], alone_shift)


def test_chunk_codes_read_each_chunk_in_base_n():
    # fresh systems of 2, 3 and 4 letters keep one c-entry place vector;
    # every length from 1 to 3c + 1, asked for twice in a shuffled order and
    # as either letter dtype, gives each chunk's base-N reading
    rng = np.random.default_rng(71)
    for cfg in (h.middle_thirds_config(), h.heis_twisted_config(), h.four_corner_config()):
        ifs = h.make_ifs(cfg)
        n, c = ifs.n_letters, h.CHUNK[ifs.n_letters]
        lengths = list(range(1, 3 * c + 2)) * 2
        rng.shuffle(lengths)
        for k, length in enumerate(lengths):
            idx = rng.integers(0, n, size=(6, length))
            got = ifs._chunks(idx.astype(np.uint8 if k % 2 else np.int64))
            want = []
            for end in range(length, 0, -c):
                piece = idx[:, max(end - c, 0):end]
                codes = [0] * len(idx)
                for i, row in enumerate(piece):
                    for a in row:
                        codes[i] = codes[i] * n + int(a)
                want.append((piece.shape[1], codes))
            assert [(size, code.tolist()) for size, code in got] == want
        np.testing.assert_array_equal(ifs._place, float(n) ** np.arange(c - 1, -1, -1))


def _cached_bytes(ifs) -> int:
    """The bytes of every array the system holds, in attributes, tuples and dicts."""
    def size(x):
        if isinstance(x, np.ndarray):
            return x.nbytes
        if isinstance(x, (tuple, list)):
            return sum(size(v) for v in x)
        if isinstance(x, dict):
            return sum(size(v) for v in x.values())
        return 0
    return sum(size(v) for v in vars(ifs).values())


def test_long_compose_keeps_nothing_of_its_length():
    # the chunk codes of a 4,000-letter word need no matrix of its length:
    # what a fresh system keeps after it is what it keeps after a 40-letter word
    rng = np.random.default_rng(5)
    short, long = (h.make_ifs(h.four_corner_config()) for _ in range(2))
    short.compose(rng.integers(1, 5, size=40).tolist())
    long.compose(rng.integers(1, 5, size=4000).tolist())
    assert _cached_bytes(long) == _cached_bytes(short)


def test_relative_net_is_the_right_fold_of_each_word(heis_twisted):
    # each depth is one composition onto the cached depth below; a fresh
    # system asked for depth 3 first builds the same floats
    fresh = h.make_ifs(h.heis_twisted_config())
    ratio, shift, weight = fresh.relative_net(3)
    for j, u in enumerate(itertools.product((1, 2, 3), repeat=3)):
        r, q = h.right_fold(fresh, u)
        assert ratio[j] == r
        np.testing.assert_array_equal(shift[j], q)
        assert weight[j] == fresh.word_weight(u)
    for depth in range(4):
        for a, b in zip(fresh.relative_net(depth), heis_twisted.relative_net(depth)):
            np.testing.assert_array_equal(a, b)


def test_compose_batch_rejects_bad_letters(heis_twisted):
    with pytest.raises(InputError):
        heis_twisted.compose_batch(np.array([[0, 3]]))
    with pytest.raises(InputError):
        heis_twisted.compose_batch(np.array([[-1, 0]]))
    ratio, shift = heis_twisted.compose_batch(np.zeros((0, 4), dtype=int))
    assert ratio.shape == (0,) and shift.shape == (0, 3)


def _check_invariant_box(ifs, rng):
    """Deep fixed points lie in the box, and every map sends its corners into
    it (each map is affine in coordinates, so that holds the whole image)."""
    geom = ifs.geometry
    lo, hi = ifs.attractor_box()
    words = rng.integers(0, ifs.n_letters, size=(200, 9))
    pts = np.stack([ifs.fixed_point(w + 1) for w in words])
    assert np.all((lo <= pts) & (pts <= hi))
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    for ratio, shift in zip(ifs.ratios, ifs.shifts):
        images = geom.op(shift, geom.dilate(ratio, corners))
        assert np.all((lo <= images) & (images <= hi))


def test_euclidean_box_contains_attractor(four_corner, middle_thirds):
    rng = np.random.default_rng(3)
    for ifs in (four_corner, middle_thirds):
        _check_invariant_box(ifs, rng)


def test_heisenberg_box_contains_attractor(heis_cantor, heis_twisted, heis_quarter):
    rng = np.random.default_rng(3)
    for ifs in (heis_cantor, heis_twisted, heis_quarter):
        _check_invariant_box(ifs, rng)
    # the benchmark set: (x, y) spans the unit square, and t = (m_i +- w_i) /
    # (1 - r_i^2) with m_2 = w_2 = 3/64 and m_3 = -w_3 = -3/64 gives +-0.1
    lo, hi = heis_quarter.attractor_box()
    np.testing.assert_allclose(lo, [0.0, 0.0, -0.1], rtol=0.0, atol=2e-12)
    np.testing.assert_allclose(hi, [1.0, 1.0, 0.1], rtol=0.0, atol=2e-12)


def test_diam_bracket_middle_thirds(middle_thirds):
    lo, hi = middle_thirds.diam_bracket()
    assert lo <= 1.0 <= hi
    assert hi - lo <= 1e-5
    assert hi == pytest.approx(1.0, rel=1e-5)


def test_diam_bracket_four_corner(four_corner):
    lo, hi = four_corner.diam_bracket()
    assert lo <= math.sqrt(2.0) <= hi
    assert hi - lo <= 1e-6


def test_cylinder_diam(middle_thirds):
    hi = middle_thirds.cylinder_diam_hi((1, 1))
    full = middle_thirds.diam_bracket()[1]
    assert hi == pytest.approx(full / 9.0, rel=1e-12)


def test_separation_verdicts(middle_thirds, four_corner):
    assert middle_thirds.check_separation().status == "StronglySeparated"
    assert four_corner.check_separation().status == "StronglySeparated"

    # touching intervals share the attractor point S_1(f_2) = S_2(f_1) = 1/2
    touching = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.5, "q": [0.5]}]})
    assert touching.check_separation().status == "Overlapping"

    # overlapping intervals without an exactly shared image point
    overlapping = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.6, "q": [0.0]}, {"r": 0.6, "q": [0.4]}]})
    assert overlapping.check_separation().status == "Inconclusive"

    shared = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.3, "q": [0.0]}, {"r": 0.5, "q": [0.0]}]})
    assert shared.check_separation().status == "Overlapping"

    plain = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.4, "q": [0.0]}, {"r": 0.4, "q": [0.6]}]})
    rep = plain.check_separation()
    # gap 0.2 is positive but smaller than the cylinder diameters
    assert rep.status == "Separated"
    assert rep.certified_positive_gap()
    assert rep.gap_lo > 0


def test_four_corner_separation_converges(four_corner):
    # the gap 1/2 is attained along whole edges of the first-level squares,
    # so only enclosures that touch the edges can close the bracket
    rep = four_corner.check_separation()
    assert rep.budget_exhausted is False
    assert rep.nodes <= 20
    assert rep.gap_lo <= 0.5 <= rep.gap_hi
    assert rep.gap_hi - rep.gap_lo <= 1e-6


def test_heisenberg_separation_converges(heis_quarter):
    # the benchmark set: its boxes meet the gap 1/2 along whole x-edges, as
    # four-corner's do
    rep = heis_quarter.check_separation()
    assert rep.budget_exhausted is False
    assert rep.nodes <= 20
    assert rep.gap_lo <= 0.5 <= rep.gap_hi
    assert rep.gap_hi - rep.gap_lo <= 1e-6 * 0.5


def _capped_separation(monkeypatch, nodes, config=h.tilted_config):
    """``check_separation()`` of a fresh system with the pair-search budget
    cut to ``nodes``.  Fixtures are shared and cache their verdicts, and the
    diameter search shares the budget, so the system is built anew and its
    diameter bracketed under the full budget first."""
    ifs = h.make_ifs(config())
    ifs.diam_bracket()
    with monkeypatch.context() as patch:
        patch.setattr(fractalsio.ifs, "_MAX_NODES", nodes)
        return ifs.check_separation()


def test_separation_budget_reported(middle_thirds, monkeypatch):
    rep = middle_thirds.check_separation()
    assert rep.budget_exhausted is False
    assert rep.nodes > 0
    capped = _capped_separation(monkeypatch, 50)
    assert capped.budget_exhausted is True
    assert capped.nodes >= 50
    d = capped.as_dict()
    assert d["budget_exhausted"] is True and d["nodes"] == capped.nodes


def test_exhausted_search_is_not_strongly_separated(middle_thirds, monkeypatch):
    # gap 0.3488 against child diameter 0.3354, a search of 102 nodes: capped
    # at four nodes the gap bracket [0.3027, 0.3488] still straddles the
    # diameter, so the strength is open
    rep = _capped_separation(monkeypatch, 4)
    assert rep.budget_exhausted
    assert rep.gap_lo < rep.maxdiam_lo <= rep.gap_hi
    assert rep.status == "SeparatedUnknownStrength"
    assert rep.certified_positive_gap()
    # an exhausted search whose gap bracket clears the diameter stays strong
    capped = _capped_separation(monkeypatch, 50)
    assert capped.budget_exhausted and capped.gap_lo >= capped.maxdiam_hi
    assert capped.status == "StronglySeparated"
    # the middle-thirds gap equals its child diameter: a converged exact tie
    tie = middle_thirds.check_separation()
    assert not tie.budget_exhausted and tie.gap_lo < tie.maxdiam_hi
    assert tie.status == "StronglySeparated"


@pytest.mark.parametrize("name", ["middle_thirds", "four_corner", "heis_twisted"])
def test_pair_brackets_contain_net_reference(name, request, monkeypatch):
    # every attractor point lies within d of a depth-5 cell point, and the
    # cell points lie on the attractor
    ifs = request.getfixturevalue(name)
    cells = net(ifs, 5)
    d = float(np.max(cells.radii))
    dist = ifs.geometry.dist(cells.points[:, np.newaxis], cells.points[np.newaxis])
    branch = cells.letters()[:, 0]
    min_pts = float(np.min(dist[branch[:, np.newaxis] != branch[np.newaxis]]))
    max_pts = float(np.max(dist))
    diam_lo, diam_hi = ifs.diam_bracket()
    assert diam_hi >= max_pts
    assert diam_lo <= max_pts + 2.0 * d
    capped = _capped_separation(monkeypatch, 50, getattr(h, f"{name}_config"))
    for rep in (ifs.check_separation(), capped):
        assert rep.gap_lo <= min_pts
        assert rep.gap_hi >= min_pts - 2.0 * d


def test_separation_gap_value(middle_thirds):
    rep = middle_thirds.check_separation()
    assert rep.gap_lo <= 1.0 / 3.0 <= rep.gap_hi
    assert rep.gap_hi - rep.gap_lo <= 1e-5


@pytest.mark.parametrize("name, gap", [("middle_thirds", 1.0 / 3.0),
                                       ("four_corner", 0.5), ("heis_quarter", 0.5)])
def test_gap_brackets_pin_the_exact_gap(name, gap, request):
    # the gap is attained by images of letters' fixed points, so the witness
    # is exact and the bracket closes to the search tolerance
    rep = request.getfixturevalue(name).check_separation()
    assert rep.status == "StronglySeparated" and not rep.budget_exhausted
    assert rep.gap_lo <= gap <= rep.gap_hi
    assert rep.gap_hi - rep.gap_lo <= 1e-6 * gap


def test_heisenberg_separation(heis_cantor):
    rep = heis_cantor.check_separation()
    assert rep.certified_positive_gap()


@pytest.mark.parametrize("bad_map", [(0.5,), 0.5, (0.5, [0.0], 1), ("x", [0.0]),
                                     (0.5, "ab")])
def test_malformed_map_is_an_input_error(bad_map):
    with pytest.raises(InputError):
        IFS(Euclidean(1), [(1.0 / 3.0, [0.0]), bad_map])


def test_bad_words_rejected(middle_thirds):
    with pytest.raises(InputError):
        middle_thirds.fixed_point((0,))
    with pytest.raises(InputError):
        middle_thirds.fixed_point((3,))


def test_config_round_trip(middle_thirds):
    cfg = middle_thirds.to_config()
    again = IFS.from_config(cfg)
    assert again.to_config() == cfg
    assert again.dim_s == middle_thirds.dim_s
