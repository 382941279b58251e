import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import _helpers as h
from fractalsio import (IFS, InputError, birkhoff_frequency, ergodic, hitting_times,
                        sample_orbit)


def test_sample_orbit_deterministic(middle_thirds):
    a = sample_orbit(middle_thirds, 1000, seed=7)
    b = sample_orbit(middle_thirds, 1000, seed=7)
    assert np.array_equal(a, b)
    c = sample_orbit(middle_thirds, 1000, seed=8)
    assert not np.array_equal(a, c)
    assert len(a) == 1000
    assert a.min() >= 1 and a.max() <= 2
    with pytest.raises(InputError, match="seed must be a nonnegative integer"):
        sample_orbit(middle_thirds, 5, -1)


def _three_letters():
    return h.make_ifs({"geometry": {"kind": "euclidean", "dim": 1},
                       "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.25, "q": [0.6]},
                                {"r": 0.125, "q": [0.85]}]})


def test_sample_orbit_blocks_match_searchsorted(four_corner):
    # the blocked stream against one Philox call split into 32-bit halves and
    # a searchsorted over the integer cuts
    n = 2 * ergodic._BLOCK + 777
    for system in (_three_letters(), four_corner):
        ref = h.philox_letters(system.letter_weights, n, 17)
        np.testing.assert_array_equal(sample_orbit(system, n, seed=17), ref)
        assert sample_orbit(system, n, seed=17).dtype == np.int64


def test_letter_stream_split_matches_one_call(heis_twisted):
    # odd pieces leave half-words and block rests unread between calls; the
    # pieces still spell the one-call stream, in any output dtype
    pieces = [1, 3, 65535, 65537, 2, 131071, 5, 1]
    n = sum(pieces)
    for system in (_three_letters(), heis_twisted):
        ref = h.philox_letters(system.letter_weights, n, 29) - 1
        for dtype in (np.uint8, np.int64):
            draw = ergodic._letter_stream(system, 29)
            got = np.concatenate([draw(np.empty(k, dtype=dtype)) for k in pieces])
            np.testing.assert_array_equal(got, ref)
        whole = ergodic._letter_stream(system, 29)(np.empty(n, dtype=np.int64))
        np.testing.assert_array_equal(whole, ref)


def test_letter_cuts_are_within_two_to_minus_32(middle_thirds, heis_twisted, four_corner):
    # dyadic weights give exact cuts; every cut is the rounded cumulative
    # weight, so each letter's probability moves by at most 2^-32
    dyadic = h.make_ifs({"geometry": {"kind": "euclidean", "dim": 1},
                         "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.25, "q": [0.6]},
                                  {"r": 0.25, "q": [0.8]}]})
    assert ergodic._cuts(dyadic) == [2 ** 31, 3 * 2 ** 30]
    for system in (dyadic, _three_letters(), middle_thirds, heis_twisted, four_corner):
        cuts = ergodic._cuts(system)
        assert cuts == h.letter_cuts(system.letter_weights)
        cum = np.cumsum(system.letter_weights)[:-1]
        assert np.all(np.abs(np.array(cuts) / 2.0 ** 32 - cum) <= 2.0 ** -33)
        probs = np.diff([0] + cuts + [2 ** 32]) / 2.0 ** 32
        assert np.all(np.abs(probs - system.letter_weights) <= 2.0 ** -32)


def test_sample_orbit_respects_weights(four_corner):
    # equal ratios: all four letters should appear with frequency ~1/4
    s = sample_orbit(four_corner, 40000, seed=11)
    counts = np.bincount(s, minlength=5)[1:]
    freqs = counts / 40000.0
    stderr = np.sqrt(0.25 * 0.75 / 40000.0)
    assert np.all(np.abs(freqs - 0.25) <= 4 * stderr)


def test_birkhoff_single_letter(middle_thirds):
    freq, expected, stderr = birkhoff_frequency(middle_thirds, (1,), 100000,
                                                seed=42)
    assert expected == pytest.approx(0.5, abs=1e-12)
    assert abs(freq - expected) <= 3.0 * stderr
    again = birkhoff_frequency(middle_thirds, (1,), 100000, seed=42)
    assert again[0] == freq


def test_birkhoff_block(four_corner):
    freq, expected, stderr = birkhoff_frequency(four_corner, (1, 1), 100000,
                                                seed=5)
    assert expected == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert abs(freq - expected) <= 3.0 * stderr
    # 1 1 overlaps itself at lag 1, which inflates stderr past the binomial
    # value for the same weight: n p [(1 - p) + 2 (p_1 - p)] with p_1 = 1/4
    assert stderr > math.sqrt(expected * (1.0 - expected) / 100000)
    assert stderr == pytest.approx(math.sqrt(expected * (1.0 - expected + 2.0 * (0.25 - expected))
                                             / 100000), rel=1e-12)


def test_birkhoff_stderr_counts_overlapping_windows():
    # p_1 = 0.7 and the target 1^10 over 20,000 steps: 3,000 simulated runs
    # give a standard deviation of 2.62e-3; the overlap variance gives 2.64e-3
    # where the doubled binomial gave 2.34e-3; one letter keeps the binomial
    ifs = IFS.from_config({"geometry": {"kind": "euclidean", "dim": 1},
                           "maps": [{"r": 0.7, "q": [0.0]}, {"r": 0.3, "q": [0.7]}]})
    freq, expected, stderr = ergodic._block_statistics(ifs, (1,) * 10, 565, 20000)
    assert freq == 565 / 20000 and expected == pytest.approx(0.7 ** 10, rel=1e-12)
    assert stderr == pytest.approx(2.64e-3, abs=5e-6)
    p = ifs.letter_weights[0]
    single = ergodic._block_statistics(ifs, (1,), 0, 20000)[2]
    assert single == math.sqrt(p * (1.0 - p) / 20000)


def test_birkhoff_empty_target(middle_thirds):
    freq, expected, stderr = birkhoff_frequency(middle_thirds, (), 100, seed=0)
    assert freq == 1.0 and expected == 1.0 and stderr == 0.0


def test_birkhoff_unequal_weights():
    import _helpers as h
    from fractalsio import IFS
    ifs = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.25, "q": [0.75]}]})
    freq, expected, stderr = birkhoff_frequency(ifs, (1,), 100000, seed=9)
    s = ifs.dim_s
    assert expected == pytest.approx(0.5 ** s, abs=1e-12)
    assert abs(freq - expected) <= 3.0 * stderr


def test_hitting_times_match_frequency(middle_thirds):
    n = 50000
    times = hitting_times(middle_thirds, (1,), n, seed=13)
    freq = birkhoff_frequency(middle_thirds, (1,), n, seed=13)[0]
    assert len(times) == round(freq * n)
    arr = np.asarray(times)
    assert np.all(np.diff(arr) > 0)
    assert arr.min() >= 0 and arr.max() < n
    # mean gap between hits approaches 1/p = 2
    gaps = np.diff(arr)
    assert abs(gaps.mean() - 2.0) < 0.1


def test_hitting_times_block(four_corner):
    n = 20000
    times = hitting_times(four_corner, (2, 3), n, seed=21)
    s = sample_orbit(four_corner, n + 1, seed=21)
    for t in times[:50]:
        assert s[t] == 2 and s[t + 1] == 3


def test_scan_matches_whole_orbit():
    # the blocked scan against one whole orbit: the target is read off the
    # orbit across the first block edge, so at least one hit straddles it
    ifs = _three_letters()
    block = ergodic._BLOCK
    n = 2 * block + 777
    letters = sample_orbit(ifs, n + 2, seed=3)
    for target in (tuple(letters[block - 1:block + 2]),
                   tuple(letters[2 * block - 2:2 * block + 1]), (2, 1, 3)):
        hits = np.ones(n, dtype=bool)
        for j, a in enumerate(target):
            hits &= letters[j:j + n] == a
        ref = np.flatnonzero(hits).tolist()
        assert hitting_times(ifs, target, n, seed=3) == ref
        assert birkhoff_frequency(ifs, target, n, seed=3) == \
            ergodic._block_statistics(ifs, target, len(ref), n)
    assert block - 1 in hitting_times(ifs, tuple(letters[block - 1:block + 2]), n, 3)


def test_birkhoff_memory_is_one_block():
    # 4e6 steps: the whole orbit and its hit mask held ~39 MB at once
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "heisenberg.json"
    ifs = h.make_ifs(json.loads(path.read_text()))
    tracemalloc.start()
    try:
        birkhoff_frequency(ifs, (2, 3), 4_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_stationarity_windows(middle_thirds):
    # the first and second halves of one long orbit see the same frequency
    n = 40000
    orbit = sample_orbit(middle_thirds, 2 * n, seed=33)
    first = np.count_nonzero(orbit[:n] == 1) / n
    second = np.count_nonzero(orbit[n:] == 1) / n
    stderr = np.sqrt(0.5 * 0.5 / n)
    assert abs(first - second) <= 4.0 * stderr


def test_bad_inputs(middle_thirds):
    with pytest.raises(InputError):
        sample_orbit(middle_thirds, -1, seed=0)
    with pytest.raises(InputError):
        birkhoff_frequency(middle_thirds, (3,), 100, seed=0)
    with pytest.raises(InputError):
        birkhoff_frequency(middle_thirds, (1,), 0, seed=0)
