"""Ergodic sampling on the coding space.

Letters are drawn i.i.d. with the natural weights p_i = r_i^s from one
letter stream per seed: a counter-based generator (numpy Philox) read in
blocks of ``_BLOCK // 2`` raw 64-bit words.  Each word is split into two
32-bit values, low half first and in the same byte order on every platform,
and a value u gives the letter 1 + #{j < N : u >= C_j}, where the integer
cut points are C_j = round(2^32 (p_1 + ... + p_j)).  So a letter's
probability is (C_j - C_{j-1}) / 2^32, within 2^-32 of its weight, far
below any statistical error the samplers reach.  The stream keeps its
unread values between draws, so a run is reproducible bit for bit from the
seed alone and gives the same letters on every platform, independent of
call order and of how the stream is split, and it holds only one block of
values at a time.  Block frequencies and hitting times come from one scan
over the stream, one block of letters at a time: a frequency only counts
each block's hits, and only hitting times list their positions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import integer
from .ifs import IFS
from .symbolic import validate_word

_BLOCK = 1 << 16  # 32-bit values per Philox draw


def _cuts(ifs: IFS) -> list:
    """The integer cut points C_j = round(2^32 (p_1 + ... + p_j)), j < N;
    each C_j / 2^32 is within 2^-33 of its cumulative weight."""
    return [int(c) for c in np.rint(np.cumsum(ifs.letter_weights)[:-1] * 2.0 ** 32)]


def _letter_stream(ifs: IFS, seed: int):
    """The seed's letter stream, as ``draw(out)``: fill the unsigned or int64
    array ``out`` with the stream's next len(out) letters, 0-based, and
    return it.

    A letter counts the cut points C = ``_cuts(ifs)`` at or below its 32-bit
    value u, the index ``searchsorted(C, u, side="right")`` gives.  The
    values are the halves of ``Philox(seed).random_raw`` words, low half
    first; the unread rest of a block is kept for the next call, so any
    split of the stream into calls gives the letters of one call.
    """
    bitgen = np.random.Philox(integer(seed, "seed", 0))
    cuts = _cuts(ifs)
    block, pos = np.empty(0, dtype=np.uint32), 0

    def draw(out):
        nonlocal block, pos
        done = 0
        while done < len(out):
            if pos == len(block):
                raw = bitgen.random_raw(_BLOCK // 2)
                block, pos = raw.astype("<u8", copy=False).view("<u4"), 0
            take = min(len(out) - done, len(block) - pos)
            u, part = block[pos:pos + take], out[done:done + take]
            np.greater_equal(u, cuts[0], out=part)
            for c in cuts[1:]:
                part += u >= c
            pos, done = pos + take, done + take
        return out

    return draw


def sample_orbit(ifs: IFS, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` i.i.d. letters (1-based) with probabilities r_i^s.

    The letters are the first ``n`` of the seed's letter stream: with the
    integer cuts C_j = round(2^32 (p_1 + ... + p_j)), they equal
    ``searchsorted(C, u, side="right") + 1`` over the 32-bit halves u of
    ``Philox(seed).random_raw`` words, low half first, so each letter's
    probability is within 2^-32 of its weight and the letters are the same
    on every platform.  Returned as an int64 array.
    """
    n = integer(n, "orbit length", 0)
    letters = _letter_stream(ifs, seed)(np.empty(n, dtype=np.int64))
    letters += 1
    return letters


def _block_statistics(ifs: IFS, target, count: int, n_steps: int):
    """(frequency, expected, stderr) of ``count`` hits of ``target`` in
    ``n_steps`` start positions; see ``birkhoff_frequency``.

    Windows at lags d >= m = len(target) share no letter and are
    independent.  At a lag d < m both windows hold the target exactly when
    it has period d (target[d:] == target[:m - d]), with probability
    p pi_d, pi_d the weight of its last d letters.  So the count has variance
    about n p [(1 - p) + 2 sum_{d<m} (1[period d] pi_d - p)], whose square
    root over n is the stderr; for one letter it is the binomial value.
    """
    target = validate_word(target, n_letters=ifs.n_letters)
    expected = ifs.word_weight(target)
    freq = float(count) / float(n_steps)
    m = len(target)
    spread = 1.0 - expected
    for d in range(1, m):
        overlap = ifs.word_weight(target[m - d:]) if target[d:] == target[:m - d] else 0.0
        spread += 2.0 * (overlap - expected)
    stderr = math.sqrt(max(expected * spread, 0.0) / n_steps)
    return freq, expected, stderr


def _scan(ifs: IFS, target, n_steps: int, seed: int):
    """Where ``target`` starts among the first ``n_steps`` starts of the
    seed's letter stream, yielded per block as ``(start, hits)``: ``hits``
    is a boolean mask over the block's starts, the first of them at the
    0-based position ``start``.  Counting needs only the masks; positions
    are ``start + flatnonzero(hits)``.

    The stream is read ``_BLOCK`` letters at a time and the last
    len(target) - 1 letters of a block are carried into the next, so hits
    that straddle a block edge are found while only one block is held.  The
    window is held in the narrowest unsigned dtype that fits the letters.
    """
    n_steps = integer(n_steps, "n_steps", 1)
    target = validate_word(target, n_letters=ifs.n_letters)
    carry = max(len(target) - 1, 0)
    draw = _letter_stream(ifs, seed)
    dtype = np.min_scalar_type(ifs.n_letters - 1)
    window = draw(np.empty(carry + min(_BLOCK, n_steps), dtype=dtype))
    for start in range(0, n_steps, _BLOCK):
        m = min(_BLOCK, n_steps - start)
        if start:
            window[:carry] = window[_BLOCK:_BLOCK + carry]
            draw(window[carry:carry + m])
        hits = np.ones(m, dtype=bool)
        for j, a in enumerate(target):
            hits &= window[j:j + m] == a - 1
        yield start, hits


def birkhoff_frequency(ifs: IFS, target, n_steps: int, seed: int):
    """Empirical frequency of the block ``target`` along a sampled orbit.

    Scans the n_steps start positions of the first n_steps + len(target) - 1
    letters of the seed's stream, the letters of ``sample_orbit``.  Returns
    (frequency, expected, stderr) where expected is the product of the
    letter weights and stderr that of the count of overlapping windows, from
    the exact variance in ``_block_statistics``.  An empty target occurs at
    every position, so its frequency is 1.
    """
    count = sum(np.count_nonzero(hits) for _, hits in _scan(ifs, target, n_steps, seed))
    return _block_statistics(ifs, target, count, n_steps)


def hitting_times(ifs: IFS, target, n_steps: int, seed: int):
    """Start positions (0-based, strictly increasing) where ``target`` occurs.

    The orbit is the one ``birkhoff_frequency`` scans for the same seed, so
    len(times) / n_steps is its frequency.
    """
    return np.concatenate([start + np.flatnonzero(hits)
                           for start, hits in _scan(ifs, target, n_steps, seed)]).tolist()
