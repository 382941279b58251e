"""Ergodic sampling on the coding space.

Letters are drawn i.i.d. with the natural weights r_i^s using a counter-based
generator (numpy Philox), so runs are reproducible bit for bit from the seed
alone, independent of call order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ifs import IFS
from .symbolic import validate_word


@dataclass(frozen=True)
class OrbitSample:
    """A sampled letter sequence (1-based) and the seed that produced it."""

    seed: int
    letters: np.ndarray

    def __len__(self) -> int:
        return int(self.letters.shape[0])


def sample_orbit(ifs: IFS, n: int, seed: int) -> OrbitSample:
    """Draw ``n`` i.i.d. letters with probabilities r_i^s."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InputError("orbit length must be a nonnegative integer")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    cum = np.cumsum(ifs.letter_weights)
    cum[-1] = 1.0
    draws = rng.random(int(n))
    letters = np.searchsorted(cum, draws, side="right").astype(np.int64, copy=False)
    np.clip(letters, 0, ifs.n_letters - 1, out=letters)
    letters += 1
    return OrbitSample(seed=int(seed), letters=letters)


def _window_hits(letters: np.ndarray, target) -> np.ndarray:
    """Boolean mask over start positions where ``target`` occurs."""
    m = len(target)
    n_starts = letters.shape[0] - m + 1
    if n_starts <= 0:
        return np.zeros(0, dtype=bool)
    hits = np.ones(n_starts, dtype=bool)
    for j, a in enumerate(target):
        hits &= letters[j:j + n_starts] == a
    return hits


def birkhoff_frequency(ifs: IFS, target, n_steps: int, seed: int):
    """Empirical frequency of the block ``target`` along a sampled orbit.

    Scans the n_steps start positions of a sequence of length
    n_steps + len(target) - 1.  Returns (frequency, expected, stderr) where
    expected is the product of the letter weights and stderr the binomial
    i.i.d. value, doubled for blocks longer than one letter because adjacent
    windows overlap.  An empty target has frequency 1 by convention.
    """
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise InputError("n_steps must be a positive integer")
    target = validate_word(target, n_letters=ifs.n_letters)
    if len(target) == 0:
        return 1.0, 1.0, 0.0
    expected = ifs.word_weight(target)
    sample = sample_orbit(ifs, int(n_steps) + len(target) - 1, seed)
    hits = _window_hits(sample.letters, target)
    freq = float(np.count_nonzero(hits)) / float(n_steps)
    factor = 2.0 if len(target) > 1 else 1.0
    stderr = factor * float(np.sqrt(expected * (1.0 - expected) / n_steps))
    return freq, expected, stderr


def hitting_times(ifs: IFS, target, n_steps: int, seed: int):
    """Start positions (0-based, strictly increasing) where ``target`` occurs."""
    if not isinstance(n_steps, (int, np.integer)) or n_steps < 1:
        raise InputError("n_steps must be a positive integer")
    target = validate_word(target, n_letters=ifs.n_letters)
    if len(target) == 0:
        return list(range(int(n_steps)))
    sample = sample_orbit(ifs, int(n_steps) + len(target) - 1, seed)
    hits = _window_hits(sample.letters, target)
    return [int(i) for i in np.flatnonzero(hits)]
