"""Shared fixtures-adjacent helpers for the test suite."""

import itertools
import json

import numpy as np

from fractalsio import IFS, EPWord, HomogeneousKernel, QuadratureResult


def within(value: float, quad: QuadratureResult) -> bool:
    """True when ``value`` lies inside the reported bracket."""
    return abs(quad.value - value) <= quad.err


def overlap(a: QuadratureResult, b: QuadratureResult) -> bool:
    """True when the two brackets intersect."""
    return abs(a.value - b.value) <= a.err + b.err


def middle_thirds_config():
    return {
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 1.0 / 3.0, "q": [0.0]},
                 {"r": 1.0 / 3.0, "q": [2.0 / 3.0]}],
    }


def four_corner_config():
    return {
        "geometry": {"kind": "euclidean", "dim": 2},
        "maps": [{"r": 0.25, "q": [0.0, 0.0]},
                 {"r": 0.25, "q": [0.75, 0.0]},
                 {"r": 0.25, "q": [0.0, 0.75]},
                 {"r": 0.25, "q": [0.75, 0.75]}],
    }


def line_config():
    # two maps on the x axis inside R^2; attractor is a Cantor set on the line
    return {
        "geometry": {"kind": "euclidean", "dim": 2},
        "maps": [{"r": 1.0 / 3.0, "q": [0.0, 0.0]},
                 {"r": 1.0 / 3.0, "q": [2.0 / 3.0, 0.0]}],
    }


def heis_config():
    # two Heisenberg similarities with ratio 1/3; shifts separated in x
    return {
        "geometry": {"kind": "heisenberg1"},
        "maps": [{"r": 1.0 / 3.0, "q": [0.0, 0.0, 0.0]},
                 {"r": 1.0 / 3.0, "q": [2.0 / 3.0, 0.0, 0.0]}],
    }


def translated_config(cfg, a):
    """``cfg`` conjugated by the left translation by the point ``a``: each
    S_i becomes p -> a * S_i(a^{-1} * p), with shift a * q_i * dilate(r_i,
    a^{-1}), so the attractor moves to a * K and every distance is kept."""
    ifs = make_ifs(cfg)
    geom, a = ifs.geometry, np.asarray(a, dtype=float)
    maps = [{"r": float(r), "q": [float(x) for x in
                                  geom.op(geom.op(a, q), geom.dilate(r, geom.inv(a)))]}
            for r, q in zip(ifs.ratios, ifs.shifts)]
    return dict(cfg, maps=maps)


def heis_twisted_config():
    # three Heisenberg similarities with ratio 1/3 and non-collinear shifts, so
    # compositions pick up the group twist (x y' - y x') / 2
    return {
        "geometry": {"kind": "heisenberg1"},
        "maps": [{"r": 1.0 / 3.0, "q": [0.0, 0.0, 0.0]},
                 {"r": 1.0 / 3.0, "q": [2.0 / 3.0, 0.0, 0.0]},
                 {"r": 1.0 / 3.0, "q": [0.0, 2.0 / 3.0, 0.0]}],
    }


def heis_quarter_config():
    # three Heisenberg similarities with ratio 1/4 and non-collinear shifts:
    # the benchmark set, whose box enclosures close on the gap 1/2 in three
    # pair nodes (balls took about a thousand)
    return {
        "geometry": {"kind": "heisenberg1"},
        "maps": [{"r": 0.25, "q": [0.0, 0.0, 0.0]},
                 {"r": 0.25, "q": [0.75, 0.0, 0.0]},
                 {"r": 0.25, "q": [0.0, 0.75, 0.0]}],
    }


def tilted_config():
    # three planar maps of ratio 0.3 with no shared edge direction: the box
    # search needs 102 pair nodes to close on the gap
    return {
        "geometry": {"kind": "euclidean", "dim": 2},
        "maps": [{"r": 0.3, "q": [0.0, 0.0]},
                 {"r": 0.3, "q": [0.7, 0.35]},
                 {"r": 0.3, "q": [0.2, 0.7]}],
    }


def make_ifs(cfg) -> IFS:
    return IFS.from_config(cfg)


def sign_kernel(ifs) -> HomogeneousKernel:
    from fractalsio import SignOmega
    return HomogeneousKernel(ifs.geometry, ifs.dim_s, SignOmega())


def const_kernel(ifs, c=1.0) -> HomogeneousKernel:
    from fractalsio import ConstantOmega
    return HomogeneousKernel(ifs.geometry, ifs.dim_s, ConstantOmega(c))


def word1() -> EPWord:
    return EPWord((), (1,))


def right_fold(ifs, word):
    """S_{w_1} o (S_{w_2} o ... (S_{w_n} o id)), one 1-based letter at a time."""
    geom = ifs.geometry
    ratio, shift = 1.0, geom.identity()
    for a in reversed(word):
        r, q = ifs.ratios[a - 1], ifs.shifts[a - 1]
        ratio, shift = r * ratio, geom.op(q, geom.dilate(r, shift))
    return ratio, shift


def compose_pair(ifs, a, b):
    """The (ratio, shift) of S_a o S_b from the two (ratio, shift) pairs."""
    geom = ifs.geometry
    return a[0] * b[0], geom.op(a[1], geom.dilate(a[0], b[1]))


# letters per chunk: the largest c with N^c <= 4096
CHUNK = {2: 12, 3: 7, 4: 6}


def chunk_fold(ifs, word):
    """S_w as the fold's chunk rule spells it: the word cut into chunks of
    ``CHUNK`` letters aligned at its right end, each chunk's map the right
    fold of its letters, and the chunk maps composed right to left."""
    c = CHUNK[ifs.n_letters]
    word = tuple(word)
    out = None
    for end in range(len(word), 0, -c):
        piece = right_fold(ifs, word[max(end - c, 0):end])
        out = piece if out is None else compose_pair(ifs, piece, out)
    return right_fold(ifs, ()) if out is None else out


def chunk_points(ifs, letters, x0):
    """S_w(x0) for each row w of the 1-based ``letters`` (shape (M, L)), its
    chunk maps applied to the point right to left: the rows are cut into
    chunks of ``CHUNK`` letters aligned at their right end, and each chunk's
    map is the right fold of its letters, one letter at a time."""
    geom = ifs.geometry
    c = CHUNK[ifs.n_letters]
    pts = np.broadcast_to(np.asarray(x0, dtype=float), (len(letters), geom.dim))
    for end in range(letters.shape[1], 0, -c):
        ratio, shift = right_fold(ifs, letters[:, max(end - c, 0):end].T)
        pts = geom.op(shift, geom.dilate(ratio, pts))
    return pts


def letter_cuts(weights):
    """The integer cut points round(2^32 (w_1 + ... + w_j)), j < N, from the
    running sums of the weights in Python floats."""
    return [round(c * 2 ** 32) for c in itertools.accumulate(weights)][:-1]


def philox_letters(weights, n, seed):
    """The seed's first ``n`` letters (1-based) from one Philox call: each raw
    64-bit word gives two 32-bit values, its low half first, and a value
    counts the cut points at or below it."""
    raw = np.random.Philox(seed).random_raw((n + 1) // 2)
    u = np.empty(2 * len(raw), dtype=np.uint64)
    u[0::2] = raw & 0xFFFFFFFF
    u[1::2] = raw >> 32
    cuts = np.array(letter_cuts(weights), dtype=np.uint64)
    return np.searchsorted(cuts, u[:n], side="right") + 1


def witness_on_word(u, word):
    """The witness on a finite word, block by block: 1.0 when the first block
    off the u-track differs from u at its first letter, 0.0 when later, and
    None while every block so far is a prefix of u."""
    u, word, p = tuple(u), tuple(word), len(u)
    i = 0
    while True:
        block = word[i * p:(i + 1) * p]
        if len(block) == 0:
            return None
        if block == u[:len(block)]:
            if len(block) < p:
                return None
            i += 1
            continue
        return 1.0 if block[0] != u[0] else 0.0


def cell_words(cells) -> list:
    """Each cell's word, read from its 0-padded row of ``letters``."""
    return [tuple(int(a) for a in row if a) for row in cells.letters()]


def write_config(path, cfg) -> str:
    path = str(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def random_points(rng, dim, n, scale=1.0):
    pts = rng.standard_normal((n, dim)) * scale
    # keep points away from the origin so kernel evaluation is defined
    norms = np.linalg.norm(pts, axis=-1)
    return pts[norms > 1e-3]
