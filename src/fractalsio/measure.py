"""Quadrature against the natural measure, with certified error brackets.

The natural measure of an N-map system gives the cylinder C_v the weight
prod_j r_{v_j}^s.  A cell is a cylinder C_v = S_v(K), K the attractor, with
its map S_v, hence its box S_v(E) (``IFS.cylinder_box``), and the fixed
point x_v of S_v, which lies inside it.  For an integrand f with modulus of
continuity omega_f,

    | int_R f dmu  -  sum_v mu(C_v) f(x_v) |  <=  sum_v mu(C_v) omega_f(d_v)

whenever the cells v partition the region R, with d_v >= sup_{y in C_v}
d(x_v, y), here ``CellBlock.radii``.  Everything here returns a
``QuadratureResult`` carrying the midpoint value and that error bracket.

Cells are built from self-similarity: the cells of a cylinder C_b refined by
m letters are S_b applied to the depth-m net of the whole set, weighted by
mu(C_b).  ``IFS._fold`` gives the maps of a whole segment of bases at once:
it folds each base from chunks gathered from the relative nets
(``IFS.relative_net``, cached per depth) and composes the base's map once
onto the m-letter net by broadcasting, so no cell is ever spelled out as a
word.  A ``CellBlock`` keeps only the (base words, depth) segments it was
built from; ``CellBlock.letters`` unravels them into one row of letters per
cell, for the witness rule and error messages.  The empty word
has no contraction to take a fixed point of, so its cell is represented by
the fixed point of S_1.

Ball shells eps <= d(center, .) <= outer are split by ``_ball_cells`` (also
used by ``sio``), which tracks the active cells as letter rows, maps and
certified distance ranges, read from their boxes and split by masks.  This
module knows nothing of kernels.

Every bracket, here and in ``sio``, is summed by ``_cell_bracket``: value
sum_v w_v f_v and err sum_v w_v e_v, each by ``pairwise_sum``, numpy's
pairwise reduction, deterministic for a given numpy build, and the err also
carries the rounding bound stated there.  ``moments`` gives the central
moments of a measure on the line from self-similarity, for ``sio``'s
expansions.  An integrand's modulus is its Lipschitz constant L,
omega(d) = L d, passed as a float.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .ergodic import _letter_stream
from .errors import (EvaluationError, InputError, ResourceLimitError, integer,
                     nonnegative, positive)
from .ifs import IFS, _U, _compose, _fixed_points, _frozen, _gamma
from .symbolic import validate_word

_MC_BLOCK = 1 << 12  # Monte Carlo samples composed per block


def pairwise_sum(values) -> float:
    """The sum of a 1-d array by numpy's pairwise reduction, ``np.add.reduce``.

    numpy halves an array of n > 128 values at most ceil(log2 n) times and
    sums each block of b <= 128 values in 8 accumulators (b // 8 - 1 <= 15
    additions each), 3 steps combining them and b % 8 <= 7 tail additions
    (Higham, Accuracy and Stability of Numerical Algorithms, section 4.2).
    A value meets at most 24 roundings in a block (b = 127), so the sum is
    within gamma_k * sum |v| of the exact one, k = ceil(log2 n) + 24,
    gamma_k = k u / (1 - k u), u = 2^-53.  The order of additions depends on
    n alone, so the sum is deterministic for a given numpy build.
    """
    return float(np.add.reduce(np.asarray(values, dtype=float).ravel()))


@dataclass(frozen=True)
class QuadratureResult:
    """Midpoint value with a certified absolute error bracket."""

    value: float
    err: float
    depth: int = 0
    cells: int = 0

    def __add__(self, other):
        return QuadratureResult(self.value + other.value, self.err + other.err,
                                max(self.depth, other.depth),
                                self.cells + other.cells)

    def scale(self, c: float) -> "QuadratureResult":
        return QuadratureResult(c * self.value, abs(c) * self.err,
                                self.depth, self.cells)

    def as_dict(self) -> dict:
        return {"value": self.value, "err": self.err,
                "depth": self.depth, "cells": self.cells}


@dataclass
class CellBlock:
    """Quadrature cells in a fixed order, held as flat arrays.

    Each cell has its weight, its node (``points``) and its map (``ratios``
    and ``shifts``) in the system ``ifs``.  ``segments`` lists, in cell
    order, the ``(bases, depth)`` blocks the cells were built from: ``bases``
    is an integer array with one base word per row (1-based letters, all rows
    the same length), and each base contributes the cells of every
    ``depth``-letter refinement of its cylinder in lexicographic order.
    ``letters`` is the one routine that turns the segments into cell words.
    """

    weights: np.ndarray
    points: np.ndarray
    ratios: np.ndarray
    shifts: np.ndarray
    segments: list
    ifs: IFS

    @functools.cached_property
    def radii(self) -> np.ndarray:
        """Each cell's radius d_v = r_v rho(x_v), built when first read.  S_v
        fixes x_v and scales distances by r_v, so sup_{y in C_v} d(x_v, y) =
        r_v sup_{y in K} d(x_v, y) <= r_v rho(x_v), rho(p) the upper gauge
        bound ``norm(|z| + H)`` over the displacements from p to the box E of
        ``IFS.attractor_box``.  The empty word's radius is rho(f_1)."""
        geom, (lo, hi) = self.ifs.geometry, self.ifs.attractor_box()
        z, half = geom.displacement_box(self.points, np.zeros(geom.dim), 0.5 * (lo + hi),
                                        0.5 * (hi - lo))
        return self.ratios * geom.norm(np.add(np.abs(z, out=z), half, out=z))

    @property
    def count(self) -> int:
        return len(self.weights)

    @property
    def depth(self) -> int:
        """Length of the longest cell word."""
        return max((bases.shape[1] + d for bases, d in self.segments), default=0)

    def letters(self) -> np.ndarray:
        """Each cell's word as a row of 1-based letters, 0-padded to ``depth``,
        in the narrowest unsigned dtype that holds N."""
        n = self.ifs.n_letters
        out = np.zeros((self.count, self.depth), dtype=np.min_scalar_type(n))
        row = 0
        for bases, depth in self.segments:
            size, k = n ** depth, bases.shape[1]
            block = out[row:row + len(bases) * size]
            block[:, :k] = np.repeat(bases, size, axis=0)
            suffixes = np.indices((n,) * depth).reshape(depth, size).T + 1
            block[:, k:k + depth] = np.tile(suffixes, (len(bases), 1))
            row += len(block)
        return out


def _on_grid(terms, bound: float) -> bool:
    """Whether every term is a multiple of 2^(e - 52), 2^e > ``bound``: then
    every sum of terms within 2 ``bound`` of zero is a float, so no addition
    of a pairwise sum rounds."""
    scale = 2.0 ** (52 - math.frexp(bound)[1])
    head = terms[:8] * scale  # most sums fail here, before the full pass
    if not np.array_equal(np.floor(head), head):
        return False
    scaled = terms * scale
    return bool(np.array_equal(np.floor(scaled), scaled))


def _cell_bracket(weights, values, errs, depth: int) -> QuadratureResult:
    """The bracket sum_v w_v values_v +- sum_v w_v errs_v over ``len(weights)``
    cells; ``values`` and ``errs`` are arrays or scalars broadcast to them.

    Both sums are ``pairwise_sum``s of the float products, so each is within
    gamma_k of the sum of the absolute products, k = ceil(log2 n) + 24.  The
    err therefore also carries gamma_{k+2} (sum_v |w_v values_v| + sum_v w_v
    errs_v), the two extra roundings covering the float sum of the absolute
    products and this bound's own.  When both sets of products lie on a grid
    fine enough that no partial sum rounds (``_on_grid``), the sums are
    exact and that term is 0.
    """
    terms, charges = weights * values, weights * errs
    value, err = pairwise_sum(terms), pairwise_sum(charges)
    size = pairwise_sum(np.abs(terms)) + err
    if not (_on_grid(terms, size) and _on_grid(charges, size)):
        err += _gamma((len(weights) - 1).bit_length() + 26) * size
    return QuadratureResult(value, err, depth, len(weights))


@functools.lru_cache(maxsize=None)
def _pascal(order: int):
    """C(n, k) for k < n <= ``order`` (0 elsewhere) as floats, exact for order
    <= 56, and the index table n - k (0 where k >= n); both read-only, as
    every caller shares them."""
    out = np.zeros((order + 1, order + 1))
    for n in range(1, order + 1):
        out[n, :n] = [math.comb(n, k) for k in range(n)]
    m = np.arange(order + 1)
    return _frozen(out, np.subtract.outer(m, m).clip(0))


def moments(ifs: IFS, order: int):
    """``(c, mu, bound)``: the central moments mu_j = int (y - c)^j dmu(y),
    j <= ``order``, of the natural measure of a system on the line, about the
    centre c of ``IFS.attractor_box``, and bounds bound_j >= |mu_j - mu[j]|
    on their float values.

    The measure is self-similar, int g dmu = sum_i p_i int g(S_i y) dmu(y),
    and S_i y - c = r_i (y - c) + d_i with d_i = S_i(c) - c, so (Strichartz,
    "Evaluating integrals using self-similarity", 2000)

        mu_n (1 - sum_i p_i r_i^n) = sum_i p_i sum_{k<n} C(n, k) r_i^k d_i^(n-k) mu_k,

    a triangular recursion from mu_0 = 1 whose divisor is positive for n >= 1.
    The letter weights p_i are the measure's, as for every cell weight.  It
    runs in floats and carries a running absolute bound:
    - d_i is computed within e_i = gamma_3 (|q_i| + 2|c|), so |d_i^m - float
      d_i^m| <= m e_i (|d_i| + e_i)^(m - 1) =: e_i(m), before rounding;
    - each of the N n terms of the right side is a product of pows (within
      2u each), the exact C(n, k), p_i and mu_k, summed over i and then over
      k, so the float sum is within gamma_{2n+N+8} of the sum A_n of their
      absolute values, plus the propagated sum_i p_i sum_k C(n, k) r_i^k
      [e_i(n - k) (|mu_k| + bound_k) + |d_i|^(n-k) bound_k];
    - the divisor is within 2 gamma_{n+N+3}, and the quotient rounds once.
    Cached on the IFS when first asked for, up to the highest order asked.
    """
    order = integer(order, "moment order", 0)
    if ifs._moments is None or len(ifs._moments[1]) <= order:
        geom = ifs.geometry
        if geom.kind != "euclidean" or geom.dim != 1:
            raise InputError("moments are derived for systems on the line")
        lo, hi = ifs.attractor_box()
        c = 0.5 * (lo[0] + hi[0])
        r, p, q = ifs.ratios, ifs.letter_weights, ifs.shifts[:, 0]
        d = q + r * c - c
        e = _gamma(3) * (np.abs(q) + 2.0 * abs(c))
        pascal, nk = _pascal(order)
        m = np.arange(order + 1)
        up = np.abs(d)
        powers = np.power.outer(np.stack([d, up, up + e]), m)
        powers[2, :, 1:] = m[1:] * e[:, np.newaxis] * powers[2, :, :-1]  # e_i(m)
        powers[2, :, 0] = 0.0
        rk = np.power.outer(r, m)
        # T[n, k] = C(n, k) sum_i p_i r_i^k x_i^(n-k) for each row x of powers
        signed, absolute, moved = (pascal * ((p[:, np.newaxis] * rk)[:, np.newaxis]
                                             * powers[:, :, nk]).sum(axis=1)).tolist()
        den = (1.0 - p @ rk).tolist()
        mu, size, bound = [1.0], [1.0], [0.0]
        for n in range(1, order + 1):
            num = sum(map(operator.mul, signed[n], mu))
            spread = (sum(map(operator.mul, moved[n], map(operator.add, size, bound)))
                      + sum(map(operator.mul, absolute[n], bound))
                      + _gamma(2 * n + len(r) + 8) * sum(map(operator.mul, absolute[n], size)))
            spread *= 1.0 + _gamma(3 * n)
            slack = 2.0 * _gamma(n + len(r) + 3)
            mu.append(num / den[n])
            size.append(abs(mu[-1]))
            bound.append((spread + size[-1] * slack) / (den[n] - slack) + 2.0 * _U * size[-1])
        ifs._moments = (c, np.array(mu), np.array(bound))
    c, mu, bound = ifs._moments
    return c, mu[:order + 1], bound[:order + 1]


def _check_budget(count: int):
    if count > IFS.DEFAULT_CELL_CAP:
        raise ResourceLimitError(f"refinement would need {count} cells, "
                                 f"over the budget {IFS.DEFAULT_CELL_CAP}")


def _cell_block(ifs: IFS, segments) -> CellBlock:
    """The cells of each ``(bases, depth)`` segment, in order.

    The maps of the cells below the bases are ``IFS._fold`` of the bases
    onto the depth-``depth`` words: each cell's map is S_b o S_u, the chunk
    fold of its base b composed once with the net entry of its suffix u.
    Each cell's node is the fixed point of its map.  The empty word (ratio 1)
    has no contraction to take a fixed point of; its node is f_1.
    """
    geom = ifs.geometry
    parts = [(np.empty(0), np.empty((0, geom.dim)), np.empty(0))]
    for bases, depth in segments:
        ratio, shift = ifs._fold(bases - 1, depth)
        weight = np.outer(np.prod(ifs.letter_weights[bases - 1], axis=1),
                          ifs.relative_net(depth)[2])
        parts.append((ratio.ravel(), shift.reshape(-1, geom.dim), weight.ravel()))
    ratio, shift, weight = map(np.concatenate, zip(*parts))
    root = ratio == 1.0  # the empty word, whose fixed-point formula divides by 0
    points = _fixed_points(geom, np.where(root, 0.0, ratio), shift)
    points[root] = ifs.letter_fixed_points[0]
    return CellBlock(weight, points, ratio, shift, segments, ifs)


def _word_segments(ifs: IFS, words, depth: int) -> list:
    """One ``(bases, depth)`` segment per run of equal-length words, in order."""
    words = [validate_word(w, n_letters=ifs.n_letters) for w in words]
    return [(np.array(list(run), dtype=np.int64), depth)
            for _, run in itertools.groupby(words, len)]


def cells_for_words(ifs: IFS, words) -> CellBlock:
    """Quadrature cells for an explicit list of words (lengths may differ)."""
    return _cell_block(ifs, _word_segments(ifs, words, 0))


def net(ifs: IFS, depth: int) -> CellBlock:
    """The full depth-``depth`` cylinder net in lexicographic order."""
    return region_cells(ifs, [()], depth)


def region_cells(ifs: IFS, base_words, depth: int) -> CellBlock:
    """Cells refining each base cylinder by ``depth`` extra letters.

    Order: base words first, then suffixes lexicographically within a base.
    """
    depth = integer(depth, "refinement depth", 0)
    segments = _word_segments(ifs, base_words, depth)
    _check_budget(sum(len(bases) for bases, _ in segments) * ifs.n_letters ** depth)
    return _cell_block(ifs, segments)


def _eval_f(f, points, cells=None, first=0):
    """Evaluate a vectorized integrand once on stacked points.

    ``f`` maps an (m, dim) array of points to m values.  Its own exceptions
    propagate; an output of another shape, or a non-finite value (labelled
    with its cell, or with its index counted from ``first``), raises
    ``EvaluationError``.
    """
    vals = np.asarray(f(points), dtype=float)
    if vals.shape != (len(points),):
        raise EvaluationError(f"integrand returned shape {vals.shape} for "
                              f"{len(points)} points, expected ({len(points)},)")
    if not np.all(np.isfinite(vals)):
        i = int(np.argmin(np.isfinite(vals)))
        where = (".".join(str(a) for a in cells.letters()[i] if a)  # 0 pads a row
                 if cells is not None else f"index {first + i}")
        raise EvaluationError(f"integrand returned a non-finite value on cell {where}")
    return vals


def integrate_cells(cells: CellBlock, f, lipschitz: float) -> QuadratureResult:
    """Bracketed integral of f, with Lipschitz constant ``lipschitz``, over the
    union of the given cells."""
    lipschitz = nonnegative(lipschitz, "Lipschitz constant")
    if cells.count == 0:
        return QuadratureResult(0.0, 0.0, 0, 0)
    return _cell_bracket(cells.weights, _eval_f(f, cells.points, cells),
                         lipschitz * cells.radii, cells.depth)


def integrate(ifs: IFS, f, lipschitz: float, depth: int) -> QuadratureResult:
    """Bracketed integral of f over the whole attractor at net depth ``depth``."""
    return integrate_cells(net(ifs, depth), f, lipschitz)


def integrate_cylinder(ifs: IFS, f, lipschitz: float, word,
                       depth: int) -> QuadratureResult:
    """Bracketed integral of f over one cylinder, refined ``depth`` letters."""
    return integrate_cells(region_cells(ifs, [word], depth), f, lipschitz)


def complement_base_words(excluded, n_letters: int) -> list:
    """Cylinders partitioning C minus C_excluded.

    For each prefix length j, the siblings that deviate from ``excluded`` at
    position j; outermost (shortest) first, letters ascending.
    """
    w = validate_word(excluded, n_letters=n_letters)
    out = []
    for j in range(len(w)):
        for e in range(1, n_letters + 1):
            if e != w[j]:
                out.append(w[:j] + (e,))
    return out


def integrate_complement(ifs: IFS, f, lipschitz: float, excluded,
                         depth: int) -> QuadratureResult:
    """Bracketed integral of f over C minus C_excluded."""
    bases = complement_base_words(excluded, ifs.n_letters)
    return integrate_cells(region_cells(ifs, bases, depth), f, lipschitz)


def _ball_cells(ifs: IFS, center, eps: float, depth: int, outer: float = math.inf):
    """The cells of the attractor in the shell eps <= d(center, .) <= outer.

    Each active cell carries its map (r_v, q_v) and [lo, hi], its certified
    distance to the center, narrowed at each level by the gauge bounds of its
    box as seen from the center (``IFS.cylinder_box``) and inherited by its
    children; the next level's maps are one composition of the split cells'
    maps with the letter maps.  Cells inside the shell are kept, refined to
    word length ``depth``, cells outside it dropped, and the others split
    until that length.  Returns the kept cells, the straddlers left then,
    and their lo.
    """
    geom = ifs.geometry
    center = geom.check_point(np.asarray(center, dtype=float))
    if center.ndim != 1:
        raise InputError("ball center must be a single point")
    eps = positive(eps, "ball radius eps")
    depth = integer(depth, "refinement depth", 0)

    n = ifs.n_letters
    letters = np.zeros((1, 0), dtype=np.int64)  # words of the active cells
    ratio, shift = np.ones(1), geom.identity()[np.newaxis]  # their maps
    lo, hi = 0.0, math.inf  # their certified distances to the center
    segments, n_kept = [], 0
    for level in range(depth + 1):
        near, far = geom.gauge_bounds(*ifs.cylinder_box(ratio, shift, center))
        lo, hi = np.maximum(lo, near), np.minimum(hi, far)
        kept = (lo >= eps) & (hi <= outer)
        split = ~kept & (hi > eps) & (lo < outer)
        m = depth - level
        n_out = int(np.count_nonzero(kept))
        if level < depth:
            _check_budget(n_kept + n_out * n ** m + len(letters) * n)
        if n_out:
            segments.append((letters[kept], m))
            n_kept += n_out * n ** m
        letters, lo, hi = letters[split], lo[split], hi[split]
        if level == depth or not len(letters):
            break
        letters = np.column_stack((np.repeat(letters, n, axis=0),
                                   np.tile(np.arange(1, n + 1), len(letters))))
        ratio, shift = _compose(geom, ratio[split, np.newaxis], shift[split, np.newaxis],
                                ifs.ratios, ifs.shifts)
        ratio, shift = ratio.ravel(), shift.reshape(-1, geom.dim)
        lo, hi = np.repeat(lo, n), np.repeat(hi, n)
    return _cell_block(ifs, segments), _cell_block(ifs, [(letters, 0)]), lo


def integrate_ball_complement(ifs: IFS, f, lipschitz: float, center, eps: float,
                              depth: int) -> QuadratureResult:
    """Bracketed integral of f over the attractor minus the ball B(center, eps).

    The cells kept outside the ball are integrated as usual.  Straddling
    cells left at word length ``depth`` are not split further: each adds
    mu(C_v) (|f(x_v)| + L d_v), a bound for |f| on it, to ``err``.
    """
    kept, straddlers, _ = _ball_cells(ifs, center, eps, depth)
    quad = integrate_cells(kept, f, lipschitz)
    err = quad.err
    if straddlers.count:
        svals = np.abs(_eval_f(f, straddlers.points, straddlers))
        err += _cell_bracket(straddlers.weights, 0.0,
                             svals + lipschitz * straddlers.radii, depth).err
    return QuadratureResult(quad.value, err, depth, kept.count + straddlers.count)


def mc_integrate(ifs: IFS, f, n_samples: int, seed: int):
    """Plain Monte Carlo mean of f under the natural measure.

    Samples are the points S_w(x0), x0 = f_1 the fixed point of S_1, of
    random words w, read row by row from the seed's letter stream (the
    letters of ``sample_orbit``) and truncated at a word length where the
    remaining displacement is below float resolution.  Each word is cut into
    chunks by ``IFS._chunks``, the cuts of ``IFS._fold``, whose codes come
    from one product with the IFS's vector of chunk place values, and its
    chunk maps are applied to points right to left: the last chunk's point
    is gathered from the table of S_u(x0) over the ``relative_net`` of its
    length, built
    once, and each earlier chunk's map S_u(p) = q_u * (scale(r_u) p) from
    that net's shift and ``scale`` rows.  No sample's map is composed.  When
    x0 is the origin (f_1 = 0) and the ratio products are exact (dyadic
    ratios), the points equal those of the chunk fold S_w applied to x0 bit
    for bit; otherwise they may differ from it in the last bits.  The stream
    is read ``_MC_BLOCK`` samples at a time and each block is evaluated into
    one array of values, so the working memory is one block plus 8 bytes per
    sample; a point's floats depend on its word alone, not on the block size.
    Returns ``(mean, stderr)`` with the usual ddof=1 standard error; the
    bracket is statistical, not certified.
    """
    n_samples = integer(n_samples, "n_samples", 2)
    r_max = float(np.max(ifs.ratios))
    depth = min(max(int(math.ceil(math.log(1e-12) / math.log(r_max))), 4), 256)
    geom = ifs.geometry
    draw = _letter_stream(ifs, seed)
    letters = np.empty(min(n_samples, _MC_BLOCK) * depth,
                       dtype=np.min_scalar_type(ifs.n_letters - 1))
    vals = np.empty(n_samples)
    points, maps = None, {}  # S_u(x0) of the last chunk; (shift, scale) per length
    for start in range(0, n_samples, _MC_BLOCK):
        m = min(_MC_BLOCK, n_samples - start)
        (length, code), *chunks = ifs._chunks(draw(letters[:m * depth]).reshape(m, depth))
        if points is None:
            ratio, shift, _ = ifs.relative_net(length)
            points = geom.op(shift, geom.dilate(ratio, ifs.letter_fixed_points[0]))
        pts = np.take(points, code, axis=0)
        for length, code in chunks:
            if length not in maps:
                ratio, shift, _ = ifs.relative_net(length)
                maps[length] = shift, geom.scale(ratio)
            shift, scale = maps[length]
            pts = geom.op(np.take(shift, code, axis=0), np.take(scale, code, axis=0) * pts)
        vals[start:start + m] = _eval_f(f, pts, first=start)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return mean, stderr

