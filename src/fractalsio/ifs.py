"""Iterated function systems of rotation-free similarities.

A system is a list of maps S_i(p) = q_i * dilate(r_i, p) on a common
geometry.  This module computes the similarity dimension, composes every
word's map (one word, a batch, or a batch of cylinders refined by every
suffix of one length) by one chunk fold: the word is cut into chunks of c
letters, c the largest with N^c <= 4096, each chunk's map is read from the
cached net of all words of its length, and the chunk maps are composed.
The cuts are ``IFS._chunks``, which the Monte Carlo sampler shares.  It
also codes eventually periodic words to attractor points, and produces
certified geometric brackets: an invariant coordinate box, a diameter
bracket, and a separation report.

A cylinder C_v is enclosed in S_v(E).  E = c +- h is the box of
``attractor_box``, which every map sends into itself (Hutchinson 1981): in
Euclidean coordinates, and in the group's (x, y), it spans the letters'
fixed points, each map being a homothety there; the group's t range follows
from the twist the maps add over that (x, y) box.  Every map is affine in
coordinates, so S_v(E) is again a box, centred at S_v(c); left translation
widens its t by the twist, which ``geometry.displacement_box`` bounds.
``cylinder_box`` gives that box as seen from a point, for the pair search
here, the ball splitter and the kernel rule.  Both brackets come from one
branch-and-bound search over pairs of cylinders, ``_pair_bracket``, each
witnessed from inside by the images S_v(f_i) of every letter's fixed point,
all attractor points.  ``displacement_box`` bounds the gauge of the
displacements between two boxes, from below for a pair's gap and from above
for its diameter.  The separation gap minimises over pairs from distinct
first-level branches, the diameter maximises over all pairs, and each step
splits both sides of one pair per bucket of tied keys in one broadcast.
Keys equal up to rounding tie and the deeper pair goes first, so the search
follows one extremal pair to depth instead of every tied pair
breadth-first.  Reported intervals are widened by a 1e-12 relative slack to
absorb float rounding.  The gap bracket is kept per system, and the drivers
decide separation from it alone; the diameter search runs only for
``check_separation``'s verdict and for cylinder diameter bounds.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InputError, config_section, integer, positive
from .geometry import geometry_from_config
from .symbolic import EPWord, validate_word

_FLOAT_SLACK = 1e-12
_REL_TOL = 1e-6
_DIAM_DEPTH = 60
_SEP_DEPTH = 12  # word length at which the separation search gives up
_MAX_NODES = 200000
_DIM_TOL = 1e-14
_DIM_MAX_ITER = 200
_CHUNK_NET = 1 << 12  # entries of the largest relative net a fold gathers from
_U = 2.0 ** -53  # the unit roundoff of a float


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): k roundings of relative error u
    compound to at most gamma_k."""
    return k * _U / (1.0 - k * _U)


def similarity_dimension(ratios) -> float:
    """Solve sum_i r_i^s = 1 for s > 0 to residual <= 1e-14.

    Safeguarded Newton iteration on the strictly decreasing map
    s -> sum r_i^s - 1, with a bisection fallback keeping a sign bracket.
    """
    r = np.asarray(ratios, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise InputError("need at least two contraction ratios")
    if not np.all((r > 0.0) & (r < 1.0)):
        raise InputError("contraction ratios must lie in (0, 1)")

    def f(s):
        return float(np.sum(r ** s)) - 1.0

    def fprime(s):
        return float(np.sum(r ** s * np.log(r)))

    lo, hi = 0.0, 1.0
    while f(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > 1e6:
            raise InputError("contraction ratios too close to 1")
    s = 0.5 * (lo + hi)
    for _ in range(_DIM_MAX_ITER):
        fs = f(s)
        if abs(fs) <= _DIM_TOL:
            return s
        if fs > 0.0:
            lo = s
        else:
            hi = s
        cand = s - fs / fprime(s)
        if not (lo < cand < hi):
            cand = 0.5 * (lo + hi)
        s = cand
    if abs(f(s)) <= 10 * _DIM_TOL:
        return s
    raise InputError("similarity dimension iteration failed to converge")


def _compose(geom, ratio_a, shift_a, ratio_b, shift_b):
    """(ratio, shift) of S_a o S_b, broadcasting over stacked maps.

    Dilations are group automorphisms, so q_a * dilate(r_a, q_b * dilate(r_b, p))
    is (q_a * dilate(r_a, q_b)) * dilate(r_a r_b, p).  Ratios broadcast like
    the leading axes of the shifts.
    """
    return ratio_a * ratio_b, geom.op(shift_a, geom.dilate(ratio_a, shift_b))


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fixed_points(geom, ratios, shifts):
    """Fixed points of p -> shift * dilate(ratio, p), vectorized over maps.

    For both supported geometries the twist contribution vanishes at the
    fixed point, giving the closed form x_j = q_j / (1 - r^(degree_j)), the
    power being the geometry's ``scale`` factor.  The division is taken a
    whole column at a time, as broadcasting over the short last axis is
    several times slower.
    """
    shifts = np.asarray(shifts, dtype=float)
    den = 1.0 - geom.scale(ratios)  # its last axis is 1 in Euclidean space
    out = np.empty(shifts.shape)
    for j in range(shifts.shape[-1]):
        np.divide(shifts[..., j], den[..., j % den.shape[-1]], out=out[..., j])
    return out


@dataclass(frozen=True)
class SeparationReport:
    """Certified separation verdict with the brackets that justify it, and
    the gap search's node count and whether it stopped at ``_MAX_NODES``.

    ``Overlapping`` means an exact shared attractor point across branches
    (an image of a fixed point in one branch equal to one in another), so the
    gap is certified to be 0 and the brackets are [0, 0]."""

    status: str
    gap_lo: float
    gap_hi: float
    maxdiam_lo: float
    maxdiam_hi: float
    depth: int
    nodes: int
    budget_exhausted: bool

    def certified_positive_gap(self) -> bool:
        return self.status in ("Separated", "StronglySeparated",
                               "SeparatedUnknownStrength")

    def as_dict(self) -> dict:
        return asdict(self)


_Bracket = namedtuple("_Bracket", "lo hi nodes overlap exhausted")


class IFS:
    """A finite system of similarities with its natural measure exponent.

    ``maps`` is a sequence of ``(ratio, shift)`` pairs, held as the arrays
    ``ratios`` and ``shifts``; letters are 1-based.  The measure exponent
    ``dim_s`` is always the similarity dimension of the ratios, so the letter
    weights r_i^s sum to 1 up to rounding.  Separation is never declared:
    it is certified from the maps by ``_gap_bracket`` and ``check_separation``.
    """

    DEFAULT_CELL_CAP = 1 << 24

    def __init__(self, geometry, maps):
        self.geometry = geometry
        try:
            pairs = [(ratio, shift) for ratio, shift in maps]
        except (TypeError, ValueError):
            raise InputError("maps must be a sequence of (ratio, shift) pairs") from None
        if len(pairs) < 2:
            raise InputError("an IFS needs at least two maps")
        self.ratios = np.array([positive(ratio, f"contraction ratio of map {i}", 1.0)
                                for i, (ratio, _) in enumerate(pairs)])
        shifts = [geometry.check_point(shift) for _, shift in pairs]
        if any(shift.ndim != 1 for shift in shifts):
            raise InputError("map shift must be a single point")
        self.shifts = np.stack(shifts)
        self.n_letters = len(pairs)

        self.dim_s = similarity_dimension(self.ratios)
        self.letter_weights = self.ratios ** self.dim_s
        self.letter_fixed_points = _fixed_points(geometry, self.ratios, self.shifts)

        self._box = None
        self._diam = None
        self._gap = None
        self._sep = None
        self._moments = None  # measure.moments, filled when first asked for
        self._nets = {0: _frozen(np.ones(1), geometry.identity()[np.newaxis],
                                 np.ones(1))}
        self._chunk = 1
        while self.n_letters ** (self._chunk + 1) <= _CHUNK_NET:
            self._chunk += 1
        self._place = (float(self.n_letters) ** np.arange(self._chunk - 1, -1, -1)
                       ).astype(np.float32)  # place values of a chunk's letters

    # ---- words and composition -------------------------------------------

    def compose(self, word):
        """``(ratio, shift)`` of the similarity S_{w_1} o ... o S_{w_n}, which
        maps p to shift * dilate(ratio, p); the word must be nonempty."""
        w = validate_word(word, n_letters=self.n_letters)
        if not w:
            raise InputError("cannot compose the empty word")
        ratio, shift = self._fold(np.array([w], dtype=np.int64) - 1, 0)
        return float(ratio[0, 0]), shift[0, 0]

    def relative_net(self, depth: int):
        """Ratios, shifts and weights of S_u for every word u of length ``depth``.

        Lexicographic order.  Depth d is built from the cached depth d - 1 by
        prepending a letter, S_{e u} = S_e o S_u, one composition per new
        depth, so each entry is the right fold of its word from the identity.
        Cached per depth (the cached depths are 0 to len(self._nets) - 1);
        the arrays are read-only.
        """
        depth = integer(depth, "net depth", 0)
        geom = self.geometry
        for d in range(len(self._nets), depth + 1):
            ratio, shift, weight = self._nets[d - 1]
            ratio, shift = _compose(geom, self.ratios[:, np.newaxis],
                                    self.shifts[:, np.newaxis], ratio, shift)
            self._nets[d] = _frozen(ratio.ravel(), shift.reshape(-1, geom.dim),
                                    np.outer(self.letter_weights, weight).ravel())
        return self._nets[depth]

    def _chunks(self, idx: np.ndarray) -> list:
        """The chunks of the rows of ``idx`` (0-based letters, shape (M, L)),
        right to left, as ``(length, code)``: the rows are cut into chunks of
        ``self._chunk`` letters aligned at their right end (the first chunk
        may be shorter), and ``code`` (M,) is each row's chunk read as a
        base-N number, its index in the ``relative_net`` of its length.

        Each row is left-padded with zeros to a multiple of c letters, which
        leaves every code unchanged, and read chunk-major as rows of c
        letters; all codes come from one product of those rows with the
        float32 vector of the c place values.  The product is exact: every
        code and every partial sum is an integer below 4096, far below 2^24.
        """
        c = self._chunk
        rows, length = idx.shape
        pad = -length % c
        if pad:
            padded = np.zeros((rows, length + pad), dtype=idx.dtype)
            padded[:, pad:] = idx
            idx = padded
        width = (length + pad) // c
        codes = (idx.reshape(rows * width, c) @ self._place).astype(np.intp)
        codes, last = codes.reshape(rows, width), width - 1
        return [(min(end, c), codes[:, last - j])
                for j, end in enumerate(range(length, 0, -c))]

    def _fold(self, idx: np.ndarray, depth: int):
        """Ratios (M, N^depth) and shifts (M, N^depth, dim) of S_w o S_u for each
        row w of ``idx`` (0-based, shape (M, L)) and word u of length ``depth``,
        u in lexicographic order.

        w is cut into chunks by ``_chunks``; each chunk's map is gathered
        from the cached ``relative_net`` of its length, the chunk maps are
        composed right to left into S_w, and S_w is composed once onto every
        S_u (at depth 0, u is empty and S_w is returned as it is).  A row's
        floats depend on its letters only, not on M.  The empty word leaves
        every row the shared depth-``depth`` net itself.
        """
        geom, rows = self.geometry, len(idx)
        state = None
        for length, code in self._chunks(idx):
            ratio, shift, _ = self.relative_net(length)
            chunk = ratio[code], np.take(shift, code, axis=0)
            state = chunk if state is None else _compose(geom, *chunk, *state)
        ratio, shift, _ = self.relative_net(depth)
        if state is None:
            return (np.broadcast_to(ratio, (rows,) + ratio.shape),
                    np.broadcast_to(shift, (rows,) + shift.shape))
        state = state[0][:, np.newaxis], state[1][:, np.newaxis]
        return _compose(geom, *state, ratio, shift) if depth else state

    def compose_batch(self, idx: np.ndarray):
        """Ratios and shifts of S_{w_1} o ... o S_{w_L} for the rows w of ``idx``
        (0-based, shape (M, L)), from ``_fold``."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 2:
            raise InputError("word index array must be 2-d")
        n = self.n_letters
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise InputError(f"word indices must lie in 0..{n - 1}")
        ratio, shift = self._fold(idx, 0)
        return ratio[:, 0], shift[:, 0]

    def apply_word(self, word, pts):
        ratio, shift = self.compose(word)
        return self.geometry.op(shift, self.geometry.dilate(ratio, pts))

    def word_ratio(self, word) -> float:
        idx = np.asarray(validate_word(word, n_letters=self.n_letters), dtype=np.intp)
        return float(np.prod(self.ratios[idx - 1]))

    def word_weight(self, word) -> float:
        """Natural-measure weight of the cylinder addressed by ``word``."""
        idx = np.asarray(validate_word(word, n_letters=self.n_letters), dtype=np.intp)
        return float(np.prod(self.letter_weights[idx - 1]))

    def fixed_point(self, word) -> np.ndarray:
        """The unique fixed point of S_w; lies on the attractor."""
        ratio, shift = self.compose(word)
        return _fixed_points(self.geometry, ratio, shift)

    def code_point(self, w) -> np.ndarray:
        """Point addressed by the eventually periodic word ``w``: the shift-0
        row of ``code_points``, exact up to float rounding rather than
        truncation."""
        return self.code_points(w, [0])[0][0]

    def code_points(self, w, shifts) -> tuple:
        """The points pi(sigma^j w) for the shifts 0 <= j < |pre| + p in
        ``shifts`` (p the period length), each from its own shifted word, and
        on the line bounds on their rounding (0 elsewhere).

        A shift j >= |pre| is a rotation of the period, and its point is the
        fixed point of the rotation's map, so S_pre's rounding never enters
        it; an earlier shift's point is S_{w_{j+1}} of the next one.  On the
        line the fixed point x of S = S_rot, r_S its ratio, satisfies x - pi =
        (x - S(x)) / (1 - r_S), and S(x) applied letter by letter, y -> r_i y
        + q_i, is within u sum (|r_i y| + |r_i y + q_i|) of its float, later
        letters only contracting earlier errors; one letter map takes a bound
        e to r e + u (|r y| + |r y + q|).
        """
        if not isinstance(w, EPWord):
            raise InputError("code_point expects an EPWord")
        validate_word(w.pre + w.period, n_letters=self.n_letters)
        geom = self.geometry
        pre, p = len(w.pre), len(w.period)
        rot = np.array([w.period[i:] + w.period[:i] for i in range(p)]) - 1
        ratio, shift = self._fold(rot, 0)
        fixed = _fixed_points(geom, ratio[:, 0], shift[:, 0])
        err = np.zeros(p)
        line = geom.kind == "euclidean" and geom.dim == 1
        if line:
            x = y = fixed[:, 0]
            size = np.zeros(p)
            for col in range(p - 1, -1, -1):
                step = self.ratios[rot[:, col]] * y
                y = step + self.shifts[rot[:, col], 0]
                size += np.abs(step) + np.abs(y)
            err = ((np.abs(x - y) + _U * size) * (1.0 + _gamma(4))
                   / (1.0 - ratio[:, 0] * (1.0 + _gamma(p + 2))))
        points = {pre + i: (fixed[i], err[i]) for i in range(p)}
        for j in range(pre - 1, min(shifts) - 1, -1):
            (x, e), a = points[j + 1], w.pre[j] - 1
            step = geom.dilate(self.ratios[a], x)
            y = geom.op(self.shifts[a], step)
            points[j] = y, ((self.ratios[a] * e + _U * float(abs(step[0]) + abs(y[0])))
                            * (1.0 + _gamma(2)) if line else 0.0)
        pts, errs = zip(*(points[j] for j in shifts))
        return np.array(pts), np.array(errs)

    # ---- certified geometry ------------------------------------------------

    def attractor_box(self):
        """A coordinate box (lo, hi) that every map sends into itself, hence
        holding the attractor (Hutchinson 1981).

        In Euclidean coordinates, and in the group's (x, y), each map is the
        homothety r_i p + (1 - r_i) f_i about its fixed point f_i, so it sends
        the box spanned by the letters' fixed points into itself.  In the
        group, S_i moves t to q_t + r_i^2 t + r_i (q_x y - q_y x) / 2, which
        over the (x, y) box c +- h lies in m_i + r_i^2 t +- w_i with m_i = q_t
        + r_i (q_x c_y - q_y c_x) / 2 and w_i = r_i (|q_x| h_y + |q_y| h_x) / 2;
        so every map sends t in [min_i (m_i - w_i) / (1 - r_i^2), max_i (m_i +
        w_i) / (1 - r_i^2)] into that range.  Float slack relative to the
        largest coordinate widens the fixed points' span before t is derived
        from it, and then t; each map keeps the widened box, with a margin of
        at least (1 - r_i) times the slack for rounding.  The box is kept.
        """
        if self._box is None:
            fp = self.letter_fixed_points
            pad = _FLOAT_SLACK * float(np.max(np.abs(fp)))
            lo, hi = fp.min(axis=0) - pad, fp.max(axis=0) + pad
            if self.geometry.kind == "heisenberg1":
                c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
                q, r = self.shifts, self.ratios
                m = q[:, 2] + 0.5 * r * (q[:, 0] * c[1] - q[:, 1] * c[0])
                w = 0.5 * r * (np.abs(q[:, 0]) * h[1] + np.abs(q[:, 1]) * h[0])
                t_lo = float(np.min((m - w) / (1.0 - r * r)))
                t_hi = float(np.max((m + w) / (1.0 - r * r)))
                pad = _FLOAT_SLACK * max(abs(t_lo), abs(t_hi))
                lo[2], hi[2] = t_lo - pad, t_hi + pad
            self._box = _frozen(lo, hi)
        return self._box

    def cylinder_box(self, ratio, shift, p):
        """(z, H) with every displacement from the point p to the box S_v(E),
        S_v = (``ratio``, ``shift``), in z +- H, oriented like
        ``HomogeneousKernel.displacement`` (p - y, or p^{-1} * y in the group).
        As p^{-1} * S_v(e) = (p^{-1} * q_v) * dilate(r_v, e), these are the
        ``geometry.displacement_box`` between dilate(r_v, c) +- scale(r_v) h
        and the point (p^{-1} * q_v)^{-1}: z = p - S_v(c) and H = r_v h in
        Euclidean space, and the group's t is widened by r_v (|a_x| h_y + |a_y|
        h_x) / 2, a = p^{-1} * q_v, which grows with the displacement, not |p|.
        """
        geom = self.geometry
        lo, hi = self.attractor_box()
        scale = geom.scale(ratio)  # its last axis is 1 in Euclidean space
        centre, half = np.empty(np.shape(shift)), np.empty(np.shape(shift))
        for j in range(geom.dim):  # dilate(r_v, c) +- scale(r_v) h, a whole column at a time
            np.multiply(scale[..., j % scale.shape[-1]], 0.5 * (lo[j] + hi[j]), out=centre[..., j])
            np.multiply(scale[..., j % scale.shape[-1]], 0.5 * (hi[j] - lo[j]), out=half[..., j])
        if geom.kind != "euclidean":
            return geom.displacement_box(centre, half, geom.inv(geom.op(geom.inv(p), shift)),
                                         np.zeros(geom.dim))
        centre += shift  # S_v(c), then p - S_v(c) in place
        for j in range(geom.dim):
            np.subtract(p[j], centre[..., j], out=centre[..., j])
        return centre, half

    def diam_bracket(self):
        """Certified interval [lo, hi] containing the attractor diameter."""
        if self._diam is None:
            pairs = itertools.combinations_with_replacement(range(self.n_letters), 2)
            br = _pair_bracket(self, pairs, -1, _DIAM_DEPTH)
            self._diam = (br.lo, br.hi)
        return self._diam

    def cylinder_diam_hi(self, word) -> float:
        """Certified upper bound on the diameter of the cylinder of ``word``."""
        return self.word_ratio(word) * self.diam_bracket()[1]

    def _gap_bracket(self) -> _Bracket:
        """The bracket of the least distance between first-level cylinders of
        distinct letters, from one pair search kept per system."""
        if self._gap is None:
            pairs = itertools.combinations(range(self.n_letters), 2)
            self._gap = _pair_bracket(self, pairs, +1, _SEP_DEPTH)
        return self._gap

    def check_separation(self) -> SeparationReport:
        """Classify the overlap structure of the first-level cylinders.

        Verdicts: ``Overlapping`` on an exact shared attractor point across
        branches (touching intervals share their end point, so they overlap
        here); ``Inconclusive`` when the cross-branch gap cannot be
        certified positive by word length ``_SEP_DEPTH`` (12); otherwise the
        certified gap bracket is compared with the bracket for the largest
        first-level cylinder diameter.  ``StronglySeparated`` when the gap is
        certified at least that diameter, or when the search converged and
        the gap bracket reaches the diameter bracket (so exact ties resolve);
        ``Separated`` when the gap is certified smaller; otherwise, as after
        a search stopped by ``_MAX_NODES``, ``SeparatedUnknownStrength``.
        The gap bracket is ``_gap_bracket``'s, and the report is kept.
        """
        if self._sep is not None:
            return self._sep
        gap = self._gap_bracket()
        dlo, dhi = self.diam_bracket()
        rmax = float(np.max(self.ratios))
        md_lo, md_hi = rmax * dlo, rmax * dhi
        lo, hi = gap.lo, gap.hi
        if gap.overlap:
            status, lo, hi = "Overlapping", 0.0, 0.0
        elif gap.lo <= 0.0:
            status, lo = "Inconclusive", 0.0
        elif gap.lo >= md_hi or (not gap.exhausted and gap.hi >= md_lo):
            status = "StronglySeparated"
        elif gap.hi < md_lo:
            status = "Separated"
        else:
            status = "SeparatedUnknownStrength"
        self._sep = SeparationReport(status, lo, hi, md_lo, md_hi, _SEP_DEPTH,
                                     gap.nodes, gap.exhausted)
        return self._sep

    # ---- config --------------------------------------------------------------

    def to_config(self) -> dict:
        return {
            "geometry": self.geometry.to_config(),
            "maps": [{"r": float(r), "q": [float(x) for x in q]}
                     for r, q in zip(self.ratios, self.shifts)],
            "s": self.dim_s,
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "IFS":
        if not isinstance(cfg, dict):
            raise ConfigError("IFS config must be a dict")
        if "geometry" not in cfg or "maps" not in cfg:
            raise ConfigError("IFS config needs 'geometry' and 'maps'")
        geom = geometry_from_config(cfg["geometry"])
        if not isinstance(cfg["maps"], list):
            raise ConfigError("'maps' must be a list of maps")
        maps = []
        for i, m in enumerate(cfg["maps"]):
            if not isinstance(m, dict) or "r" not in m or "q" not in m:
                raise ConfigError(f"map {i} must be a dict with 'r' and 'q'")
            with config_section(f"maps.{i}"):
                maps.append((positive(m["r"], "contraction ratio", 1.0),
                             np.asarray(m["q"], dtype=float)))
        ifs = cls(geom, maps)
        if cfg.get("s") is not None:  # written by to_config; checked, never used
            with config_section("s"):
                declared = positive(cfg["s"], "declared exponent s")
            if abs(declared - ifs.dim_s) > 1e-8:
                raise ConfigError(f"declared exponent {declared!r} disagrees with the "
                                  f"similarity dimension {ifs.dim_s!r}")
        return ifs

    def __repr__(self) -> str:
        return (f"IFS({self.geometry!r}, n_letters={self.n_letters}, "
                f"s={self.dim_s:.12g})")


# ---- branch and bound over cylinder pairs ----------------------------------


def _pair_bracket(ifs, first_pairs, sign, max_depth) -> _Bracket:
    """Bracket the least (sign = +1) or greatest (sign = -1) distance between
    the two cylinders of a pair, over all pairs of words extending the
    0-based letter pairs ``first_pairs``.

    Cylinder C_v is enclosed in its box S_v(E) as seen from the identity,
    ``IFS.cylinder_box``: centred at S_v(c) (negated in Euclidean space),
    with half-widths r h, and in the group (r h_x, r h_y, r^2 h_t + r (|q_x|
    h_y + |q_y| h_x) / 2); the orientation does not change a distance
    between two boxes.  A pair's key is
    the gauge bound of ``displacement_box`` between its two boxes,
    norm(max(|z| - H, 0)) for a gap and norm(|z| + H) for a diameter, and
    its witness is the nearest (or farthest) of the n^2 distances between
    the images S_u(f_i) and S_v(f_j) of the letters' fixed points, all
    attractor points.  A cylinder is a row (ratio, shift, box center,
    half-widths, n images), stored once when the cylinder is made; a heap
    entry names a pair by its array of pair rows and its row.  Keys and the
    best witness are kept as sign * distance, so both searches pop the
    smallest key; entries that cannot beat the witness are dropped.  Keys in
    one bucket of width ``_FLOAT_SLACK * r0`` tie, r0 = ||h||, and a tie pops
    the deeper pair first, then the older one: many pairs of a self-similar
    set share the extreme distance up to rounding, and refining one of them
    to depth moves the witness where breadth-first order would not.  Each step pops at most
    one entry per bucket, in heap order, and splits both sides of every
    popped pair with every map at once (n^2 children); once the witness is
    exact, the pairs that must be split are those with keys below it by more
    than the tolerance, so their order does not matter.  The reported bound
    is the least key left on the heap, not its bucket.  The search stops
    when the top key is within ``_REL_TOL`` of the witness, when the top pair
    is at ``max_depth``, or after ``_MAX_NODES`` nodes, which sets
    ``exhausted``.  ``overlap`` marks a zero witness distance in a gap search.
    """
    geom = ifs.geometry
    lo, hi = ifs.attractor_box()
    r0 = float(geom.norm(0.5 * (hi - lo)))
    d, n = geom.dim, ifs.n_letters
    shift, center, halves, images = (slice(1, 1 + d), slice(1 + d, 1 + 2 * d),
                                     slice(1 + 2 * d, 1 + 3 * d), slice(1 + 3 * d, None))
    # r0 is 0 only on a one-point attractor, where every key is 0
    width = _FLOAT_SLACK * r0 or 1.0
    heap, count = [], itertools.count()
    best, nodes, exhausted = math.inf, 0, False

    def cylinders(ratio, shifts):
        box = ifs.cylinder_box(ratio, shifts, geom.identity())
        points = geom.op(shifts[..., np.newaxis, :],
                         geom.dilate(ratio[..., np.newaxis], ifs.letter_fixed_points))
        return np.concatenate([ratio[..., np.newaxis], shifts, *box,
                               points.reshape(ratio.shape + (-1,))], axis=-1)

    def push(pairs, depth):
        nonlocal best, nodes
        u, v = pairs[:, 0], pairs[:, 1]
        nodes += len(pairs)
        z, spread = geom.displacement_box(u[:, center], u[:, halves],
                                          v[:, center], v[:, halves])
        keys = sign * geom.norm(np.maximum(np.abs(z) - sign * spread, 0.0))
        ui = u[:, images].reshape(-1, n, 1, d)
        vi = v[:, images].reshape(-1, 1, n, d)
        best = min(best, float(np.min(sign * geom.dist(ui, vi))))
        keep = keys < best
        pairs = pairs[keep]
        for k, (key, deep) in enumerate(zip(keys[keep].tolist(), depth[keep].tolist())):
            heapq.heappush(heap, (key // width, -deep, next(count), key, pairs, k))

    def top():
        while heap and heap[0][3] >= best:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def final(entry):
        return (best - entry[3] <= max(_REL_TOL * abs(best), 1e-15 * r0)
                or -entry[1] >= max_depth)

    firsts = cylinders(ifs.ratios, ifs.shifts)
    uks, vks = map(list, zip(*first_pairs))
    push(np.stack([firsts[uks], firsts[vks]], axis=1), np.ones(len(uks), dtype=np.int64))

    while True:
        batch = []
        while ((entry := top()) is not None and not final(entry)
               and nodes + n * n * len(batch) < _MAX_NODES
               and not (batch and entry[0] == batch[-1][0])):
            batch.append(heapq.heappop(heap))
        if not batch:
            exhausted = entry is not None and not final(entry)
            break
        rows = np.stack([e[4][e[5]] for e in batch])
        kids = cylinders(*_compose(geom, rows[:, :, :1], rows[:, :, np.newaxis, shift],
                                   ifs.ratios, ifs.shifts))
        # kids[b, 0, i] is S_{u i} and kids[b, 1, j] is S_{v j}; child i * n + j
        # of pair b is (S_{u i}, S_{v j})
        pairs = np.stack([kids[:, 0].repeat(n, axis=1), np.tile(kids[:, 1], (1, n, 1))],
                         axis=2)
        push(pairs.reshape(-1, 2, kids.shape[-1]), np.repeat([1 - e[1] for e in batch], n * n))

    bound = min([best] + [entry[3] for entry in heap])
    lo, hi = (bound, best) if sign > 0 else (-best, -bound)
    slack = _FLOAT_SLACK * (r0 + hi)
    return _Bracket(max(0.0, lo - slack), hi + slack, nodes,
                    overlap=sign > 0 and best == 0.0, exhausted=exhausted)
