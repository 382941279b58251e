"""Singular-integral drivers, assembled from one kernel-cell bracket.

``_bracket`` is the one place k(pole, .) is integrated: over a slice of
cells, value = sum_v w_v k(pole, x_v) and err = sum_v w_v err_v, err_v the
kernel's ``cell_err_bound`` on |k(pole, .) - k(pole, x_v)| over the cell at
the certified pole distance delta_v = d(pole, x_v) - d_v.  Both sums, like
every bracket here, are taken by ``measure._cell_bracket``.  A slice with a
cell not certified away from the pole gets value 0 and an infinite err, and
every sum containing it is
flagged ``unresolved-pole-distance`` rather than silently wrong.

Most regions are unions of annuli A_k = C_{w|k} minus C_{w|k+1} around a
coded pole pi(w): F_k over C minus C_{w|k} sums A_j for j < k, the
periodic-point integral over C minus C_w sums the first |w| annuli of w
repeated, a divergence block sums one period's annuli, and the cylinder term
of the ball comparison and the maximal sums T(m, n) sum consecutive annuli.
``_annuli`` builds their cells in one block and brackets each annulus as a
slice.  ``truncated`` and the ball term of the comparison bracket the cells
``measure._ball_cells`` keeps in a shell around the pole as one slice, their
certified pole distance floored by the inner radius.  Results are also
flagged when the system's separation cannot be certified, since cylinder
weights presume essentially disjoint branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, integer, positive
from .ifs import IFS
from .kernels import HomogeneousKernel
from .measure import (QuadratureResult, _ball_cells, _cell_bracket,
                      complement_base_words, region_cells)
from .symbolic import EPWord, validate_word

SEP_FLAG = "separation:"
POLE_FLAG = "unresolved-pole-distance"
PV_CSV_HEADER = "k,F_value,F_err,A_value,A_err,flag"


def _bracket(kern: HomogeneousKernel, pole, cells, size: int, depth: int,
             floor: float = 0.0) -> list:
    """Bracketed integrals of k(pole, .) over consecutive slices of ``size`` cells.

    A slice's value is sum_v w_v k(pole, x_v) and its err sum_v w_v err_v, with
    err_v from ``kern.cell_err_bound`` at delta_v = max(d(pole, x_v) - d_v,
    floor), the certified distance of cell v from the pole (``floor`` is one
    the caller has certified for every cell).  Omega, ||z_v||^-s and err_v
    are evaluated once over the block; a cell where delta_v <= 0 is not, and
    its slice is ``(0.0, inf)``.
    """
    geom = kern.geometry
    z = kern.displacement(pole, cells.points)
    dist = geom.norm(z)
    delta = np.maximum(dist - cells.radii, floor)
    keep = delta > 0.0
    live = slice(None) if keep.all() else keep  # views when every cell is kept
    z, dist, radii, delta = z[live], dist[live], cells.radii[live], delta[live]
    omega_z = kern.omega.eval(geom, z)
    inv_s = dist ** -kern.s
    err = kern.cell_err_bound(z, dist, delta, radii, omega_z, inv_s, floor > 0.0)
    value = np.multiply(omega_z, inv_s, out=inv_s)  # shares err's pow
    if live is keep:
        full = np.zeros((2, cells.count))
        full[:, keep] = value, err
        value, err = full
    parts = [slice(lo, lo + size) for lo in range(0, cells.count, size)]
    return [_cell_bracket(cells.weights[p], value[p], err[p], depth) if keep[p].all()
            else QuadratureResult(0.0, math.inf, depth, size) for p in parts]


def _annuli(ifs: IFS, kern: HomogeneousKernel, pole, w: EPWord, stop: int,
            depth: int, start: int = 0) -> list:
    """Bracketed integrals of k(pole, .) over A_k for start <= k < stop.

    The siblings of C_{w|k+1} are refined by ``depth`` letters and built in
    one cell block in annulus order, so A_k is a contiguous slice of
    (n - 1) n^depth cells.
    """
    n = ifs.n_letters
    bases = complement_base_words(w.prefix(stop), n)[start * (n - 1):]
    return _bracket(kern, pole, region_cells(ifs, bases, depth),
                    (n - 1) * n ** depth, depth)


def _total(parts, depth: int) -> QuadratureResult:
    """The sum of consecutive annuli; the empty sum is an exact zero."""
    return sum(parts, QuadratureResult(0.0, 0.0, depth, 0))


def _pole_flag(quad: QuadratureResult) -> str:
    return "" if math.isfinite(quad.err) else POLE_FLAG


def _separation(ifs: IFS):
    """The separation flag ("" when the gap is certified positive) and the
    node count and budget state of the search behind it.

    The gap is certified positive when its bracket shows no shared point
    and a positive lower end; only a flagged system runs ``check_separation``
    (and its diameter search), for the verdict the flag names."""
    gap = ifs._gap_bracket()
    flag = ("" if not gap.overlap and gap.lo > 0.0
            else SEP_FLAG + ifs.check_separation().status)
    return flag, {"nodes": gap.nodes, "budget_exhausted": gap.exhausted}


def _join_flags(*flags) -> str:
    return ";".join(f for f in flags if f)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---- PV trace ---------------------------------------------------------------


@dataclass(frozen=True)
class PVRow:
    k: int
    F: QuadratureResult
    A: QuadratureResult
    flag: str = ""


@dataclass
class PVTrace:
    """Rows (k, F_k, A_k) for k = 0..K-1, plus the final complement integral F_K."""

    word: EPWord
    point: np.ndarray
    rows: list
    f_final: QuadratureResult
    eta_estimate: QuadratureResult
    separation: str
    separation_search: dict
    depth: int

    def as_dict(self) -> dict:
        return {
            "word": self.word.to_config(),
            "point": [float(v) for v in self.point],
            "rows": [{"k": r.k, "F_value": r.F.value, "F_err": r.F.err,
                      "A_value": r.A.value, "A_err": r.A.err, "flag": r.flag}
                     for r in self.rows],
            "f_final": self.f_final.as_dict(),
            "eta_estimate": (None if self.eta_estimate is None
                             else self.eta_estimate.as_dict()),
            "separation": self.separation,
            "separation_search": self.separation_search,
            "depth": self.depth,
        }

    def to_csv_text(self) -> str:
        lines = [PV_CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.k},{_fmt(r.F.value)},{_fmt(r.F.err)},"
                         f"{_fmt(r.A.value)},{_fmt(r.A.err)},{r.flag}")
        return "\n".join(lines) + "\n"


def pv_trace(ifs: IFS, kern: HomogeneousKernel, w: EPWord, K: int,
             depth: int) -> PVTrace:
    """Truncation trace along the cylinders of ``w``.

    F_k integrates k(pi(w), .) over C minus C_{w|k} and A_k over the annulus
    C_{w|k} minus C_{w|k+1}; every base cylinder is refined by ``depth``
    extra letters.  Rows run k = 0..K-1 (F_0 = 0 exactly); the K-th
    complement integral is kept as ``f_final``.  F_k is the sum of the
    annuli A_j, j < k.  When the word is purely periodic, ``eta_estimate``
    sums the first period's worth of increments.
    """
    if not isinstance(w, EPWord):
        raise InputError("pv_trace expects an EPWord")
    K = integer(K, "K", 1)
    pole = ifs.code_point(w)
    sep_flag, sep_search = _separation(ifs)
    p = len(w.period) if w.is_periodic() else 0
    annuli = _annuli(ifs, kern, pole, w, max(K, p), depth)

    rows = []
    for k in range(K):
        F, A = _total(annuli[:k], depth), annuli[k]
        rows.append(PVRow(k, F, A, _join_flags(sep_flag, _pole_flag(F),
                                               _pole_flag(A))))
    eta = _total(annuli[:p], depth) if p else None
    return PVTrace(word=w, point=pole, rows=rows,
                   f_final=_total(annuli[:K], depth), eta_estimate=eta,
                   separation=sep_flag, separation_search=sep_search,
                   depth=depth)


# ---- periodic-point criterion ----------------------------------------------


@dataclass
class CriterionReport:
    """Certified test of the integral over C minus C_w at the periodic point of w."""

    word: tuple
    xi: np.ndarray
    result: QuadratureResult
    verdict: str
    separation: str
    separation_search: dict
    depth: int

    def as_dict(self) -> dict:
        return {
            "word": list(self.word),
            "xi": [float(v) for v in self.xi],
            "value": self.result.value,
            "err": self.result.err,
            "depth": self.depth,
            "cells": self.result.cells,
            "verdict": self.verdict,
            "separation": self.separation,
            "separation_search": self.separation_search,
        }


def criterion(ifs: IFS, kern: HomogeneousKernel, w, depth: int) -> CriterionReport:
    """Bracket I = int_{C minus C_w} k(xi_w, y) dmu(y) at the periodic point xi_w.

    Verdict: ``NonzeroCertified`` exactly when |I.value| > I.err.  The err is
    set to infinity when the separation or some cell's pole distance cannot
    be certified, which makes those cases ``Inconclusive``; otherwise a
    bracket containing zero reports ``ZeroWithinBracket``.
    """
    return _criterion(ifs, kern, validate_word(w, n_letters=ifs.n_letters), depth)[0]


def _criterion(ifs: IFS, kern: HomogeneousKernel, word: tuple, depth: int):
    """``criterion`` on a validated word, and the |w| annuli whose sum is its I."""
    if len(word) == 0:
        raise InputError("criterion word must be nonempty")
    xi = ifs.fixed_point(word)
    sep_flag, sep_search = _separation(ifs)
    annuli = _annuli(ifs, kern, xi, EPWord((), word), len(word), depth)
    quad = _total(annuli, depth)
    if sep_flag:
        quad = QuadratureResult(quad.value, math.inf, quad.depth, quad.cells)
    if abs(quad.value) > quad.err:
        verdict = "NonzeroCertified"
    elif not math.isfinite(quad.err):
        verdict = "Inconclusive"
    else:
        verdict = "ZeroWithinBracket"
    return CriterionReport(word=word, xi=xi, result=quad, verdict=verdict,
                           separation=sep_flag or _pole_flag(quad),
                           separation_search=sep_search, depth=depth), annuli


# ---- truncated integral ------------------------------------------------------


def truncated(ifs: IFS, kern: HomogeneousKernel, x, eps: float,
              depth: int) -> QuadratureResult:
    """T_eps(1)(x): bracketed integral of k(x, .) outside the ball B(x, eps)."""
    return _shell(ifs, kern, x, eps, math.inf, depth)


def _shell(ifs: IFS, kern: HomogeneousKernel, x, eps: float, outer: float,
           depth: int) -> QuadratureResult:
    """Bracketed integral of k(x, .) over the shell eps <= d(x, .) <= outer.

    The kept cells are one slice, their certified pole distance floored by eps
    less a rounding margin.  Straddling cells are not evaluated: each adds its
    mass times sup / max(delta_v, eps)^s, a bound for |k(x, .)| on its part of
    the shell, to ``err``, with delta_v its certified distance from x.
    """
    kept, straddlers, lo = _ball_cells(ifs, x, eps, depth, outer)
    sup = np.where(lo > eps, kern.omega_sup / np.maximum(lo, eps) ** kern.s,
                   kern.pole_sup(eps))  # the scalar keeps truncated's floats
    rest = _cell_bracket(straddlers.weights, 0.0, sup, depth)
    return _total(_bracket(kern, x, kept, max(kept.count, 1), depth,
                           floor=eps * (1.0 - 1e-12)) + [rest], depth)


# ---- symbolic maximal scan ---------------------------------------------------


@dataclass
class MaximalEstimate:
    """Scan of |int over C_{w|m} minus C_{w|n}| for 0 <= m < n <= max_n."""

    word: EPWord
    best: tuple
    table: list
    separation: str
    separation_search: dict
    depth: int

    def as_dict(self) -> dict:
        m, n, quad = self.best
        return {
            "word": self.word.to_config(),
            "best": {"m": m, "n": n, "value": quad.value, "err": quad.err},
            "table": [{"m": tm, "n": tn, "value": q.value, "err": q.err}
                      for tm, tn, q in self.table],
            "separation": self.separation,
            "separation_search": self.separation_search,
            "depth": self.depth,
        }


def maximal_symbolic(ifs: IFS, kern: HomogeneousKernel, w: EPWord, max_n: int,
                     depth: int) -> MaximalEstimate:
    """Scan all annulus sums T(m, n) = sum_{k=m}^{n-1} A_k and report the largest.

    A_k are the pv_trace increments, computed once and reused; best is the
    pair maximizing |T(m, n).value|, earliest pair on ties.
    """
    if not isinstance(w, EPWord):
        raise InputError("maximal_symbolic expects an EPWord")
    max_n = integer(max_n, "max_n", 2)
    pole = ifs.code_point(w)
    sep_flag, sep_search = _separation(ifs)

    annuli = _annuli(ifs, kern, pole, w, max_n, depth)
    table = [(m, n, _total(annuli[m:n], depth))
             for m in range(max_n) for n in range(m + 1, max_n + 1)]
    best = max(table, key=lambda entry: abs(entry[2].value))  # first on ties
    return MaximalEstimate(word=w, best=best, table=table,
                           separation=sep_flag, separation_search=sep_search,
                           depth=depth)


# ---- cylinder versus ball comparison ----------------------------------------


def ball_cylinder_gap(ifs: IFS, kern: HomogeneousKernel, w: EPWord, n: int,
                      m1: int, depth: int,
                      radius_factor: float = 2.0) -> QuadratureResult:
    """Gap between a cylinder annulus and the matching ball annulus around pi(w).

    The cylinder term integrates over C_{w|n} minus C_{w|n+m1*p} (p the
    period length); the ball term, in one pass, over the shell B_1 minus B_2
    with radii ``radius_factor`` times the certified diameters of those
    cylinders.  Returns |difference| with the combined bracket.  Requires the
    IFS to carry its open-set ball (``osc_ball``).
    """
    if ifs.osc_ball is None:
        raise ConfigError("ball_cylinder_gap needs the IFS osc_ball "
                          "(open-set ball) in the configuration")
    if not isinstance(w, EPWord):
        raise InputError("ball_cylinder_gap expects an EPWord")
    n, m1 = integer(n, "n", 1), integer(m1, "m1", 1)
    radius_factor = positive(radius_factor, "radius_factor")
    p = len(w.period)
    inner = n + m1 * p
    pole = ifs.code_point(w)

    cyl = _total(_annuli(ifs, kern, pole, w, inner, depth, start=n), depth)
    ball = _shell(ifs, kern, pole, radius_factor * ifs.cylinder_diam_hi(w.prefix(inner)),
                  radius_factor * ifs.cylinder_diam_hi(w.prefix(n)), inner + depth)

    return QuadratureResult(abs(cyl.value - ball.value), cyl.err + ball.err,
                            depth, cyl.cells + ball.cells)


# ---- divergence certificate ---------------------------------------------------


@dataclass
class DivergenceReport:
    """Finite-horizon certificate: constant increments plus linear growth."""

    word: tuple
    K: int
    status: str
    criterion: CriterionReport
    blocks: list
    f_final: QuadratureResult
    checks: dict
    reason: str

    def as_dict(self) -> dict:
        return {
            "word": list(self.word),
            "K": self.K,
            "status": self.status,
            "criterion": self.criterion.as_dict(),
            "blocks": [b.as_dict() for b in self.blocks],
            "f_final": None if self.f_final is None else self.f_final.as_dict(),
            "checks": self.checks,
            "reason": self.reason,
        }


def divergence_certificate(ifs: IFS, kern: HomogeneousKernel, w, K: int,
                           depth: int) -> DivergenceReport:
    """Certify linear growth of |F_K| at the periodic point of ``w``.

    Refuses unless the criterion integral eta over C minus C_w is
    NonzeroCertified.  Then checks that the block increments over
    C_{w^k} minus C_{w^k+1} agree pairwise within 2 (err_k + err_j) for
    k, j < K, and that |F_K| >= K |eta| - (K eta_err + F_err).  The first
    block reuses the criterion's annuli, so each annulus is built once.
    """
    word = validate_word(w, n_letters=ifs.n_letters)
    if len(word) == 0:
        raise InputError("divergence word must be nonempty")
    K = integer(K, "K", 1)
    crit, first = _criterion(ifs, kern, word, depth)
    if crit.verdict != "NonzeroCertified":
        return DivergenceReport(
            word=word, K=K, status="REFUSED", criterion=crit, blocks=[],
            f_final=None, checks={},
            reason=f"criterion verdict is {crit.verdict}, not NonzeroCertified")

    p = len(word)
    annuli = first + _annuli(ifs, kern, crit.xi, EPWord((), word), K * p, depth, start=p)
    blocks = [_total(annuli[k * p:(k + 1) * p], depth) for k in range(K)]

    # the largest excess of a pair's gap over its allowance; 0 when none exceeds it
    worst = max([0.0] + [abs(a.value - b.value) - 2.0 * (a.err + b.err)
                         for i, a in enumerate(blocks) for b in blocks[i + 1:]])
    pairwise_ok = worst <= 0.0

    f_final = _total(annuli, depth)
    eta = crit.result
    need = K * abs(eta.value) - (K * eta.err + f_final.err)
    growth_ok = abs(f_final.value) >= need

    status = "PASS" if (pairwise_ok and growth_ok) else "FAIL"
    reason = "" if status == "PASS" else \
        ("block increments disagree beyond brackets" if not pairwise_ok
         else "final complement integral below the certified growth bound")
    return DivergenceReport(
        word=word, K=K, status=status, criterion=crit, blocks=blocks,
        f_final=f_final,
        checks={"pairwise_ok": pairwise_ok, "pairwise_excess": worst,
                "growth_ok": growth_ok, "growth_bound": need,
                "f_final_abs": abs(f_final.value)},
        reason=reason)


# ---- witness integrand --------------------------------------------------------


class WitnessIntegrand:
    """The maximal-operator witness as a pointwise integrand.

    For a period word u starting with letter 1, the witness equals 1 at
    points whose coding first leaves the u-repetition track at a block-start
    position, and 0 otherwise.  ``_rule`` states that rule once, on rows of
    letters.  ``on_word`` applies it exactly to a finite word, returning None
    while the word is still a prefix of the u-track (undecided).  Calling the
    object on points decodes all their codings together, one letter per step
    by nearest preimage (unique off the boundary set for separated systems),
    and applies the rule to the letters so far until it decides each point;
    points undecided after ``_letters`` letters evaluate to 0 (a null set).
    ``bracket`` is the witness's own cell bound: the rule on each cell's
    letters decides where the node value may be trusted.

    Each inverse step multiplies rounding error by 1/r, or by 1/r^2 in a
    coordinate of degree 2, which enters the gauge through a square root.
    So at most ln(eps) / (2 D ln r_min) letters are decoded (eps the machine
    epsilon, D the largest coordinate degree): past that the decoding error
    would exceed eps^(1/(2D)).
    """

    def __init__(self, ifs: IFS, u):
        self.ifs = ifs
        self.u = validate_word(u, n_letters=ifs.n_letters)
        if len(self.u) == 0:
            raise InputError("witness period word must be nonempty")
        if self.u[0] != 1:
            raise InputError("witness period word must start with letter 1")
        degree = float(np.max(ifs.geometry.coord_degrees))
        r_min = float(np.min(ifs.ratios))
        letters = math.log(np.finfo(float).eps) / (2.0 * degree * math.log(r_min))
        self._letters = max(1, int(letters))

    def _rule(self, letters) -> np.ndarray:
        """Per row of 1-based letters (0 pads a row past its word's end): 1.0
        when its first off-track letter starts a block, 0.0 when it does not,
        nan while it is on the u-track."""
        pos = np.arange(letters.shape[1])
        track = np.asarray(self.u)[pos % len(self.u)]
        off = (letters != track) & (letters > 0)
        first = np.where(off, pos, len(pos)).min(axis=1, initial=len(pos))
        return np.where(first == len(pos), np.nan, first % len(self.u) == 0)

    def bracket(self, cells) -> QuadratureResult:
        """Bracketed integral of the witness over the cells of a ``CellBlock``.

        The witness is constant on a cell whose word ``_rule`` decides.  Such
        a cell counts its node value, from one call on every node, with err
        0 if the rule agrees and its full mass if not.  The undecided cell,
        the u-track prefix, counts half its mass with half its mass as err.
        """
        node = self(cells.points)
        rule = self._rule(cells.letters())
        undecided = np.isnan(rule)
        value = np.where(undecided, 0.5, node)
        err = np.where(undecided, 0.5, node != rule)
        return _cell_bracket(cells.weights, value, err, cells.depth)

    def on_word(self, word):
        """Exact value on a finite word: 1.0, 0.0, or None when undecided."""
        word = validate_word(word, n_letters=self.ifs.n_letters)
        value = float(self._rule(np.array([word], dtype=np.int64))[0])
        return None if math.isnan(value) else value

    def __call__(self, pts):
        """The witness at one point (a float) or at stacked points (an array)."""
        ifs = self.ifs
        geom = ifs.geometry
        pts = geom.check_point(np.asarray(pts, dtype=float))
        y = pts.reshape(-1, geom.dim)
        center, _ = ifs.attractor_bound()
        inv_ratio = (1.0 / ifs.ratios)[:, np.newaxis]
        inv_shift = geom.inv(ifs.shifts)[:, np.newaxis]
        out = np.zeros(len(y))
        live = np.arange(len(y))
        rows = np.zeros((len(y), 0), dtype=np.int64)
        for _ in range(self._letters):
            if not len(live):
                break
            pre = geom.dilate(inv_ratio, geom.op(inv_shift, y))
            letter = np.argmin(geom.dist(pre, center), axis=0)
            rows = np.hstack([rows, letter[:, np.newaxis] + 1])
            value = self._rule(rows)
            out[live] = value
            on = np.flatnonzero(np.isnan(value))
            y, live, rows = pre[letter[on], on], live[on], rows[on]
        out = np.nan_to_num(out).reshape(pts.shape[:-1])
        return float(out) if out.ndim == 0 else out
