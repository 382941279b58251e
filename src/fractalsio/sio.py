"""Singular-integral drivers, assembled from kernel-cell brackets.

``_bracket`` is the first-order rule for k(pole, .): over a block of cells,
value = sum_v w_v k(pole, x_v) and err = sum_v w_v err_v, err_v the kernel's
``cell_err_bound`` on |k(pole, .) - k(pole, x_v)| over the cell's box S_v(E)
as seen from the pole, which gives its certified pole distance.  On the line,
``_line_annuli`` integrates each cell instead by an expansion about its box
centre from the exact moments of the measure, with a certified remainder.
Both sums of every bracket here are taken by ``measure._cell_bracket``.  A
bracket with a cell not certified away from the pole gets value 0 and an
infinite err, and every sum containing it is flagged
``unresolved-pole-distance`` rather than silently wrong.

Most regions are unions of annuli A_k = C_{w|k} minus C_{w|k+1} around a
coded pole pi(w): F_k over C minus C_{w|k} sums A_j for j < k, the
periodic-point integral over C minus C_w sums the first |w| annuli of w
repeated, a divergence block sums one period's annuli, and the cylinder term
of the ball comparison and the maximal sums T(m, n) sum consecutive annuli.
``_annuli`` brackets them in the shifted frame.  Let u = w|k, a = w_{k+1}
and v = sigma^k w.  Then C_u minus C_{ua} = S_u(C minus C_a), the measure on
C_u is p_u (S_u)_* mu, and k(S_u x, S_u y) = r_u^-s k(x, y): Omega is
0-homogeneous, the maps do not rotate, and in the group (S_u x)^-1 (S_u y)
= delta_{r_u}(x^-1 y).  So

    A_k = p_u r_u^-s int_{C minus C_a} k(pi(v), y) dmu(y),

a unit-scale annulus at the shifted pole times a factor that is 1 when s is
the similarity dimension, up to its rounding, which goes into err.  An
eventually periodic w has at most |pre| + p distinct shifts, each bracketed
once, and no displacement is formed at scale r^k.  ``truncated`` and the
ball term of the comparison bracket the cells ``measure._ball_cells`` keeps
in a shell around the pole as one block, their certified pole distance
floored by the inner radius.  Every driver that sums annuli is also flagged,
through ``_annuli``, when the system's separation cannot be certified, since
cylinder weights presume essentially disjoint branches; the shell needs no
such check, as mu = sum_v p_v (S_v)_* mu holds with or without overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, integer, positive
from .ifs import IFS, _U, _gamma
from .kernels import HomogeneousKernel
from .measure import QuadratureResult, _ball_cells, _cell_bracket, moments, region_cells
from .symbolic import EPWord, validate_word

SEP_FLAG = "separation:"
POLE_FLAG = "unresolved-pole-distance"
PV_CSV_HEADER = "k,F_value,F_err,A_value,A_err,flag"


def _bracket(kern: HomogeneousKernel, pole, cells, depth: int,
             floor: float = 0.0) -> QuadratureResult:
    """The first-order bracket of k(pole, .) over ``cells``.

    The value is sum_v w_v k(pole, x_v) and the err sum_v w_v err_v, err_v
    from ``kern.cell_err_bound`` over the cell's box z +- H as seen from the
    pole (``IFS.cylinder_box``), centred at the node's displacement z_v as
    z_v +- (|z - z_v| + H), with the gauge bounds delta_v = max(norm(max(|z|
    - H, 0)), floor), the certified distance of cell v from the pole
    (``floor`` is one the caller has certified for every cell), and norm(|z|
    + H).  Omega, ||z_v||^-s and err_v are evaluated once over the block.
    When some cell has delta_v <= 0 the bracket is ``(0.0, inf)``.
    """
    geom = kern.geometry
    box, half = cells.ifs.cylinder_box(cells.ratios, cells.shifts, pole)
    lo, hi = geom.gauge_bounds(box, half)
    lo = np.maximum(lo, floor, out=lo)
    if not (lo > 0.0).all():
        return QuadratureResult(0.0, math.inf, depth, cells.count)
    z = kern.displacement(pole, cells.points)
    dist = geom.norm(z)
    box -= z
    half += np.abs(box, out=box)  # node-centred half-widths
    omega_z = kern.omega.eval(geom, z, dist)
    inv_s = dist ** -kern.s
    err = kern.cell_err_bound(z, dist, half, lo, hi, omega_z, inv_s)
    value = np.multiply(omega_z, inv_s, out=inv_s)  # shares err's pow
    return _cell_bracket(cells.weights, value, err, depth)


def _annuli(ifs: IFS, kern: HomogeneousKernel, w: EPWord, stop: int, depth: int,
            start: int = 0) -> tuple:
    """Bracketed integrals of k(pi(w), .) over A_k for start <= k < stop, with
    the system's separation flag and search record (``_separation``).

    The cylinder weights below presume essentially disjoint branches, so every
    driver that sums annuli reads the flag from here.

    A_k = p_u r_u^-s U_j, u = w|k, with U_j the unit-scale annulus of the
    distinct shift j of k (``IFS.code_points``): an eventually periodic word has
    at most |pre| + p of them, each bracketed once, by ``_line_annuli`` on the
    line and by ``_bracket`` over C minus C_a refined ``depth`` letters
    elsewhere (the cells built once per letter a).  The factor is the float
    product of g_i = p_i r_i^-s over u, within gamma_{4k} of the exact one
    (a pow and a product per letter, a product per step), so A_k carries
    f err_j + gamma_{4k+4} f (|value_j| + err_j).  A result counts the cells
    actually evaluated: a row that reuses an earlier row's unit annulus counts
    none.
    """
    depth = integer(depth, "refinement depth", 0)
    sep_flag, sep_search = _separation(ifs)
    pre, p = len(w.pre), len(w.period)
    rotations = [w.period[i:] + w.period[:i] for i in range(p)]
    keys = [k if k < pre else pre + rotations.index(rotations[(k - pre) % p])
            for k in range(start, stop)]
    shifts = sorted(set(keys))
    poles, pole_err = ifs.code_points(w, shifts)
    word = w.prefix(stop)
    letters = [word[j] for j in shifts]
    geom = ifs.geometry
    if geom.kind == "euclidean" and geom.dim == 1:
        units = _line_annuli(ifs, kern, poles[:, 0], pole_err, letters, depth)
    else:
        n = ifs.n_letters
        cells = {a: region_cells(ifs, [(e,) for e in range(1, n + 1) if e != a], depth)
                 for a in set(letters)}
        units = [_bracket(kern, pole, cells[a], depth) for pole, a in zip(poles, letters)]
    units = dict(zip(shifts, units))
    g = ifs.letter_weights * ifs.ratios ** -kern.s
    f = math.prod(g[np.array(word[:start], dtype=np.intp) - 1].tolist())
    out, seen = [], set()
    for k, j in zip(range(start, stop), keys):
        unit = units[j]
        count = 0 if j in seen else unit.cells
        seen.add(j)
        if k:
            extra = _gamma(4 * k + 4) * f * (abs(unit.value) + unit.err)
            unit = QuadratureResult(f * unit.value, f * unit.err + extra, unit.depth)
        out.append(QuadratureResult(unit.value, unit.err, unit.depth, count))
        f *= float(g[word[k] - 1])
    return out, sep_flag, sep_search


_LINE_ORDER = 11  # the odd order M of ``_line_annuli``'s expansions


def _line_annuli(ifs: IFS, kern: HomogeneousKernel, poles, pole_err, letters,
                 cap: int) -> list:
    """The unit-scale annuli int_{C minus C_a} k(xi, .) dmu on the line, one
    per pole xi (``poles``, within ``pole_err``) and its letter a, by
    expansions of order M = ``_LINE_ORDER`` about each cell's box centre.

    At level l the cells are the words of length l + 1 not starting with a,
    all poles at once as one (poles x cells) array.  Cell v has the box
    m_v +- r_v h, m_v = S_v(c), with c +- h the box E of ``attractor_box`` and
    mu_j the central moments of ``measure.moments``.  Let D_v = |m_v - xi|,
    sigma_v = sign(m_v - xi), and delta_v a certified lower bound on the
    distance from xi to the box.  On the cell k(xi, y) = Omega(-sigma_v)
    (D_v + sigma_v t)^-s with t = y - m_v = r_v (S_v^-1 y - c), so

        int_{C_v} k(xi, .) dmu = w_v Omega(-sigma_v) D_v^-s sum_{j<=M}
            C(-s, j) (sigma_v r_v / D_v)^j mu_j + R_v,

    and for odd M, t^(M+1) >= 0 and the Lagrange remainder gives |R_v| <= w_v
    |Omega(-sigma_v)| |C(-s, M+1)| r_v^(M+1) mu_{M+1} delta_v^(-s-M-1).  The
    sum is taken by Horner's rule in x = sigma_v r_v / D_v.

    Rounding.  The net's r_v is within gamma_{l+1}, so r_v <= up_v = float
    r_v (1 + gamma_{l+3}); its shift is within 2 (l + 1) u X (X = max |E|,
    which with 0 bounds every partial shift), so m_v is within e_m =
    gamma_{3l+6} X, and w_v within gamma_{l+1}.  With the pole's e_xi,
    delta_v = (D_v (1 - 2u) - up_v h - e_xi - e_m)(1 - 4u), which its own
    roundings cannot lift.  A cell is clear of the pole when delta_v > 2^20
    (e_xi + e_m); then D_v and x are within the relative eps = gamma_{l+4} +
    (e_xi + e_m) / delta_v <= gamma_{l+4} + 2^-20.  As |C(-s, j)| are the
    coefficients of (1 - q)^-s, the absolute Horner sum is at most (1 - q)^-s
    with q = r_v h / D_v, and D_v^-s (1 - q)^-s <= delta_v^-s; its derivative
    term is at most s q / (1 - q) <= s up_v h / delta_v times that.  So
    Horner's rounding (gamma_{2M}), the coefficients' (gamma_{2M+1}, and beta
    = max_j bound_j / h^j from the moments), the pow and the products
    (gamma_4), w_v's (gamma_{l+2}) and the error eps of D_v and x add at most

        |Omega| delta_v^-s (gamma_{4M+l+10} + beta + 2 s eps (1 + up_v h / delta_v))

    per cell, the factor 2 covering second-order terms.  Each err_v, this and
    the remainder with up_v for r_v, is raised by gamma_{4M+32} for its own
    rounding, and ``_cell_bracket`` adds the rounding of the sums.

    Each pole stops at the first level where every cell is clear of it and
    every remainder is at most its cell's rounding term, which holds once
    up_v / delta_v <= ((gamma_{4M+8} + beta) / (|C(-s, M+1)| mu_{M+1}))^(1/(M+1));
    ``cap`` (the job's depth) is the last level.  An annulus with a cell not
    clear of the pole at the cap is not certified: (0, inf), flagged as by
    ``_bracket``.  A result's cells and depth are those of its last level.
    """
    n, order = ifs.n_letters, _LINE_ORDER
    c, mu, mu_err = moments(ifs, order + 1)
    lo, hi = ifs.attractor_box()
    h = max(hi[0] - c, c - lo[0]) * (1.0 + 2.0 * _U)
    X = max(abs(lo[0]), abs(hi[0]))
    s = kern.s
    binom = np.cumprod(np.concatenate(([1.0], (-s - np.arange(order + 1))
                                       / np.arange(1, order + 2))))
    coef = binom[:-1] * mu[:-1]
    tail = abs(binom[-1]) * (mu[-1] + mu_err[-1])
    beta = float(np.max(mu_err / h ** np.arange(order + 2)))
    # a cell's remainder is at most its rounding term once up_v / delta_v <= this
    ratio_max = ((_gamma(4 * order + 8) + beta) / tail) ** (1.0 / (order + 1)) \
        if tail > 0.0 else math.inf
    left, right = kern.omega.eval(kern.geometry, np.array([[-1.0], [1.0]]))
    xi = np.asarray(poles, dtype=float)
    first = np.asarray(letters) - 1
    out = [None] * len(xi)
    live = np.arange(len(xi))
    for level in range(cap + 1):
        ratio, shift, weight = ifs.relative_net(level + 1)
        size = n ** level
        cols = np.arange((n - 1) * size)
        idx = cols + size * (cols >= size * first[live, np.newaxis])  # C minus C_a
        r = ratio[idx]
        up = r * (1.0 + _gamma(level + 3))
        dz = r * c + shift[idx, 0] - xi[live, np.newaxis]
        dist = np.abs(dz)
        slack = pole_err[live, np.newaxis] + _gamma(3 * level + 6) * X
        delta = (dist * (1.0 - 2.0 * _U) - up * h - slack) * (1.0 - 4.0 * _U)
        clear = delta > 2.0 ** 20 * slack
        done = (np.where(clear, up, math.inf) <= ratio_max * delta).all(axis=1)
        if level == cap:
            done[:] = True
        for i in np.flatnonzero(done & ~clear.all(axis=1)):
            out[live[i]] = QuadratureResult(0.0, math.inf, level, len(cols))
        rows = np.flatnonzero(done & clear.all(axis=1))
        if len(rows):
            r, up, dz, dist, slack, delta = (a[rows] for a in (r, up, dz, dist, slack, delta))
            x = np.copysign(r, dz) / dist
            poly = np.full(x.shape, coef[order])
            for j in range(order - 1, -1, -1):
                poly *= x
                poly += coef[j]
            right_side = dz > 0.0
            value = np.where(right_side, left, right) * dist ** -s * poly
            near = np.where(right_side, abs(left), abs(right)) * delta ** -s
            eps = _gamma(level + 4) + slack / delta
            err = near * (_gamma(4 * order + level + 10) + beta
                          + 2.0 * s * eps * (1.0 + up * h / delta)
                          + tail * (up / delta) ** (order + 1))
            err *= 1.0 + _gamma(4 * order + 32)
            for i, w, v, e in zip(rows, weight[idx[rows]], value, err):
                out[live[i]] = _cell_bracket(w, v, e, level)
        live = live[~done]
        if not len(live):
            break
    return out


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
    p = len(w.period) if w.is_periodic() else 0
    annuli, sep_flag, sep_search = _annuli(ifs, kern, w, max(K, p), depth)

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


def _criterion(ifs: IFS, kern: HomogeneousKernel, word: tuple, depth: int,
               periods: int = 1):
    """``criterion`` on a validated word, and the annuli of its first
    ``periods`` periods; the first |w| sum to its I."""
    if len(word) == 0:
        raise InputError("criterion word must be nonempty")
    xi = ifs.fixed_point(word)
    annuli, sep_flag, sep_search = _annuli(ifs, kern, EPWord((), word),
                                           periods * len(word), depth)
    quad = _total(annuli[:len(word)], depth)
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

    The kept cells are one block, their certified pole distance floored by eps
    less a rounding margin.  Straddling cells are not evaluated: each adds its
    mass times sup / max(delta_v, eps)^s, a bound for |k(x, .)| on its part of
    the shell, to ``err``, with delta_v its certified distance from x.
    """
    kept, straddlers, lo = _ball_cells(ifs, x, eps, depth, outer)
    sup = np.where(lo > eps, kern.omega_sup / np.maximum(lo, eps) ** kern.s,
                   kern.pole_sup(eps))  # the scalar keeps truncated's floats
    rest = _cell_bracket(straddlers.weights, 0.0, sup, depth)
    return _bracket(kern, x, kept, depth, floor=eps * (1.0 - 1e-12)) + rest


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

    A_k are the pv_trace increments, computed once and reused.  best is the
    earliest pair with |T.value| >= max |value| - (T.err + the maximiser's
    err): annuli are scaled copies of unit annuli, so many pairs tie up to
    rounding, and the choice must not follow that noise.
    """
    if not isinstance(w, EPWord):
        raise InputError("maximal_symbolic expects an EPWord")
    max_n = integer(max_n, "max_n", 2)
    annuli, sep_flag, sep_search = _annuli(ifs, kern, w, max_n, depth)
    table = [(m, n, _total(annuli[m:n], depth))
             for m in range(max_n) for n in range(m + 1, max_n + 1)]
    top = max(table, key=lambda entry: abs(entry[2].value))[2]
    best = next(entry for entry in table
                if abs(entry[2].value) >= abs(top.value) - (entry[2].err + top.err))
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
    cylinders.  Returns |difference| with the combined bracket, whose err is
    infinite when the system's separation is not certified, as in
    ``criterion``: the cylinder term's weights presume disjoint branches.
    """
    if not isinstance(w, EPWord):
        raise InputError("ball_cylinder_gap expects an EPWord")
    n, m1 = integer(n, "n", 1), integer(m1, "m1", 1)
    radius_factor = positive(radius_factor, "radius_factor")
    p = len(w.period)
    inner = n + m1 * p
    pole = ifs.code_point(w)

    annuli, sep_flag, _ = _annuli(ifs, kern, w, inner, depth, start=n)
    cyl = _total(annuli, depth)
    ball = _shell(ifs, kern, pole, radius_factor * ifs.cylinder_diam_hi(w.prefix(inner)),
                  radius_factor * ifs.cylinder_diam_hi(w.prefix(n)), inner + depth)

    err = math.inf if sep_flag else cyl.err + ball.err
    return QuadratureResult(abs(cyl.value - ball.value), err, depth,
                            cyl.cells + ball.cells)


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
    k, j < K, and that |F_K| >= K |eta| - (K eta_err + F_err).  All the
    blocks scale the criterion's unit-scale annuli, so each is built once.
    """
    word = validate_word(w, n_letters=ifs.n_letters)
    if len(word) == 0:
        raise InputError("divergence word must be nonempty")
    K = integer(K, "K", 1)
    crit, annuli = _criterion(ifs, kern, word, depth, K)
    if crit.verdict != "NonzeroCertified":
        return DivergenceReport(
            word=word, K=K, status="REFUSED", criterion=crit, blocks=[],
            f_final=None, checks={},
            reason=f"criterion verdict is {crit.verdict}, not NonzeroCertified")

    p = len(word)
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
        center = np.mean(ifs.letter_fixed_points, axis=0)
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
