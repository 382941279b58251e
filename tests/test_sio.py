import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import _helpers as h
import fractalsio.sio as sio
from fractalsio import (IFS, EPWord, HomogeneousKernel, InputError,
                        RieszComponent, SignOmega, WitnessIntegrand,
                        ball_cylinder_gap, complement_base_words, criterion,
                        divergence_certificate, integrate, maximal_symbolic, net,
                        pv_trace, region_cells, truncated)

ETA_LO, ETA_HI = -0.6458, -0.5  # frozen analytic bracket for the sign kernel


def _cantor_annulus(s):
    """A_0 = int_{C minus C_1} sign(0 - y) / |y|^s dmu(y) on middle thirds, the
    annulus of the pole 0 = pi(1 1 ...), from exact raw moments: on C_2, y =
    (2 + y') / 3, so A_0 = -(1/2) (2/3)^-s sum_j C(-s, j) 2^-j E[y^j].  The
    moments solve E[y^n] (1 - 3^-n) = (1/2) sum_{k<n} C(n, k) 3^-k (2/3)^(n-k)
    E[y^k] in fractions; |C(-s, j)| and E[y^j] are at most 1 for s < 1, so the
    series cut at j = 80 is within 2^-80, and its float sum within 1e-15."""
    third = Fraction(1, 3)
    raw = [Fraction(1)]
    for n in range(1, 81):
        rhs = sum(math.comb(n, k) * third ** k * (2 * third) ** (n - k) * raw[k]
                  for k in range(n))
        raw.append(rhs / 2 / (1 - third ** n))
    terms, binom = [], 1.0
    for j in range(81):
        terms.append(binom * 0.5 ** j * float(raw[j]))
        binom *= (-s - j) / (j + 1)
    return -0.5 * (2.0 / 3.0) ** -s * math.fsum(terms)


def _count_line_poles(monkeypatch):
    """Record the number of unit-scale annuli of every line-rule call."""
    counts = []
    real = sio._line_annuli

    def counting(ifs, kern, poles, *args):
        counts.append(len(poles))
        return real(ifs, kern, poles, *args)

    monkeypatch.setattr(sio, "_line_annuli", counting)
    return counts


def _count_cells(monkeypatch):
    """Record the size of every cell block the drivers build."""
    built = []
    real = sio.region_cells

    def counting(*args, **kwargs):
        cells = real(*args, **kwargs)
        built.append(cells.count)
        return cells

    monkeypatch.setattr(sio, "region_cells", counting)
    return built


def test_pv_trace_constant_increments(middle_thirds):
    kern = h.const_kernel(middle_thirds)
    tr = pv_trace(middle_thirds, kern, h.word1(), 5, 7)
    assert len(tr.rows) == 5
    assert tr.rows[0].F.value == 0.0 and tr.rows[0].F.err == 0.0
    a0 = tr.rows[0].A
    for row in tr.rows:
        assert row.A.value > 0.0
        assert row.flag == ""
        # self-similarity forces every increment to match the first
        assert abs(row.A.value - a0.value) <= row.A.err + a0.err


def test_pv_trace_eta_bracket(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    tr = pv_trace(middle_thirds, kern, h.word1(), 6, 9)
    eta = tr.eta_estimate
    assert eta is not None
    assert ETA_LO <= eta.value - eta.err
    assert eta.value + eta.err <= ETA_HI
    for row in tr.rows:
        assert abs(row.A.value - eta.value) <= row.A.err + eta.err


def test_pv_trace_telescoping(middle_thirds):
    # every annulus of the pole 0 is the exact A_0 and F_k sums k of them;
    # each bracket holds its reference (1e-15 covers the float system's data)
    # within an err of at most 1e-12 relative, from one unit annulus of 2 cells
    kern = h.sign_kernel(middle_thirds)
    tr = pv_trace(middle_thirds, kern, h.word1(), 5, 6)
    ref = _cantor_annulus(middle_thirds.dim_s)
    for k, row in enumerate(tr.rows):
        assert abs(row.F.value - k * ref) <= row.F.err + 1e-15
        assert row.F.err <= 1e-12 * k * abs(ref)
        assert abs(row.A.value - ref) <= row.A.err + 1e-15
        assert row.A.err <= 1e-12 * abs(ref)
        assert row.F.cells == min(k, 1) * 2
        # a scaled row also carries the rounding of its factor p_u r_u^-s
        assert k == 0 or row.A.err > tr.rows[0].A.err


def test_line_rule_at_a_shallow_cap_keeps_its_remainder(middle_thirds):
    # at depth 0 the one cell C_2 stops the refinement before its remainder
    # falls below the rounding term; the bracket is wider and still holds
    kern = h.sign_kernel(middle_thirds)
    ref = _cantor_annulus(middle_thirds.dim_s)
    quad = criterion(middle_thirds, kern, (1,), 0).result
    assert quad.cells == 1 and 1e-12 < quad.err < 1e-8
    assert abs(quad.value - ref) <= quad.err
    assert abs(quad.value - ref) > 1e-12


def test_pv_trace_final_row(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    tr = pv_trace(middle_thirds, kern, h.word1(), 3, 6)
    ref = 3 * _cantor_annulus(middle_thirds.dim_s)
    assert abs(tr.f_final.value - ref) <= tr.f_final.err + 1e-15
    assert tr.f_final.err <= 1e-12 * abs(ref)
    assert tr.f_final.cells == 2


def test_pv_trace_flagged_annulus_keeps_the_rest():
    # touching intervals: the pole 1/2 = pi(2 1 1 ...) lies in A_0 = C_1
    ifs = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.5, "q": [0.5]}]})
    kern = h.sign_kernel(ifs)
    tr = pv_trace(ifs, kern, EPWord((2,), (1,)), 3, 4)
    a0, a1 = tr.rows[0].A, tr.rows[1].A
    assert a0.value == 0.0 and a0.err == math.inf
    assert math.isfinite(a1.err)
    f2 = tr.rows[2].F
    assert f2.value == a1.value
    assert f2.err == math.inf
    for row in tr.rows:
        assert sio.POLE_FLAG in row.flag.split(";")


def test_pv_trace_builds_each_annulus_once(middle_thirds, four_corner, monkeypatch):
    # the five annuli of (1)^inf are one shifted annulus: one pole for the
    # line rule, and off the line one cell block for the letter 1
    poles, built = _count_line_poles(monkeypatch), _count_cells(monkeypatch)
    tr = pv_trace(middle_thirds, h.sign_kernel(middle_thirds), h.word1(), 5, 6)
    assert poles == [1] and built == []
    assert tr.f_final.cells == 2
    tr = pv_trace(four_corner, h.const_kernel(four_corner), h.word1(), 5, 3)
    assert poles == [1] and built == [3 * 4 ** 3]
    assert tr.f_final.cells == 3 * 4 ** 3


def test_pv_trace_preperiodic_has_no_eta(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    w = EPWord((2,), (1,))
    tr = pv_trace(middle_thirds, kern, w, 3, 5)
    assert tr.eta_estimate is None
    assert np.allclose(tr.point, middle_thirds.apply_word(
        (2,), middle_thirds.fixed_point((1,))))


def test_pv_trace_csv_layout(tmp_path, middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    tr = pv_trace(middle_thirds, kern, h.word1(), 3, 4)
    out = tmp_path / "trace.csv"
    out.write_text(tr.to_csv_text())
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,F_value,F_err,A_value,A_err,flag"
    assert len(lines) == 4
    assert lines[1].startswith("0,0,0,")


def test_criterion_nonzero_certified(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    rep = criterion(middle_thirds, kern, (1,), 8)
    assert rep.verdict == "NonzeroCertified"
    assert rep.result.value < 0
    assert abs(rep.result.value) > rep.result.err
    assert np.allclose(rep.xi, [0.0])
    # strict biconditional between the verdict and the bracket
    assert (rep.verdict == "NonzeroCertified") == \
        (abs(rep.result.value) > rep.result.err)


# four-corner criterion errs at depths 4-8 under the first-order rule with
# each cell widened to the ball of radius r_v rho(x_v); the box rule must not
# exceed them
_BALL_RULE_ERRS = {
    "sign": [1.9057e-2, 9.2848e-3, 4.5812e-3, 2.2753e-3, 1.1338e-3],
    "riesz": [2.1462e-3, 5.3582e-4, 1.3391e-4, 3.3475e-5, 8.3685e-6],
}


@pytest.mark.parametrize("omega", [SignOmega(), RieszComponent(1)], ids=["sign", "riesz"])
def test_criterion_box_rule_errs_pinned(four_corner, omega):
    kern = HomogeneousKernel(four_corner.geometry, 1.0, omega)
    for w in [(1,), (2,)]:
        for depth, pinned in zip(range(4, 9), _BALL_RULE_ERRS[omega.kind]):
            rep = criterion(four_corner, kern, w, depth)
            assert rep.verdict == "NonzeroCertified"
            assert rep.result.err <= pinned


def test_criterion_zero_within_bracket(line_ifs):
    # the vertical component vanishes identically on a horizontal attractor
    kern = HomogeneousKernel(line_ifs.geometry, line_ifs.dim_s,
                             RieszComponent(2))
    rep = criterion(line_ifs, kern, (1,), 6)
    assert rep.verdict == "ZeroWithinBracket"
    assert rep.result.value == 0.0
    assert math.isfinite(rep.result.err)


def test_criterion_scale_invariance(middle_thirds):
    # the annulus one level deeper reproduces the criterion integral
    kern = h.sign_kernel(middle_thirds)
    rep = criterion(middle_thirds, kern, (1,), 8)
    tr = pv_trace(middle_thirds, kern, h.word1(), 2, 8)
    a1 = tr.rows[1].A
    assert abs(rep.result.value - a1.value) <= rep.result.err + a1.err


def test_criterion_longer_word(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    rep = criterion(middle_thirds, kern, (1, 1), 7)
    assert rep.verdict == "NonzeroCertified"
    assert rep.result.value < 0
    assert np.allclose(rep.xi, [0.0])


def test_criterion_near_symmetric_word(middle_thirds):
    # at the periodic point of (1,2) the signed mass nearly cancels
    kern = h.sign_kernel(middle_thirds)
    rep = criterion(middle_thirds, kern, (1, 2), 7)
    assert rep.verdict == "ZeroWithinBracket"
    assert abs(rep.result.value) < 1e-3
    assert np.allclose(rep.xi, [0.25])


def test_criterion_rejects_empty_word(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    with pytest.raises(InputError):
        criterion(middle_thirds, kern, (), 4)


def test_criterion_inconclusive_when_overlapping():
    from fractalsio import IFS
    ifs = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.5, "q": [0.5]}]})
    kern = h.sign_kernel(ifs)
    rep = criterion(ifs, kern, (1,), 5)
    assert rep.verdict == "Inconclusive"
    assert not math.isfinite(rep.result.err)
    assert rep.separation == "separation:Overlapping"


def test_driver_reports_show_separation_search(middle_thirds, four_corner):
    sep = four_corner.check_separation()
    rep = criterion(four_corner, h.const_kernel(four_corner), (1,), 2).as_dict()
    assert rep["separation_search"] == {"nodes": sep.nodes, "budget_exhausted": False}
    assert rep["separation"] == ""
    sep = middle_thirds.check_separation()
    want = {"nodes": sep.nodes, "budget_exhausted": False}
    kern = h.sign_kernel(middle_thirds)
    div = divergence_certificate(middle_thirds, kern, (1,), 2, 3)
    reports = [pv_trace(middle_thirds, kern, h.word1(), 2, 3).as_dict(),
               maximal_symbolic(middle_thirds, kern, h.word1(), 2, 3).as_dict(),
               div.as_dict()["criterion"]]
    for report in reports:
        assert report["separation_search"] == want


def test_drivers_decide_separation_from_the_gap_alone(monkeypatch):
    # cells and certified separation need no diameter search; a flagged
    # system names the verdict of check_separation, which does run it
    def no_diameter(self):
        raise AssertionError("diameter search run")

    ifs = h.make_ifs(h.heis_quarter_config())
    kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, RieszComponent(1))
    with monkeypatch.context() as patch:
        patch.setattr(IFS, "diam_bracket", no_diameter)
        trace = pv_trace(ifs, kern, h.word1(), 2, 2)
        truncated(ifs, kern, [0.5, 0.5, 0.0], 0.2, 3)
        integrate(ifs, lambda pts: pts[:, 0], 1.0, 3)
    assert trace.separation == ""
    assert trace.separation_search == {"nodes": 3, "budget_exhausted": False}
    overlapping = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.6, "q": [0.0]}, {"r": 0.6, "q": [0.4]}]})
    rep = criterion(overlapping, h.sign_kernel(overlapping), (1,), 3)
    assert rep.separation == "separation:Inconclusive"


def test_truncated_zero_far_away(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    # eps covers the whole attractor seen from the origin
    quad = truncated(middle_thirds, kern, [0.0], 2.0, 5)
    assert quad.value == 0.0
    assert quad.err == 0.0


def test_truncated_matches_complement(middle_thirds):
    # strong separation: the ball of radius 1/2 at 0 carves out exactly C_1
    kern = h.sign_kernel(middle_thirds)
    quad = truncated(middle_thirds, kern, [0.0], 0.5, 8)
    rep = criterion(middle_thirds, kern, (1,), 7)
    assert abs(quad.value - rep.result.value) <= quad.err + rep.result.err
    assert ETA_LO <= quad.value <= ETA_HI


def test_truncated_smaller_eps_adds_mass(middle_thirds):
    kern = h.const_kernel(middle_thirds)
    big = truncated(middle_thirds, kern, [0.0], 0.5, 8)
    small = truncated(middle_thirds, kern, [0.0], 0.5 / 3.0, 8)
    # shrinking the ball can only add positive kernel mass
    assert small.value - big.value > 0.0


def test_truncated_charges_straddlers_sup(middle_thirds):
    # at depth 3 the cell 1.1.1 = [0, 1/27] still straddles B(0, 0.01) and
    # holds the pole, so it must be charged pole_sup instead of evaluated
    kern = h.sign_kernel(middle_thirds)
    quad = truncated(middle_thirds, kern, [0.0], 0.01, 3)
    assert math.isfinite(quad.err)
    assert quad.err >= kern.pole_sup(0.01) * 2.0 ** -3


def test_truncated_kept_cells_keep_the_ball_floor(middle_thirds):
    # cell 2 is certified outside B(x, eps) at level 1, but its refined
    # subcell 2.1.1.1.1.1 has d(x, x_v) - d_v < 0; its certified pole
    # distance is still eps, so the bracket stays finite and contains the
    # deeper one
    kern = h.sign_kernel(middle_thirds)
    x, eps = [2.0 / 3.0 - 0.0004 - 1e-5], 0.0004
    word = (2, 1, 1, 1, 1, 1)
    assert abs(middle_thirds.fixed_point(word)[0] - x[0]) \
        - middle_thirds.cylinder_diam_hi(word) < 0.0
    coarse = truncated(middle_thirds, kern, x, eps, 6)
    fine = truncated(middle_thirds, kern, x, eps, 10)
    assert math.isfinite(coarse.err)
    assert abs(coarse.value - fine.value) <= coarse.err + fine.err


def test_maximal_scan_shape(middle_thirds):
    kern = h.const_kernel(middle_thirds)
    est = maximal_symbolic(middle_thirds, kern, h.word1(), 4, 6)
    assert len(est.table) == 10  # all pairs 0 <= m < n <= 4
    m, n, q = est.best
    assert (m, n) == (0, 4)
    assert q.value > 0


def test_maximal_monotone_in_horizon(middle_thirds):
    kern = h.const_kernel(middle_thirds)
    values = []
    for max_n in (2, 4, 6):
        est = maximal_symbolic(middle_thirds, kern, h.word1(), max_n, 5)
        values.append(abs(est.best[2].value))
    assert values[0] < values[1] < values[2]


def test_maximal_agrees_with_pv(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    w = h.word1()
    est = maximal_symbolic(middle_thirds, kern, w, 3, 6)
    ref = _cantor_annulus(middle_thirds.dim_s)
    # T(m, n) integrates C_{w|m} minus C_{w|n}, the annuli m <= k < n, each
    # the exact A_0 at the pole 0; T(0, n) is the pv_trace F_n
    assert len(est.table) == 6
    for m, n, q in est.table:
        assert abs(q.value - (n - m) * ref) <= q.err + 1e-15
        assert q.err <= 1e-12 * (n - m) * abs(ref)


def test_maximal_best_ignores_rounding_ties(middle_thirds):
    # on (2, 1)^inf every odd-length T(m, n) is +-0.71798721 up to rounding;
    # best is the earliest pair whose bracket reaches the maximum, not the
    # pair the last bits favour ((1, 6) by the largest |value| alone)
    kern = h.sign_kernel(middle_thirds)
    est = maximal_symbolic(middle_thirds, kern, EPWord((), (2, 1)), 6, 6)
    m, n, q = est.best
    assert (m, n) == (0, 1)
    top = max(abs(t.value) for _, _, t in est.table)
    assert top - abs(q.value) <= q.err


def test_maximal_flags_uncertified_separation():
    from fractalsio import IFS
    ifs = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.5, "q": [0.0]}, {"r": 0.5, "q": [0.5]}]})
    kern = h.sign_kernel(ifs)
    est = maximal_symbolic(ifs, kern, h.word1(), 2, 3)
    assert est.separation == "separation:Overlapping"


def test_gap_nonnegative_and_bracketed(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    quad = ball_cylinder_gap(middle_thirds, kern, h.word1(), 2, 1, 6)
    assert quad.value >= 0.0
    assert math.isfinite(quad.err)


def test_gap_flags_uncertified_separation(middle_thirds):
    # r = 0.6 with shifts 0 and 0.4 overlaps: the cylinder term's weights
    # presume disjoint branches, so the gap's err is infinite, as is the
    # criterion's on the same system
    ifs = IFS.from_config({
        "geometry": {"kind": "euclidean", "dim": 1},
        "maps": [{"r": 0.6, "q": [0.0]}, {"r": 0.6, "q": [0.4]}]})
    kern = HomogeneousKernel(ifs.geometry, middle_thirds.dim_s, SignOmega())
    quad = ball_cylinder_gap(ifs, kern, h.word1(), 2, 1, 6)
    assert quad.value == pytest.approx(0.21883935260829068, rel=1e-12)
    assert quad.err == math.inf
    rep = criterion(ifs, kern, (1,), 6)
    assert rep.verdict == "Inconclusive"
    assert rep.separation.startswith(sio.SEP_FLAG)


def test_gap_tight_radius_sanity(middle_thirds):
    # radius exactly the cylinder diameter: ball and cylinder regions coincide
    kern = h.sign_kernel(middle_thirds)
    quad = ball_cylinder_gap(middle_thirds, kern, h.word1(), 2, 1, 6,
                             radius_factor=1.0)
    assert quad.value <= quad.err + 1e-9
    assert quad.err < 0.0030  # the shell's straddlers are charged one pass


@pytest.mark.parametrize("ifs, omega", [
    (h.make_ifs(h.middle_thirds_config()), SignOmega()),
    (h.make_ifs(h.four_corner_config()), RieszComponent(1)),
    (h.make_ifs(h.heis_quarter_config()), RieszComponent(1)),
    (h.make_ifs(h.four_corner_config()), SignOmega()),
    (h.make_ifs(h.heis_quarter_config()), RieszComponent(3)),
], ids=["middle_thirds", "four_corner", "heis_quarter", "four_corner_sign",
        "heis_quarter_riesz3"])
def test_gap_ball_shell_is_one_pass(ifs, omega):
    # the gap's ball term, one pass over the shell between its two radii,
    # against the difference of two ball complements; the gap itself holds
    # |cylinder term - that difference|, the cylinder term being the pv-trace
    # annuli n <= k < n + m1 p
    kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, omega)
    w, n, m1, depth, radius_factor = EPWord((2,), (1,)), 1, 1, 4, 1.5
    inner = n + m1 * len(w.period)
    pole = ifs.code_point(w)
    eps_inner = radius_factor * ifs.cylinder_diam_hi(w.prefix(inner))
    eps_outer = radius_factor * ifs.cylinder_diam_hi(w.prefix(n))
    one = sio._shell(ifs, kern, pole, eps_inner, eps_outer, inner + depth)
    a = truncated(ifs, kern, pole, eps_inner, inner + depth)
    b = truncated(ifs, kern, pole, eps_outer, inner + depth)
    assert math.isfinite(one.err)
    assert abs(one.value - (a.value - b.value)) <= one.err + a.err + b.err
    assert one.err <= a.err + b.err
    assert one.cells < a.cells + b.cells
    rows = pv_trace(ifs, kern, w, inner, depth).rows[n:]
    cyl = sum(r.A.value for r in rows)
    gap = ball_cylinder_gap(ifs, kern, w, n, m1, depth, radius_factor)
    assert math.isfinite(gap.err)
    ref = abs(cyl - (a.value - b.value))
    assert abs(gap.value - ref) <= gap.err + sum(r.A.err for r in rows) + a.err + b.err


@pytest.mark.parametrize("radius_factor", [0.0, -1.0, math.nan, math.inf])
def test_gap_rejects_bad_radius_factor(middle_thirds, radius_factor):
    kern = h.sign_kernel(middle_thirds)
    with pytest.raises(InputError, match="radius_factor"):
        ball_cylinder_gap(middle_thirds, kern, h.word1(), 2, 1, 4,
                          radius_factor=radius_factor)


def test_divergence_pass(middle_thirds):
    kern = h.sign_kernel(middle_thirds)
    rep = divergence_certificate(middle_thirds, kern, (1,), 5, 8)
    assert rep.status == "PASS"
    assert rep.checks["pairwise_ok"] and rep.checks["growth_ok"]
    assert len(rep.blocks) == 5
    assert rep.reason == ""


@pytest.mark.parametrize("s, growth_ok", [(0.7, True), (0.5, False)])
def test_divergence_fails_off_the_similarity_dimension(middle_thirds, s, growth_ok):
    # for s != dim_s the k-th block is rho^k eta, rho = r_w^(dim_s - s), so
    # the blocks are not constant and the pairwise check is what fails
    kern = HomogeneousKernel(middle_thirds.geometry, s, SignOmega())
    rep = divergence_certificate(middle_thirds, kern, (1,), 6, 10)
    assert rep.status == "FAIL"
    assert rep.reason == "block increments disagree beyond brackets"
    assert not rep.checks["pairwise_ok"]
    assert rep.checks["pairwise_excess"] > 0.25
    assert rep.checks["growth_ok"] is growth_ok


def test_divergence_builds_each_annulus_once(middle_thirds, monkeypatch):
    poles, built = _count_line_poles(monkeypatch), _count_cells(monkeypatch)
    rep = divergence_certificate(middle_thirds, h.sign_kernel(middle_thirds),
                                 (1,), 4, 5)
    assert rep.status == "PASS"
    # every block is the criterion's annulus scaled: one unit annulus in one
    # line-rule call, its 2 cells counted once, by the first block and F_K
    assert poles == [1] and built == []
    assert rep.criterion.result.cells == 2
    assert rep.f_final.cells == 2
    assert [b.cells for b in rep.blocks] == [2, 0, 0, 0]


def test_divergence_constant_kernel(middle_thirds):
    kern = h.const_kernel(middle_thirds)
    rep = divergence_certificate(middle_thirds, kern, (1,), 4, 7)
    assert rep.status == "PASS"
    assert rep.criterion.result.value > 0


def test_divergence_refused_on_zero(line_ifs):
    kern = HomogeneousKernel(line_ifs.geometry, line_ifs.dim_s,
                             RieszComponent(2))
    rep = divergence_certificate(line_ifs, kern, (1,), 4, 5)
    assert rep.status == "REFUSED"
    assert rep.blocks == []
    assert "ZeroWithinBracket" in rep.reason


def test_witness_symbolic_values(middle_thirds):
    g = WitnessIntegrand(middle_thirds, (1, 2))
    assert g.on_word((2, 2)) == 1.0          # deviates at a block start
    assert g.on_word((1, 1)) == 0.0          # deviates inside the block
    assert g.on_word((1, 2, 2, 1)) == 1.0    # second block starts wrong
    assert g.on_word((1, 2, 1, 1)) == 0.0
    assert g.on_word((1, 2)) is None         # still on track, undecided
    assert g.on_word((1,)) is None


def test_witness_decodes_points(middle_thirds):
    g = WitnessIntegrand(middle_thirds, (1, 2))
    # the fixed point of map 2 codes as 2 repeated: first deviation at start
    assert g(middle_thirds.fixed_point((2,))) == 1.0
    # coding 1,1,... deviates inside the first block
    assert g(middle_thirds.fixed_point((1,))) == 0.0
    # coding (1,2) repeated never deviates: decoding stops at the depth
    # float resolution allows, before rounding drift could fake a deviation
    assert g(middle_thirds.fixed_point((1, 2))) == 0.0


@pytest.mark.parametrize("name", ["middle_thirds", "four_corner", "heis_twisted"])
def test_witness_matches_symbolic_rule(request, name):
    # the point of cell v is the fixed point of S_v, coded by v repeated; the
    # decoder reads the first ln(eps) / (2 D ln r_min) letters of that coding
    horizon = {"middle_thirds": 16, "four_corner": 13, "heis_twisted": 8}[name]
    ifs = request.getfixturevalue(name)
    cells = net(ifs, 4)
    for u in [(1,), (1, 2), (1, 2, 1)]:
        g = WitnessIntegrand(ifs, u)
        assert g._letters == horizon
        got = g(cells.points)
        for i, word in enumerate(h.cell_words(cells)):
            want = g.on_word((word * horizon)[:horizon])
            assert got[i] == (0.0 if want is None else want), (u, word)


@pytest.mark.parametrize("name, us", [
    ("middle_thirds", [(1,), (1, 1), (1, 2), (1, 2, 1)]),
    ("heis_twisted", [(1,), (1, 1), (1, 2), (1, 2, 1), (1, 3, 2)]),
])
def test_witness_rule_matches_block_loop(request, name, us):
    ifs = request.getfixturevalue(name)
    words = [w for n in range(9)
             for w in itertools.product(range(1, ifs.n_letters + 1), repeat=n)]
    for u in us:
        g = WitnessIntegrand(ifs, u)
        for w in words:
            assert g.on_word(w) == h.witness_on_word(u, w), (u, w)


def test_witness_batch_and_integral(middle_thirds):
    g = WitnessIntegrand(middle_thirds, (1,))
    # g = 1 exactly on C_2 here, so its complement integral over C minus C_1
    # equals mu(C_2) = 1/2, and the rule decides every cell
    quad = g.bracket(region_cells(middle_thirds, complement_base_words((1,), 2), 6))
    assert (quad.value, quad.err, quad.cells) == (0.5, 0.0, 64)
    pts = np.array([[0.9], [0.05]])
    vals = g(pts)
    assert vals.shape == (2,)


def test_witness_bracket_pins(middle_thirds):
    # the exact integral is (1 - p_1) / (1 - p_1 p_2) = 2/3; the one undecided
    # cell, 1 2 1 2 1 2 1 2, counts half its mass 2^-8 as value and as err
    g = WitnessIntegrand(middle_thirds, (1, 2))
    quad = g.bracket(net(middle_thirds, 8))
    assert (quad.value, quad.err, quad.cells) == (0.666015625, 2.0 ** -9, 256)
    for depth in (9, 10, 14):
        quad = g.bracket(net(middle_thirds, depth))
        assert quad.err == 2.0 ** -(depth + 1)
        assert abs(quad.value - 2.0 / 3.0) <= quad.err
    # over C minus C_111 the undecided row 1 2 1 2 ... is one letter shorter
    # than the block's rows; 0 pads it, and C_111 adds nothing to the integral
    cells = region_cells(middle_thirds, complement_base_words((1, 1, 1), 2), 6)
    quad = g.bracket(cells)
    assert quad.err == 2.0 ** -9
    assert abs(quad.value - 2.0 / 3.0) <= quad.err


def test_witness_bracket_past_decoder_horizon(middle_thirds):
    # the decoder reads 16 letters, so at depth 18 it leaves cells undecided
    # that the rule decides; each is charged its mass and the bracket holds
    g = WitnessIntegrand(middle_thirds, (1, 2))
    quad = g.bracket(net(middle_thirds, 18))
    assert 2.0 ** -19 < quad.err < 1e-5
    assert abs(quad.value - 2.0 / 3.0) <= quad.err


def test_four_corner_sign_brackets_hold_mc_reference(four_corner):
    # sign jumps on z_1 = 0, which the cells of letters 1 and 3 touch; each
    # such cell is charged the kernel's full oscillation on it
    kern = HomogeneousKernel(four_corner.geometry, 1.0, SignOmega())
    reps = [criterion(four_corner, kern, (1,), d) for d in (4, 6, 8)]
    assert all(rep.verdict == "NonzeroCertified" for rep in reps)
    quads = [rep.result for rep in reps]
    for a, b in itertools.combinations(quads, 2):
        assert h.overlap(a, b), (a, b)
    # plain Monte Carlo of sign(-y_1) / |y| over C minus C_1, the pole being
    # the fixed point (0, 0) of map 1; y = q_{a_1} + q_{a_2} / 4 + ...
    rng = np.random.default_rng(2024)
    shifts = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    n = 400_000
    first = rng.integers(0, 4, n)
    y = shifts[first].copy()
    for k in range(1, 26):
        y += 0.25 ** k * shifts[rng.integers(0, 4, n)]
    vals = np.where(first == 0, 0.0, -np.sign(y[:, 0]) / np.hypot(y[:, 0], y[:, 1]))
    mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n)
    for quad in quads:
        assert abs(quad.value - mean) <= quad.err + 4.0 * se, (quad, mean, se)


def test_witness_requires_letter_one(middle_thirds):
    with pytest.raises(InputError):
        WitnessIntegrand(middle_thirds, (2, 1))


@pytest.mark.parametrize("depth", [5, 7])
@pytest.mark.parametrize("cfg, omega, word", [
    (h.middle_thirds_config(), SignOmega(), EPWord((1, 2), (2, 1, 1))),
    (h.four_corner_config(), RieszComponent(1), EPWord((2,), (1, 3))),
    (h.heis_quarter_config(), RieszComponent(1), EPWord((1, 2), (3, 1, 1))),
], ids=["middle_thirds", "four_corner", "heisenberg"])
def test_periodic_annuli_repeat_with_the_period(cfg, omega, word, depth):
    # with s = dim_s, A_{k+p} = A_k for k >= |pre|: each row scales the
    # unit-scale annulus at its shifted pole.  Bracketed at scale r^k, the
    # Heisenberg word's rows 4 and 13 missed each other from k = 13 on, the
    # t coordinate of the displacements cancelling down to its rounding
    ifs = h.make_ifs(cfg)
    kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, omega)
    p = len(word.period)
    rows = pv_trace(ifs, kern, word, 25 + p, depth).rows
    for k in range(len(word.pre), 25):
        a, b = rows[k].A, rows[k + p].A
        assert math.isfinite(a.err) and h.overlap(a, b), (k, a, b)
        assert rows[k + p].F.cells == rows[len(word.pre) + p].F.cells


@pytest.mark.parametrize("cfg", [
    h.middle_thirds_config(),
    {"geometry": {"kind": "euclidean", "dim": 1},
     "maps": [{"r": 0.3, "q": [0.1]}, {"r": 0.45, "q": [0.55]}]},
], ids=["middle_thirds", "asymmetric"])
def test_line_rule_meets_the_first_order_rule(cfg):
    # every annulus the line rule brackets from moments intersects the
    # first-order bracket of the same annulus at its own scale from 2^16
    # cells, and is narrower, for sign, Riesz and perturbed omegas; the
    # asymmetric measure has odd moments, which see the side of each cell
    ifs = h.make_ifs(cfg)
    sign = h.sign_kernel(ifs)
    kernels = [sign, HomogeneousKernel(ifs.geometry, ifs.dim_s, RieszComponent(1)),
               sign.perturb((1.0,), 0.5, 0.1)]
    for word in (EPWord((), (1,)), EPWord((2,), (1, 2)), EPWord((1, 2), (2, 1, 1))):
        count = len(word.pre) + len(word.period)
        pole = ifs.code_point(word)
        cells = [region_cells(ifs, complement_base_words(word.prefix(k + 1), 2)[k:], 16)
                 for k in range(count)]
        for kern in kernels:
            rows = pv_trace(ifs, kern, word, count, 16).rows
            for k, block in enumerate(cells):
                first = sio._bracket(kern, pole, block, 16)
                new = rows[k].A
                assert h.overlap(new, first), (word, kern, k, new, first)
                assert new.err < 1e-3 * first.err and new.err < 1e-12
                assert rows[k].flag == ""


def test_shift_poles_bound_their_rounding_on_the_line():
    # each shifted pole lies within its bound of the exact point its word
    # codes in the float system: for a rotation, the fixed point q / (1 - r)
    # of the rational composition; before it, S_a of the next pole
    ifs = h.make_ifs({"geometry": {"kind": "euclidean", "dim": 1},
                      "maps": [{"r": 0.3, "q": [0.1]}, {"r": 0.45, "q": [0.55]}]})
    r = [Fraction(x) for x in ifs.ratios]
    q = [Fraction(x) for x in ifs.shifts[:, 0]]
    word = EPWord((2, 1, 2), (1, 2, 2, 1, 2))
    poles, errs = ifs.code_points(word, list(range(8)))
    exact = {}
    for j in range(7, -1, -1):
        if j >= 3:
            ratio, shift = Fraction(1), Fraction(0)
            for a in reversed(word.period[j - 3:] + word.period[:j - 3]):
                ratio, shift = r[a - 1] * ratio, q[a - 1] + r[a - 1] * shift
            exact[j] = shift / (1 - ratio)
        else:
            a = word.pre[j]
            exact[j] = q[a - 1] + r[a - 1] * exact[j + 1]
        assert abs(Fraction(poles[j][0]) - exact[j]) <= Fraction(errs[j]), j
        assert 0.0 < errs[j] < 1e-14


def test_reported_point_is_the_annuli_pole(middle_thirds, monkeypatch):
    # pv-trace reports the pole its annuli are centred on: both come from
    # one coding map, S_pre applied letter by letter to the period's point
    seen = []
    real = sio._line_annuli

    def recording(ifs, kern, poles, *args):
        seen.append(poles.copy())
        return real(ifs, kern, poles, *args)

    monkeypatch.setattr(sio, "_line_annuli", recording)
    word = EPWord((1, 1), (2,))
    trace = pv_trace(middle_thirds, h.sign_kernel(middle_thirds), word, 1, 8)
    assert trace.point[0] == seen[0][0]
    assert middle_thirds.code_point(word)[0] == seen[0][0]
