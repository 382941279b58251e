"""Acceptance gate: ten criteria, one test and one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v``; each test prints
``[NN] name: PASS/FAIL`` with the measured numbers before asserting.
"""

import math
import time

import numpy as np

import _helpers as h
from fractalsio import (ConstantOmega, EPWord, Euclidean, Heisenberg1,
                        HomogeneousKernel, PolynomialOverNorm,
                        RieszComponent, SignOmega, ball_cylinder_gap, criterion,
                        birkhoff_frequency, integrate, integrate_cylinder,
                        maximal_symbolic, mc_integrate, pv_trace, truncated)

ETA_LO, ETA_HI = -0.6458, -0.5


def _line(n, name, ok, detail=""):
    print(f"[{n:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_01_constant_increments():
    # middle thirds, sign kernel, w = (1): the six truncation increments agree
    # pairwise within summed brackets, the shared value lies in the analytic
    # bracket, every bracket is at most 1e-4, and the run stays under 60 s
    ifs = h.make_ifs(h.middle_thirds_config())
    kern = h.sign_kernel(ifs)
    t0 = time.perf_counter()
    tr = pv_trace(ifs, kern, h.word1(), 6, 9)
    elapsed = time.perf_counter() - t0
    rows = tr.rows
    ok = len(rows) == 6
    for i in range(6):
        for j in range(i + 1, 6):
            gap = abs(rows[i].A.value - rows[j].A.value)
            ok &= gap <= rows[i].A.err + rows[j].A.err
    eta = tr.eta_estimate
    ok &= ETA_LO <= eta.value - eta.err and eta.value + eta.err <= ETA_HI
    max_err = max(r.A.err for r in rows)
    ok &= max_err <= 1e-4
    ok &= elapsed <= 60.0
    _line(1, "constant increments", ok,
          f"eta={eta.value:.6f}+-{eta.err:.2g} max_err={max_err:.2g} "
          f"t={elapsed:.2f}s")
    assert ok


def test_02_linear_growth():
    # |F_6 - F_0 - 6 eta| within summed brackets (telescoping is exact up to
    # quadrature error)
    ifs = h.make_ifs(h.middle_thirds_config())
    kern = h.sign_kernel(ifs)
    tr = pv_trace(ifs, kern, h.word1(), 6, 9)
    eta = tr.eta_estimate
    f6 = tr.f_final
    f0 = tr.rows[0].F
    resid = abs(f6.value - f0.value - 6.0 * eta.value)
    allowance = f6.err + f0.err + 6.0 * eta.err
    ok = resid <= allowance
    _line(2, "linear growth of partial sums", ok,
          f"residual={resid:.3g} allowance={allowance:.3g}")
    assert ok


def test_03_criterion_nonvanishing():
    # 4-corner set, omega = z1/|z|, s = 1, w = (1): certified nonzero with the
    # analytically forced negative sign, depth <= 6, under 120 s
    ifs = h.make_ifs(h.four_corner_config())
    kern = HomogeneousKernel(ifs.geometry, 1.0, RieszComponent(1))
    t0 = time.perf_counter()
    rep = criterion(ifs, kern, (1,), 6)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict == "NonzeroCertified"
    ok &= rep.result.value < 0.0
    ok &= elapsed <= 120.0
    _line(3, "criterion nonvanishing", ok,
          f"verdict={rep.verdict} value={rep.result.value:.6f}"
          f"+-{rep.result.err:.2g} t={elapsed:.2f}s")
    assert ok


def test_04_region_identity():
    # strong separation: the ball of radius diam(C_{w|k}) around the coding
    # point carves out exactly the cylinder, so the truncated integral matches
    # the complement integral within combined brackets for k <= 5
    cases = [
        (h.make_ifs(h.middle_thirds_config()), SignOmega(), 6),
        (h.make_ifs(h.four_corner_config()), RieszComponent(1), 4),
    ]
    ok = True
    worst = 0.0
    for ifs, omega, depth in cases:
        kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, omega)
        w = h.word1()
        tr = pv_trace(ifs, kern, w, 6, depth)
        pole = ifs.code_point(w)
        for k in range(6):
            eps = ifs.cylinder_diam_hi(w.prefix(k)) if k else \
                ifs.diam_bracket()[1]
            quad = truncated(ifs, kern, pole, eps, k + depth)
            fk = tr.rows[k].F
            resid = abs(quad.value - fk.value)
            margin = quad.err + fk.err
            worst = max(worst, resid - margin)
            ok &= resid <= margin
    _line(4, "strong-separation region identity", ok,
          f"worst residual minus margin={worst:.3g}")
    assert ok


def test_05_uniform_gap():
    # cylinder annulus versus ball annulus around the coding point: the gap
    # stays bounded by one constant over n = 2..6 (no growth trend)
    ifs = h.make_ifs(h.middle_thirds_config())
    kern = h.sign_kernel(ifs)
    values, ubs = [], []
    for n in range(2, 7):
        q = ball_cylinder_gap(ifs, kern, h.word1(), n, 1, 6)
        values.append(q.value)
        ubs.append(q.value + q.err)
    ratio_vals = max(values) / min(values)
    ratio_ubs = max(ubs) / min(ubs)
    ok = ratio_vals <= 3.0 and ratio_ubs <= 3.0
    _line(5, "uniform cylinder-ball gap", ok,
          f"value ratio={ratio_vals:.4f} certified ratio={ratio_ubs:.4f}")
    assert ok


def test_06_perturbation():
    # a vertical component on a horizontal Cantor set integrates to exactly
    # zero; an even cap bump of size 0.1 toward (1,0) makes it certified
    # nonzero while moving the sphere values by at most 0.1
    ifs = h.make_ifs(h.line_config())
    kern = HomogeneousKernel(ifs.geometry, ifs.dim_s, RieszComponent(2))
    before = criterion(ifs, kern, (1,), 8)
    ok = before.verdict == "ZeroWithinBracket" and before.result.value == 0.0

    kern2 = kern.perturb((1.0, 0.0), 0.5, 0.1)
    after = criterion(ifs, kern2, (1,), 8)
    ok &= after.verdict == "NonzeroCertified"

    rng = np.random.default_rng(77)
    theta = rng.uniform(0.0, 2.0 * math.pi, 10000)
    sphere = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    geom = ifs.geometry
    delta = np.abs(kern2.omega.eval(geom, sphere) - kern.omega.eval(geom, sphere))
    sup_delta = float(np.max(delta))
    ok &= sup_delta <= 0.1 + 1e-12
    _line(6, "kernel perturbation", ok,
          f"before={before.verdict} after={after.verdict} "
          f"value={after.result.value:.6f}+-{after.result.err:.2g} "
          f"sup_delta={sup_delta:.6f}")
    assert ok


def test_07_measure_engine_vs_oracle():
    # int y^2 dmu = 3/8 from the moment recursion; the depth-12 net and a
    # fixed-seed Monte Carlo run must both cover it with their brackets
    ifs = h.make_ifs(h.middle_thirds_config())

    def f(pts):
        return np.asarray(pts, dtype=float)[..., 0] ** 2

    quad = integrate(ifs, f, 2.0, depth=12)
    mean, stderr = mc_integrate(ifs, f, 100000, seed=2024)
    ok = abs(quad.value - 0.375) <= quad.err
    ok &= abs(mean - 0.375) <= 3.0 * stderr
    _line(7, "measure engine vs oracle", ok,
          f"net={quad.value:.8f}+-{quad.err:.2g} "
          f"mc={mean:.6f}+-{stderr:.2g}")
    assert ok


def test_08_birkhoff_frequencies():
    mt = h.make_ifs(h.middle_thirds_config())
    fc = h.make_ifs(h.four_corner_config())
    f1, e1, s1 = birkhoff_frequency(mt, (1,), 100000, seed=314)
    f2, e2, s2 = birkhoff_frequency(fc, (1, 1), 100000, seed=314)
    ok = e1 == 0.5 and abs(f1 - 0.5) <= 3.0 * s1
    ok &= abs(e2 - 0.0625) <= 1e-12 and abs(f2 - 0.0625) <= 3.0 * s2
    # bit-for-bit reproducibility under the fixed seed
    ok &= birkhoff_frequency(mt, (1,), 100000, seed=314)[0] == f1
    ok &= birkhoff_frequency(fc, (1, 1), 100000, seed=314)[0] == f2
    _line(8, "birkhoff frequencies", ok,
          f"mt={f1:.5f} (3se={3 * s1:.5f}) fc={f2:.5f} (3se={3 * s2:.5f})")
    assert ok


def test_09_identity_suite():
    rng = np.random.default_rng(1234)
    ok = True

    # omega homogeneity under dilations, 1000 cases per family
    families = [
        (Euclidean(2), RieszComponent(1)),
        (Euclidean(2), PolynomialOverNorm(coeffs=((1.0, (1, 1)),), degree=2)),
        (Heisenberg1(), RieszComponent(3)),
    ]
    for geom, omega in families:
        pts = rng.uniform(-1.5, 1.5, (1000, geom.dim))
        pts = pts[geom.norm(pts) > 1e-2]
        rs = rng.uniform(0.05, 0.95, len(pts))
        dev = np.abs(omega.eval(geom, geom.dilate(rs, pts))
                     - omega.eval(geom, pts))
        ok &= bool(np.max(dev) <= 1e-12)

    # group axioms and gauge scaling, 1000 cases
    gh = Heisenberg1()
    for _ in range(1000):
        p, q, a = rng.uniform(-1.5, 1.5, (3, 3))
        r = rng.uniform(0.05, 0.95)
        ok &= abs(gh.dist(gh.op(a, p), gh.op(a, q)) - gh.dist(p, q)) <= 1e-12
        ok &= abs(gh.norm(gh.dilate(r, p)) - r * gh.norm(p)) <= 1e-12
        ok &= bool(np.max(np.abs(gh.op(p, gh.op(q, a))
                                 - gh.op(gh.op(p, q), a))) <= 1e-12)

    # push-forward change of variables on random words and affine integrands
    mt = h.make_ifs(h.middle_thirds_config())
    failures = 0
    for _ in range(1000):
        length = int(rng.integers(1, 4))
        word = tuple(int(a) for a in rng.integers(1, 3, size=length))
        aa, bb = rng.uniform(-2.0, 2.0, 2)

        def f(pts):
            return aa + bb * np.asarray(pts, dtype=float)[..., 0]

        lhs = integrate_cylinder(mt, f, abs(bb), word, 5)

        def g(pts):
            return f(mt.apply_word(word, pts))

        ratio = mt.word_ratio(word)
        rhs = integrate(mt, g, abs(bb) * ratio,
                        5).scale(mt.word_weight(word))
        if abs(lhs.value - rhs.value) > lhs.err + rhs.err:
            failures += 1
    ok &= failures == 0

    # kernel scaling identity on random words and point pairs
    kern = h.sign_kernel(mt)
    worst = 0.0
    checked = 0
    while checked < 1000:
        x, y = rng.uniform(-0.5, 1.5, (2, 1))
        if abs(x[0] - y[0]) < 1e-3:
            continue
        word = tuple(int(a) for a in rng.integers(1, 3, size=3))
        lhs = kern.eval(mt.apply_word(word, x), mt.apply_word(word, y))
        lhs *= mt.word_ratio(word) ** kern.s
        ref = kern.eval(x, y)
        worst = max(worst, abs(lhs - ref) / max(1.0, abs(ref)))
        checked += 1
    ok &= worst <= 1e-12

    _line(9, "identity suite", ok,
          f"pushforward failures={failures} scaling worst={worst:.2g}")
    assert ok


def test_10_maximal_growth():
    # constant omega: the best annulus sum grows linearly in the horizon
    ifs = h.make_ifs(h.middle_thirds_config())
    kern = h.const_kernel(ifs)
    best = {}
    for max_n in (4, 8, 12):
        est = maximal_symbolic(ifs, kern, h.word1(), max_n, 6)
        best[max_n] = abs(est.best[2].value)
    ok = best[4] < best[8] < best[12]
    r2 = best[8] / best[4]
    r3 = best[12] / best[4]
    ok &= abs(r2 - 2.0) <= 0.2 and abs(r3 - 3.0) <= 0.3
    _line(10, "maximal growth", ok,
          f"best4={best[4]:.4f} best8={best[8]:.4f} best12={best[12]:.4f} "
          f"ratios {r2:.3f}/{r3:.3f}")
    assert ok
