"""Output checks for every job, against references that share no fractalsio code.

``Checker.check(job, rc, text)`` parses one job's output and returns an
``Outcome``: the headline bracket's err and cell count (for the quality
metrics) and a list of problems, empty when the output is correct.

- Certified brackets must contain the Monte Carlo reference to within
  ``Z_BRACKET`` reference standard errors: |value - ref| <= err + 4 se.  A
  miss is re-tested once on a fresh sample sixteen times larger, which keeps
  the 4-sigma rule while making a false alarm on a correct bracket about as
  rare as two independent 4-sigma events.
- The program's own Monte Carlo outputs (``integrate --method mc`` and the
  ``birkhoff`` frequency) carry noise that no reference can shrink, so they
  are compared at ``Z_PROGRAM_MC`` combined standard errors; at 4 the
  benchmark would flag a correct program about once per hundred sessions.
- Analytic references: the four-corner gap is 0.5 and its largest child
  diameter sqrt(2)/4; the ``birkhoff`` expectation is the product of the
  letter weights r_i^s; the witness integral is (1 - p_{u_1}) / (1 - p_u).
- Consistency: ``NonzeroCertified`` implies |value| > err, the exit code
  agrees with the report, and reported poles match the coded points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from reference import Model, block_frequency_se, complement_bases, mean_se

Z_BRACKET = 4.0
Z_PROGRAM_MC = 5.0
RECHECK_FACTOR = 16

ANALYTIC_SEPARATION = {"four_corner": {"gap": 0.5, "maxdiam": math.sqrt(2.0) / 4.0}}


@dataclass
class Outcome:
    err: float = None
    cells: int = None
    problems: list = field(default_factory=list)


def _letter(word, i):
    pre, period = word["pre"], word["period"]
    return pre[i] if i < len(pre) else period[(i - len(pre)) % len(period)]


def _prefix(word, k):
    return [_letter(word, i) for i in range(k)]


def _annulus_bases(word, m, n, n_letters):
    """Cylinders partitioning C_{w|m} minus C_{w|n}."""
    return [_prefix(word, j) + [e] for j in range(m, n)
            for e in range(1, n_letters + 1) if e != _letter(word, j)]


class Checker:
    """References for one workload and seed; samples are drawn once, before any check."""

    def __init__(self, workload: str, cfg: dict, seed: int, n_samples: int = 50000):
        self.workload = workload
        self.model = Model(cfg)
        self.seed = int(seed) % 2**63    # numpy seeds must be nonnegative
        self.n_samples = n_samples
        self.pts = self.model.sample(n_samples, np.random.default_rng([self.seed, 0]))

    # ---- comparisons -------------------------------------------------------

    def _bracket(self, out, what, value, err, terms_of, key, absolute=False):
        """Require the bracket to hold the reference mean of ``terms_of(points)``."""
        def miss(pts):
            ref, se = mean_se(terms_of(pts))
            ref = abs(ref) if absolute else ref
            return abs(value - ref) > err + Z_BRACKET * se, ref, se

        missed, ref, se = miss(self.pts)
        if missed:
            rng = np.random.default_rng([self.seed, 1, key])
            missed, ref, se = miss(self.model.sample(RECHECK_FACTOR * self.n_samples, rng))
        if missed:
            out.problems.append(f"{what}: [{value - err:.9g}, {value + err:.9g}] misses "
                                f"reference {ref:.9g} +- {Z_BRACKET:g} x {se:.3g}")

    def _point(self, out, what, got, want):
        if not np.allclose(np.asarray(got, dtype=float), want, rtol=0.0, atol=1e-9):
            out.problems.append(f"{what} {got} is not the coded point {list(want)}")

    @staticmethod
    def _exit(out, rc, want):
        if rc != want:
            out.problems.append(f"exit code {rc}, report implies {want}")

    # ---- per command -------------------------------------------------------

    def check(self, job: dict, rc, text: str) -> Outcome:
        out = Outcome()
        if rc is None or rc == 1:
            out.problems.append(f"job failed (exit {rc}): {text.strip()[-300:]}")
            return out
        try:
            rep = json.loads(text)
        except json.JSONDecodeError as exc:
            out.problems.append(f"output is not JSON: {exc}")
            return out
        params = job["config"]["params"]
        key = int(job["id"][1:])
        try:
            getattr(self, "_" + job["command"].replace("-", "_"))(out, rc, rep, params, key)
        except (KeyError, TypeError, ValueError) as exc:
            out.problems.append(f"report lacks an expected field: {exc!r}")
        return out

    def _criterion(self, out, rc, rep, params, key):
        m = self.model
        word = params["word"]
        xi = m.code_point([], word)
        self._point(out, "xi", rep["xi"], xi)
        value, err = rep["value"], rep["err"]
        self._bracket(out, "criterion", value, err,
                      lambda pts: m.cylinders(xi, complement_bases(word, m.n), pts), key)
        if rep["verdict"] == "NonzeroCertified" and not abs(value) > err:
            out.problems.append("NonzeroCertified but |value| <= err")
        self._exit(out, rc, 0 if rep["verdict"] == "NonzeroCertified" else 2)
        out.err, out.cells = err, rep["cells"]

    def _pv_trace(self, out, rc, rep, params, key):
        m = self.model
        word, K = params["word"], params["K"]
        pole = m.code_point(word["pre"], word["period"])
        self._point(out, "point", rep["point"], pole)
        final = rep["f_final"]
        self._bracket(out, "pv-trace F_K", final["value"], final["err"],
                      lambda pts: m.cylinders(pole, complement_bases(_prefix(word, K), m.n), pts),
                      key)
        # C minus C_{w|K} is the union of the annuli k < K, so F_K = sum A_k
        a_val = sum(r["A_value"] for r in rep["rows"])
        a_err = sum(r["A_err"] for r in rep["rows"])
        if abs(final["value"] - a_val) > final["err"] + a_err:
            out.problems.append(f"F_K {final['value']!r} disagrees with sum A_k {a_val!r}")
        self._exit(out, rc, 2 if any(r["flag"] for r in rep["rows"]) else 0)
        out.err, out.cells = final["err"], final["cells"]

    def _maximal(self, out, rc, rep, params, key):
        m = self.model
        word = params["word"]
        pole = m.code_point(word["pre"], word["period"])
        best = rep["best"]
        bases = _annulus_bases(word, best["m"], best["n"], m.n)
        self._bracket(out, "maximal best", best["value"], best["err"],
                      lambda pts: m.cylinders(pole, bases, pts), key)
        shaky = bool(rep["separation"]) or any(not math.isfinite(t["err"])
                                               for t in rep["table"])
        self._exit(out, rc, 2 if shaky else 0)
        out.err = best["err"]

    def _gap(self, out, rc, rep, params, key):
        m = self.model
        word, n, m1 = params["word"], params["n"], params["m1"]
        inner = n + m1 * len(word["period"])
        pole = m.code_point(word["pre"], word["period"])
        factor = params.get("radius_factor", 2.0) * m.diameter_1d()
        eps_out = factor * m.ratio(_prefix(word, n))
        eps_in = factor * m.ratio(_prefix(word, inner))
        bases = _annulus_bases(word, n, inner, m.n)

        def terms(pts):
            d = m.dist(pole, pts)
            ball = np.where((d > eps_in) & (d <= eps_out), m.kernel(pole, pts), 0.0)
            return m.cylinders(pole, bases, pts) - ball

        self._bracket(out, "gap", rep["value"], rep["err"], terms, key, absolute=True)
        self._exit(out, rc, 0 if math.isfinite(rep["err"]) else 2)
        out.err, out.cells = rep["err"], rep["cells"]

    def _truncated(self, out, rc, rep, params, key):
        m = self.model
        x, eps = np.asarray(params["x"], dtype=float), params["eps"]

        def terms(pts):
            return np.where(m.dist(x, pts) > eps, m.kernel(x, pts), 0.0)

        self._bracket(out, "truncated", rep["value"], rep["err"], terms, key)
        self._exit(out, rc, 0 if math.isfinite(rep["err"]) else 2)
        out.err, out.cells = rep["err"], rep["cells"]

    def _integrate(self, out, rc, rep, params, key):
        m = self.model
        desc = params["integrand"]
        self._exit(out, rc, 0)
        if desc["kind"] == "witness":
            u = desc["u"]
            exact = (1.0 - m.p[u[0] - 1]) / (1.0 - m.weight(u))
            if abs(rep["value"] - exact) > rep["err"]:
                out.problems.append(f"witness bracket misses {exact!r}")
            out.err, out.cells = rep["err"], rep["cells"]
            return
        exps = np.asarray(desc["exponents"])

        def terms(pts):
            return np.prod(pts ** exps, axis=-1)

        if params["method"] == "mc":
            ref, se = mean_se(terms(self.pts))
            tol = Z_PROGRAM_MC * math.hypot(rep["stderr"], se)
            if abs(rep["value"] - ref) > tol:
                out.problems.append(f"mc mean {rep['value']!r} misses {ref!r} +- {tol:.3g}")
            return
        self._bracket(out, "integrate", rep["value"], rep["err"], terms, key)
        out.err, out.cells = rep["err"], rep["cells"]

    def _birkhoff(self, out, rc, rep, params, key):
        target, n_steps = params["target"], params["n_steps"]
        expected = self.model.weight(target)
        if not math.isclose(rep["expected"], expected, rel_tol=1e-12):
            out.problems.append(f"expected {rep['expected']!r}, product of r_i^s is {expected!r}")
        tol = Z_PROGRAM_MC * block_frequency_se(self.model.p, target, n_steps)
        if abs(rep["frequency"] - expected) > tol:
            out.problems.append(f"frequency {rep['frequency']!r} misses {expected!r} +- {tol:.3g}")
        self._exit(out, rc, 0)

    def _separation(self, out, rc, rep, params, key):
        rep = rep["report"]
        truth = ANALYTIC_SEPARATION[self.workload]
        if not rep["gap_lo"] <= truth["gap"] <= rep["gap_hi"]:
            out.problems.append(f"gap bracket misses {truth['gap']!r}")
        if not rep["maxdiam_lo"] <= truth["maxdiam"] <= rep["maxdiam_hi"]:
            out.problems.append(f"child diameter bracket misses {truth['maxdiam']!r}")
        if rep["status"] != "StronglySeparated":
            out.problems.append(f"status {rep['status']}, the gap exceeds every child diameter")
        self._exit(out, rc, 0 if rep["status"] in ("Separated", "StronglySeparated",
                                                   "Overlapping") else 2)
        out.err = 0.5 * (rep["gap_hi"] - rep["gap_lo"])

    def _divergence(self, out, rc, rep, params, key):
        m = self.model
        word, K = params["word"], params["K"]
        crit = rep["criterion"]
        xi = m.code_point([], word)
        self._point(out, "xi", crit["xi"], xi)
        self._bracket(out, "divergence eta", crit["value"], crit["err"],
                      lambda pts: m.cylinders(xi, complement_bases(word, m.n), pts), key)
        cells = crit["cells"]
        if rep["f_final"] is not None:
            final = rep["f_final"]
            self._bracket(out, "divergence F_K", final["value"], final["err"],
                          lambda pts: m.cylinders(xi, complement_bases(word * K, m.n), pts),
                          key)
            cells += final["cells"] + sum(b["cells"] for b in rep["blocks"])
        if rep["status"] == "REFUSED" and crit["verdict"] == "NonzeroCertified":
            out.problems.append("refused although the criterion is NonzeroCertified")
        self._exit(out, rc, 0 if rep["status"] == "PASS" else 2)
        out.err, out.cells = crit["err"], cells
