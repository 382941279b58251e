"""Canonical configs and the seeded job generator.

A workload is one canonical config (``configs/<name>.json``) and a *round*:
a list of jobs whose cost-determining parameters (depth, K, word length,
sample counts) are fixed strata, while the seed draws everything else
(letters, poles, ball radii, integrands, generator seeds) and the order.
Every seed therefore gives a round of the same size and cost profile, so
run-to-run spread comes from the machine rather than from the draw.

A job is a dict with ``id``, ``command``, ``config`` (the canonical config
plus a ``params`` block) and ``argv`` (CLI arguments naming the config file
``<id>.json`` relative to the working directory), or ``argv = None`` for
``divergence``, which has no subcommand and is called as a library function.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

from reference import Model

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
WORKLOADS = ("middle_thirds", "four_corner", "heisenberg")


def load_config(workload: str) -> dict:
    with open(CONFIG_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def config_text(cfg: dict) -> str:
    """The exact bytes written for a job config."""
    return json.dumps(cfg, sort_keys=True, indent=1) + "\n"


def _word(rng, n_letters, length):
    return [rng.randint(1, n_letters) for _ in range(length)]


def _words(rng, n_letters, length, count):
    """``count`` words cycling through all words of ``length`` in a seeded order.

    Whole cycles fix the multiset of words, so the share of jobs whose
    answer is a symmetric zero (criterion words 12 and 21 on middle thirds)
    is the same for every seed.
    """
    every = [list(w) for w in itertools.product(range(1, n_letters + 1), repeat=length)]
    rng.shuffle(every)
    return [every[i % len(every)] for i in range(count)]


def _epword(rng, n_letters, period=None):
    period = rng.randint(1, 2) if period is None else period
    return {"pre": _word(rng, n_letters, rng.randint(0, 1)),
            "period": _word(rng, n_letters, period)}


def _log_strata(rng, lo, hi, count):
    """One log-uniform draw from each of ``count`` equal slices of [lo, hi].

    Neighbouring slices are paired antithetically (offsets u and 1 - u, and
    the middle of the last slice when ``count`` is odd), so the sum of the
    log draws is the same for every seed.
    """
    a, b = math.log(lo), math.log(hi)
    step = (b - a) / count
    offsets = []
    for _ in range(count // 2):
        u = rng.random()
        offsets += [u, 1.0 - u]
    offsets += [0.5] * (count % 2)
    return [math.exp(a + step * (i + u)) for i, u in enumerate(offsets)]


def _poles(rng, model, count):
    """Attractor points S_a(fixed point of S_b), cycling through all letter pairs."""
    return [[float(v) for v in model.code_point([a], [b])]
            for a, b in _words(rng, model.n, 2, count)]


def _middle_thirds(rng, model):
    n = model.n
    jobs = []
    for K in (4, 5, 6):
        for depth in (10, 11, 12):
            jobs.append(("pv-trace", {"word": _epword(rng, n), "K": K, "depth": depth}))
    for length in (1, 2, 3):
        depths = (12, 13, 14, 15)
        for word, depth in zip(_words(rng, n, length, len(depths)), depths):
            jobs.append(("criterion", {"word": word, "depth": depth}))
    for max_n, depth in ((3, 10), (4, 9), (5, 9), (6, 8)):
        jobs.append(("maximal", {"word": _epword(rng, n), "max_n": max_n, "depth": depth}))
    for gap_n, m1, period, depth in ((1, 2, 1, 8), (2, 1, 2, 7), (3, 2, 1, 6)):
        word = _epword(rng, n, period)
        jobs.append(("gap", {"word": word, "n": gap_n, "m1": m1, "depth": depth}))
    for x, eps in zip(_poles(rng, model, 4), _log_strata(rng, 1e-3, 0.3, 4)):
        jobs.append(("truncated", {"x": x, "eps": eps, "depth": 12}))
    for length, depth in ((1, 8), (2, 9), (3, 10)):
        u = [1] + _word(rng, n, length - 1)
        jobs.append(("integrate", {"integrand": {"kind": "witness", "u": u},
                                   "method": "net", "depth": depth}))
    # length-1 words: the length-2 words 12 and 21 are refused cheaply (their
    # criterion is zero), which would make the cost of a stratum depend on the draw
    strata = ((4, 12), (5, 11), (6, 10), (6, 12))
    for word, (K, depth) in zip(_words(rng, n, 1, len(strata)), strata):
        jobs.append(("divergence", {"word": word, "K": K, "depth": depth}))
    return jobs


def _four_corner(rng, model):
    # Every job pays a fresh separation search (about 5 s on 2 cores).  Words
    # have one letter or one period letter: some two-letter criterion words
    # are not certified at depth 5, which would make certified_frac a draw.
    n = model.n
    crit_words = _words(rng, n, 1, 2)
    return [
        ("criterion", {"word": crit_words[0], "depth": 6}),
        ("criterion", {"word": crit_words[1], "depth": 5}),
        ("pv-trace", {"word": _epword(rng, n, 1), "K": 3, "depth": 4}),
        ("pv-trace", {"word": _epword(rng, n, 1), "K": 2, "depth": 5}),
        ("maximal", {"word": _epword(rng, n, 1), "max_n": 3, "depth": 4}),
        ("separation", {"depth": 12}),
    ]


# Integrands on the Heisenberg set with Lipschitz constants for the gauge
# distance: |x - x'| and |y - y'| are at most d(p, p'), and the set lies in
# 0 <= x, y <= 1, so x^2 and x*y are 2-Lipschitz.
_HEIS_INTEGRANDS = (([1, 0, 0], 1.0), ([0, 1, 0], 1.0), ([2, 0, 0], 2.0), ([1, 1, 0], 2.0))


def _heis_integrands(rng, count):
    order = list(_HEIS_INTEGRANDS)
    rng.shuffle(order)
    return [{"kind": "monomial", "exponents": order[i % len(order)][0],
             "lipschitz": order[i % len(order)][1]} for i in range(count)]


def _heisenberg(rng, model):
    n = model.n
    jobs = []
    for x, eps in zip(_poles(rng, model, 9), _log_strata(rng, 1e-2, 0.3, 9)):
        jobs.append(("truncated", {"x": x, "eps": eps, "depth": 8}))
    for n_samples, f in zip((100000, 150000, 200000), _heis_integrands(rng, 3)):
        jobs.append(("integrate", {"integrand": f, "method": "mc", "n_samples": n_samples,
                                   "seed": rng.randrange(2**31)}))
    for depth, f in zip((5, 6, 7, 8), _heis_integrands(rng, 4)):
        jobs.append(("integrate", {"integrand": f, "method": "net", "depth": depth}))
    for n_steps, length in ((1000000, 1), (2000000, 2), (3000000, 3), (4000000, 2)):
        jobs.append(("birkhoff", {"target": _word(rng, n, length),
                                  "n_steps": n_steps, "seed": rng.randrange(2**31)}))
    for K, depth in ((3, 6), (4, 6), (4, 5), (5, 5)):
        jobs.append(("pv-trace", {"word": _epword(rng, n, 1), "K": K, "depth": depth}))
    return jobs


_ROUNDS = {"middle_thirds": _middle_thirds, "four_corner": _four_corner,
           "heisenberg": _heisenberg}


def generate(workload: str, seed: int) -> list:
    """The round of jobs for ``workload`` and ``seed``; same seed, same bytes."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = load_config(workload)
    rng = random.Random(f"{workload}/{seed}")
    drawn = _ROUNDS[workload](rng, Model(base))
    rng.shuffle(drawn)
    jobs = []
    for i, (command, params) in enumerate(drawn):
        job_id = f"j{i:03d}"
        cfg = dict(base, params=params)
        argv = None
        if command != "divergence":
            argv = [command, "--config", f"{job_id}.json"]
            if command == "pv-trace":
                argv += ["--format", "json"]
        jobs.append({"id": job_id, "command": command, "argv": argv, "config": cfg})
    return jobs
