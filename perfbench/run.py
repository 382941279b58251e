"""fractalsio benchmark: cold CLI jobs on the canonical sets, with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fractalsio is imported from its
``src`` directory, with nothing installed.  The seed makes the round of jobs
(``workloads.py``); a worker process (``worker.py``) times set-up and runs
the round closed-loop with one client; every output is then checked against
independent references (``checks.py``).  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``.  See README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import Checker  # noqa: E402
from tracer import metric_names  # noqa: E402
from workloads import WORKLOADS, config_text, generate, load_config  # noqa: E402

SETUP_PROBES = 5          # extra fresh interpreters timed for setup_s
WORKER_TIMEOUT_S = 170.0


def _worker(src, base, workdir, *extra):
    """Run worker.py in ``workdir``; returns its result dict."""
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src), "--base", str(base),
           "--out", str(out), *extra]
    proc = subprocess.run(cmd, cwd=workdir, timeout=WORKER_TIMEOUT_S,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stdout[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def _check(workload, seed, jobs, executions):
    """Check every distinct job once and every repeat against its first output.

    Returns (outcome per job index, set of failed execution positions).
    """
    checker = Checker(workload, jobs[0]["config"], seed)
    outcomes, first, failed = {}, {}, set()
    for pos, (i, rc, text, _, *traced) in enumerate(executions):
        if i not in outcomes:
            outcomes[i] = checker.check(jobs[i], rc, text)
            first[i] = (rc, text)
            for problem in outcomes[i].problems:
                print(f"FAIL {jobs[i]['id']} {jobs[i]['command']}: {problem}")
        elif (rc, text) != first[i]:
            print(f"FAIL {jobs[i]['id']} {jobs[i]['command']}: output differs between rounds")
            failed.add(pos)
        if traced and not traced[1]:
            print(f"FAIL {jobs[i]['id']} {jobs[i]['command']}: traced output differs")
            failed.add(pos)
        if outcomes[i].problems:
            failed.add(pos)
    return outcomes, failed


def _end_to_end(setups, result, outcomes):
    execs = result["executions"]
    lat = [e[3] for e in execs]
    errs = [o.err for o in outcomes.values()
            if o.err is not None and math.isfinite(o.err) and o.err > 0.0]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(execs) / result["wall_s"], "1/s"),
        "job_s_p50": (statistics.median(lat), "s"),
        "job_s_p90": (statistics.quantiles(lat, n=10, method="inclusive")[-1], "s"),
        "err_gmean": (math.exp(statistics.fmean(math.log(e) for e in errs)), "1"),
        "certified_frac": (sum(e[1] == 0 for e in execs) / len(execs), "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _per_layer(result, outcomes):
    trace, rounds = result["trace"], result["rounds"]
    metrics = {name: (trace["layers"][name] / rounds,
                      "s" if name.endswith("_s") else "count") for name in metric_names()}
    cells = [o for o in outcomes.values() if o.cells is not None]
    metrics["report.cells"] = (sum(o.cells for o in cells), "count")
    metrics["report.err_x_cells"] = (sum(o.err * o.cells for o in cells
                                         if o.err is not None and math.isfinite(o.err)), "1")
    plain = sum(e[3] for e in result["executions"])
    traced = sum(e[4] for e in result["executions"])
    metrics["trace.unattributed_frac"] = (trace["unattributed_s"] / trace["job_s"], "1")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "1")
    for target in trace["absent"]:
        print(f"absent: {target} no longer exists; its layer reports only what remains")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = HERE.parent / "src"
    if not (src / "fractalsio" / "__init__.py").is_file():
        print(f"error: no fractalsio sources under {src}", file=sys.stderr)
        return 2
    jobs = generate(args.workload, args.seed)
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        for job in jobs:
            (workdir / f"{job['id']}.json").write_text(config_text(job["config"]),
                                                       encoding="utf-8")
        (workdir / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
        base = workdir / "base.json"
        base.write_text(json.dumps(load_config(args.workload)), encoding="utf-8")

        setups = [_worker(src, base, workdir, "--setup-only")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result = _worker(src, base, workdir, "--jobs", "jobs.json",
                         "--seconds", str(args.seconds), "--trace", str(args.trace))
        setups.append(result["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes, failed = _check(args.workload, args.seed, jobs, result["executions"])
    if args.trace:
        metrics = _per_layer(result, outcomes)
    else:
        metrics = _end_to_end(setups, result, outcomes)
    attempted = len(result["executions"])
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per round, "
          f"{result['rounds']} round(s), {attempted} executions in {result['wall_s']:.2f} s, "
          f"{len(failed)} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
