"""The benchmark's worker process: one client running cold CLI jobs closed-loop.

Usage (normally started by run.py, from the directory holding the job configs):

    python3 worker.py --src SRC --base CONFIG --jobs JOBS.json --out RESULT.json
                      [--seconds S] [--trace 0|1] [--setup-only]

Set-up time is measured here, in a fresh interpreter, from before
``import fractalsio`` until the workload's IFS and kernel are built from its
config.  Then the round of jobs runs again and again, one job at a time, and
a new round starts only while it is expected to end within ``--seconds``; at
least one round always runs.  Each CLI job is ``fractalsio.cli.main(argv)``
with stdout captured; ``divergence`` reads its config and calls
``divergence_certificate`` on a fresh ``IFS.from_config``.  Outputs are
stored as text and checked later by run.py, outside the timed region.

With ``--trace 1`` every job runs twice per round, untraced and traced, in
alternating order; the traced calls give the per-layer totals and the pair
gives the tracing overhead.  Without it nothing in fractalsio is patched.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run_job(fr, job):
    """(exit code or None if it raised, output text) for one cold job."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            if job["argv"] is not None:
                return fr.cli.main(list(job["argv"])), out.getvalue()
            with open(f"{job['id']}.json", encoding="utf-8") as fh:
                cfg = json.load(fh)
            ifs = fr.ifs.IFS.from_config(cfg)
            kern = fr.kernels.HomogeneousKernel.from_config(cfg["kernel"], ifs.geometry)
            p = cfg["params"]
            rep = fr.sio.divergence_certificate(ifs, kern, tuple(p["word"]), p["K"], p["depth"])
        return (0 if rep.status == "PASS" else 2), json.dumps(rep.as_dict())
    except Exception:  # a raising job is recorded and counted as failed, never dropped
        return None, out.getvalue() + traceback.format_exc()


def run_rounds(fr, jobs, seconds, tracer=None):
    """Run whole rounds closed-loop; returns (executions, timed wall seconds, rounds).

    An execution is [job index, exit code, text, seconds].  With a tracer
    each job also runs traced, which appends the traced seconds and whether
    the traced output was identical.
    """
    executions = []
    rounds = 0
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            traced_first = tracer is not None and (rounds + i) % 2 == 1
            if traced_first:
                traced = tracer.timed_job(lambda: _run_job(fr, job))
            t0 = time.perf_counter()
            rc, text = _run_job(fr, job)
            dt = time.perf_counter() - t0
            if tracer is not None and not traced_first:
                traced = tracer.timed_job(lambda: _run_job(fr, job))
            row = [i, rc, text, dt]
            if tracer is not None:
                seconds_traced, output = traced
                row += [seconds_traced, output == (rc, text)]
            executions.append(row)
        rounds += 1
        now = time.perf_counter()
        if (now - begin) + (now - start) > seconds:
            return executions, now - begin, rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--base", required=True)
    ap.add_argument("--jobs")
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    src = os.path.abspath(args.src)

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import fractalsio as fr
    import fractalsio.cli  # noqa: F401  (the jobs call fr.cli.main)
    ifs = fr.IFS.from_config(base)
    fr.HomogeneousKernel.from_config(base["kernel"], ifs.geometry)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(fr.__file__).startswith(src + os.sep):
        sys.exit(f"fractalsio was imported from {fr.__file__}, not from {src}")

    result = {"setup_s": setup_s}
    if not args.setup_only:
        with open(args.jobs, encoding="utf-8") as fh:
            jobs = json.load(fh)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        executions, wall, rounds = run_rounds(fr, jobs, args.seconds, tracer)
        result.update(executions=executions, wall_s=wall, rounds=rounds)
        if tracer is not None:
            result["trace"] = tracer.summary()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
