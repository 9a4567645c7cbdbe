"""Run the breitlab benchmark and print its metrics.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

A run repeats whole rounds of one workload for ``--seconds``.  Each round
is a fresh worker process (perfbench/worker.py), as a command-line user
would start, that builds its inputs from the seed and the round's index,
times one task call and checks its outputs.  Times are in reference
seconds (perfbench/speed.py): the time the span would take at a fixed
machine speed, measured alongside it.  The run reports the mean over its
rounds of task_s and cpu_s, the first round's cold set-up as setup_s, and the
largest peak of any round as peak_rss_mb.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` rounds come in pairs on the same
inputs, one untraced and one traced, and the object holds the per-layer
metrics and the tracing overhead.  Without ``--workload`` every workload
runs in turn and one summary line per workload is printed.  Results and
traces are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

WORKLOADS = ("spectrum-breit", "converge-coulomb", "dynamics-orbit", "perturb-oracle")
END_TO_END = {"setup_s": "s", "task_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# One BLAS thread: on 2 cores, 2 OpenBLAS threads made the n=12 spectrum
# slower (6.0 s against 4.2 s wall, 10.9 s against 4.1 s CPU).  scipy.fft
# runs on one worker unless asked for more, and breitlab never asks.
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# A run that cannot finish its first round in this time is given up, so
# that it ends within 180 s.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run; nothing is reported."""


def _round(workload, seed, rnd, traced, deadline):
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--round", str(rnd), "--t0", repr(t0), "--trace", str(traced), "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **THREADS), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} round {rnd} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} round {rnd}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, traced):
    """Rounds for ``seconds``; returns (result object, rounds).

    A round starts only if the slowest round so far would still end within
    ``seconds``, so a run lasts ``seconds`` however loaded the machine is.
    """
    OUT.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, tracedrows = [], []
    longest = 0.0
    while not plain or time.monotonic() - start + longest <= seconds:
        t = time.monotonic()
        plain.append(_round(workload, seed, len(plain), 0, deadline))
        if traced:
            tracedrows.append(_round(workload, seed, len(tracedrows), 1, deadline))
        longest = max(longest, time.monotonic() - t)
    rows = plain + tracedrows

    if traced:
        layers = {}
        for name in tracedrows[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in tracedrows)
        # the two rounds of a pair share their inputs
        layers["trace.overhead_pct"] = statistics.median(
            100.0 * (t["task_s"] / u["task_s"] - 1.0) for u, t in zip(plain, tracedrows))
        units = {k: ("count" if k.endswith("_calls") else "%" if k.endswith("_pct") else "s")
                 for k in layers}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        values = {
            "setup_s": rows[0]["setup_s"],
            "task_s": statistics.fmean(r["task_s"] for r in rows),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in rows),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rows),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    failures = [m for r in rows for m in r["check_failures"]]
    for r in rows:
        if r["error"]:
            print(f"{workload}: {r['error']}", file=sys.stderr)
    for m in failures:
        print(f"{workload}: check failed: {m}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in rows),
        "failed": sum(r["failed"] for r in rows),
        "metrics": metrics,
    }
    return result, rows


def _summary(workload, result, rows):
    parts = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
    line = (f"{workload}: rounds={len(rows)} attempted={result['attempted']} "
            f"failed={result['failed']} correct={result['correct']} " + " ".join(parts))
    iters = [(r["layers"].get("solver.matvec_calls"), r["iterations"]) for r in rows
             if "layers" in r and "iterations" in r]
    if iters:
        line += f" matvec_calls/iterations={iters}"
    return line


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    try:
        for workload in [a.workload] if a.workload else WORKLOADS:
            result, rows = run_workload(workload, a.seed, a.seconds, a.trace)
            (OUT / f"result-{workload}-seed{a.seed}-trace{a.trace}.json").write_text(
                json.dumps({"result": result, "rounds": rows}, indent=1))
            summary = _summary(workload, result, rows)
            if a.workload:
                print(summary, file=sys.stderr)
                print(json.dumps(result))
            else:
                print(summary)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
