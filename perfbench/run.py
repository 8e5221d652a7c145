"""Benchmark of the astars-noma package: four workloads, end-to-end metrics
with tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the package is imported from ``src`` of the
checkout that holds this file.  Each pass of a workload runs in a fresh
process, as a command-line user would run it; passes repeat until the next
one would overrun ``--seconds`` (at least one pass, and with ``--trace 1``
at least one untraced and one traced pass).  A few processes only set up
and exit, before the passes and in the time left after them, so the
set-up time is a median too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from BENCHMARK.json.  The line before it holds the environment
block, sample counts and per-pass values.  Spans of traced passes are
written to ``perfbench/.out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracing import percentile  # noqa: E402

# set-up probes run before the passes; more fill the time the passes leave
SETUP_PROBES_FIRST = 4
CHILD_TIMEOUT_S = 170.0
# one process per pass, at most the workload's own worker threads
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# Child: one set-up probe or one pass, in its own process
# ---------------------------------------------------------------------------

def child(args) -> int:
    pkg = wl.import_package()
    workload = wl.WORKLOADS[args.workload]
    state = workload.setup(pkg, args.seed, args.tag)
    # set-up time from the parent's clock reading just before it started
    # this process; CLOCK_MONOTONIC is one clock for every process
    print("ready", time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned, flush=True)
    if args.child == "probe":
        workload.cleanup(state)
        return 0

    import numpy as np
    from tracing import Tracer

    tracer = Tracer(pkg, args.tag, signature=wl.call_key) if args.child == "traced" else None
    with tracer if tracer else contextlib.nullcontext():
        t0 = time.perf_counter()
        workload.run(pkg, state)
        wall = time.perf_counter() - t0
    ref = wl.load_reference(workload.name)
    checked = workload.check(state, ref)
    if tracer:
        wl.check_keyed_calls(tracer.keyed_results(), ref, checked)
    csv_bytes = workload.csv_bytes(state)
    workload.cleanup(state)

    ci2 = [checked.mc_ci95[k] ** 2 for k in ref.get("ci2_cells", []) if k in checked.mc_ci95]
    result = {
        "wall_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": checked.ops,
        "failed": len(checked.failures),
        "failures": checked.failures[:10],
        "ci2_mean": sum(ci2) / len(ci2) if ci2 else None,
        "ci2_cells": len(ci2),
        "latencies": workload.latencies(state),
        "numpy": np.__version__,
    }
    if tracer:
        layer = tracer.layer_metrics(rel_err=checked.rel_err)
        layer["cli.csv_bytes"] = csv_bytes
        cis = list(checked.mc_ci95.values())
        layer["montecarlo.cells.ci95_mean"] = sum(cis) / len(cis) if cis else 0.0
        layer["montecarlo.cells.ci95_max"] = max(cis) if cis else 0.0
        result["layer"] = layer
        result["mc_ci95"] = checked.mc_ci95
        result["rel_err"] = checked.rel_err
        tracer.dump(wl.OUT / f"spans-{args.tag}.jsonl")
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Parent: run the passes, reduce them to the metrics
# ---------------------------------------------------------------------------

def spawn(kind: str, args, index: int) -> dict:
    """Run one child process; return its result with the set-up time
    that the child reports on its 'ready' line."""
    tag = f"{args.workload}-s{args.seed}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", kind,
           "--workload", args.workload, "--seed", str(args.seed), "--tag", tag]
    cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_CAPS)
    wl.OUT.mkdir(parents=True, exist_ok=True)
    err_path = wl.OUT / f"stderr-{tag}.txt"
    with err_path.open("w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=wl.ROOT, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=env)
        try:
            first = proc.stdout.readline().split()
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{kind} process for {args.workload} timed out")
        t_end = time.perf_counter()
    if proc.returncode != 0 or len(first) != 2 or first[0] != "ready":
        raise BenchError(f"{kind} process failed ({proc.returncode}):\n"
                         + err_path.read_text(encoding="utf-8")[-4000:])
    err_path.unlink()
    result = json.loads(rest.strip().splitlines()[-1]) if kind != "probe" else {}
    result.update(kind=kind, setup_s=float(first[1]), process_s=t_end - t0)
    return result


def run_passes(args) -> list[dict]:
    deadline = T_START + args.seconds
    runs = [spawn("probe", args, i) for i in range(SETUP_PROBES_FIRST)]
    kinds = ["pass", "traced"] if args.trace else ["pass"]
    for i in itertools.count():
        runs.append(spawn(kinds[i % len(kinds)], args, len(runs)))
        done = {r["kind"] for r in runs}
        longest = max(r["process_s"] for r in runs if r["kind"] != "probe")
        if set(kinds) <= done and time.perf_counter() + longest > deadline:
            break
    # probes are short: they fill the time left rather than a pass that
    # would not fit
    longest = max(r["process_s"] for r in runs if r["kind"] == "probe")
    while time.perf_counter() + longest <= deadline:
        runs.append(spawn("probe", args, len(runs)))
    return runs


def environment(args, workload, passes: list[dict]) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, timeout=10,
                                capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(wl.SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": passes[0].get("numpy"),
        "blas_threads": THREAD_CAPS,
        "workers": workload.workers,
        "trials_per_point": workload.trials,
        "seed": args.seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(runs: list[dict]) -> tuple[dict[str, float], int]:
    """The end-to-end metrics and the number of latency samples."""
    passes = [r for r in runs if r["kind"] == "pass"]
    walls = [p["wall_s"] for p in passes]
    if passes[0]["latencies"] is not None:
        lat_ms = [1e3 * x for p in passes for x in p["latencies"]]
    else:
        # no evaluator call is timed on its own here: the timed call is
        # the whole cli.main pass
        lat_ms = [1e3 * w for w in walls]
    ci2 = [p["wall_s"] * (p["ci2_mean"] if p["ci2_mean"] is not None else 1.0)
           for p in passes]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "mc_ci2_s": statistics.median(ci2),
        "eval_ms_p50": percentile(sorted(lat_ms), 50),
        "eval_ms_p90": percentile(sorted(lat_ms), 90),
    }, len(lat_ms)


def per_layer(runs: list[dict]) -> dict[str, float]:
    traced = [r for r in runs if r["kind"] == "traced"]
    plain = [r for r in runs if r["kind"] == "pass"]
    out = {k: statistics.median(t["layer"][k] for t in traced) for k in traced[0]["layer"]}
    out["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("probe", "pass", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--tag", default="", help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args)

    bench = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (wl.SRC / "astars_noma" / "__init__.py").is_file():
        print(f"error: no package source under {wl.SRC}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    try:
        runs = run_passes(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = [r for r in runs if r["kind"] != "probe"]
    e2e, samples = end_to_end(runs)
    if args.trace:
        values, wanted = per_layer(runs), bench["per_layer"]
    else:
        values, wanted = e2e, bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = {
        "workload": args.workload,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "env": environment(args, workload, passes),
        "passes": {k: sum(r["kind"] == k for r in runs) for k in ("probe", "pass", "traced")},
        "eval_ms_samples": samples,
        "ops_total": attempted,
        "ops_failed": failed,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "pass_wall_s": [round(p["wall_s"], 6) for p in passes],
        "setup_s_samples": [round(r["setup_s"], 6) for r in runs],
        "end_to_end": e2e,
    }
    if args.trace:
        traced = [p for p in passes if p["kind"] == "traced"]
        info["mc_ci95"] = traced[0]["mc_ci95"]
        info["analytic_rel_err"] = traced[0]["rel_err"]
    print(json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    (wl.OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
