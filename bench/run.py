"""moectr benchmark: train one workload end to end, evaluate it, check it.

    python3 bench/run.py --workload moe-e4 [--seed 0] [--seconds 10] [--trace 0]

Run from the root of a source checkout.  Every step runs in a fresh child
process (``workload.py``) whose BLAS and OpenMP thread variables are set to
1 before it starts: an untraced run makes the workload's rounds one after
another, each a process that trains once and evaluates for its share of
``--seconds``, and reports medians over them.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 only when every check
passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workload import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "MOECTR_THREADS")
# Whole-run budget; each child gets what is left of it.
BUDGET_S = 175.0
UNITS = {"setup_s": "s", "train_s": "s", "train_rows_per_s": "rows/s",
         "eval_rows_per_s": "rows/s", "test_wauc": "1", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    """Per-layer times have a name part ending in "_s"; the rest are counts."""
    return "s" if any(part.endswith("_s") for part in name.split(".")) else "count"


class ChildFailed(RuntimeError):
    pass


def child(args: list[str], deadline: float) -> dict:
    """Run workload.py in a fresh single-threaded process; its last stdout line."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH, "workload.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(args)}: timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {proc.returncode}")
    return json.loads(lines[-1])


def report(records: list[dict], metrics: dict[str, float], units) -> dict:
    for r in records:
        for c in r["checks"]:
            if not c["ok"]:
                print(c["message"], file=sys.stderr)
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }


def untraced(common: list[str], rounds: int, seconds: float, run_dir: str,
             deadline: float) -> dict:
    records = [child([*common, "--seconds", str(seconds / rounds), "--trace", "0",
                      "--out", os.path.join(run_dir, f"round{i}")], deadline)
               for i in range(rounds)]
    metrics = {k: statistics.median(r[k] for r in records) for k in UNITS}
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in records)
    return report(records, metrics, UNITS.get)


def traced(common: list[str], run_dir: str, deadline: float, spans_path: str) -> dict:
    base = child([*common, "--trace", "0", "--train-only",
                  "--out", os.path.join(run_dir, "base")], deadline)
    traced_dir = os.path.join(run_dir, "traced")
    r = child([*common, "--trace", "1", "--out", traced_dir], deadline)
    shutil.move(os.path.join(traced_dir, "spans.jsonl"), spans_path)
    per_layer = r["per_layer"]
    per_layer["trace.overhead_s"] = r["train_s"] - base["train_s"]
    return report([r], per_layer, per_layer_unit)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "moectr", "__init__.py")):
        print(f"error: no moectr source tree at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = traced(common, run_dir, deadline,
                            os.path.join(OUT, f"spans-{tag}.jsonl"))
        else:
            result = untraced(common, WORKLOADS[args.workload].rounds, args.seconds,
                              run_dir, deadline)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
