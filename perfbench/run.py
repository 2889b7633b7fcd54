"""Benchmark of wfano: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload search|reduce|member --seed N \
        --seconds S --trace 0|1 [--quick]

With --trace 0 it starts fresh processes: SETUP_REPEATS - 1 that only set up
(for the set-up median), one that runs whole rounds of the workload with a
single worker for at least --seconds, and one that runs the round's work with
two worker processes.  It checks every output, prints each end-to-end metric
with its unit, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

With --trace 1 it runs one round untraced and one round traced, each in a
fresh process, and prints the per-layer metrics and the tracing overhead
(see tracing.py).  --quick runs each workload on a few inputs in seconds.

Raw samples, catalogs and spans go to perfbench/out/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

WORKLOADS = ("search", "reduce", "member")
SETUP_REPEATS = 7
#: every run ends within this many seconds, or fails
BUDGET_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_jobs2_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def child(role: str, args, out: Path, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter (own process group) and parse its
    last output line; kill the whole group if it outlives the deadline."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--out", str(out),
    ]
    if args.quick:
        cmd += ["--once", "--quick"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} process ran past the {BUDGET_S:.0f} s budget")
    if proc.returncode != 0:
        raise ChildFailed(f"{role} process exited with {proc.returncode}:\n{stderr.strip()}")
    return json.loads(stdout.strip().splitlines()[-1])


def timed_run(args, out: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    setups = [child("setup", args, out, deadline)["ref_setup_s"] for _ in range(SETUP_REPEATS - 1)]
    timed = child("timed", args, out, deadline)
    jobs2 = child("jobs2", args, out, deadline)
    setups.append(timed["ref_setup_s"])
    problems = timed["problems"] + jobs2["problems"]
    if args.workload == "search":
        problems += checks.same_catalog(
            (out / "catalog-timed.json").read_text(), (out / "catalog-jobs2.json").read_text(), "jobs=2 catalog"
        )
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(timed["ref_round_wall_s"]),
        "wall_jobs2_s": jobs2["ref_round_wall_s"][0],
        "op_p50_ms": statistics.median(timed["ref_op_s"]) * 1000,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    counts = {
        "attempted": timed["attempted"] + jobs2["attempted"],
        "failed": timed["failed"] + jobs2["failed"],
    }
    raw = {"setup_samples_s": setups, "timed": timed, "jobs2": jobs2, **counts}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, raw, problems


def traced_run(args, out: Path, deadline: float) -> tuple[dict, dict, list[str]]:
    plain = child("untraced", args, out, deadline)
    traced = child("traced", args, out, deadline)
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["round_wall_s"][0] - plain["round_wall_s"][0]
    counts = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }
    raw = {"untraced": plain, "traced": traced, **counts}
    metrics = {k: (layers[k], PER_LAYER[k][0]) for k in PER_LAYER}
    return metrics, raw, plain["problems"] + traced["problems"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="wfano benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="a few inputs per workload, in seconds")
    args = p.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    if not (Path("src") / "wfano" / "__init__.py").is_file():
        print("run.py: no src/wfano here; run from the root of a wfano checkout", file=sys.stderr)
        return 2
    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        metrics, raw, problems = run(args, out, deadline)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'attempted':42s} {raw['attempted']:14d}")
    print(f"{'failed':42s} {raw['failed']:14d}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    result = {
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out / "result.json").write_text(json.dumps({"result": result, "raw": raw, "problems": problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
