"""One workload process; run.py starts it fresh for every role.

Roles: ``setup`` (set up, report the set-up time), ``timed`` (set up, then
whole rounds until --seconds have passed, or one with --once), ``jobs2`` (the
round's work with two worker processes), ``traced`` (one round under the
tracer) and ``untraced`` (one round with neither tracer nor calibration, the
traced round's baseline).  The last line of standard output is the role's
JSON result.
"""

import sys
import time

T0 = time.perf_counter()
sys.path.insert(0, "src")
import wfano  # noqa: E402,F401  (set-up time starts before this import)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from calibrate import Sampler, burst_scale  # noqa: E402


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "timed", "jobs2", "traced", "untraced"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--once", action="store_true")
    p.add_argument("--quick", action="store_true")
    args = p.parse_args()
    out = Path(args.out)

    extra: dict = {"sympy_import_s": 0.0}
    if args.role == "traced" and args.workload == "member":
        t = time.perf_counter()
        import sympy  # noqa: F401  (the import the first chart check would make)

        extra["sympy_import_s"] = time.perf_counter() - t
    state = workloads.prepare(args.workload, args.seed, args.quick)
    setup_s = time.perf_counter() - T0
    state["out"] = out
    result: dict = {"setup_s": setup_s, "ref_setup_s": setup_s * burst_scale()}
    if args.role == "setup":
        print(json.dumps(result))
        return 0

    sampler = Sampler()
    if args.role == "jobs2":
        for old in out.glob("cal-*.log"):
            old.unlink()
        rounds = [workloads.JOBS2[args.workload](state)]
        logs = sorted(out.glob("cal-*.log"))
        sampler = Sampler.from_logs(logs)  # the workers' samples
        for log in logs:
            log.unlink()
    elif args.role == "traced":
        from tracing import SITES, Tracer, layer_metrics

        tracer = Tracer()
        state["tracer"] = tracer
        modules = {m for m, _, _ in SITES if m in sys.modules}
        rep0 = wfano.membership.representable.cache_info()
        tracer.install(modules)
        try:
            rounds = [workloads.ROUNDS[args.workload](state)]
        finally:
            tracer.restore()
        rep1 = wfano.membership.representable.cache_info()
        cleared = state.get("representable", (0, 0))  # counts of a search round's cache_clear calls
        hits = cleared[0] + rep1.hits - rep0.hits
        extra.update(
            representable_calls=hits + cleared[1] + rep1.misses - rep0.misses,
            representable_hits=hits,
            max_coeff_bits=tracer.max_coeff_bits,
            reduced_terms=tracer.reduced_terms,
        )
        result["layers"] = layer_metrics(tracer.spans, extra)
        tracer.write(str(out / "trace.json"))
    elif args.role == "untraced":
        rounds = [workloads.ROUNDS[args.workload](state)]
    else:
        rounds = []
        start = time.perf_counter()
        sampler.start()
        while True:
            rounds.append(workloads.ROUNDS[args.workload](state))
            if args.once or time.perf_counter() - start >= args.seconds:
                break
        sampler.stop()
    if sampler.units:
        result["ref_round_wall_s"] = [sampler.ref_duration(r.start, r.end) for r in rounds]
        result["ref_op_s"] = [sampler.ref_duration(a, b) for r in rounds for a, b in r.ops]
        result["calibration_s"] = sampler.units
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["round_wall_s"] = [r.wall for r in rounds]
    result["op_s"] = [b - a for r in rounds for a, b in r.ops]
    result["attempted"] = sum(r.attempted for r in rounds)
    result["failed"] = sum(r.failed for r in rounds)
    result["problems"] = [p for r in rounds for p in r.problems]
    detail = rounds[0].detail
    if "catalog" in detail:
        (out / f"catalog-{args.role}.json").write_text(detail.pop("catalog"))
    result["detail"] = detail
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
