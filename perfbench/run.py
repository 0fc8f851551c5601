"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload train_window8k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice for half the time each, untraced then traced, and reports the
per-layer metrics, including the tracing overhead between the two halves.
Both modes check the program's outputs; the traced mode also checks that
tracing did not change them.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it are a readable table and one JSON line of details (run
environment, sample counts and percentiles, output digest, VM steal time).
Exits 1 when a correctness check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import common

END_TO_END = {
    "setup_s": "s",
    "episodes_per_s": "1/s",
    "cpu_ms_per_episode": "ms",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "rewards.cost_reward_us": "us",
    "rewards.warmup_s": "s",
    "protocol.parse_us": "us",
    "protocol.validate_us": "us",
    "protocol.parses_per_episode": "count",
    "pool.dispatch_us": "us",
    "pool.calls_per_episode": "count",
    "pool.call_error_ratio": "ratio",
    "pool.overhead_us": "us",
    "pool.connections_per_call": "count",
    "engine.episode_us": "us",
    "engine.routes_per_episode": "count",
    "engine.self_us": "us",
    "trainer.decision_us": "us",
    "trainer.grad_step_ms": "ms",
    "frontend.overhead_us": "us",
    "serve.response_kb": "KiB",
    "serve.rejected_ratio": "ratio",
    "trace.overhead_pct": "%",
}
WORKLOADS = ("train_window8k", "eval_http", "serve_long")


def load_workload(name: str):
    # Imported late: the workloads import the program, found through the
    # ``src/`` entry main() puts on sys.path.
    import wl_eval
    import wl_serve
    import wl_train

    return {
        "train_window8k": wl_train,
        "eval_http": wl_eval,
        "serve_long": wl_serve,
    }[name]


def measure(args, work_dir: str):
    """Run the phases; returns (metrics, units, attempted, failed, checks,
    output digest, details)."""
    workload = load_workload(args.workload)
    if not args.trace:
        phase = workload.run(args.seed, args.seconds, False, work_dir)
        phases = {"untraced": phase}
        metrics, units = phase.e2e, END_TO_END
        checks = dict(phase.checks)
    else:
        plain = workload.run(args.seed, args.seconds / 2.0, False, work_dir)
        traced = workload.run(args.seed, args.seconds / 2.0, True, work_dir)
        phases = {"untraced": plain, "traced": traced}
        metrics = dict(traced.layers)
        metrics["trace.overhead_pct"] = (
            plain.e2e["episodes_per_s"] / traced.e2e["episodes_per_s"] - 1.0
        ) * 100.0
        units = PER_LAYER
        checks = {
            f"{name}.{check}": ok
            for name, p in phases.items()
            for check, ok in p.checks.items()
        }
        checks["tracing_leaves_outputs_unchanged"] = plain.output == traced.output
        phase = traced
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    details = {
        name: {
            "e2e": p.e2e,
            "samples": p.samples,
            "attempted": p.attempted,
            "failed": p.failed,
            **p.details,
        }
        for name, p in phases.items()
    }
    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    digest = hashlib.sha256(phase.output.encode()).hexdigest()[:16]
    return metrics, units, attempted, failed, checks, digest, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(common.SRC, "multiroute")):
        print(f"perfbench: no multiroute package under {common.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, common.SRC)
    environment = common.environment()
    # The run and every process it starts (they inherit the affinity) share
    # one CPU.  On a VM, each time a vCPU goes idle and is woken again,
    # often from the other vCPU, it waits for the host; pinned, the client
    # and server of serve_long keep one vCPU busy, and VM steal over a
    # 30 s run fell from 1,400-2,500 to 80-600 jiffies on a 2-vCPU VM.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    steal_start = common.steal_jiffies()
    work_dir = common.make_work_dir()
    try:
        metrics, units, attempted, failed, checks, digest, details = measure(
            args, work_dir
        )
    finally:
        common.remove_work_dir(work_dir)
    correct = all(checks.values()) and failed == 0

    for name, unit in units.items():
        print(f"{args.workload:>15}  {name:<28} {metrics[name]:>14.6g} {unit}")
    for check, ok in checks.items():
        print(f"{args.workload:>15}  check {check}: {'ok' if ok else 'FAILED'}")
    print(
        json.dumps(
            {
                "details": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "environment": environment,
                    "pinned_cpu": min(os.sched_getaffinity(0)),
                    "steal_jiffies": common.steal_jiffies() - steal_start,
                    "output_digest": digest,
                    "checks": checks,
                    "phases": details,
                }
            },
            sort_keys=True,
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
