"""Benchmark harness: one command for every workload in BENCHMARK.json.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sort-2wrs --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched, its times in reference seconds (see ``probe.py``);
``--trace 1`` runs the same work once untraced and once under the
span probes of ``tracer.py`` and reports the per-layer metrics, the
traced-vs-untraced wall difference included.  Every run
checks every output against an oracle first.

Standard output carries one ``details`` JSON line (metadata, the
host-drift calibration, every workload-specific figure with its unit)
and, last, the result line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is pure Python; the only build step is byte-compiling
``src/`` once so that later children import cached code.  Exits
non-zero without a result line when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys
import time
import traceback

from common import (
    ROOT,
    Context,
    Outcome,
    calibrate,
    fresh_work_dir,
    remove_work_dir,
    run_metadata,
)
from probe import HostProbe, measurement_cpu

WORKLOADS = ("sort-2wrs", "store-kv", "service-mixed")


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def workload_module(name: str):
    if name == "sort-2wrs":
        import w_sort as module
    elif name == "store-kv":
        import w_store as module
    else:
        import w_service as module
    return module


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(src, quiet=1):
        print("perfbench: src/ does not byte-compile", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))

    # Program processes and the probe share one CPU; the harness (and
    # the service's client threads) keep off it when there is another.
    cpu = measurement_cpu()
    others = os.sched_getaffinity(0) - {cpu}
    os.sched_setaffinity(0, {cpu})
    calibration_s = calibrate()
    if others:
        os.sched_setaffinity(0, others)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work_dir=fresh_work_dir(args.workload),
        cpu=cpu,
    )
    outcome = Outcome()
    details = {"meta": run_metadata(ctx)}
    details["meta"]["calibration_s"] = calibration_s
    started = time.perf_counter()
    try:
        if not ctx.trace:
            ctx.probe = HostProbe(cpu)
        workload_module(args.workload).run(ctx, outcome)
    except Exception:  # the run fails loudly, after cleaning up
        outcome.check(False, traceback.format_exc())
    finally:
        if ctx.probe is not None:
            ctx.probe.close()
            details["meta"]["probe_samples"] = ctx.probe.samples()
        remove_work_dir(ctx.work_dir)
    details["meta"]["run_wall_s"] = time.perf_counter() - started
    if ctx.trace:
        outcome.metrics["host.calibration_s"] = details["meta"]["calibration_s"]
    details["details"] = outcome.details
    details["errors"] = outcome.errors
    print(json.dumps(details, sort_keys=True))

    correct = outcome.failed == 0 and outcome.attempted > 0
    missing = sorted(set(declared) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(declared))
    if correct and (missing or extra):
        print(f"perfbench: metrics missing {missing}, undeclared {extra}",
              file=sys.stderr)
        return 1
    if not correct:
        for error in outcome.errors:
            print(f"perfbench: {error}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": declared[name]}
            for name in declared
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
