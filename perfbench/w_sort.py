"""Workload ``sort-2wrs``: the default CLI sort path.

A child runs ``python -m repro.cli sort IN -o OUT`` with every default
(2WRS, int records, ``--memory 10000``, fan-in 10, ``--reading auto``)
over 200 000 uniformly random integers — 20x memory, so 11 runs and
two merge passes.  The loop is closed and serial: one sort at a time,
repeated while another sort fits in the run's seconds.  Every output must hash
to the digest of ``sorted()`` over the same input.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from typing import List, Tuple

from common import (
    ChildResult,
    Context,
    Outcome,
    another_unit,
    median,
    read_json,
    run_child,
    sha256_file,
)
from tracer import TraceSummary

RECORDS = 200_000
VALUE_SPAN = 1_000_000_000
SETUP_REPEATS = 15


def make_input(seed: int, path: str) -> Tuple[str, int]:
    """Write the seeded input; return the sorted output's digest and
    the input size in bytes."""
    rng = random.Random(seed)
    values = [rng.randrange(VALUE_SPAN) for _ in range(RECORDS)]
    text = "".join(f"{value}\n" for value in values).encode("ascii")
    with open(path, "wb") as handle:
        handle.write(text)
    values.sort()
    expected = "".join(f"{value}\n" for value in values).encode("ascii")
    return hashlib.sha256(expected).hexdigest(), len(text)


def output_matches(path: str, expected_digest: str) -> bool:
    """The correctness gate: the output file hashes to the oracle's."""
    try:
        return sha256_file(path) == expected_digest
    except OSError:
        return False


class SortRunner:
    """Runs the CLI sort as a child and gates its output."""

    def __init__(self, ctx: Context, outcome: Outcome) -> None:
        self.ctx = ctx
        self.outcome = outcome
        self.count = 0

    def sort(
        self, source: str, expected: str, trace: bool = False
    ) -> Tuple[ChildResult, int]:
        """One sort; returns the child's result and the bytes it wrote."""
        ctx = self.ctx
        self.count += 1
        tag = f"sort-{self.count}"
        out = ctx.path(f"{tag}.out")
        stats = ctx.path(f"{tag}.stats.json")
        argv = ctx.launcher(
            stats,
            trace=ctx.path(f"{tag}.trace.json") if trace else None,
            root="root.program" if trace else None,
        )
        argv += ["-m", "repro.cli", "sort", source, "-o", out]
        result = run_child(argv, ctx, f"{tag}.log")
        ok = result.returncode == 0 and output_matches(out, expected)
        self.outcome.check(ok, f"{tag}: exit {result.returncode}, output "
                               f"{'matches' if ok else 'differs from'} sorted()")
        wchar = read_json(stats)["wchar"] if os.path.exists(stats) else 0
        if os.path.exists(out):
            os.remove(out)
        return result, wchar


def measure_setup(runner: SortRunner) -> Tuple[float, float]:
    """Median wall of the same command on an empty input, raw and in
    reference seconds."""
    empty = runner.ctx.path("empty.txt")
    open(empty, "wb").close()
    empty_digest = hashlib.sha256(b"").hexdigest()
    runs = [runner.sort(empty, empty_digest)[0] for _ in range(SETUP_REPEATS)]
    probe = runner.ctx.probe
    return (
        median([r.wall_s for r in runs]),
        median([r.ref_seconds(probe) for r in runs]),
    )


def run(ctx: Context, outcome: Outcome) -> None:
    source = ctx.path("input.txt")
    expected, input_bytes = make_input(ctx.seed, source)
    runner = SortRunner(ctx, outcome)
    outcome.details["input_records"] = RECORDS
    outcome.details["input_bytes"] = input_bytes
    if ctx.trace:
        run_traced(ctx, outcome, runner, source, expected)
        return
    raw_setup_s, setup_s = measure_setup(runner)
    sorts: List[ChildResult] = []
    walls: List[float] = []
    written: List[int] = []
    started = time.perf_counter()
    while another_unit(started, ctx.seconds, walls):
        result, wchar = runner.sort(source, expected)
        sorts.append(result)
        walls.append(result.wall_s)
        written.append(wchar)
    ref_walls = [r.ref_seconds(ctx.probe) for r in sorts]
    outcome.details.update(
        sorts=len(sorts),
        sort_walls_s=walls,
        sort_ref_walls_s=ref_walls,
        host_cpu_factors=[ctx.probe.cpu_factor(r.started, r.ended)
                          for r in sorts],
        raw_setup_s=raw_setup_s,
        sort_records_per_s=RECORDS / median(walls),
    )
    outcome.metrics.update(
        setup_s=setup_s,
        peak_rss_mb=max(r.maxrss_mb for r in sorts),
        records_per_s=RECORDS / median(ref_walls),
        op_tail_ms=max(ref_walls) * 1e3,
        write_amp=median(written) / input_bytes,
    )


def run_traced(
    ctx: Context,
    outcome: Outcome,
    runner: SortRunner,
    source: str,
    expected: str,
) -> None:
    plain_wall = runner.sort(source, expected)[0].wall_s
    traced_wall = runner.sort(source, expected, trace=True)[0].wall_s
    trace_path = ctx.path(f"sort-{runner.count}.trace.json")
    summary = TraceSummary(read_json(trace_path))
    outcome.metrics.update(summary.common_metrics())
    outcome.metrics.update(summary.sort_metrics())
    outcome.metrics.update(summary.store_metrics(gets=0, writes=0))
    outcome.metrics.update(summary.service_metrics([]))
    outcome.metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
    outcome.details["untraced_wall_s"] = plain_wall
    outcome.details["traced_wall_s"] = traced_wall
