"""Block-batched I/O sweep: block size and spill encoding vs the text baseline.

Sorts the same dataset through the real-file spill backend once as the
*text baseline* — the plain :data:`~repro.core.records.INT` format at
the default 4096-record block — then at several ``--block-records``
settings, in text and in the binary spill encoding.  Results (wall
seconds, speedup vs the baseline, sha256 output digests — all settings
must produce byte-identical output) go to ``BENCH_blockio.json`` at the
repo root.

The ``generator_sweep`` section sorts four datasets (random, reverse,
alternating, mixed) on the default text path with each run generator
(2WRS, RS, LSS) and records runs, merge passes, run-generation wall,
total wall and the output digest: the place where 2WRS's longer runs
remove whole merge passes, or do not.

Usage::

    PYTHONPATH=src python benchmarks/bench_block_io.py \
        --records 500000 --blocks 512 4096 16384

This is a standalone script, not a pytest-benchmark module: the
quantity of interest is the relative wall-clock of whole sorts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.core.config import GeneratorSpec
from repro.core.records import (
    INT,
    BinaryRecordFormat,
    binary_format,
    resolve_format,
)
from repro.engine.planner import SortEngine
from repro.workloads.generators import DISTRIBUTIONS, random_input

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_blockio.json"

#: Best block-batched wall (block_records=16384, 500k records) recorded
#: by the PR 3 run of this script on this container — the committed
#: BENCH_blockio.json in git history before the binary spill format
#: landed.  Speedups against it are only reported for runs at the same
#: --records scale.
PR3_BLOCK_BASELINE_SECONDS = 3.559
PR3_BASELINE_RECORDS = 500_000


#: Run generators and datasets of the ``generator_sweep`` section.
GENERATORS = ("2wrs", "rs", "lss")
GENERATOR_DATASETS = ("random", "reverse_sorted", "alternating",
                      "mixed_balanced")


def run_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
    dataset: str = "random",
) -> dict:
    """One full sort; returns wall times, runs and an output digest."""
    engine = SortEngine(
        GeneratorSpec(algorithm, memory),
        record_format=record_format,
        fan_in=fan_in,
        buffer_records=block_records,
        block_records=block_records,
    )
    source = DISTRIBUTIONS[dataset](records, seed=seed)
    normalize_wall = None
    if isinstance(record_format, BinaryRecordFormat):
        # The binary path sorts (key bytes, payload bytes) records.
        # The text modes receive their decoded form (Python ints) for
        # free, so the one-time key normalisation is timed separately
        # rather than inside the sort, mirroring the CLI where both
        # paths pay their own input decode stage.
        decode = record_format.decode
        started = time.perf_counter()
        source = [decode(str(value)) for value in source]
        normalize_wall = round(time.perf_counter() - started, 3)
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update((encode(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    row = {
        "wall_seconds": round(wall, 3),
        "run_generation_seconds": round(engine.report.run_phase.wall_time, 3),
        "runs": engine.report.runs,
        "merge_passes": engine.merge_passes,
        "sha256": digest.hexdigest(),
    }
    if normalize_wall is not None:
        row["normalize_seconds"] = normalize_wall
    return row


def delimited_once(
    records: int,
    memory: int,
    algorithm: str,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
) -> dict:
    """One full sort of delimited rows keyed on a numeric column.

    Integers compare natively either way, so the text-vs-binary gap on
    the INT sweeps is mostly framing; delimited keys are where the
    normalised bytes pay — the text path compares decoded
    ``(rank, class, ...)`` component tuples per heap step while the
    binary path compares one flat ``bytes`` key with memcmp.  Both
    modes pay their own input decode stage, timed separately.
    """
    engine = SortEngine(
        GeneratorSpec(algorithm, memory),
        record_format=record_format,
        fan_in=fan_in,
        buffer_records=block_records,
        block_records=block_records,
    )
    rows = [
        f"{value},p{index:07d}"
        for index, value in enumerate(random_input(records, seed=seed))
    ]
    decode = record_format.decode
    started = time.perf_counter()
    source = [decode(row) for row in rows]
    normalize_wall = round(time.perf_counter() - started, 3)
    encode = record_format.encode
    digest = hashlib.sha256()
    count = 0
    started = time.perf_counter()
    for value in engine.sort(source):
        digest.update((encode(value) + "\n").encode("ascii"))
        count += 1
    wall = time.perf_counter() - started
    assert count == records, f"lost records: {count} != {records}"
    return {
        "wall_seconds": round(wall, 3),
        "normalize_seconds": normalize_wall,
        "merge_passes": engine.merge_passes,
        "sha256": digest.hexdigest(),
    }


def merge_only(
    records: int,
    fan_in: int,
    block_records: int,
    record_format,
    seed: int,
) -> dict:
    """Time just the k-way merge of pre-written sorted run files.

    Isolates the hot merge loop (read blocks -> heap -> the consumer
    just hashes), where the binary keys replace the Python-level
    comparison.
    Runs are written and merged through the spill primitives directly
    so every mode — including the binary framing, which
    ``merge_files`` deliberately refuses for caller-owned text files —
    exercises the same code path.
    """
    import tempfile

    from repro.engine.block_io import write_sequence
    from repro.merge.kway import MergeCounter
    from repro.sort.spill import SpilledRun, SpillSession, merge_spilled_runs

    run_records = records // fan_in
    binary = isinstance(record_format, BinaryRecordFormat)
    with tempfile.TemporaryDirectory(prefix="repro-benchio-") as work_dir:
        session = SpillSession(work_dir)
        runs = []
        for index in range(fan_in):
            data = sorted(random_input(run_records, seed=seed * 100 + index))
            if binary:
                data = [record_format.decode(str(value)) for value in data]
            path = os.path.join(work_dir, f"run-{index:02d}.txt")
            write_sequence(path, data, record_format)
            runs.append(SpilledRun(
                session, path, len(data), record_format, block_records,
                keep=True,
            ))
        encode = record_format.encode
        digest = hashlib.sha256()
        count = 0
        started = time.perf_counter()
        for value in merge_spilled_runs(
            session, runs, MergeCounter(), record_format, fan_in,
            block_records,
        ):
            digest.update((encode(value) + "\n").encode("ascii"))
            count += 1
        wall = time.perf_counter() - started
    assert count == run_records * fan_in
    return {
        "wall_seconds": round(wall, 3),
        "records": count,
        "sha256": digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=500_000)
    parser.add_argument("--memory", type=int, default=10_000)
    parser.add_argument("--algorithm", default="lss",
                        choices=("rs", "2wrs", "lss", "brs"))
    parser.add_argument("--fan-in", type=int, default=10)
    parser.add_argument("--blocks", type=int, nargs="+",
                        default=[512, 4096, 16384])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    common = dict(
        records=args.records, memory=args.memory, algorithm=args.algorithm,
        fan_in=args.fan_in, seed=args.seed,
    )

    print("baseline: text int format, 4096-record blocks ...", flush=True)
    baseline = run_once(**common, block_records=4096, record_format=INT)
    baseline["mode"] = "text_baseline"
    print(f"  wall={baseline['wall_seconds']}s", flush=True)

    block_rows = []
    for block in args.blocks:
        print(f"block_records={block}: block-batched sort ...", flush=True)
        row = run_once(**common, block_records=block, record_format=INT)
        row["mode"] = "block"
        row["block_records"] = block
        row["speedup_vs_text_baseline"] = round(
            baseline["wall_seconds"] / row["wall_seconds"], 3
        )
        block_rows.append(row)
        print(f"  wall={row['wall_seconds']}s "
              f"(x{row['speedup_vs_text_baseline']})", flush=True)

    binary_rows = []
    for block in args.blocks:
        print(f"block_records={block}: binary-spill sort ...", flush=True)
        row = run_once(
            **common, block_records=block, record_format=binary_format(INT),
        )
        row["mode"] = "binary"
        row["block_records"] = block
        row["speedup_vs_text_baseline"] = round(
            baseline["wall_seconds"] / row["wall_seconds"], 3
        )
        binary_rows.append(row)
        print(f"  wall={row['wall_seconds']}s "
              f"(x{row['speedup_vs_text_baseline']})", flush=True)

    csv_format = resolve_format("csv", key=0)
    delimited_rows = {}
    for label, fmt in (
        ("text", csv_format),
        ("binary", binary_format(csv_format)),
    ):
        print(f"delimited ({label}): csv rows keyed on column 0 ...",
              flush=True)
        row = delimited_once(
            **common, block_records=4096, record_format=fmt,
        )
        row["mode"] = f"delimited_{label}"
        delimited_rows[label] = row
        print(f"  wall={row['wall_seconds']}s", flush=True)
    delimited_speedup = round(
        delimited_rows["text"]["wall_seconds"]
        / delimited_rows["binary"]["wall_seconds"], 3
    )
    print(f"  binary x{delimited_speedup} vs text on delimited keys",
          flush=True)

    print("merge-only: text vs binary decode ...", flush=True)
    merge_text = merge_only(args.records, args.fan_in, 4096, INT, args.seed)
    merge_binary = merge_only(
        args.records, args.fan_in, 4096, binary_format(INT), args.seed
    )
    merge_binary_speedup = round(
        merge_text["wall_seconds"] / merge_binary["wall_seconds"], 3
    )
    print(
        f"  text={merge_text['wall_seconds']}s "
        f"binary={merge_binary['wall_seconds']}s "
        f"(x{merge_binary_speedup})",
        flush=True,
    )

    generator_rows = []
    for dataset in GENERATOR_DATASETS:
        for algorithm in GENERATORS:
            print(f"generators: {algorithm} on {dataset} ...", flush=True)
            row = run_once(
                **{**common, "algorithm": algorithm}, block_records=4096,
                record_format=INT, dataset=dataset,
            )
            row["dataset"] = dataset
            row["algorithm"] = algorithm
            generator_rows.append(row)
            print(f"  runs={row['runs']} passes={row['merge_passes']} "
                  f"run_gen={row['run_generation_seconds']}s "
                  f"wall={row['wall_seconds']}s", flush=True)
    generator_digests = {
        dataset: {r["sha256"] for r in generator_rows
                  if r["dataset"] == dataset}
        for dataset in GENERATOR_DATASETS
    }

    digests = {r["sha256"] for r in [baseline, *block_rows, *binary_rows]}
    identical = (
        len(digests) == 1
        and all(len(d) == 1 for d in generator_digests.values())
        and generator_digests["random"] == digests
        and merge_text["sha256"] == merge_binary["sha256"]
        and delimited_rows["text"]["sha256"]
        == delimited_rows["binary"]["sha256"]
    )
    best = max(
        r["speedup_vs_text_baseline"] for r in block_rows
    )
    best_binary = max(
        r["speedup_vs_text_baseline"] for r in binary_rows
    )

    vs_pr3 = None
    if args.records == PR3_BASELINE_RECORDS:
        vs_pr3 = {
            "pr3_best_block_wall_seconds": PR3_BLOCK_BASELINE_SECONDS,
            "block_speedup_vs_pr3": round(
                PR3_BLOCK_BASELINE_SECONDS
                / min(r["wall_seconds"] for r in block_rows), 3
            ),
            "binary_speedup_vs_pr3": round(
                PR3_BLOCK_BASELINE_SECONDS
                / min(r["wall_seconds"] for r in binary_rows), 3
            ),
        }

    payload = {
        "benchmark": "block-batched spill I/O vs the text int baseline",
        **common,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "output_identical_across_settings": identical,
        "best_block_speedup_vs_text_baseline": best,
        "best_binary_speedup_vs_text_baseline": best_binary,
        "merge_only_binary_speedup_vs_text": merge_binary_speedup,
        "delimited_binary_speedup_vs_text": delimited_speedup,
        "end_to_end_vs_pr3_block_batched": vs_pr3,
        "text_baseline": baseline,
        "block_sweep": block_rows,
        "binary_sweep": binary_rows,
        "delimited": delimited_rows,
        "merge_only": {"text": merge_text, "binary": merge_binary},
        "generator_sweep": generator_rows,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    if not identical:
        print("ERROR: outputs differ across settings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
