"""Self-tests of the benchmark harness.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [WORKLOAD ...]

1. Each gate rejects a corrupted output: a sort output with one byte
   flipped, a store stream with one wrong get and one wrong scan, a
   service result with one changed row.
2. A checkout holding only ``BENCHMARK.json`` and the benchmark's own
   files makes ``run.py`` exit non-zero without a result line.
3. Two runs at one seed report exactly equal count metrics (run
   counts, merge passes, spill bytes, fsync counts, table probes per
   get, write and space amplification), traced and untraced, for each
   named workload (all three by default; this takes a few minutes).

Exits non-zero on the first failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from typing import Any, Dict, List

from common import BENCH_DIR, ROOT, WORK_ROOT, Outcome, remove_work_dir
from store_child import kv_digest
from w_service import result_matches
from w_sort import output_matches
from w_store import check_stream

#: Metrics that count work rather than time it, per workload and mode.
EXACT = {
    "sort-2wrs": {
        1: ("runs.count", "runs.avg_len_per_memory", "merge.passes",
            "spill.bytes", "fsyncs", "block_io.decode_blocks",
            "merge.block_reads"),
        0: ("write_amp",),
    },
    "store-kv": {
        1: ("fsyncs", "fsyncs_per_put", "wal.appends", "store.flushes",
            "compaction.count", "compaction.bytes", "store.tables_final",
            "sstable.probes_per_get", "sstable.blocks_decoded_per_get",
            "sstable.probe_hit_ratio", "memtable.get_hit_ratio"),
        0: ("write_amp",),
    },
    "service-mixed": {
        1: ("fsyncs", "fsyncs_per_job", "runs.count", "merge.passes",
            "spill.bytes", "block_io.decode_blocks"),
        0: (),
    },
}

#: Detail figures (first output line) that count work, per workload.
EXACT_DETAILS = {
    "sort-2wrs": (),
    "store-kv": ("write_amp", "space_amp", "tables_final"),
    "service-mixed": (),
}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def test_gates_reject_corruption(scratch: str) -> None:
    expected = b"1\n2\n3\n"
    digest = hashlib.sha256(expected).hexdigest()
    path = os.path.join(scratch, "out.txt")
    with open(path, "wb") as handle:
        handle.write(expected)
    if not output_matches(path, digest):
        fail("sort gate rejected a correct output")
    with open(path, "wb") as handle:
        handle.write(b"1\n3\n3\n")
    if output_matches(path, digest):
        fail("sort gate accepted an output with a flipped byte")

    oracle: Dict[str, Any] = {
        "writes": 2,
        "gets": ["a", None],
        "scans": [kv_digest([(b"k", b"a")])],
        "reopened": kv_digest([(b"k", b"a")]),
    }
    good = {
        "put_lat": [0.1], "delete_lat": [0.1], "gets": ["a", None],
        "scans": [{"digest": oracle["scans"][0][0], "count": 1}],
        "reopened": {"digest": oracle["scans"][0][0], "count": 1},
    }
    outcome = Outcome()
    check_stream(good, oracle, outcome, "good")
    if outcome.failed:
        fail(f"store gate rejected a correct stream: {outcome.errors}")
    bad = json.loads(json.dumps(good))
    bad["gets"][1] = "resurrected"
    bad["scans"][0]["count"] = 2
    outcome = Outcome()
    check_stream(bad, oracle, outcome, "bad")
    if outcome.failed != 2:
        fail(f"store gate caught {outcome.failed} of 2 corruptions")

    rows = "k000001,2,14\nk000002,1,-4\n"
    digest = hashlib.sha256(rows.encode()).hexdigest()
    if not result_matches(rows, digest):
        fail("service gate rejected a correct result")
    if result_matches(rows.replace("14", "15"), digest):
        fail("service gate accepted a changed row")
    print("selftest: gates reject corrupted outputs")


def test_bare_checkout_fails(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        BENCH_DIR, os.path.join(bare, os.path.basename(BENCH_DIR)),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(bare, "perfbench", "run.py"),
         "--workload", "sort-2wrs", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("run.py succeeded in a checkout without the program")
    print("selftest: a checkout without the program fails cleanly")


def run_once(workload: str, trace: int) -> List[Dict[str, Any]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} --trace {trace} reported incorrect output")
    return [details, result]


def test_counts_repeat(workload: str) -> None:
    for trace, names in EXACT[workload].items():
        first, second = run_once(workload, trace), run_once(workload, trace)
        for name in names:
            a = first[1]["metrics"][name]["value"]
            b = second[1]["metrics"][name]["value"]
            if a != b:
                fail(f"{workload}: {name} differs between runs: {a} != {b}")
        if trace == 0:
            for name in EXACT_DETAILS[workload]:
                a = first[0]["details"][name]
                b = second[0]["details"][name]
                if a != b:
                    fail(f"{workload}: {name} differs between runs: "
                         f"{a} != {b}")
    print(f"selftest: {workload} count metrics repeat exactly at one seed")


def main(workloads: List[str]) -> None:
    scratch = os.path.join(WORK_ROOT, f"selftest-{os.getpid()}")
    os.makedirs(scratch)
    try:
        test_gates_reject_corruption(scratch)
        test_bare_checkout_fails(scratch)
    finally:
        remove_work_dir(scratch)
    for workload in workloads or list(EXACT):
        test_counts_repeat(workload)
    print("selftest: all passed")


if __name__ == "__main__":
    main(sys.argv[1:])
