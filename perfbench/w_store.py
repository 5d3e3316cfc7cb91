"""Workload ``store-kv``: the durable LSM store under a mixed stream.

The parent generates a seeded stream of 60 000 writes — 85% puts of
70-byte values and 15% deletes over a 20 000-key space, so overwrites
and tombstones collide, memtables flush and leveled compaction
cascades — with one point get after every 40 writes (keys uniform over
1.25x the key space, so about a fifth miss), a 200-key range scan
after every quarter of the stream and one full scan at the end.  A
child (``store_child.py``) replays it into a fresh store with the CLI
defaults and ``sync=True``, so every write waits for its WAL fsync:
a closed loop with one client.  Streams repeat, each in a new child
and store, while another stream fits in the run's seconds.

With ``sync=True`` a write's latency is mostly its wait in
``WalWriter.sync`` (the ``write()`` and ``fsync`` that make it
durable), which drifts with the host's disk by up to 2x between
minutes.  So the details give the mean WAL sync (``wal_sync_mean_us``,
the disk's drift) next to the put p50, and no write latency is gated.

After the stream the store is flushed, takes 2 000 more puts (so each
reopen replays the same WAL whatever the seed), is closed and is
reopened 25 times.  Every get, every scan and the state read back after
reopening must match a dict replay of the same stream.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    Context,
    Outcome,
    another_unit,
    median,
    quantile,
    read_json,
    run_child,
)
from store_child import kv_digest, read_requests
from tracer import TraceSummary

WRITES = 60_000
KEY_SPACE = 20_000
PUT_SHARE = 0.85
GET_EVERY = 40
GET_KEY_SPACE = KEY_SPACE * 5 // 4
RANGE_SCANS = 4
RANGE_WIDTH = 200
REOPENS = 25
#: Puts written after an explicit flush and before closing, so every
#: reopen replays the same amount of WAL whatever the seed.
REPLAY_TAIL = 2_000


def _key(index: int) -> bytes:
    return b"key-%08d" % index


def make_stream(seed: int, path: str) -> Dict[str, Any]:
    """Write the op stream; return the oracle's expectations."""
    rng = random.Random(seed)
    state: Dict[bytes, bytes] = {}
    lines: List[bytes] = []
    expected_gets: List[Optional[str]] = []
    expected_scans: List[Tuple[str, int]] = []
    user_bytes = 0
    for index in range(1, WRITES + 1):
        key = _key(rng.randrange(KEY_SPACE))
        if rng.random() < PUT_SHARE:
            value = b"value-%064d" % rng.getrandbits(48)
            lines.append(b"p " + key + b" " + value)
            state[key] = value
            user_bytes += len(key) + len(value)
        else:
            lines.append(b"d " + key)
            state.pop(key, None)
            user_bytes += len(key)
        if index % GET_EVERY == 0:
            probe = _key(rng.randrange(GET_KEY_SPACE))
            lines.append(b"g " + probe)
            found = state.get(probe)
            expected_gets.append(None if found is None else found.decode())
        if index % (WRITES // RANGE_SCANS) == 0:
            first = rng.randrange(KEY_SPACE - RANGE_WIDTH)
            start, end = _key(first), _key(first + RANGE_WIDTH)
            lines.append(b"s " + start + b" " + end)
            expected_scans.append(kv_digest(
                (key, state[key]) for key in sorted(state)
                if start <= key < end
            ))
    lines.append(b"S")
    live = sorted(state.items())
    expected_scans.append(kv_digest(live))
    for _ in range(REPLAY_TAIL):
        key = _key(rng.randrange(KEY_SPACE))
        value = b"value-%064d" % rng.getrandbits(48)
        lines.append(b"t " + key + b" " + value)
        state[key] = value
    with open(path, "wb") as handle:
        handle.write(b"\n".join(lines) + b"\n")
    return {
        "gets": expected_gets,
        "scans": expected_scans,
        "live_bytes": sum(len(k) + len(v) for k, v in live),
        "user_bytes": user_bytes,
        "writes": WRITES,
        "reopened": kv_digest(sorted(state.items())),
    }


def check_stream(
    result: Dict[str, Any], oracle: Dict[str, Any], outcome: Outcome, tag: str
) -> None:
    """The correctness gate: every get, every scan, the reopened state."""
    writes = len(result["put_lat"]) + len(result["delete_lat"])
    outcome.attempted += writes
    if writes != oracle["writes"]:
        outcome.check(False, f"{tag}: {writes} writes acknowledged, "
                             f"{oracle['writes']} issued")
    got_gets = result["gets"]
    if len(got_gets) != len(oracle["gets"]):
        outcome.check(False, f"{tag}: {len(got_gets)} gets answered, "
                             f"{len(oracle['gets'])} issued")
    for index, (got, want) in enumerate(zip(got_gets, oracle["gets"])):
        outcome.check(got == want, f"{tag}: get #{index} returned {got!r}, "
                                   f"oracle says {want!r}")
    got_scans = [(scan["digest"], scan["count"]) for scan in result["scans"]]
    if len(got_scans) != len(oracle["scans"]):
        outcome.check(False, f"{tag}: {len(got_scans)} scans answered")
    for index, (got, want) in enumerate(zip(got_scans, oracle["scans"])):
        outcome.check(tuple(got) == tuple(want),
                      f"{tag}: scan #{index} differs from the oracle")
    reopened = result.get("reopened") or {}
    outcome.check(
        (reopened.get("digest"), reopened.get("count")) == oracle["reopened"],
        f"{tag}: state read back after reopen differs from the oracle",
    )


class StreamRunner:
    """Runs one stream per child process, each on a fresh store."""

    def __init__(self, ctx: Context, outcome: Outcome, ops: str,
                 oracle: Dict[str, Any]) -> None:
        self.ctx = ctx
        self.outcome = outcome
        self.ops = ops
        self.oracle = oracle
        self.count = 0

    def stream(self, trace: bool = False) -> Tuple[Dict[str, Any], float]:
        """One stream; returns the child's result and its peak RSS MB."""
        ctx = self.ctx
        self.count += 1
        tag = f"stream-{self.count}"
        store_dir = ctx.path(f"{tag}.store")
        result_path = ctx.path(f"{tag}.result.json")
        argv = ctx.launcher(
            ctx.path(f"{tag}.stats.json"),
            trace=ctx.path(f"{tag}.trace.json") if trace else None,
        )
        argv += [os.path.join(os.path.dirname(__file__), "store_child.py"),
                 self.ops, store_dir, result_path, str(REOPENS)]
        child = run_child(argv, ctx, f"{tag}.log")
        shutil.rmtree(store_dir, ignore_errors=True)
        if child.returncode != 0 or not os.path.exists(result_path):
            self.outcome.check(False, f"{tag}: child exited {child.returncode}")
            return {}, child.maxrss_mb
        result = read_json(result_path)
        result["requests"] = read_requests(result_path)
        check_stream(result, self.oracle, self.outcome, tag)
        return result, child.maxrss_mb


def _us(seconds: float) -> float:
    return seconds * 1e6


def run(ctx: Context, outcome: Outcome) -> None:
    ops = ctx.path("ops.txt")
    oracle = make_stream(ctx.seed, ops)
    runner = StreamRunner(ctx, outcome, ops, oracle)
    outcome.details["writes"] = WRITES
    outcome.details["key_space"] = KEY_SPACE
    if ctx.trace:
        run_traced(ctx, outcome, runner)
        return
    results: List[Dict[str, Any]] = []
    rss: List[float] = []
    units: List[float] = []
    started = time.perf_counter()
    while another_unit(started, ctx.seconds, units):
        unit_started = time.perf_counter()
        result, peak = runner.stream()
        if not result:
            return
        units.append(time.perf_counter() - unit_started)
        results.append(result)
        rss.append(peak)

    probe = ctx.probe
    for r in results:
        r["ref_stream_s"] = probe.ref_seconds(*r["stream_span"])
    puts = sorted(x for r in results for x in r["put_lat"])
    gets = sorted(x for r in results for x in r["get_lat"])
    # Each request in reference time, at the host's speed while it ran.
    requests = sorted(
        probe.ref_seconds(start, start + wall)
        for r in results for start, wall in r["requests"]
    )
    issued = len(requests) + sum(len(r["scans"]) for r in results)
    scanned = sum(s["count"] for r in results for s in r["scans"])
    scan_s = sum(s["s"] for r in results for s in r["scans"])
    stream_s = sum(r["stream_s"] for r in results)
    first = results[0]
    write_amp = (
        first["flushed_bytes"] + first["compacted_bytes"] + first["wal_bytes"]
    ) / oracle["user_bytes"]
    space_amp = first["table_bytes"] / oracle["live_bytes"]
    reopens = [span for r in results for span in r["reopen_spans"]]
    outcome.details.update(
        streams=len(results),
        requests=len(requests),
        put_p50_us=_us(quantile(puts, 0.5)),
        put_p99_us=_us(quantile(puts, 0.99)),
        wal_sync_mean_us=_us(
            sum(r["stream_sync_s"] for r in results)
            / sum(r["stream_syncs"] for r in results)
        ),
        get_p50_us=_us(quantile(gets, 0.5)),
        get_p99_us=_us(quantile(gets, 0.99)),
        scan_keys_per_s=scanned / scan_s,
        write_amp=write_amp,
        space_amp=space_amp,
        tables_final=first["tables_final"],
        stream_s=[r["stream_s"] for r in results],
        stream_sync_s=[r["stream_sync_s"] for r in results],
        ref_stream_s=[r["ref_stream_s"] for r in results],
        host_cpu_factors=[probe.cpu_factor(*r["stream_span"])
                          for r in results],
        raw_records_per_s=issued / stream_s,
        raw_setup_s=median([end - start for start, end in reopens]),
    )
    outcome.metrics.update(
        setup_s=median([probe.ref_seconds(*span) for span in reopens]),
        peak_rss_mb=max(rss),
        records_per_s=issued / sum(r["ref_stream_s"] for r in results),
        op_tail_ms=quantile(requests, 0.999) * 1e3,
        write_amp=write_amp,
    )


def run_traced(ctx: Context, outcome: Outcome, runner: StreamRunner) -> None:
    plain, _ = runner.stream()
    traced, _ = runner.stream(trace=True)
    if not plain or not traced:
        return
    summary = TraceSummary(
        read_json(ctx.path(f"stream-{runner.count}.trace.json"))
    )
    gets = len(traced["gets"])
    writes = len(traced["put_lat"]) + len(traced["delete_lat"])
    outcome.metrics.update(summary.common_metrics())
    outcome.metrics.update(summary.sort_metrics())
    outcome.metrics.update(summary.store_metrics(gets=gets, writes=writes))
    outcome.metrics.update(summary.service_metrics([]))
    outcome.metrics["trace.overhead_ratio"] = (
        traced["stream_s"] / plain["stream_s"] - 1.0
    )
    outcome.details["untraced_stream_s"] = plain["stream_s"]
    outcome.details["traced_stream_s"] = traced["stream_s"]
