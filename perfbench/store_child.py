"""Benchmark child of ``store-kv``: replays one op stream into a Store.

Usage (under ``launch.py``)::

    store_child.py OPS_FILE STORE_DIR RESULT_JSON REOPENS

Opens a fresh :class:`repro.store.Store` with every default (memtable
4096 records, blocks of 4096 records, fan-in 10, auto-compaction,
``sync=True``: each put is acknowledged after its WAL fsync), applies
the stream while timing every request (start and wall time of each
put, delete and get, to ``RESULT_JSON.requests``) and
adding up the time writes spend in ``WalWriter.sync`` (the ``write()``
and ``fsync`` that make them durable), then flushes the store, applies
the ``t`` (tail) puts untimed, closes it and reopens it ``REOPENS``
times, timing each reopen and reading the full state
back after the last one.  Results go to ``RESULT_JSON``; the parent
checks them against its dict oracle.
"""

from __future__ import annotations

import hashlib
import json
from array import array
import os
import sys
import time
from typing import Iterable, List, Optional, Tuple

import tracer


def kv_digest(pairs: Iterable[Tuple[bytes, bytes]]) -> Tuple[str, int]:
    """Order-sensitive digest and count of ``(key, value)`` pairs."""
    digest = hashlib.sha256()
    count = 0
    for key, value in pairs:
        digest.update(key + b"=" + value + b"\n")
        count += 1
    return digest.hexdigest(), count


def requests_path(result_path: str) -> str:
    """Where the child writes its per-request timings."""
    return result_path + ".requests"


def read_requests(result_path: str) -> List[Tuple[float, float]]:
    """The child's ``(start, wall)`` per put, delete and get."""
    columns = array("d")
    with open(requests_path(result_path), "rb") as handle:
        columns.frombytes(handle.read())
    count = len(columns) // 2
    return list(zip(columns[:count], columns[count:]))


def read_ops(path: str) -> List[Tuple[bytes, ...]]:
    with open(path, "rb") as handle:
        return [tuple(line.split()) for line in handle]


def table_bytes(store_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(store_dir, name))
        for name in os.listdir(store_dir)
        if name.startswith("sst-")
    )


class SyncClock:
    """Wraps ``WalWriter.sync`` to add up the time spent inside it."""

    def __init__(self) -> None:
        from repro.store.wal import WalWriter

        self.seconds = 0.0
        self.calls = 0
        sync = WalWriter.sync

        def timed(writer: WalWriter) -> None:
            started = time.perf_counter()
            try:
                sync(writer)
            finally:
                self.seconds += time.perf_counter() - started
                self.calls += 1

        WalWriter.sync = timed


def main(ops_path: str, store_dir: str, result_path: str, reopens: int) -> None:
    from repro.store import Store

    ops = read_ops(ops_path)
    tail = [op for op in ops if op[0] == b"t"]
    ops = [op for op in ops if op[0] != b"t"]
    active = tracer.ACTIVE
    put_lat: List[float] = []
    delete_lat: List[float] = []
    syncs = SyncClock()
    get_lat: List[float] = []
    gets: List[Optional[str]] = []
    scans = []
    # Start and wall time of every put, delete and get, kept as packed
    # doubles so that they add little to the child's peak RSS.
    starts, walls = array("d"), array("d")
    clock = time.perf_counter

    root = active.begin("root.stream") if active is not None else None
    started = clock()
    store = Store(store_dir)
    for op in ops:
        kind = op[0]
        value = None
        t = clock()
        if kind == b"p":
            store.put(op[1], op[2])
            latencies = put_lat
        elif kind == b"d":
            store.delete(op[1])
            latencies = delete_lat
        elif kind == b"g":
            value = store.get(op[1])
            latencies = get_lat
        else:
            bounds = op[1:] if kind == b"s" else (None, None)
            digest, count = kv_digest(store.scan(*bounds))
            scans.append(
                {"digest": digest, "count": count, "s": clock() - t,
                 "full": kind == b"S"}
            )
            continue
        wall = clock() - t
        latencies.append(wall)
        starts.append(t)
        walls.append(wall)
        if kind == b"g":
            gets.append(None if value is None else value.decode("ascii"))
    stream_s = clock() - started
    if root is not None:
        active.end(root)

    result = {
        "stream_s": stream_s,
        "stream_span": [started, started + stream_s],
        "put_lat": put_lat,
        "delete_lat": delete_lat,
        "stream_sync_s": syncs.seconds,
        "stream_syncs": syncs.calls,
        "get_lat": get_lat,
        "gets": gets,
        "scans": scans,
        "tables_final": len(store.table_names()),
        "table_bytes": table_bytes(store_dir),
        "flushed_bytes": store.flushed_bytes,
        "compacted_bytes": store.compacted_bytes,
        "wal_bytes": store.wal_bytes,
    }
    store.flush()
    for _, key, value in tail:
        store.put(key, value)
    store.close()
    if active is not None:
        active.counters["compaction.bytes"] = result["compacted_bytes"]
        active.counters["store.tables_final"] = result["tables_final"]
        active.counters["store.reopens"] = reopens

    reopen_spans = []
    for attempt in range(reopens):
        t = clock()
        store = Store(store_dir)
        reopen_spans.append([t, clock()])
        if attempt == reopens - 1:
            digest, count = kv_digest(store.scan())
            result["reopened"] = {"digest": digest, "count": count}
        store.close()
    result["reopen_spans"] = reopen_spans

    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    with open(requests_path(result_path), "wb") as handle:
        for column in (starts, walls):
            column.tofile(handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4]))
