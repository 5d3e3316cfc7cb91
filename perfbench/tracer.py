"""Span tracer installed from outside the program, and its analysis.

A traced benchmark child (see ``launch.py``) creates one :class:`Tracer`
and calls :func:`install_probes`, which replaces module and class
attributes of the program with timing wrappers.  Wrappers sit only at
block, run, table-probe, store-request and job granularity — never
around a per-record call — so the traced program does the same work
per record as the untraced one.

Each span is ``(id, parent, name, start, end)``; the parent is the
innermost span open on the same thread when the span began, so spans
of one thread nest properly.  Spans are kept in memory and written as
JSON when the child exits.  :class:`TraceSummary` turns a dump into self
times: a span's self time is its duration minus the durations of its
children.  Spans below a *root* (the whole CLI program, a store
request stream, or one service job) partition the root's wall time
exactly, so the per-layer self times plus the roots' own self time
(``unattributed_s``) add up to the traced wall.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Span names whose subtree is decomposed into layer self times.
ROOT_NAMES = ("root.program", "root.stream", "runner.run_job")

#: Layer of a span, by the prefix of its name before the first dot.
LAYER_OF_PREFIX = {
    "block_io": "block_io",
    "runs": "runs",
    "spill": "spill_merge",
    "merge": "spill_merge",
    "store": "store",
    "wal": "store",
    "memtable": "store",
    "sstable": "store",
    "compaction": "store",
    "manifest": "store",
    "os": "os",
}

#: Layers reported as ``self.<layer>_s`` in every traced run.  The
#: service layer has none: its one timed entry, the broker admission,
#: runs in the scheduler before a job's root span opens, so it is
#: reported on its own as ``broker.request_s``, and the runner's own
#: code inside a job root counts in ``unattributed_s``.
LAYERS = ("block_io", "runs", "spill_merge", "store", "os")

#: The tracer of this process, set by ``launch.py`` when tracing.
ACTIVE: Optional["Tracer"] = None


class Tracer:
    """In-memory span recorder with thread-local span stacks."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._intervals: Dict[int, int] = {}

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        stack.append((span_id, parent, name, time.perf_counter()))
        return span_id

    def end(self, span_id: int) -> None:
        """Close ``span_id`` and any span still open above it."""
        stack = self._stack()
        if not any(entry[0] == span_id for entry in stack):
            return
        now = time.perf_counter()
        while stack:
            opened_id, parent, name, start = stack.pop()
            self.spans.append((opened_id, parent, name, start, now))
            if opened_id == span_id:
                return

    def open_interval(self, key: Any, name: str) -> None:
        """Begin a span that ends when :meth:`close_interval` sees ``key``."""
        self._intervals[id(key)] = self.begin(name)

    def close_interval(self, key: Any) -> bool:
        span_id = self._intervals.pop(id(key), None)
        if span_id is None:
            return False
        self.end(span_id)
        return True

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    # -- wrappers ------------------------------------------------------------

    def _innermost_is(self, name: str) -> bool:
        stack = self._stack()
        return bool(stack) and stack[-1][2] == name

    def _original(self, owner: Any, attr: str) -> Callable:
        if isinstance(owner, type):
            return owner.__dict__[attr]
        return getattr(owner, attr)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
        bulk: bool = False,
        per_record: bool = False,
    ) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        A call made while a span of the same name is innermost (a
        subclass delegating to its base, say) is folded into it.  A
        ``per_record`` wrapper records no span while a ``bulk`` call
        runs on the same thread (a WAL replay applying record by
        record), so bulk work is timed as one span.
        ``after(tracer, args, result)`` runs once the span has ended.
        """
        original = self._original(owner, attr)
        local = self._local

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if (per_record and getattr(local, "bulk", 0)) or (
                self._innermost_is(name)
            ):
                return original(*args, **kwargs)
            span_id = self.begin(name)
            if bulk:
                local.bulk = getattr(local, "bulk", 0) + 1
            try:
                result = original(*args, **kwargs)
            finally:
                if bulk:
                    local.bulk -= 1
                self.end(span_id)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_iter(
        self,
        owner: Any,
        attr: str,
        name: str,
        after_item: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Time each ``next()`` of the iterator ``owner.attr`` returns.

        For iterators whose items are whole runs, so one span per run.
        """
        original = self._original(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            items = iter(original(*args, **kwargs))
            return self._timed_items(items, name, args, after_item)

        setattr(owner, attr, wrapper)

    def _timed_items(
        self,
        items: Any,
        name: str,
        args: tuple,
        after_item: Optional[Callable[["Tracer", tuple, Any], None]],
    ) -> Any:
        while True:
            span_id = None if self._innermost_is(name) else self.begin(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                if span_id is not None:
                    self.end(span_id)
            if span_id is not None and after_item is not None:
                after_item(self, args, item)
            yield item

    def hook(
        self,
        owner: Any,
        attr: str,
        before: Optional[Callable[["Tracer", tuple], None]] = None,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Call ``before``/``after`` around ``owner.attr`` without a span."""
        original = self._original(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(self, args)
            result = original(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, wrapper)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Close every open span on this thread and write the trace."""
        stack = self._stack()
        if stack:
            self.end(stack[0][0])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


# -- the probes: which program attributes get wrapped ------------------------


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _note_run(tracer: Tracer, args: tuple, run: Any) -> None:
    tracer.count("runs.count")
    tracer.count("runs.records", len(run))
    tracer.counters["runs.memory"] = args[0].memory_capacity


def _note_durable_runs(tracer: Tracer, args: tuple, result: Any) -> None:
    runs, _consumed, _ops, run_lengths = result
    tracer.count("runs.count", len(runs))
    tracer.count("runs.records", sum(run_lengths))
    tracer.counters["runs.memory"] = args[0].memory


def _note_session(tracer: Tracer, args: tuple) -> None:
    session = args[0]
    tracer.count("spill.bytes", session.spill_disk_bytes)
    tracer.count("merge.passes", session.merge_passes)
    tracer.peak("merge.peak_buffered_records", session.max_resident_records)


def _open_final_merge(tracer: Tracer, args: tuple, strategy: Any) -> None:
    tracer.open_interval(strategy, "merge.final")


def _close_final_merge(tracer: Tracer, args: tuple, result: Any) -> None:
    strategy = args[0]
    if tracer.close_interval(strategy):
        tracer.count("merge.block_reads", strategy.stats.block_reads)
        tracer.count("merge.prefetches", strategy.stats.prefetches)
        tracer.count("merge.prefetch_hits", strategy.stats.prefetch_hits)


def _note_probe(tracer: Tracer, args: tuple, meta: Any) -> None:
    tracer.count("sstable.probe_hits", meta is not None)


def _note_memtable_lookup(tracer: Tracer, args: tuple, meta: Any) -> None:
    tracer.count("memtable.lookups")
    tracer.count("memtable.hits", meta is not None)


def install_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    import repro.core.two_way  # noqa: F401 - registers the 2WRS generator
    import repro.runs.replacement_selection  # noqa: F401
    from repro.core.records import RecordFormat
    from repro.engine import merge_reading, resilience
    from repro.runs.base import RunGenerator
    from repro.service import scheduler
    from repro.sort import spill
    from repro.sort.memory_broker import MemoryBroker
    from repro.store import manifest, memtable, sstable, wal
    from repro.store import store as store_module

    # repro.engine.block_io: block codecs of every record format.
    for cls in _subclasses(RecordFormat):
        if "decode_block" in cls.__dict__:
            tracer.wrap(cls, "decode_block", "block_io.decode")
        if "encode_block" in cls.__dict__:
            tracer.wrap(cls, "encode_block", "block_io.encode")

    # repro.core.two_way / repro.heaps: one span per generated run; the
    # durable (journaled) sort generates its chunk runs in one call.
    for cls in _subclasses(RunGenerator):
        if "generate_runs" in cls.__dict__:
            tracer.wrap_iter(cls, "generate_runs", "runs.generate", _note_run)
    tracer.wrap(
        resilience.ResumableSpillSort, "_generate_runs", "runs.generate",
        after=_note_durable_runs,
    )

    # repro.sort.spill + repro.merge + repro.engine.merge_reading.
    tracer.wrap(spill, "write_sequence", "spill.write")
    tracer.wrap(resilience, "write_block_file", "spill.write")
    tracer.wrap(spill, "reduce_to_fan_in", "merge.intermediate")
    tracer.hook(spill, "open_reading", after=_open_final_merge)
    for cls in _subclasses(merge_reading.ReadingStrategy):
        if "close" in cls.__dict__:
            tracer.hook(cls, "close", after=_close_final_merge)
    tracer.hook(spill.SpillSession, "cleanup", before=_note_session)

    # repro.store.*: requests, WAL, memtable, flush, compaction, probes.
    store_cls = store_module.Store
    tracer.wrap(store_cls, "put", "store.put")
    tracer.wrap(store_cls, "delete", "store.delete")
    tracer.wrap(store_cls, "get", "store.get")
    tracer.wrap(store_cls, "flush", "store.flush")
    tracer.wrap(store_cls, "_compact_tables", "compaction")
    tracer.wrap(store_cls, "_replay_wals", "store.replay", bulk=True)
    tracer.wrap(store_module, "write_table", "sstable.write")
    tracer.wrap(wal.WalWriter, "append", "wal.append")
    tracer.wrap(wal.WalWriter, "sync", "wal.sync")
    tracer.wrap(memtable.Memtable, "apply", "memtable.apply",
                per_record=True)
    tracer.hook(memtable.Memtable, "lookup", after=_note_memtable_lookup)
    tracer.wrap(
        sstable.SSTableReader, "lookup", "sstable.probe", after=_note_probe
    )
    tracer.wrap(sstable.SSTableReader, "_block_at", "sstable.block_decode")
    tracer.wrap(manifest.StoreManifest, "append", "manifest.append")

    # repro.service.* + repro.sort.memory_broker: one root span per job.
    tracer.wrap(scheduler, "run_job", "runner.run_job")
    tracer.wrap(MemoryBroker, "request_or_enqueue", "broker.request")

    # Durability: every fsync, from any layer.
    tracer.wrap(os, "fsync", "os.fsync")


# -- analysis ------------------------------------------------------------------


#: Wildcard for :meth:`TraceSummary.calls` and friends.
ANY = object()


class TraceSummary:
    """Per-name totals and the root decomposition of one trace dump.

    Totals are kept per ``(root, parent name, name)``, so a metric can
    count only the spans below one root (the timed store stream, say)
    or below one parent.
    """

    def __init__(self, dump: Dict[str, Any]) -> None:
        spans = sorted(dump["spans"])  # by id: parents precede children
        self.counters: Dict[str, float] = dict(dump["counters"])
        child_time: Dict[int, float] = defaultdict(float)
        name_of: Dict[int, str] = {}
        for span_id, parent, name, start, end in spans:
            child_time[parent] += end - start
            name_of[span_id] = name
        root_of: Dict[int, Optional[str]] = {0: None}
        #: (root, parent name, name) -> [calls, total time, self time]
        self._cells: Dict[tuple, List[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.root_wall = 0.0
        self.unattributed = 0.0
        for span_id, parent, name, start, end in spans:
            duration = end - start
            own = duration - child_time[span_id]
            root = name if name in ROOT_NAMES else root_of.get(parent)
            root_of[span_id] = root
            cell = self._cells[(root, name_of.get(parent), name)]
            cell[0] += 1
            cell[1] += duration
            cell[2] += own
            if name in ROOT_NAMES and root_of.get(parent) is None:
                self.root_wall += duration
                self.unattributed += own
            elif root is not None:
                layer = LAYER_OF_PREFIX.get(name.split(".")[0])
                if layer is None:
                    self.unattributed += own
                else:
                    self.layer_self[layer] += own

    def _sum(self, column: int, name: str, root: Any, parent: Any) -> float:
        return float(sum(
            cell[column]
            for (cell_root, cell_parent, cell_name), cell in self._cells.items()
            if cell_name == name
            and (root is ANY or cell_root == root)
            and (parent is ANY or cell_parent == parent)
        ))

    def calls(self, name: str, root: Any = ANY, parent: Any = ANY) -> float:
        return self._sum(0, name, root, parent)

    def time(self, name: str, root: Any = ANY, parent: Any = ANY) -> float:
        return self._sum(1, name, root, parent)

    def self_time(self, name: str, root: Any = ANY) -> float:
        return self._sum(2, name, root, ANY)

    def common_metrics(self) -> Dict[str, float]:
        """Metrics every traced workload reports."""
        metrics = {
            "trace.wall_s": self.root_wall,
            "unattributed_s": self.unattributed,
            "fsyncs": self.calls("os.fsync"),
        }
        for layer in LAYERS:
            metrics[f"self.{layer}_s"] = self.layer_self[layer]
        return metrics

    def sort_metrics(self) -> Dict[str, float]:
        """Sort-pipeline metrics (zero where no sort ran)."""
        counters = self.counters
        runs = counters.get("runs.count", 0.0)
        memory = counters.get("runs.memory", 0.0)
        avg_len = counters.get("runs.records", 0.0) / runs if runs else 0.0
        prefetches = counters.get("merge.prefetches", 0.0)
        spill_encode = self.time(
            "block_io.encode", parent="spill.write"
        ) + self.time("block_io.encode", parent="merge.intermediate")
        return {
            "block_io.decode_s": self.time("block_io.decode"),
            "block_io.decode_blocks": self.calls("block_io.decode"),
            "block_io.encode_s": self.time("block_io.encode") - spill_encode,
            "runs.generate_self_s": self.self_time("runs.generate"),
            "runs.count": runs,
            "runs.avg_len_per_memory": avg_len / memory if memory else 0.0,
            "spill.write_s": self.time("spill.write"),
            "spill.bytes": counters.get("spill.bytes", 0.0),
            "merge.passes": counters.get("merge.passes", 0.0),
            "merge.intermediate_s": self.time("merge.intermediate"),
            "merge.final_s": self.time("merge.final"),
            "merge.block_reads": counters.get("merge.block_reads", 0.0),
            "merge.prefetch_hit_ratio": (
                counters.get("merge.prefetch_hits", 0.0) / prefetches
                if prefetches else 0.0
            ),
            "merge.peak_buffered_records": counters.get(
                "merge.peak_buffered_records", 0.0
            ),
        }

    def store_metrics(self, gets: int, writes: int) -> Dict[str, float]:
        """Store-layer metrics of the timed stream (``root.stream``),
        for ``gets`` reads and ``writes`` mutations."""
        counters = self.counters
        stream = "root.stream"
        probes = self.calls("sstable.probe", stream)
        lookups = counters.get("memtable.lookups", 0.0)
        reopens = counters.get("store.reopens", 0.0)
        flush_compaction = self.time("compaction", stream, "store.flush")
        return {
            "wal.append_s": self.time("wal.append", stream),
            "wal.appends": self.calls("wal.append", stream),
            "wal.sync_s": self.time("wal.sync", stream),
            "fsyncs_per_put": (
                self.calls("os.fsync", stream) / writes if writes else 0.0
            ),
            "memtable.apply_s": self.time("memtable.apply", stream),
            "store.flushes": self.calls("store.flush", stream),
            "store.flush_s": self.time("store.flush", stream) - flush_compaction,
            "compaction.count": self.calls("compaction", stream),
            "compaction.s": self.time("compaction", stream),
            "manifest.append_s": self.time("manifest.append", stream),
            "sstable.probes_per_get": probes / gets if gets else 0.0,
            "sstable.blocks_decoded_per_get": (
                self.calls("sstable.block_decode", stream, "sstable.probe")
                / gets if gets else 0.0
            ),
            "sstable.probe_s": self.time("sstable.probe", stream),
            "sstable.probe_hit_ratio": (
                counters.get("sstable.probe_hits", 0.0) / probes
                if probes else 0.0
            ),
            "memtable.get_hit_ratio": (
                counters.get("memtable.hits", 0.0) / lookups
                if lookups else 0.0
            ),
            "compaction.bytes": counters.get("compaction.bytes", 0.0),
            "store.tables_final": counters.get("store.tables_final", 0.0),
            "store.reopen_replay_s": (
                self.time("store.replay", root=None) / reopens
                if reopens else 0.0
            ),
        }

    def service_metrics(self, jobs: List[Dict[str, Any]]) -> Dict[str, float]:
        """Service metrics over client-side job records (see
        ``w_service.py``) plus the server's broker and fsync spans."""
        count = len(jobs)

        def mean(key: str, op: Optional[str] = None) -> float:
            values = [job[key] for job in jobs if op in (None, job["op"])]
            return sum(values) / len(values) if values else 0.0

        return {
            "client.submit_s": mean("submit_s"),
            "client.polls_per_job": mean("polls"),
            "client.result_s": mean("result_s"),
            "scheduler.waited_s": mean("waited_s"),
            "broker.request_s": (
                self.time("broker.request") / count if count else 0.0
            ),
            "runner.ran_s.sort": mean("ran_s", "sort"),
            "runner.ran_s.distinct": mean("ran_s", "distinct"),
            "runner.ran_s.agg": mean("ran_s", "agg"),
            "runner.run_phase_s": mean("run_wall_s"),
            "runner.merge_phase_s": mean("merge_wall_s"),
            "fsyncs_per_job": (
                self.calls("os.fsync") / count if count else 0.0
            ),
        }
