"""k-way merge of sorted streams (Section 2.1.2).

At each step the smallest of the k head records is selected (with a
min-heap, so selection costs ``log2 k`` comparisons) and moved to the
output.  When a stream empties the merge continues as a (k-1)-way merge,
exactly as in the paper's worked example (Figures 2.1-2.3).

The merge heap is :mod:`heapq` over ``(record, stream_index)`` entries
— tuple comparison orders by record and breaks ties on the stream
index, the same total order the explicit array heap used to compute
through a Python ``before`` predicate.  The C implementation keeps
the per-record cost at one native comparison: for binary spill records
that comparison is a raw ``bytes`` memcmp, which is the point of the
whole binary path.  Run generation uses the same shape (2WRS's
:class:`~repro.heaps.double_heap.HeapqDoubleHeap`, RS's heap).
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from itertools import groupby
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.runs.base import log_cost


class MergeCounter:
    """Optional cost accumulator threaded through merges."""

    def __init__(self) -> None:
        self.records = 0
        self.cpu_ops = 0


def validate_merge_params(
    fan_in: Optional[int] = None, buffer_records: Optional[int] = None
) -> None:
    """Reject nonsensical merge parameters with clear errors.

    A fan-in below 2 cannot make progress (merging one stream is a
    copy) and a read buffer below one record can never hold a head —
    both used to slip through to confusing downstream behaviour when a
    caller bypassed the backend constructors.
    """
    if fan_in is not None and fan_in < 2:
        raise ValueError(f"fan_in must be >= 2, got {fan_in}")
    if buffer_records is not None and buffer_records < 1:
        raise ValueError(
            f"buffer_records must be >= 1, got {buffer_records}"
        )


def kway_merge(
    streams: Sequence[Iterable[Any]],
    counter: Optional[MergeCounter] = None,
    *,
    fan_in: Optional[int] = None,
    buffer_records: Optional[int] = None,
) -> Iterator[Any]:
    """Lazily merge ``streams`` (each ascending) into one ascending stream.

    Parameters
    ----------
    streams:
        Sorted record sources; anything iterable.
    counter:
        When given, ``records`` and ``cpu_ops`` are accumulated on it
        (``log2 k`` ops per output record, the analytic CPU model).
    fan_in:
        Optional declared merge width: validated (``>= 2``) and
        enforced against ``len(streams)``, so a scheduling bug that
        hands the final merge more runs than its fan-in fails loudly
        instead of silently over-widening the merge.
    buffer_records:
        Optional declared reader buffer size; validated (``>= 1``).
        The merge itself does not buffer — the parameter exists so
        file-backed callers funnel their knobs through one validator.
    """
    validate_merge_params(fan_in, buffer_records)
    if fan_in is not None and len(streams) > fan_in:
        raise ValueError(
            f"{len(streams)} streams exceed the declared fan_in {fan_in}"
        )
    iterators: List[Iterator[Any]] = [iter(s) for s in streams]
    heap: List[tuple] = []
    exhausted: Iterator[Any] = iter(())
    try:
        for index, iterator in enumerate(iterators):
            try:
                head = next(iterator)
            except StopIteration:
                iterators[index] = exhausted
                continue
            heap.append((head, index))
        heapify(heap)

        while heap:
            key, index = heap[0]
            if counter is not None:
                counter.records += 1
                counter.cpu_ops += log_cost(len(heap))
            yield key
            try:
                head = next(iterators[index])
            except StopIteration:
                # Drop the reference so a file-backed reader (and any
                # chunk it buffers) is freed as soon as its run is
                # exhausted, not at the end of the whole merge.
                iterators[index] = exhausted
                heappop(heap)
            else:
                heapreplace(heap, (head, index))
    finally:
        # One raising reader (or an abandoned merge) must not leak the
        # other streams' open file handles until garbage collection:
        # close every closeable reader still referenced.  Harmless for
        # plain iterables and already-finished generators.
        for iterator in iterators:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()


def grouped(
    records: Iterable[Any], key_of: Callable[[Any], Any]
) -> Iterator[Tuple[Any, Iterator[Any]]]:
    """Lazily group an *ascending* record stream by key.

    The duplicate-run-aware half of the aggregating merge: individual
    runs are internally sorted but any key can recur in *every* run,
    and :func:`kway_merge` interleaves them so all duplicates of a key
    become adjacent — this exposes that adjacency as ``(key, group)``
    pairs where ``group`` is a lazy iterator over the consecutive
    records sharing ``key``.  No group is ever materialised, which is
    what lets the :mod:`repro.ops` operators fold arbitrarily large
    (skewed) groups in O(1) memory while the final merge pass streams.
    Like :func:`itertools.groupby` (which this wraps), advancing to
    the next pair invalidates the previous group iterator, and an
    unconsumed group is skipped automatically.
    """
    return iter(groupby(records, key=key_of))


def reduce_to_fan_in(
    runs: Sequence[Any],
    fan_in: int,
    merge_group: Callable[[Sequence[Any]], Any],
) -> Tuple[List[Any], int]:
    """Schedule intermediate merge passes until ``fan_in`` runs remain.

    This is the pass structure of a merge tree over *abstract* runs:
    each pass groups the surviving runs ``fan_in`` at a time and calls
    ``merge_group`` to combine one group into one new run.  A trailing
    singleton group is carried forward untouched — merging one run
    would only copy it.  Both the file-spill backend and the parallel
    partitioned sort drive their real-I/O passes through this function.

    Returns ``(runs, extra_passes)`` where ``runs`` has at most
    ``fan_in`` entries ready for a final (usually streaming) merge and
    ``extra_passes`` counts the intermediate passes performed.
    """
    validate_merge_params(fan_in)
    level = list(runs)
    passes = 0
    while len(level) > fan_in:
        passes += 1
        level = [
            group[0] if len(group) == 1 else merge_group(group)
            for group in (
                level[i : i + fan_in] for i in range(0, len(level), fan_in)
            )
        ]
    return level, passes


def merge_runs(runs: Sequence[Sequence[Any]]) -> List[Any]:
    """Eagerly merge in-memory runs; convenience wrapper for tests."""
    return list(kway_merge(runs))
