"""Classic replacement selection (Goetz 1963; Sections 3.3-3.4, Algorithm 1).

The algorithm keeps a min-heap of ``(run, key)`` pairs.  Each step pops
the top record to the current run and reads one record from the input:
if the new record is smaller than the record just written it cannot join
the current run and is tagged with the next run number.  A run ends when
the heap's top record belongs to the next run — at that point *every*
record in memory does (Section 3.3 proves this from the heap property).

On uniformly random input the expected run length is twice the memory
(Knuth's snowplow argument, Section 3.5); on sorted input a single run;
on reverse-sorted input runs of exactly the memory size (Theorems 1, 3).
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Any, Iterable, Iterator, List, Tuple

from repro.runs.base import RunGenerator, log_cost


class ReplacementSelection(RunGenerator):
    """Replacement selection over a single min-heap.

    The heap is a C ``heapq`` list of ``(run, key)`` tuples: tuple
    comparison is exactly the run-then-key order of Section 3.3, with
    no Python call per sift step.

    Parameters
    ----------
    memory_capacity:
        Heap size in records (the paper's ``heapSize``).
    """

    name = "RS"

    def generate_runs(self, records: Iterable[Any]) -> Iterator[List[Any]]:
        self.stats.reset()
        stats = self.stats
        stream = iter(records)

        capacity = self.memory_capacity
        heap: List[Tuple[int, Any]] = []
        for value in stream:
            stats.records_in += 1
            stats.cpu_ops += log_cost(len(heap) + 1)
            heappush(heap, (0, value))
            if len(heap) >= capacity:
                break

        current_run = 0
        out: List[Any] = []
        while heap:
            run, next_output = heap[0]
            if run != current_run:
                # Top belongs to the next run => all of memory does.
                yield out
                stats.note_run(len(out))
                out = []
                current_run = run
            out.append(next_output)
            stats.cpu_ops += log_cost(len(heap))
            try:
                value = next(stream)
            except StopIteration:
                heappop(heap)
                continue
            stats.records_in += 1
            run = current_run + 1 if value < next_output else current_run
            # pop + insert fused into a single sift (heapreplace).
            heapreplace(heap, (run, value))
        if out:
            yield out
            stats.note_run(len(out))
