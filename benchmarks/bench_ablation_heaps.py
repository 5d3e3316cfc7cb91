"""Ablation: the shared-array DoubleHeap vs two heaps with one capacity.

The paper's single-array layout (Section 4.1, Figure 4.3) lets either
heap grow at the other's expense without dynamic allocation.  In Python
the layout buys nothing: what matters is the shared capacity, and
production 2WRS keeps that rule on two C ``heapq`` lists
(:class:`~repro.heaps.double_heap.HeapqDoubleHeap`), while
:class:`~repro.heaps.double_heap.DoubleHeap` stays as the Figure 4.3
reference and test oracle.  This bench measures the three layouts
under the 2WRS access pattern (interleaved pushes and pops on both
sides) and verifies they compute identical results.
"""

import random

from repro.heaps.binary_heap import MaxHeap, MinHeap
from repro.heaps.double_heap import DoubleHeap, HeapqDoubleHeap

OPS = 20_000
CAPACITY = 2_048


def _workload(seed: int):
    rng = random.Random(seed)
    return [rng.random() for _ in range(OPS)]


def _run_double_heap(values) -> float:
    heaps: DoubleHeap[float] = DoubleHeap(
        CAPACITY, lambda a, b: a > b, lambda a, b: a < b
    )
    total = 0.0
    for i, value in enumerate(values):
        side = heaps.bottom if value < 0.5 else heaps.top
        if heaps.is_full:
            victim = heaps.bottom if len(heaps.bottom) else heaps.top
            total += victim.pop()
        side.push(value)
        if i % 3 == 0 and len(heaps.top):
            total += heaps.top.pop()
    return total


def _run_two_heaps(values) -> float:
    bottom: MaxHeap[float] = MaxHeap()
    top: MinHeap[float] = MinHeap()
    total = 0.0
    for i, value in enumerate(values):
        side = bottom if value < 0.5 else top
        if len(bottom) + len(top) >= CAPACITY:
            victim = bottom if len(bottom) else top
            total += victim.pop()
        side.push(value)
        if i % 3 == 0 and len(top):
            total += top.pop()
    return total


def _run_heapq_kernel(values) -> float:
    heaps = HeapqDoubleHeap(CAPACITY)
    total = 0.0
    for i, value in enumerate(values):
        if heaps.is_full:
            pop = heaps.pop_bottom if len(heaps.bottom) else heaps.pop_top
            total += pop()[1]
        if value < 0.5:
            heaps.push_bottom(0, value)
        else:
            heaps.push_top(0, value)
        if i % 3 == 0 and len(heaps.top):
            total += heaps.pop_top()[1]
    return total


def test_bench_double_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_double_heap, values)
    assert result == _run_two_heaps(values)


def test_bench_two_heap_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_two_heaps, values)
    assert result == _run_double_heap(values)


def test_bench_heapq_kernel_layout(benchmark):
    values = _workload(42)
    result = benchmark(_run_heapq_kernel, values)
    assert result == _run_double_heap(values)
