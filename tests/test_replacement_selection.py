"""Tests for classic replacement selection (Chapter 3, Theorems 1, 3, 5)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import FLOAT, INT, STR, DelimitedFormat, binary_format
from repro.heaps.run_heap import TaggedRecord, TopRunHeap
from repro.runs.base import RunGeneratorStats, log_cost
from repro.runs.replacement_selection import ReplacementSelection
from repro.workloads.generators import (
    DISTRIBUTIONS,
    make_input,
    alternating_input,
    random_input,
    reverse_sorted_input,
    sorted_input,
)


def runs_of(memory, records):
    return list(ReplacementSelection(memory).generate_runs(records))


class TestBasics:
    def test_empty_input(self):
        assert runs_of(10, []) == []

    def test_input_smaller_than_memory(self):
        assert runs_of(100, [3, 1, 2]) == [[1, 2, 3]]

    def test_invalid_memory(self):
        with pytest.raises(ValueError):
            ReplacementSelection(0)

    def test_runs_are_sorted(self):
        runs = runs_of(5, [9, 3, 7, 1, 8, 2, 6, 4, 5, 0])
        for run in runs:
            assert run == sorted(run)

    def test_multiset_preserved(self):
        data = [9, 3, 7, 1, 8, 2, 6, 4, 5, 0] * 3
        runs = runs_of(4, data)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_stats_updated(self):
        rs = ReplacementSelection(5)
        runs = list(rs.generate_runs(range(20, 0, -1)))
        assert rs.stats.records_in == 20
        assert rs.stats.runs_out == len(runs)
        assert rs.stats.cpu_ops > 0
        assert rs.stats.run_lengths == [len(r) for r in runs]

    def test_generator_is_lazy(self):
        rs = ReplacementSelection(4)
        gen = rs.generate_runs(iter(range(100, 0, -1)))
        first = next(gen)
        assert len(first) == 4  # worst case: one memory-full

    def test_count_runs_helper(self):
        assert ReplacementSelection(5).count_runs(range(100, 0, -1)) == 20


class TestTheorems:
    def test_theorem_1_sorted_input_single_run(self):
        """Sorted input => one run with everything."""
        data = list(sorted_input(5_000))
        runs = runs_of(100, data)
        assert len(runs) == 1
        assert runs[0] == data

    def test_theorem_3_reverse_input_memory_sized_runs(self):
        """Reverse input => every run exactly the memory size."""
        memory = 100
        runs = runs_of(memory, reverse_sorted_input(5_000))
        assert all(len(run) == memory for run in runs)
        assert len(runs) == 50

    def test_theorem_5_alternating_roughly_double_memory(self):
        """Alternating sections (k >> m) => runs average ~2x memory."""
        memory = 200
        data = list(alternating_input(40_000, sections=8, noise=100, seed=1))
        runs = runs_of(memory, data)
        average = len(data) / len(runs)
        assert 1.5 * memory <= average <= 2.5 * memory

    def test_snowplow_random_input_double_memory(self):
        """Section 3.5: random input => runs average ~2x memory."""
        memory = 250
        data = list(random_input(50_000, seed=3))
        runs = runs_of(memory, data)
        average = len(data) / len(runs)
        assert 1.7 * memory <= average <= 2.3 * memory

    def test_first_run_at_least_memory(self):
        """Every RS run is at least as long as the memory (except last)."""
        runs = runs_of(50, random_input(5_000, seed=1))
        for run in runs[:-1]:
            assert len(run) >= 50


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-10_000, 10_000), max_size=400),
    st.integers(1, 50),
)
def test_rs_runs_sorted_and_complete(data, memory):
    runs = runs_of(memory, data)
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(data)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=300), st.integers(1, 40))
def test_rs_all_runs_at_least_memory_except_last(data, memory):
    runs = runs_of(memory, data)
    for run in runs[:-1]:
        assert len(run) >= memory


# ---------------------------------------------------------------------------
# Differential: the heapq loop against the TopRunHeap reference
# ---------------------------------------------------------------------------


def reference_rs(memory, records):
    """Algorithm 1 on the explicit :class:`TopRunHeap` of TaggedRecords."""
    stats = RunGeneratorStats()
    stream = iter(records)
    heap = TopRunHeap(capacity=memory)
    for value in stream:
        stats.records_in += 1
        stats.cpu_ops += log_cost(len(heap) + 1)
        heap.push(TaggedRecord(0, value))
        if heap.is_full:
            break
    runs, out, current_run = [], [], 0
    while heap:
        top = heap.peek()
        if top.run != current_run:
            runs.append(out)
            out, current_run = [], top.run
        out.append(top.key)
        stats.cpu_ops += log_cost(len(heap))
        try:
            value = next(stream)
        except StopIteration:
            heap.pop()
            continue
        stats.records_in += 1
        run = current_run + 1 if value < top.key else current_run
        heap.replace(TaggedRecord(run, value))
    if out:
        runs.append(out)
    return runs, stats.cpu_ops, stats.records_in


def heapq_rs(memory, records):
    algo = ReplacementSelection(memory)
    runs = list(algo.generate_runs(records))
    return runs, algo.stats.cpu_ops, algo.stats.records_in


class TestHeapqMatchesTopRunHeap:
    """Run-for-run identical output, ``cpu_ops`` and ``records_in``."""

    @pytest.mark.parametrize("dataset", sorted(DISTRIBUTIONS))
    @pytest.mark.parametrize("memory", [1, 7, 64])
    def test_every_distribution(self, dataset, memory):
        data = list(make_input(dataset, 1_500, seed=4))
        assert heapq_rs(memory, data) == reference_rs(memory, data)

    @pytest.mark.parametrize(
        "fmt, line",
        [(STR, "{0}{1},{2}"), (DelimitedFormat(key_column=1), "{0},{2}"),
         (FLOAT, "{0}{1}"), (binary_format(INT), "{0}"),
         (binary_format(STR), "{0}{1},{2}"), (binary_format(FLOAT), "{0}{1}")],
        ids=["str", "delimited", "float", "binary-int", "binary-str",
             "binary-float"],
    )
    def test_record_shapes(self, fmt, line):
        rng = random.Random(6)
        lines = [line.format(rng.randrange(60), rng.choice(["", ".0", "e0"]),
                             rng.randrange(9)) + "\n" for _ in range(600)]
        records = fmt.decode_block(lines)
        got, want = heapq_rs(25, records), reference_rs(25, records)
        assert got == want
        assert sorted(map(repr, itertools.chain(*got[0]))) == sorted(
            map(repr, itertools.chain(*want[0]))
        )
