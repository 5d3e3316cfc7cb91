"""Tests for two-way replacement selection (Chapter 4, Theorems 2, 4, 6, 7)."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import two_way
from repro.core.config import TABLE_5_13_CONFIGS, TwoWayConfig
from repro.core.heuristics import INPUT_HEURISTICS, OUTPUT_HEURISTICS
from repro.core.records import (
    FLOAT,
    INT,
    STR,
    DelimitedFormat,
    FloatRecord,
    binary_format,
)
from repro.core.two_way import TwoWayReplacementSelection
from repro.heaps.double_heap import DoubleHeap, HeapqDoubleHeap
from repro.heaps.run_heap import TaggedRecord, bottom_before, top_before
from repro.runs.replacement_selection import ReplacementSelection
from repro.workloads.generators import (
    DISTRIBUTIONS,
    alternating_input,
    make_input,
    mixed_balanced_input,
    mixed_imbalanced_input,
    random_input,
    reverse_sorted_input,
    sorted_input,
)


def runs_of(memory, records, config=None):
    return list(TwoWayReplacementSelection(memory, config).generate_runs(records))


class TestBasics:
    def test_empty_input(self):
        assert runs_of(10, []) == []

    def test_input_smaller_than_memory(self):
        assert runs_of(100, [3, 1, 2]) == [[1, 2, 3]]

    def test_single_record(self):
        assert runs_of(10, [42]) == [[42]]

    def test_duplicate_heavy_input(self):
        data = [5] * 100 + [3] * 100 + [7] * 100
        runs = runs_of(20, data)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_runs_are_sorted(self):
        runs = runs_of(8, random_input(500, seed=1))
        for run in runs:
            assert run == sorted(run)

    def test_multiset_preserved(self):
        data = list(random_input(2_000, seed=2))
        runs = runs_of(50, data)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_stats_track_runs(self):
        algo = TwoWayReplacementSelection(50)
        runs = list(algo.generate_runs(random_input(1_000, seed=1)))
        assert algo.stats.runs_out == len(runs)
        assert algo.stats.records_in == 1_000
        assert sum(algo.stats.run_lengths) == 1_000

    def test_memory_too_small_for_heaps(self):
        config = TwoWayConfig(buffer_fraction=0.0)
        algo = TwoWayReplacementSelection(1, config)  # 1-record heap
        assert list(algo.generate_runs([2, 1])) in ([[1, 2]], [[2], [1]])

    def test_memory_partition_sums_to_total(self):
        for name, config in TABLE_5_13_CONFIGS.items():
            algo = TwoWayReplacementSelection(1_000, config)
            total = (
                algo.heap_capacity
                + algo.input_buffer_capacity
                + algo.victim_buffer_capacity
            )
            assert total == 1_000, name


class TestTheorems:
    def test_theorem_2_sorted_input_single_run(self):
        data = list(sorted_input(5_000))
        runs = runs_of(100, data)
        assert len(runs) == 1
        assert runs[0] == data

    def test_theorem_4_reverse_input_single_run(self):
        """2WRS turns RS's worst case into a single run."""
        data = list(reverse_sorted_input(5_000))
        runs = runs_of(100, data)
        assert len(runs) == 1
        assert runs[0] == sorted(data)

    def test_theorem_6_alternating_one_run_per_section(self):
        """k >> m: each monotone section becomes one run."""
        sections = 8
        data = list(alternating_input(16_000, sections=sections, seed=1, noise=100))
        runs = runs_of(200, data)
        assert len(runs) == sections

    def test_theorem_7_2wrs_not_worse_than_rs_on_reverse(self):
        data = list(reverse_sorted_input(3_000, seed=1, noise=10))
        rs_runs = ReplacementSelection(100).count_runs(data)
        twrs_runs = TwoWayReplacementSelection(100).count_runs(data)
        assert twrs_runs <= rs_runs

    def test_random_input_roughly_double_memory(self):
        memory = 250
        data = list(random_input(50_000, seed=3))
        runs = runs_of(memory, data)
        average = len(data) / len(runs)
        assert 1.6 * memory <= average <= 2.4 * memory

    def test_mixed_balanced_collapses_to_few_runs(self):
        """The victim buffer collapses mixed data (paper: 2 runs; a
        small startup/tail run may appear at reduced scale)."""
        data = list(mixed_balanced_input(20_000, seed=1, noise=1000))
        runs = runs_of(500, data, TABLE_5_13_CONFIGS["cfg3"])
        assert len(runs) <= 3
        assert max(len(r) for r in runs) > 0.9 * len(data)

    def test_mixed_imbalanced_collapses_to_few_runs(self):
        data = list(mixed_imbalanced_input(20_000, seed=1, noise=1000))
        runs = runs_of(500, data, TABLE_5_13_CONFIGS["cfg3"])
        assert len(runs) <= 3
        assert max(len(r) for r in runs) > 0.8 * len(data)


class TestStreams:
    def test_stream_invariants_per_run(self):
        algo = TwoWayReplacementSelection(100)
        for streams in algo.generate_run_streams(random_input(3_000, seed=5)):
            assert streams.check_invariants()

    def test_stream_totals_match_run_length(self):
        algo = TwoWayReplacementSelection(100)
        for streams in algo.generate_run_streams(random_input(2_000, seed=5)):
            assert len(streams.assemble()) == len(streams)

    def test_reverse_input_uses_bottom_stream(self):
        algo = TwoWayReplacementSelection(100)
        streams = list(algo.generate_run_streams(reverse_sorted_input(2_000)))[0]
        # Nearly everything should leave through stream 4 (BottomHeap).
        assert len(streams.stream4) > 0.8 * len(streams)

    def test_sorted_input_uses_top_stream(self):
        algo = TwoWayReplacementSelection(100)
        streams = list(algo.generate_run_streams(sorted_input(2_000)))[0]
        assert len(streams.stream1) > 0.8 * len(streams)

    def test_mixed_input_uses_victim_streams(self):
        config = TwoWayConfig(buffer_setup="both", buffer_fraction=0.05)
        algo = TwoWayReplacementSelection(500, config)
        data = mixed_balanced_input(10_000, seed=1, noise=1000)
        streams = next(iter(algo.generate_run_streams(data)))
        assert len(streams.stream2) + len(streams.stream3) > 0


class TestAllHeuristicCombinations:
    @pytest.mark.parametrize("input_h", sorted(INPUT_HEURISTICS))
    @pytest.mark.parametrize("output_h", sorted(OUTPUT_HEURISTICS))
    def test_correctness_on_random(self, input_h, output_h):
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.02,
            input_heuristic=input_h,
            output_heuristic=output_h,
            seed=13,
        )
        data = list(random_input(2_000, seed=9))
        runs = runs_of(100, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    @pytest.mark.parametrize("input_h", sorted(INPUT_HEURISTICS))
    def test_correctness_on_mixed(self, input_h):
        config = TwoWayConfig(
            buffer_setup="both", buffer_fraction=0.02, input_heuristic=input_h
        )
        data = list(mixed_balanced_input(2_000, seed=9, noise=100))
        runs = runs_of(100, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)


class TestBufferSetups:
    @pytest.mark.parametrize("setup", ["input", "both", "victim"])
    @pytest.mark.parametrize("fraction", [0.0002, 0.02, 0.2])
    def test_every_setup_correct(self, setup, fraction):
        config = TwoWayConfig(buffer_setup=setup, buffer_fraction=fraction)
        data = list(make_input("mixed_imbalanced", 3_000, seed=4))
        runs = runs_of(200, data, config)
        for run in runs:
            assert run == sorted(run)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_no_buffers_at_all(self):
        config = TwoWayConfig(buffer_setup="both", buffer_fraction=0.0)
        data = list(random_input(1_000, seed=4))
        runs = runs_of(100, data, config)
        assert sorted(itertools.chain(*runs)) == sorted(data)

    def test_victim_helps_on_mixed(self):
        data = list(mixed_balanced_input(20_000, seed=1, noise=1000))
        with_victim = TwoWayConfig(buffer_setup="both", buffer_fraction=0.02)
        without = TwoWayConfig(buffer_setup="input", buffer_fraction=0.02)
        runs_with = TwoWayReplacementSelection(500, with_victim).count_runs(data)
        runs_without = TwoWayReplacementSelection(500, without).count_runs(data)
        assert runs_with < runs_without


class TestGeneratorReuse:
    def test_second_invocation_resets_stats(self):
        algo = TwoWayReplacementSelection(100)
        list(algo.generate_runs(random_input(1_000, seed=1)))
        first = algo.stats.runs_out
        list(algo.generate_runs(random_input(1_000, seed=1)))
        assert algo.stats.runs_out == first

    def test_deterministic_given_seed(self):
        a = runs_of(100, random_input(1_000, seed=1))
        b = runs_of(100, random_input(1_000, seed=1))
        assert a == b


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(-10_000, 10_000), max_size=300),
    st.integers(2, 40),
)
def test_2wrs_runs_sorted_and_complete(data, memory):
    runs = runs_of(memory, data)
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(data)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), max_size=200),
    st.integers(2, 30),
    st.sampled_from(sorted(INPUT_HEURISTICS)),
    st.sampled_from(sorted(OUTPUT_HEURISTICS)),
    st.sampled_from(["input", "both", "victim"]),
)
def test_2wrs_correct_for_any_configuration(data, memory, input_h, output_h, setup):
    config = TwoWayConfig(
        buffer_setup=setup,
        buffer_fraction=0.1,
        input_heuristic=input_h,
        output_heuristic=output_h,
        seed=3,
    )
    runs = runs_of(memory, data, config)
    for run in runs:
        assert run == sorted(run)
    assert sorted(itertools.chain(*runs)) == sorted(data)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(3, 30))
def test_2wrs_matches_rs_on_sorted_prefixes(seed, memory):
    """Sorted input: both algorithms produce the identical single run."""
    data = list(sorted_input(500, seed=seed))
    rs = list(ReplacementSelection(memory).generate_runs(data))
    twrs = runs_of(memory, data)
    assert rs == twrs == [data]


class TestLazyStatistics:
    """The acceptance property: heuristics that ignore the distribution
    statistics trigger zero mean/median computations end-to-end."""

    @staticmethod
    def _run(input_heuristic, output_heuristic="random"):
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.1,
            input_heuristic=input_heuristic,
            output_heuristic=output_heuristic,
            seed=11,
        )
        algo = TwoWayReplacementSelection(100, config)
        algo.count_runs(random_input(3_000, seed=11))
        return algo.last_input_buffer

    @pytest.mark.parametrize(
        "input_heuristic", ["random", "alternate", "useful", "balancing"]
    )
    def test_stat_blind_heuristics_compute_nothing(self, input_heuristic):
        buffer = self._run(input_heuristic)
        assert buffer.mean_computations == 0
        assert buffer.median_computations == 0

    def test_mean_heuristic_computes_only_means(self):
        buffer = self._run("mean")
        assert buffer.mean_computations > 0
        assert buffer.median_computations == 0
        # Memoization bound: at most one computation per mutation, far
        # fewer than one per routing decision.
        assert buffer.mean_computations <= 2 * buffer.records_read + 2

    def test_median_heuristic_computes_only_medians(self):
        buffer = self._run("median")
        assert buffer.median_computations > 0
        assert buffer.mean_computations == 0

    def test_laziness_preserves_results(self):
        """Lazy statistics must not change what the algorithm produces."""
        config = TwoWayConfig(
            buffer_setup="both",
            buffer_fraction=0.1,
            input_heuristic="mean",
            output_heuristic="random",
            seed=4,
        )
        data = list(mixed_balanced_input(5_000, seed=4))
        runs = list(
            TwoWayReplacementSelection(200, config).generate_runs(iter(data))
        )
        flat = sorted(record for run in runs for record in run)
        assert flat == sorted(data)
        for run in runs:
            assert run == sorted(run)


# ---------------------------------------------------------------------------
# Differential: the heapq kernel against the Figure 4.3 DoubleHeap oracle
# ---------------------------------------------------------------------------


class OracleHeaps:
    """Drives the shared-array :class:`DoubleHeap` through the interface
    of :class:`HeapqDoubleHeap`, so 2WRS can run on either."""

    def __init__(self, capacity):
        self._heaps = DoubleHeap(capacity, bottom_before, top_before)
        self.top = self._heaps.top
        self.bottom = self._heaps.bottom

    def __len__(self):
        return len(self._heaps)

    @property
    def is_full(self):
        return self._heaps.is_full

    def push_top(self, run, key):
        self.top.push(TaggedRecord(run, key))

    def push_bottom(self, run, key):
        self.bottom.push(TaggedRecord(run, key))

    def pop_top(self):
        record = self.top.pop()
        return record.run, record.key

    def pop_bottom(self):
        record = self.bottom.pop()
        return record.run, record.key

    def peek_top(self):
        return (self.top.peek().run, self.top.peek().key) if self.top else None

    def peek_bottom(self):
        if not self.bottom:
            return None
        return self.bottom.peek().run, self.bottom.peek().key


def generate(memory, records, config, monkeypatch=None):
    """Runs, cpu_ops and records_in of one 2WRS generation.

    With ``monkeypatch`` the generation runs on :class:`OracleHeaps`.
    """
    if monkeypatch is not None:
        monkeypatch.setattr(two_way, "HeapqDoubleHeap", OracleHeaps)
    try:
        algo = TwoWayReplacementSelection(memory, config)
        runs = list(algo.generate_runs(records))
    finally:
        if monkeypatch is not None:
            monkeypatch.undo()
    return runs, algo.stats.cpu_ops, algo.stats.records_in


def assert_matches_oracle(monkeypatch, memory, records, config):
    kernel = generate(memory, records, config)
    oracle = generate(memory, records, config, monkeypatch)
    assert kernel[1:] == oracle[1:]
    assert kernel[0] == oracle[0]
    # Equal runs may still hold equal-but-distinct records in another
    # order; the records themselves (types, float spellings) must agree.
    assert sorted(map(repr, itertools.chain(*kernel[0]))) == sorted(
        map(repr, itertools.chain(*oracle[0]))
    )


HEURISTIC_PAIRS = list(itertools.product(INPUT_HEURISTICS, OUTPUT_HEURISTICS))


class TestKernelMatchesDoubleHeapOracle:
    """Run-for-run identical output, ``cpu_ops`` and ``records_in``."""

    @pytest.mark.parametrize("setup", ["both", "input", "victim"])
    @pytest.mark.parametrize("dataset", sorted(DISTRIBUTIONS))
    def test_every_distribution_and_heuristic_pair(
        self, monkeypatch, dataset, setup
    ):
        """The paper's 30 heuristic pairs plus the §7.1 adaptive input."""
        data = list(make_input(dataset, 240, seed=11))
        for input_h, output_h in HEURISTIC_PAIRS:
            config = TwoWayConfig(
                buffer_setup=setup,
                buffer_fraction=0.2,
                input_heuristic=input_h,
                output_heuristic=output_h,
                seed=3,
            )
            assert_matches_oracle(monkeypatch, 30, data, config)

    @staticmethod
    def _lines(n, seed):
        rng = random.Random(seed)
        return [
            f"{rng.choice('abcxyz')}{rng.randrange(50)},{rng.randrange(9)}\n"
            for _ in range(n)
        ]

    @pytest.mark.parametrize(
        "fmt",
        [STR, DelimitedFormat(key_column=1), binary_format(INT),
         binary_format(STR), binary_format(DelimitedFormat(key_column=0))],
        ids=["str", "delimited", "binary-int", "binary-str", "binary-delimited"],
    )
    @pytest.mark.parametrize("input_h", sorted(INPUT_HEURISTICS))
    def test_non_numeric_records(self, monkeypatch, fmt, input_h):
        lines = self._lines(400, seed=5)
        if fmt is not STR and "int" in fmt.name:
            lines = [line.split(",")[1] for line in lines]
        records = fmt.decode_block(lines)
        config = TwoWayConfig(
            buffer_setup="input", input_heuristic=input_h, seed=2
        )
        assert_matches_oracle(monkeypatch, 40, records, config)

    @pytest.mark.parametrize("fmt", [FLOAT, binary_format(FLOAT)],
                             ids=["float", "binary-float"])
    def test_float_spellings(self, monkeypatch, fmt):
        rng = random.Random(8)
        lines = [
            rng.choice(["{}", "{}.0", "{}e0", "-{}.00"]).format(rng.randrange(40))
            + "\n"
            for _ in range(500)
        ]
        records = fmt.decode_block(lines)
        for setup in ("both", "input", "victim"):
            config = TwoWayConfig(buffer_setup=setup, buffer_fraction=0.1, seed=4)
            assert_matches_oracle(monkeypatch, 40, records, config)

    def test_int_stream_then_one_non_int_key(self, monkeypatch):
        """One FloatRecord after ints moves the BottomHeap from negated
        keys to the wrapper form mid-run; the output must not notice."""
        switches = []

        class CountingHeaps(HeapqDoubleHeap):
            __slots__ = ()

            def _wrap_bottom(self):
                switches.append(len(self.bottom))
                super()._wrap_bottom()

        # Reverse-sorted ints fill the BottomHeap; the trailing small
        # key joins that decreasing stream.
        records = list(range(300, 0, -1)) + [FloatRecord(0.5, "5e-1")]
        config = TwoWayConfig(seed=1)
        monkeypatch.setattr(two_way, "HeapqDoubleHeap", CountingHeaps)
        kernel = generate(30, records, config)
        monkeypatch.undo()
        assert switches and switches[0] > 0
        assert kernel == generate(30, records, config, monkeypatch)
        tail = kernel[0][0][0]
        assert type(tail) is FloatRecord and tail.text == "5e-1"
