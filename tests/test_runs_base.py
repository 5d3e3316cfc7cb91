"""Tests for the run-generator base API and analytic cost accounting."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runs.base import RunGenerator, RunGeneratorStats, log_cost


class TestLogCost:
    def test_small_heaps_cost_one(self):
        assert log_cost(0) == 1
        assert log_cost(1) == 1

    def test_powers_of_two(self):
        assert log_cost(2) == 1
        assert log_cost(1024) == 10

    def test_rounds_up(self):
        assert log_cost(3) == 2
        assert log_cost(1025) == 11

    @pytest.mark.parametrize(
        "n, expected",
        [(2**49, 49), (2**49 + 1, 50), (2**53, 53), (2**53 + 1, 54)],
    )
    def test_exact_beyond_float_precision(self, n, expected):
        assert log_cost(n) == expected

    @given(st.integers(2, 2_000_000))
    def test_matches_ceil_log2_in_recorded_range(self, n):
        assert log_cost(n) == math.ceil(math.log2(n))

    @given(st.integers(1, 10**9))
    def test_monotone(self, n):
        assert log_cost(n) <= log_cost(n + 1)


class TestStats:
    def test_note_run_accumulates(self):
        stats = RunGeneratorStats()
        stats.note_run(10)
        stats.note_run(30)
        assert stats.runs_out == 2
        assert stats.records_out == 40
        assert stats.run_lengths == [10, 30]
        assert stats.average_run_length == pytest.approx(20.0)

    def test_average_of_empty_is_zero(self):
        assert RunGeneratorStats().average_run_length == 0.0

    def test_reset_clears_everything(self):
        stats = RunGeneratorStats()
        stats.records_in = 5
        stats.cpu_ops = 7
        stats.note_run(3)
        stats.reset()
        assert stats.records_in == 0
        assert stats.cpu_ops == 0
        assert stats.runs_out == 0
        assert stats.run_lengths == []


class TestRunGeneratorBase:
    def test_rejects_zero_memory(self):
        class Dummy(RunGenerator):
            def generate_runs(self, records):
                yield from ()

        with pytest.raises(ValueError):
            Dummy(0)

    def test_helpers_delegate(self):
        class TwoRuns(RunGenerator):
            def generate_runs(self, records):
                yield [1, 2]
                yield [3]

        generator = TwoRuns(10)
        assert generator.run_lengths([]) == [2, 1]
        assert generator.count_runs([]) == 2
