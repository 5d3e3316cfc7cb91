"""Smoke tests for the experiment harnesses (scaled way down).

Each experiment module is exercised end-to-end at a tiny scale so the
full-size benchmark parameters stay in benchmarks/; these tests verify
the plumbing (types, shapes, monotonicities), not the paper numbers.
"""

import pytest

from repro.experiments import EXPERIMENTS, common
from repro.experiments import (
    fig_3_8_model,
    table_5_2_anova_random,
    table_5_6_anova_mixed,
    table_5_11_anova_imbalanced,
    fig_5_4_buffer_size,
    fig_6_1_fan_in,
    fig_6_2_random_memory,
    fig_6_6_alternating,
    fig_6_7_reverse,
    table_2_1_polyphase,
    table_5_13_run_lengths,
)


class TestRegistry:
    def test_experiment_list_importable(self):
        import importlib

        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert hasattr(module, "run")
            assert hasattr(module, "main")


class TestCommon:
    def test_timing_row_speedup(self):
        row = common.TimingRow(
            x=1,
            rs_run_time=1.0,
            rs_total_time=4.0,
            twrs_run_time=1.0,
            twrs_total_time=2.0,
            rs_runs=10,
            twrs_runs=2,
        )
        assert row.speedup == pytest.approx(2.0)

    def test_timing_table_formats_all_rows(self):
        rows = [
            common.TimingRow(1, 1.0, 2.0, 1.0, 2.0, 3, 3),
            common.TimingRow(2, 1.0, 2.0, 1.0, 2.0, 3, 3),
        ]
        text = common.timing_table(rows, "x")
        assert len(text.splitlines()) == 3

    def test_compare_rs_twrs_shapes(self):
        records = common.dataset_records("reverse_sorted", 3_000, seed=1)
        row = common.compare_rs_twrs("point", records, 200)
        assert row.twrs_runs == 1
        assert row.rs_runs == 15


class TestHarnesses:
    def test_table_2_1(self):
        steps = table_2_1_polyphase.run()
        assert steps[-1].counts.count(0) == 5

    def test_fig_3_8_small(self):
        fits = fig_3_8_model.run(num_runs=2, cells=64, dt=2e-3)
        assert len(fits) == 2
        assert fits[1].max_abs_error <= fits[0].max_abs_error + 0.05

    def test_fig_5_4_small(self):
        points = fig_5_4_buffer_size.run(
            fractions=(0.002, 0.2),
            memory_capacity=200,
            input_records=8_000,
            seeds=(1,),
        )
        assert points[0].relative_run_length > points[1].relative_run_length

    def test_fig_6_1_small(self):
        points = fig_6_1_fan_in.run(
            fan_ins=(2, 4), num_runs=8, run_records=128, merge_memory=1_024
        )
        assert all(p.merge_io_time > 0 for p in points)

    def test_fig_6_1_real_files_small(self):
        points = fig_6_1_fan_in.run_real(
            fan_ins=(2, 8), num_runs=8, run_records=128, merge_memory=1_024
        )
        # Fan-in 2 needs log2(8) = 3 passes over the same files.
        assert [p.passes for p in points] == [3, 1]
        assert all(p.block_reads > 0 and p.wall_time > 0 for p in points)

    def test_fig_6_2_small(self):
        rows = fig_6_2_random_memory.run(
            memories=(100, 400), input_records=5_000
        )
        assert rows[1].rs_total_time < rows[0].rs_total_time

    def test_fig_6_6_small(self):
        rows = fig_6_6_alternating.run(
            sections_sweep=(2,), input_records=10_000, memory_capacity=200
        )
        assert rows[0].speedup > 1.0

    def test_fig_6_7_small(self):
        rows = fig_6_7_reverse.run(input_sizes=(5_000,), memory_capacity=200)
        assert rows[0].twrs_runs == 1

    def test_table_5_2_small(self):
        from repro.stats.factorial import FactorialSettings

        tiny = FactorialSettings(
            memory_capacity=200,
            input_records=4_000,
            seeds=(1, 2),
            buffer_setups=("input", "both"),
            buffer_sizes=(0.002, 0.2),
            input_heuristics=("mean", "random"),
            output_heuristics=("random", "balancing"),
        )
        result = table_5_2_anova_random.run(tiny)
        assert result.dominant_factor in ("i", "j", "k", "l")
        assert 0.0 <= result.j_only_model.r_squared <= 1.0

    def test_table_5_6_small(self):
        from repro.stats.factorial import FactorialSettings

        tiny = FactorialSettings(
            memory_capacity=300,
            input_records=5_000,
            seeds=(1, 2),
            buffer_setups=("both", "victim"),
            buffer_sizes=(0.02, 0.2),
            input_heuristics=("mean", "random"),
            output_heuristics=("random", "balancing"),
        )
        result = table_5_6_anova_mixed.run(tiny)
        assert result.minimum_runs >= 1
        assert result.best_input_heuristics
        assert result.assumptions is not None

    def test_table_5_11_small(self):
        from repro.stats.factorial import FactorialSettings

        tiny = FactorialSettings(
            memory_capacity=300,
            input_records=5_000,
            seeds=(1, 2),
            buffer_setups=("input", "both"),
            buffer_sizes=(0.02, 0.2),
            input_heuristics=("mean", "random"),
            output_heuristics=("random", "alternate"),
        )
        result = table_5_11_anova_imbalanced.run(tiny)
        assert set(result.setup_means) == {"input", "both"}
        assert result.minimum_runs >= 1

    def test_table_5_13_small(self):
        rows = table_5_13_run_lengths.run(
            memory_capacity=200, input_records=10_000
        )
        table = {r.dataset: r for r in rows}
        assert table["reverse_sorted"].rs == pytest.approx(1.0, abs=0.1)
        assert table["reverse_sorted"].cfg3 == pytest.approx(50.0)
