"""Decision-table edge cases of :func:`repro.engine.planner.plan_sort`.

The table's boundaries are exactly where a planning bug silently picks
the wrong backend (materialising a huge input in memory, or spilling a
tiny one to disk), so every threshold is pinned on both sides here:
``n == memory`` vs ``n == memory + 1``, ``n == memory * fan_in`` vs one
more, the minimum ``fan_in == 2``, and the unknown-size probe boundary
through the full :class:`SortEngine` (which buffers ``memory + 1``
records before deciding).
"""

import pytest

from repro.core.config import GeneratorSpec
from repro.engine.planner import SortEngine, plan_sort


def spec(memory=16):
    return GeneratorSpec(algorithm="rs", memory=memory)


class TestPlanSortEdges:
    def test_exactly_memory_sized_input_stays_in_memory(self):
        plan = plan_sort(memory=100, input_records=100)
        assert plan.mode == "in_memory"
        assert plan.codec is None

    def test_one_over_memory_spills(self):
        plan = plan_sort(memory=100, input_records=101)
        assert plan.mode == "spill"
        assert "warm" in plan.reason  # single warm merge pass

    def test_minimum_fan_in_two(self):
        at = plan_sort(memory=10, fan_in=2, input_records=20, codec="auto")
        over = plan_sort(memory=10, fan_in=2, input_records=21, codec="auto")
        assert (at.mode, at.codec) == ("spill", "front")
        assert (over.mode, over.codec) == ("spill", "front+zlib")
        with pytest.raises(ValueError):
            plan_sort(memory=10, fan_in=1, input_records=20)

    def test_workers_win_over_tiny_input(self):
        plan = plan_sort(memory=100, workers=4, input_records=5)
        assert plan.mode == "parallel"
        assert plan.workers == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            plan_sort(memory=0)
        with pytest.raises(ValueError):
            plan_sort(memory=10, workers=0)
        with pytest.raises(ValueError):
            plan_sort(memory=10, buffer_records=0)

    def test_reason_strings_name_the_rule(self):
        assert "fit" in plan_sort(memory=10, input_records=10).reason
        assert "warm" in plan_sort(memory=10, input_records=20).reason
        assert "workers" in plan_sort(memory=10, workers=2).reason


class TestEngineProbeBoundary:
    """The unknown-size probe: memory records in memory, one more spills."""

    def test_exactly_memory_records_sorts_in_memory(self):
        engine = SortEngine(spec(memory=16))
        data = list(range(16, 0, -1))
        assert list(engine.sort(iter(data))) == sorted(data)
        assert engine.plan.mode == "in_memory"
        assert engine.report.algorithm == "MEM"

    def test_memory_plus_one_spills(self):
        engine = SortEngine(spec(memory=16))
        data = list(range(17, 0, -1))
        assert list(engine.sort(iter(data))) == sorted(data)
        assert engine.plan.mode == "spill"

    def test_probe_chains_records_back_exactly_once(self):
        # A one-shot iterator proves the probe neither drops nor
        # re-reads records around the boundary.
        engine = SortEngine(spec(memory=8))
        data = [5, 3, 8, 1, 9, 2, 7, 4, 6]  # memory + 1 records
        assert list(engine.sort(iter(data))) == sorted(data)
        assert engine.plan.mode == "spill"

    def test_known_size_skips_the_probe(self):
        engine = SortEngine(spec(memory=8))
        data = list(range(100))
        assert list(engine.sort(iter(data), input_records=100)) == data
        assert engine.plan.mode == "spill"
        assert "100 records" in engine.plan.reason or "large" in (
            engine.plan.reason
        )

    def test_empty_input_is_in_memory_noop(self):
        engine = SortEngine(spec(memory=8))
        assert list(engine.sort(iter([]))) == []
        assert engine.plan.mode == "in_memory"
        assert engine.report.records == 0
