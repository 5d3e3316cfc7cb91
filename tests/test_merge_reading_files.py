"""Tests for the real-file merge tail, :func:`merge_spilled_runs`.

Every merge pass reads its runs through one block reader
(:meth:`SpilledRun.records`), so whether a merge finishes in one pass
or goes through intermediate spill files is only a choice of plan: the
output must be byte-identical either way, on the six workload
distributions and for non-numeric records.  The lifecycle cases pin
what the final pass's handle owns: run files, open handles, and the
truncation check.
"""

import os

import pytest

from repro.core.config import GeneratorSpec
from repro.core.records import INT, STR
from repro.engine import merge_reading
from repro.engine.block_io import write_sequence
from repro.engine.errors import SortError
from repro.merge.kway import MergeCounter, kway_merge
from repro.sort import spill
from repro.sort.spill import (
    FileSpillSort,
    SpilledRun,
    SpillSession,
    merge_spilled_runs,
)
from repro.workloads.generators import DISTRIBUTIONS, make_input


def _write_runs(tmp_path, runs, fmt=INT, buffer_records=64, keep=True):
    """Sorted run files wrapped as spilled runs of one fresh session."""
    work_dir = tmp_path / "work"
    work_dir.mkdir(exist_ok=True)
    session = SpillSession(str(work_dir))
    spilled = []
    for index, run in enumerate(runs):
        path = str(tmp_path / f"run-{index:03d}.txt")
        write_sequence(path, sorted(run), fmt)
        spilled.append(SpilledRun(
            session, path, len(run), fmt, buffer_records, keep=keep,
        ))
    return session, spilled


def _merge(session, runs, fmt=INT, fan_in=10, buffer_records=64):
    return merge_spilled_runs(
        session, runs, MergeCounter(), fmt, fan_in, buffer_records
    )


class TestByteIdenticalAcrossStrategies:
    """One final pass vs intermediate passes at fan-in 2."""

    @staticmethod
    def _both_plans(tmp_path, runs, fmt=INT, buffer_records=96):
        outputs = []
        for fan_in in (len(runs), 2):
            session, spilled = _write_runs(
                tmp_path, runs, fmt, buffer_records
            )
            outputs.append(list(_merge(
                session, spilled, fmt, fan_in, buffer_records
            )))
            assert (session.merge_passes == 1) == (fan_in == len(runs))
            session.cleanup()
        return outputs

    @pytest.mark.parametrize("distribution", sorted(DISTRIBUTIONS))
    def test_six_distributions(self, distribution, tmp_path):
        data = list(make_input(distribution, 3_000, seed=11))
        chunk = 400
        runs = [data[i : i + chunk] for i in range(0, len(data), chunk)]
        single, multi = self._both_plans(tmp_path, runs)
        assert single == sorted(data)
        assert multi == single

    def test_string_records(self, tmp_path):
        words = [f"w{i:05d}" for i in range(900)]
        runs = [words[0::3], words[1::3], words[2::3], words[:50]]
        single, multi = self._both_plans(tmp_path, runs, STR, 32)
        assert single == sorted(words + words[:50])
        assert multi == single

    def test_through_the_spill_backend(self, tmp_path):
        """Whole FileSpillSort sorts agree across merge fan-ins."""
        data = list(make_input("mixed_balanced", 6_000, seed=7))
        outputs = []
        for fan_in in (64, 4):
            sorter = FileSpillSort(
                GeneratorSpec("lss", 300).build(),
                fan_in=fan_in,
                buffer_records=128,
                tmp_dir=str(tmp_path),
            )
            outputs.append(list(sorter.sort(iter(data))))
            assert (sorter.merge_passes > 1) == (fan_in == 4)
        assert outputs[0] == outputs[1] == sorted(data)


class TestFinalPassHandle:
    def test_block_reads_count_the_final_pass_only(self, tmp_path):
        session, runs = _write_runs(
            tmp_path, [list(range(i, 300, 3)) for i in range(3)],
            buffer_records=10,
        )
        assert len(list(runs[0].records())) == 100  # 10 blocks, not ours
        final = merge_reading.open_reading(runs[1:], session)
        merged = list(kway_merge(final.streams()))
        final.close()
        assert len(merged) == 200
        assert session.block_reads == 30
        assert final.stats.block_reads == 20
        assert (final.stats.prefetches, final.stats.prefetch_hits) == (0, 0)

    def test_merge_tail_opens_the_final_pass_by_module_name(
        self, tmp_path, monkeypatch
    ):
        # External tracers wrap ``repro.sort.spill.open_reading`` and
        # ``ReadingStrategy.close`` to time the final pass; the merge
        # tail must resolve both at call time.
        opened = []

        def spying_open(runs, session):
            opened.append(merge_reading.open_reading(runs, session))
            return opened[-1]

        monkeypatch.setattr(spill, "open_reading", spying_open)
        assert "close" in merge_reading.ReadingStrategy.__dict__
        session, runs = _write_runs(
            tmp_path, [list(range(100)) for _ in range(5)],
            buffer_records=10,
        )
        merged = list(_merge(session, runs, fan_in=2, buffer_records=10))
        assert len(merged) == 500
        assert len(opened) == 1
        # 5 runs at fan-in 2: the final pass merges 2 runs of 200 + 300.
        assert opened[0].stats.block_reads == 50
        assert session.block_reads > opened[0].stats.block_reads


class TestLifecycle:
    def test_discardable_runs_removed_kept_runs_survive(self, tmp_path):
        session = SpillSession(str(tmp_path))
        data = sorted(range(200))
        spill_path = str(tmp_path / "spill.txt")
        keep_path = str(tmp_path / "keep.txt")
        write_sequence(spill_path, data, INT)
        write_sequence(keep_path, data, INT)
        runs = [
            SpilledRun(session, spill_path, 200, INT, 32),
            SpilledRun(session, keep_path, 200, INT, 32, keep=True),
        ]
        merged = list(_merge(session, runs, buffer_records=32))
        assert len(merged) == 400
        assert not os.path.exists(spill_path)
        assert os.path.exists(keep_path)

    def test_close_mid_merge_closes_handles(self, tmp_path):
        session, runs = _write_runs(
            tmp_path, [list(range(1_000)), list(range(500))],
            buffer_records=10,
        )
        stream = _merge(session, runs, buffer_records=10)
        for _ in range(25):
            next(stream)
        assert session.open_readers == 2
        stream.close()
        assert session.open_readers == 0
        assert session.resident == 0

    def test_truncated_run_raises_sort_error(self, tmp_path):
        session, runs = _write_runs(tmp_path, [list(range(100))])
        runs[0].length = 150  # the writer claimed more than the file holds
        with pytest.raises(SortError, match="delivered 100 records but 150"):
            list(_merge(session, runs))

    def test_invalid_buffer_rejected(self, tmp_path):
        session, runs = _write_runs(tmp_path, [list(range(10))])
        with pytest.raises(ValueError, match="buffer_records"):
            list(_merge(session, runs, buffer_records=0))
