"""Atomic output publish: a killed job never leaves a partial output.

Before this regression suite, every CLI subcommand streamed records
straight into the user's output path — a crash mid-final-merge left a
file that *looked* like a finished sort but held a prefix of it.  The
fix routes every publish through
:func:`repro.engine.resilience.publish` (write ``OUTPUT.tmp``, fsync,
``os.replace``, fsync the directory), for the serial CLI and the
resident service alike; these tests inject write, fsync and
disk-full faults at the publish seam and assert the output path
either holds the complete result or is exactly what it was before —
never anything in between (and never a stray ``.tmp``).
"""

import io
import os
import time

import pytest

from repro.cli import main
from _helpers import files_under
from repro.engine.errors import SortError
from repro.engine.resilience import read_marker
from repro.testing.faults import FaultInjected, FaultPlan, activate


def _values(tmp_path, name="in.txt", n=400):
    path = tmp_path / name
    values = [(7 * i) % n for i in range(n)]
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return path, values


def _publish_fault(out_path, nth=1):
    """A write fault aimed at the atomic-publish temp file only."""
    return FaultPlan(
        op="write", nth=nth, kind="raise",
        path_substring=os.path.basename(str(out_path)) + ".tmp",
    )


def _assert_nothing_published(out_path):
    assert not os.path.exists(out_path), "partial output escaped"
    assert not os.path.exists(str(out_path) + ".tmp"), "tmp file leaked"


#: Faults outside the body's own write errors: the temp file cannot be
#: created, its sync fails, or the disk fills on a write.
LATE_FAULTS = [
    ("open", "raise"),
    ("fsync", "enospc"),
    ("fsync", "raise"),
    ("write", "enospc"),
]


def _late_fault(out_path, op, kind):
    return FaultPlan(
        op=op, nth=1, kind=kind,
        path_substring=os.path.basename(str(out_path)) + ".tmp",
    )


def _assert_previous_output_kept(out_path, previous):
    assert open(out_path, "rb").read() == previous, "output overwritten"
    assert not os.path.exists(str(out_path) + ".tmp"), "tmp file leaked"


class TestSerialCliPublish:
    def test_sort_success_replaces_atomically(self, tmp_path, capsys):
        path, values = _values(tmp_path)
        out = tmp_path / "out.txt"
        assert main(["sort", "--memory", "64", str(path),
                     "-o", str(out)]) == 0
        got = [int(line) for line in out.read_text().splitlines()]
        assert got == sorted(values)
        assert not os.path.exists(str(out) + ".tmp")

    def test_sort_faulted_publish_leaves_nothing(self, tmp_path, capsys):
        path, _ = _values(tmp_path)
        out = tmp_path / "out.txt"
        with activate(_publish_fault(out)):
            code = main(["sort", "--memory", "64", str(path),
                         "-o", str(out)])
        assert code != 0
        _assert_nothing_published(out)

    def test_sort_fault_mid_final_merge_leaves_nothing(
        self, tmp_path, capsys
    ):
        # nth=3: let a couple of result blocks land first, then die —
        # the partially-written tmp must be discarded, not published.
        path, _ = _values(tmp_path, n=2000)
        out = tmp_path / "out.txt"
        with activate(_publish_fault(out, nth=3)):
            code = main(["sort", "--memory", "64", "--block-records", "128",
                         str(path), "-o", str(out)])
        assert code != 0
        _assert_nothing_published(out)

    @pytest.mark.parametrize(
        "argv_tail",
        [
            ["distinct"],
            ["agg", "--agg", "count"],
            ["topk", "-k", "5"],
        ],
        ids=["distinct", "agg", "topk"],
    )
    def test_operator_faulted_publish_leaves_nothing(
        self, tmp_path, argv_tail, capsys
    ):
        path, _ = _values(tmp_path)
        out = tmp_path / "out.txt"
        argv = argv_tail + ["--memory", "64", str(path), "-o", str(out)]
        with activate(_publish_fault(out)):
            code = main(argv)
        assert code != 0
        _assert_nothing_published(out)

    def test_join_faulted_publish_leaves_nothing(self, tmp_path, capsys):
        left, _ = _values(tmp_path, "left.txt", n=50)
        right, _ = _values(tmp_path, "right.txt", n=50)
        out = tmp_path / "joined.txt"
        with activate(_publish_fault(out)):
            code = main(["join", "--memory", "64", str(left), str(right),
                         "-o", str(out)])
        assert code != 0
        _assert_nothing_published(out)

    def test_merge_faulted_publish_leaves_nothing(self, tmp_path, capsys):
        sorted_a = tmp_path / "a.txt"
        sorted_b = tmp_path / "b.txt"
        sorted_a.write_text("\n".join(str(v) for v in range(0, 100, 2)) + "\n")
        sorted_b.write_text("\n".join(str(v) for v in range(1, 100, 2)) + "\n")
        out = tmp_path / "merged.txt"
        with activate(_publish_fault(out)):
            code = main(["merge", str(sorted_a), str(sorted_b),
                         "-o", str(out)])
        assert code != 0
        _assert_nothing_published(out)

    @pytest.mark.parametrize("op, kind", LATE_FAULTS)
    def test_sort_late_publish_fault_keeps_previous_output(
        self, tmp_path, capsys, op, kind
    ):
        path, values = _values(tmp_path)
        out = tmp_path / "out.txt"
        out.write_bytes(b"previous complete output\n")
        with activate(_late_fault(out, op, kind)) as state:
            code = main(["sort", "--memory", "64", str(path),
                         "-o", str(out)])
            assert state.fired and state.leaked() == []
        assert code != 0
        _assert_previous_output_kept(out, b"previous complete output\n")
        assert main(["sort", "--memory", "64", str(path),
                     "-o", str(out)]) == 0
        assert [int(v) for v in out.read_text().split()] == sorted(values)

    def test_stdout_path_is_untouched_by_publish(self, tmp_path, capsys):
        # No -o: output goes to stdout, no tmp machinery involved.
        path, values = _values(tmp_path, n=50)
        assert main(["sort", "--memory", "64", str(path)]) == 0
        got = [int(line) for line in capsys.readouterr().out.split()]
        assert got == sorted(values)


class TestServicePublish:
    """The same guarantee through the service runner's publish path."""

    def test_run_job_faulted_publish_leaves_nothing(self, tmp_path):
        from repro.service.jobs import JobSpec
        from repro.service.runner import run_job

        path, _ = _values(tmp_path)
        result = tmp_path / "jobs" / "OUTPUT"
        result.parent.mkdir()
        spec = JobSpec(op="sort", input=str(path), memory=64)
        with activate(_publish_fault(result)):
            with pytest.raises((FaultInjected, SortError)):
                run_job(
                    spec, memory=64, work_dir=str(tmp_path / "work"),
                    result_path=str(result), job_id="j1",
                )
        _assert_nothing_published(result)

    @pytest.mark.parametrize("op, kind", LATE_FAULTS)
    def test_run_job_late_publish_fault_keeps_previous_output(
        self, tmp_path, op, kind
    ):
        from repro.service.jobs import JobSpec
        from repro.service.runner import run_job

        path, _ = _values(tmp_path)
        result = tmp_path / "jobs" / "OUTPUT"
        result.parent.mkdir()
        result.write_bytes(b"previous\n")
        spec = JobSpec(op="sort", input=str(path), memory=64)
        with activate(_late_fault(result, op, kind)) as state:
            with pytest.raises(FaultInjected):
                run_job(
                    spec, memory=64, work_dir=str(tmp_path / "work"),
                    result_path=str(result), job_id="j1",
                )
            assert state.fired and state.leaked() == []
        _assert_previous_output_kept(result, b"previous\n")

    def test_failed_status_publish_fails_the_job(self, tmp_path):
        from repro.service.jobs import JobSpec
        from repro.service.scheduler import JobScheduler

        def wait_for(job_id, status):
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                payload = scheduler.status(job_id)
                if payload["status"] == status:
                    return payload
                time.sleep(0.02)
            raise AssertionError(f"job never reached {status}: {payload}")

        path, values = _values(tmp_path)
        expected = "".join(f"{value}\n" for value in sorted(values))
        scheduler = JobScheduler(str(tmp_path / "spool"), total_memory=1000)
        try:
            spec = JobSpec(op="sort", input=str(path), memory=64)
            plan = FaultPlan(op="fsync", nth=1, kind="raise",
                             path_substring="status.json")
            with activate(plan) as state:
                job_id = scheduler.submit(spec).job_id
                payload = wait_for(job_id, "failed")
                assert state.fired
            assert "injected fsync failure" in payload["error"]
            job_dir = tmp_path / "spool" / "jobs" / job_id
            assert [p for p in files_under(job_dir) if p.endswith(".tmp")] == []
            assert read_marker(str(job_dir / "status.json"))["status"] == (
                "failed"
            )
            # A failed job is requeued by a resubmit, and its rerun
            # publishes the same bytes a fault-free run does.
            scheduler.submit(spec)
            wait_for(job_id, "done")
            assert (job_dir / "OUTPUT").read_text() == expected
            assert read_marker(str(job_dir / "status.json"))["status"] == (
                "done"
            )
        finally:
            scheduler.shutdown()

    def test_run_job_success_then_rerun_is_identical(self, tmp_path):
        from repro.service.jobs import JobSpec
        from repro.service.runner import run_job

        path, values = _values(tmp_path)
        result = tmp_path / "OUTPUT"
        spec = JobSpec(op="sort", input=str(path), memory=64)
        outcome = run_job(
            spec, memory=64, work_dir=str(tmp_path / "work"),
            result_path=str(result), job_id="j1",
        )
        assert outcome.records_out == len(values)
        first = result.read_bytes()
        assert [int(v) for v in first.split()] == sorted(values)
        run_job(
            spec, memory=64, work_dir=str(tmp_path / "work2"),
            result_path=str(result), job_id="j1",
        )
        assert result.read_bytes() == first
