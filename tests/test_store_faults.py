"""Crash and corruption behaviour of the store (ISSUE 10 fault matrix).

Four layers of adversity:

* **Seam faults** — :class:`repro.testing.faults.FaultPlan` targets the
  ``open_bytes`` seam the SSTable and WAL writers go through
  (``path_substring`` ``"sst-"`` / ``"wal-"``), injecting torn writes,
  bit flips and mid-call crashes at deterministic points.  Every case
  must fail *cleanly* (:class:`StoreError` / :class:`FaultInjected`,
  never silent corruption) and a reopen must serve every acknowledged
  write.
* **Failed fsyncs and a full disk** — ``fsync`` and ``enospc`` plans
  at every sync point (WAL, table flush, MANIFEST append and
  checkpoint).  A failed WAL or MANIFEST write makes the store refuse
  every later write until it is reopened (the fsyncgate rule); a
  reopen recovers every acknowledged write.
* **MANIFEST corruption** — torn tails, bit flips and orphaned
  checkpoint temp files are staged by editing the file directly.
* **``kill -9``** — a child process applies a deterministic workload,
  acknowledging each operation on stdout; the parent SIGKILLs it at an
  arbitrary ack and reopens the directory.  The recovered state must
  equal the acked prefix of the workload, give or take the single
  in-flight operation.

Also here: the runtime R007 check — the lint rule bans ``decode`` calls
in the hot modules statically; this test instruments every text-side
:class:`StoreFormat` method and proves flush, compaction, gets and
scans never call one.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.engine.errors import ManifestError, StoreError
from repro.store import Store
from repro.store.format import StoreFormat
from repro.store.manifest import MANIFEST_NAME
from repro.testing.faults import FaultInjected, FaultPlan, activate
from tests.test_store_differential import Oracle


def fill(store, count, prefix=b"k"):
    for index in range(count):
        store.put(b"%s%06d" % (prefix, index), b"v%d" % index)


def temp_files(path):
    return [name for name in os.listdir(path) if name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# Seam faults: flush
# ---------------------------------------------------------------------------


class TestFlushFaults:
    @pytest.mark.parametrize("kind", ["raise", "short_write"])
    def test_crash_mid_table_write(self, tmp_path, kind):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            plan = FaultPlan("write", 2, kind, path_substring="sst-")
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.flush()
                assert state.fired
                assert state.leaked() == []
            # Nothing acknowledged was lost: the memtable still serves,
            # and a retry outside the fault window succeeds.
            assert list(store.scan()) == before
            assert store.flush() is not None
            assert list(store.scan()) == before
        finally:
            store.close()
        # The torn table the fault left behind is an orphan (never
        # reached the manifest) and the reopen sweeps it.
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()
        torn = [
            name
            for name in os.listdir(path)
            if name.startswith("sst-")
        ]
        assert len(torn) == 1  # only the committed flush survives

    def test_bit_flip_caught_by_read_back(self, tmp_path):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            plan = FaultPlan("write", 2, "bit_flip", path_substring="sst-")
            with activate(plan) as state:
                # The flip is silent at write time; the §11 read-back
                # verification refuses to commit the table.
                with pytest.raises(StoreError, match="read-back"):
                    store.flush()
                assert state.fired
            assert list(store.scan()) == before
            assert store.flush() is not None
        finally:
            store.close()
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before

    def test_crash_on_table_open(self, tmp_path):
        store = Store(str(tmp_path / "db"), memory=1000, sync=False)
        try:
            fill(store, 10)
            plan = FaultPlan("open", 1, "raise", path_substring="sst-")
            with activate(plan):
                with pytest.raises(FaultInjected):
                    store.flush()
            assert store.count() == 10
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Seam faults: compaction
# ---------------------------------------------------------------------------


class TestCompactionFaults:
    def build(self, path):
        store = Store(
            path, memory=10, sync=False, auto_compact=False, fan_in=2
        )
        fill(store, 60)
        for index in range(0, 60, 4):
            store.delete(b"k%06d" % index)
        store.flush()
        return store

    @pytest.mark.parametrize("kind", ["raise", "short_write"])
    def test_crash_mid_output_write(self, tmp_path, kind):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            tables = store.table_names()
            assert len(tables) > 2
            before = list(store.scan())
            # Every sst write after activation belongs to the
            # compaction output — the flush already happened.
            plan = FaultPlan("write", 3, kind, path_substring="sst-")
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.compact()
                assert state.fired
                assert state.leaked() == []
            # All-or-nothing: every input table is still live and
            # serving; the aborted output never reached the manifest.
            assert store.table_names() == tables
            assert list(store.scan()) == before
            assert store.compact() is not None
            assert list(store.scan()) == before
        finally:
            store.close()
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            assert len(store.table_names()) == 1

    def test_bit_flip_mid_output_write(self, tmp_path):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            tables = store.table_names()
            before = list(store.scan())
            plan = FaultPlan("write", 3, "bit_flip", path_substring="sst-")
            with activate(plan):
                with pytest.raises(StoreError, match="intact"):
                    store.compact()
            assert store.table_names() == tables
            assert list(store.scan()) == before
        finally:
            store.close()

    def test_crash_reading_an_input(self, tmp_path):
        path = str(tmp_path / "db")
        store = self.build(path)
        try:
            before = list(store.scan())
            plan = FaultPlan("read", 5, "raise", path_substring="sst-")
            with activate(plan):
                with pytest.raises(FaultInjected):
                    store.compact()
            assert list(store.scan()) == before
        finally:
            store.close()


# ---------------------------------------------------------------------------
# Seam faults: WAL
# ---------------------------------------------------------------------------


class TestWalFaults:
    def test_torn_wal_write_keeps_prior_acks(self, tmp_path):
        path = str(tmp_path / "db")
        acked = []
        # The WAL handle is opened at construction, so the store must
        # be opened inside the fault window for the seam to wrap it.
        plan = FaultPlan("write", 8, "short_write", path_substring="wal-")
        with activate(plan) as state:
            store = Store(path, memory=1000, sync=False)
            try:
                with pytest.raises(FaultInjected):
                    for index in range(20):
                        store.put(b"k%02d" % index, b"v%d" % index)
                        acked.append(index)
                assert state.fired
            finally:
                store.close()
        assert acked  # some puts were acknowledged before the tear
        with Store(path, sync=False) as store:
            got = dict(store.scan())
            for index in acked:
                assert got[b"k%02d" % index] == b"v%d" % index
            # At most the single in-flight put may also have landed.
            assert len(got) - len(acked) in (0, 1)
            store.put(b"after", b"recovery")
            assert store.get(b"after") == b"recovery"


# ---------------------------------------------------------------------------
# Failed fsyncs and a full disk: every log and table sync point
# ---------------------------------------------------------------------------


class TestDurabilityFaults:
    def test_failed_wal_sync_refuses_writes_until_reopen(self, tmp_path):
        """The fsyncgate rule: never retry a failed sync and then ack."""
        path = str(tmp_path / "db")
        oracle = Oracle()
        store = Store(path, memory=1000)  # sync=True: fsync per put
        try:
            for index in range(30):
                key, value = b"k%02d" % index, b"v%d" % index
                store.put(key, value)
                oracle.put(key, value)
            store.delete(b"k03")
            oracle.delete(b"k03")
            plan = FaultPlan("fsync", 1, "raise", path_substring="wal-")
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.put(b"in-flight", b"never acknowledged")
                assert state.fired
            # The fault is gone, but the WAL's state is not known: no
            # later write may be acknowledged on it.
            with pytest.raises(StoreError, match="reopen"):
                store.put(b"later", b"x")
            with pytest.raises(StoreError, match="reopen"):
                store.delete(b"k01")
            with pytest.raises(StoreError, match="reopen"):
                store.flush()
            assert store.get(b"k01") == b"v1"  # reads still serve
        finally:
            store.close()
        with Store(path) as store:
            got = dict(store.scan())
            got.pop(b"in-flight", None)  # unacknowledged: may or may not land
            assert sorted(got.items()) == oracle.scan()
            store.put(b"later", b"x")  # the reopened store takes writes
            store.verify()
        oracle.close()

    def test_close_releases_everything_when_final_sync_fails(self, tmp_path):
        path = str(tmp_path / "db")
        plan = FaultPlan("fsync", 1, "enospc", path_substring="wal-")
        with activate(plan) as state:
            store = Store(path, memory=1000, sync=False)
            fill(store, 20)
            before = list(store.scan())
            with pytest.raises(FaultInjected):
                store.close()
            assert state.fired
            assert state.leaked() == []
        # The LOCK flock was released too, or this in-process reopen
        # would be refused as a second writer.
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan("fsync", 1, "raise", path_substring="sst-"),
            FaultPlan("write", 2, "enospc", path_substring="sst-"),
        ],
        ids=lambda p: p.describe(),
    )
    def test_flush_table_fault(self, tmp_path, plan):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.flush()
                assert state.fired
                assert state.leaked() == []
            # The table never reached the manifest, so nothing was
            # acknowledged on it: a fresh table may be written.
            assert list(store.scan()) == before
            assert store.flush() is not None
        finally:
            store.close()
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()
        assert temp_files(path) == []

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan("fsync", 1, "raise", path_substring="MANIFEST"),
            FaultPlan("fsync", 1, "enospc", path_substring="MANIFEST"),
        ],
        ids=lambda p: p.describe(),
    )
    def test_manifest_append_fault(self, tmp_path, plan):
        path = str(tmp_path / "db")
        store = Store(path, memory=1000, sync=False)
        try:
            fill(store, 50)
            before = list(store.scan())
            with activate(plan) as state:
                with pytest.raises(FaultInjected):
                    store.flush()
                assert state.fired
            with pytest.raises(StoreError, match="reopen"):
                store.put(b"later", b"x")
        finally:
            store.close()
        assert state.leaked() == []
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()
        assert temp_files(path) == []

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan("fsync", 1, "raise", path_substring="MANIFEST.tmp"),
            FaultPlan("write", 1, "enospc", path_substring="MANIFEST.tmp"),
        ],
        ids=lambda p: p.describe(),
    )
    def test_manifest_checkpoint_fault(self, tmp_path, plan):
        path = str(tmp_path / "db")
        # One flush per put grows the manifest past its checkpoint
        # threshold; the checkpoint then runs on the next open.
        with Store(path, memory=1, sync=False, auto_compact=False) as store:
            fill(store, 260)
            before = list(store.scan())
        with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
            manifest_bytes = handle.read()
        with activate(plan) as state:
            with pytest.raises(FaultInjected):
                Store(path, sync=False)
            assert state.fired
            assert state.leaked() == []
        # The swap never happened: the old manifest is untouched and
        # its temp file is gone.
        assert temp_files(path) == []
        with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
            assert handle.read() == manifest_bytes
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()
        with open(os.path.join(path, MANIFEST_NAME), "rb") as handle:
            assert len(handle.read()) < len(manifest_bytes)


# ---------------------------------------------------------------------------
# MANIFEST corruption (staged directly)
# ---------------------------------------------------------------------------


class TestManifestFaults:
    def build(self, path):
        with Store(path, memory=10, sync=False) as store:
            fill(store, 40)
            store.flush()
            return list(store.scan())

    def manifest_path(self, path):
        return os.path.join(path, MANIFEST_NAME)

    def test_torn_append_tolerated(self, tmp_path):
        path = str(tmp_path / "db")
        before = self.build(path)
        with open(self.manifest_path(path), "a", encoding="utf-8") as f:
            f.write('{"type": "compact", "remov')  # power loss mid-append
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
            store.verify()

    def test_bit_flip_mid_file_is_a_clean_error(self, tmp_path):
        path = str(tmp_path / "db")
        self.build(path)
        manifest = self.manifest_path(path)
        with open(manifest, "r", encoding="utf-8") as f:
            lines = f.readlines()
        assert len(lines) >= 2
        lines[0] = '{"type": "met~' + lines[0][14:]
        with open(manifest, "w", encoding="utf-8") as f:
            f.writelines(lines)
        with pytest.raises(ManifestError):
            Store(path, sync=False)

    def test_interrupted_checkpoint_swap(self, tmp_path):
        path = str(tmp_path / "db")
        before = self.build(path)
        # A crash between writing MANIFEST.tmp and the os.replace
        # leaves the temp file next to an intact manifest: the temp is
        # garbage (maybe torn), the manifest is authoritative.
        tmp_file = os.path.join(path, "MANIFEST.tmp")
        with open(tmp_file, "w", encoding="utf-8") as f:
            f.write('{"type": "meta", "torn')
        with Store(path, sync=False) as store:
            assert list(store.scan()) == before
        assert not os.path.exists(tmp_file)

    def test_missing_manifest_refused(self, tmp_path):
        path = str(tmp_path / "db")
        self.build(path)
        os.remove(self.manifest_path(path))
        # A store directory with tables but no manifest is not an
        # empty directory — refusing beats silently re-initialising
        # over data.
        with pytest.raises(StoreError):
            Store(path, sync=False)


# ---------------------------------------------------------------------------
# kill -9: a real process, a real SIGKILL, a real reopen
# ---------------------------------------------------------------------------


CHILD_SOURCE = textwrap.dedent(
    """
    import sys

    from repro.store import Store

    path = sys.argv[1]
    store = Store(path, memory=8, fan_in=2)  # flush+compact constantly
    step = 0
    while True:
        if step % 5 == 4:
            store.delete(b"k%06d" % (step - 4))
        else:
            store.put(b"k%06d" % step, b"v%d" % step)
        sys.stdout.write("ACK %d\\n" % step)
        sys.stdout.flush()
        step += 1
    """
)


def workload_state(steps):
    """The store contents after applying workload ops ``0..steps-1``."""
    state = {}
    for step in range(steps):
        if step % 5 == 4:
            state.pop(b"k%06d" % (step - 4), None)
        else:
            state[b"k%06d" % step] = b"v%d" % step
    return state


class TestKillNine:
    # 23 dies in WAL-only territory; 57 mid-flush churn; 140 after
    # several auto-compactions have rewritten the level structure.
    @pytest.mark.parametrize("kill_after", [23, 57, 140])
    def test_acked_writes_survive_sigkill(self, tmp_path, kill_after):
        path = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD_SOURCE, path],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        acked = -1
        try:
            assert proc.stdout is not None
            for line in proc.stdout:
                acked = int(line.split()[1])
                if acked + 1 >= kill_after:
                    break
        finally:
            proc.kill()  # SIGKILL: no atexit, no flush, no close
            proc.wait()
        # The child may have acked a few more ops before the signal
        # landed; those acks are still in the pipe and count too.
        for line in proc.stdout:
            acked = int(line.split()[1])
        assert acked + 1 >= kill_after
        # Every acked op is applied; at most the one in-flight op
        # beyond the last ack may additionally have reached the WAL.
        with Store(path) as store:
            got = dict(store.scan())
            assert got in (
                workload_state(acked + 1),
                workload_state(acked + 2),
            )
            summary = store.verify()
            assert summary["tables"] == len(store.table_names())
            # And the survivor is a working store, not a read-only husk.
            store.put(b"post-crash", b"ok")
            store.compact()
            assert store.get(b"post-crash") == b"ok"

    def test_sigkill_storm(self, tmp_path):
        """Kill the same directory five times in a row, then audit."""
        path = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )
        child = textwrap.dedent(
            """
            import sys

            from repro.store import Store

            path = sys.argv[1]
            with Store(path, memory=8, fan_in=2) as store:
                base = int(sys.argv[2])
                for step in range(base, base + 10_000):
                    store.put(b"k%06d" % step, b"v%d" % step)
                    sys.stdout.write("ACK %d\\n" % step)
                    sys.stdout.flush()
            """
        )
        acked = -1
        for round_number in range(5):
            proc = subprocess.Popen(
                [sys.executable, "-c", child, path, str(acked + 1)],
                stdout=subprocess.PIPE,
                env=env,
                text=True,
            )
            try:
                assert proc.stdout is not None
                for line in proc.stdout:
                    acked = int(line.split()[1])
                    if acked % 17 == 16 and acked > round_number * 20:
                        break
            finally:
                proc.kill()
                proc.wait()
        with Store(path) as store:
            got = dict(store.scan())
            for step in range(acked + 1):
                assert got.get(b"k%06d" % step) == b"v%d" % step
            store.verify()


# ---------------------------------------------------------------------------
# REPRO_FAULT_PLAN: the env relay reaches store CLI subprocesses
# ---------------------------------------------------------------------------


class TestEnvInjectedFaults:
    def test_cli_flush_bit_flip_fails_cleanly_and_recovers(self, tmp_path):
        db = str(tmp_path / "db")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (
                os.path.join(os.path.dirname(__file__), "..", "src"),
                env.get("PYTHONPATH"),
            ) if p
        )

        def cli(*argv, fault=None, expect=0):
            run_env = dict(env)
            if fault is not None:
                run_env["REPRO_FAULT_PLAN"] = fault.to_json()
            result = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                env=run_env,
                capture_output=True,
                text=True,
            )
            assert result.returncode == expect, result.stderr
            return result

        for index in range(40):
            cli("store", "put", db, f"k{index:02d}", f"v{index}")
        plan = FaultPlan("write", 2, "bit_flip", path_substring="sst-")
        result = cli("store", "flush", db, fault=plan, expect=1)
        assert "read-back verification" in result.stderr
        assert "no acknowledged write was lost" in result.stderr
        # The faulted subprocess is gone; a clean one serves everything.
        result = cli("store", "get", db, "k17")
        assert result.stdout == "v17\n"
        assert cli("store", "flush", db).returncode == 0
        cli("store", "verify", db)


# ---------------------------------------------------------------------------
# R007 at runtime: the hot paths never touch a text-side method
# ---------------------------------------------------------------------------


class TestRuntimeR007:
    TEXT_METHODS = (
        "encode",
        "decode",
        "encode_block",
        "decode_block",
        "key",
        "fields",
        "project",
    )

    def test_store_lifecycle_never_decodes(self, tmp_path, monkeypatch):
        calls = []

        def bomb(name):
            def method(self, *args, **kwargs):
                calls.append(name)
                raise AssertionError(
                    f"hot path called StoreFormat.{name}"
                )

            return method

        for name in self.TEXT_METHODS:
            monkeypatch.setattr(StoreFormat, name, bomb(name))
        store = Store(
            str(tmp_path / "db"), memory=16, fan_in=2, sync=False,
            codec="zlib",
        )
        try:
            fill(store, 200)
            for index in range(0, 200, 3):
                store.delete(b"k%06d" % index)
            store.flush()
            store.compact()
            assert store.get(b"k000001") == b"v1"
            assert store.get(b"k000003") is None
            assert len(list(store.scan())) > 0
            list(store.scan(b"k000010", b"k000050"))
        finally:
            store.close()
        # Reopen replays the WAL and re-reads the manifest — also
        # decode-free (the §17 boundaries are slices, not formats).
        with Store(str(tmp_path / "db"), sync=False) as store:
            store.count()
        assert calls == []
