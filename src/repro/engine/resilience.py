"""Crash-safe resumable external sorting (DESIGN.md §11).

The streaming backends of PR 1–3 treat their temp directory as
disposable: any failure — a worker death, a full disk, a torn write —
throws away every spilled run and the whole sort starts over.  This
module adds the durable variant:

* :class:`SortJournal` — an append-only JSONL manifest in the sort's
  *work directory*.  Each completed spill run (and each completed
  intermediate merge) is recorded with its file name, record count and
  CRC-32 as soon as it is durable (``fsync`` before journal append),
  so the manifest never claims data that does not exist.  A torn
  trailing line — the crash happened mid-append — is tolerated and
  simply dropped.
* :class:`ResumableSpillSort` — a serial external sort whose run
  boundaries are aligned to the input: run *i* is the sorted ``i``-th
  chunk of ``memory`` consecutive input records.  That alignment is
  what makes exact resume possible with bounded memory: a journaled
  run tells the resumed sort precisely which input records it covers,
  so generation replays the input, *skips the sorting and writing* of
  every surviving valid run, regenerates any missing or corrupt one
  from its chunk, and restarts the merge from the surviving
  intermediate merge outputs.  (Replacement selection produces longer
  runs but scatters a run's records across an unbounded input window —
  the classic durability/run-length trade, see DESIGN.md §11.)
* Shard **completion markers** — the parallel backend's equivalent:
  each worker, after fsyncing its sorted shard file, atomically writes
  a ``<shard>.ok`` sidecar with the shard's record count and CRC-32.
  On resume the parent verifies the markers and only re-sorts the
  shards that are missing or fail verification.
* The **durability seam** every layer shares: :func:`sync` (flush +
  fsync), :func:`publish` (write tmp → sync → rename → directory
  sync) and :class:`AppendLog` (the JSONL log behind both the sort
  journal and the store MANIFEST).  Nothing else in the package calls
  ``os.fsync`` or ``os.replace``; lint rule R003 holds that line.

Everything here verifies before trusting: a journaled artifact is only
reused after its on-disk bytes re-hash to the recorded CRC-32, so a
bit-flipped surviving run is regenerated, not merged.

The final sorted output is deterministic for a given input and record
format (ties in the merge heap are broken by stream index, and equal
records encode identically), so a resumed sort emits output
byte-identical to the uninterrupted one — ``tests/test_resilience.py``
and the fault matrix in ``tests/test_faults.py`` assert this by
SHA-256 for every injected fault point.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from contextlib import contextmanager
from itertools import islice
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Type,
)

from repro.core.records import INT, RecordFormat
from repro.engine.block_io import (
    DEFAULT_BLOCK_RECORDS,
    BlockWriter,
    open_bytes,
    open_run,
    open_text,
    validate_block_records,
)
from repro.engine.errors import JournalError, SortError
from repro.engine.spill_codec import validate_codec
from repro.merge.kway import MergeCounter, kway_merge, validate_merge_params
from repro.merge.merge_tree import DEFAULT_FAN_IN
from repro.runs.base import log_cost
from repro.sort.external import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport
from repro.sort.spill import (
    DEFAULT_BUFFER_RECORDS,
    SpilledRun,
    SpillSession,
    merge_spilled_runs,
)

__all__ = [
    "JOURNAL_NAME",
    "MARKER_SUFFIX",
    "AppendLog",
    "ResumableSpillSort",
    "SortJournal",
    "file_crc32",
    "publish",
    "read_marker",
    "set_sync_hook",
    "sync",
    "write_block_file",
    "write_marker",
]

#: Manifest file name inside a durable work directory.
JOURNAL_NAME = "sort.journal"

#: Sidecar suffix of a shard completion marker.
MARKER_SUFFIX = ".ok"

#: Journal schema version (bumped on incompatible entry changes).
JOURNAL_VERSION = 1


def file_crc32(path: str, chunk_bytes: int = 1 << 20) -> int:
    """Streaming CRC-32 of a file's raw bytes (resume verification)."""
    crc = 0
    # repro: lint-waive R002 binary CRC verification read must see the raw bytes, outside the fault/CRC seam
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(chunk_bytes)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def artifact_valid(path: str, records: int, crc: int) -> bool:
    """True when a journaled artifact survived intact on disk."""
    try:
        if not os.path.isfile(path):
            return False
        return file_crc32(path) == crc
    except OSError:
        return False


# -- the durability seam -------------------------------------------------------

#: Installed by :func:`set_sync_hook`; called with the file's path
#: before every fsync.  ``None`` = no hook (production).
_SYNC_HOOK: Optional[Callable[[str], None]] = None


def set_sync_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or clear, with None) the hook every fsync passes —
    the fsync twin of :func:`~repro.engine.block_io.set_io_wrapper`,
    installed only by :func:`repro.testing.faults.activate`."""
    global _SYNC_HOOK
    _SYNC_HOOK = hook


def _fsync(fd: int, path: str) -> None:
    hook = _SYNC_HOOK
    if hook is not None:
        hook(path)
    os.fsync(fd)


def sync(handle: Any) -> None:
    """Flush ``handle`` and fsync it — every durable write in the
    package ends here (DESIGN.md §11).

    A raise is final: the file's state on disk is unknown, so the
    caller fails the operation and never retries the sync and then
    acknowledges (the fsync-failure rule).
    """
    handle.flush()
    _fsync(handle.fileno(), handle.name)


@contextmanager
def publish(path: str) -> Iterator[TextIO]:
    """Atomically publish a file: write tmp → sync → rename → dir sync.

    The body writes ``path + ".tmp"`` — through the block-I/O seam, so
    the fault harness can kill a publish mid-write — and only after a
    :func:`sync` does ``os.replace`` make it visible at ``path``; the
    parent directory is then fsynced so the rename itself survives a
    crash.  A failure at any moment before the rename — open, body,
    sync or close — closes the handle, removes the temp file and
    leaves ``path`` as it was (absent, or the previous complete file).
    A truncated file can never appear at the published path.
    """
    tmp = path + ".tmp"
    handle: Optional[TextIO] = None
    try:
        handle = open_text(tmp, "w")
        yield handle
        sync(handle)
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        try:
            if handle is not None:
                handle.close()
        finally:
            try:
                os.remove(tmp)
            except OSError:
                pass
        raise
    directory = os.path.dirname(os.path.abspath(path))
    fd = os.open(directory, os.O_RDONLY)
    try:
        _fsync(fd, directory)
    finally:
        os.close(fd)


def write_block_file(
    path: str,
    records: Iterable[Any],
    fmt: RecordFormat,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    checksum: bool = False,
    fsync: bool = False,
    codec: str = "none",
    session: Optional[Any] = None,
) -> Tuple[int, int]:
    """Durable single-file write; returns ``(record_count, file_crc32)``.

    The resilience layer's write primitive: the CRC covers every byte
    the writer produced (headers included) *before* the operating
    system or an injected fault had a chance to mangle them, so the
    journal entry describes the intended file and a later verification
    pass catches any divergence.  ``fsync=True`` syncs the file
    (:func:`sync`) before returning — a journaled run must never
    outlive its data.  ``session`` receives byte accounting as in
    :func:`~repro.engine.block_io.write_sequence`.
    """
    validate_block_records(block_records)
    with open_run(path, "w", fmt, codec=codec) as handle:
        writer = BlockWriter(
            handle, fmt, block_records, checksum=checksum, track_crc=True,
            codec=codec,
        )
        writer.write_all(records)
        writer.flush()
        if fsync:
            sync(handle)
    if session is not None:
        session.spilled(writer.raw_bytes, writer.disk_bytes)
    return writer.written, writer.file_crc


def write_marker(path: str, payload: Dict[str, Any]) -> None:
    """Atomically persist a completion marker through :func:`publish`.

    The rename is the commit point: a crash at any earlier moment
    leaves no marker, so a half-written shard can never be mistaken
    for a finished one.
    """
    with publish(path) as handle:
        handle.write(json.dumps(payload))


def read_marker(path: str) -> Optional[Dict[str, Any]]:
    """Load a completion marker; None when absent or unreadable."""
    try:
        # repro: lint-waive R002 marker reads are recovery metadata, deliberately outside the record-block seam
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def _wipe_directory(work_dir: str) -> None:
    """Remove every entry inside ``work_dir`` (but keep the directory)."""
    for name in os.listdir(work_dir):
        target = os.path.join(work_dir, name)
        if os.path.isdir(target):
            shutil.rmtree(target, ignore_errors=True)
        else:
            try:
                os.remove(target)
            except OSError:
                pass


class AppendLog:
    """An append-only JSONL log — the sort journal and the store
    MANIFEST are both one.

    :meth:`load_entries` drops one torn trailing line (a crash
    mid-append); a torn or non-object line anywhere *else* means the
    file did not grow append-only, and raises :attr:`error`.
    :meth:`_open` truncates a torn tail before appending, which would
    otherwise fuse two entries into one unparseable mid-file line.
    :meth:`append` returns once the entry is durable; a failed append
    closes the log for good, so nothing can be appended — and
    acknowledged — after it (§11's fsync-failure rule).
    """

    #: Raised when the log cannot be trusted.
    error: Type[SortError] = JournalError
    #: What the log is called in error messages.
    kind = "journal"

    def __init__(self, path: str) -> None:
        self.path = path
        self.entries: List[Dict[str, Any]] = []
        self._handle: Optional[TextIO] = None

    @classmethod
    def load_entries(cls, path: str) -> List[Dict[str, Any]]:
        """Every intact entry of the log at ``path``, in order."""
        with open_text(path) as handle:
            lines = handle.readlines()
        entries: List[Dict[str, Any]] = []
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines):
                    break  # torn final append — the crash we planned for
                raise cls.error(
                    f"{cls.kind} {path!r} is corrupt at line {number}; it "
                    f"only ever grows by appending, so damage before the "
                    f"tail means the file cannot be trusted"
                ) from None
            if not isinstance(entry, dict):
                raise cls.error(
                    f"{cls.kind} {path!r} line {number} is not an object "
                    f"— the file is not a {cls.kind}"
                )
            entries.append(entry)
        return entries

    def _open(self) -> None:
        """Repair a torn tail, then open the log for appending."""
        try:
            with open_bytes(self.path, "r+") as repair:
                data = repair.read()
                if data and not data.endswith(b"\n"):
                    repair.truncate(data.rfind(b"\n") + 1)
        except FileNotFoundError:
            pass
        self._handle = open_text(self.path, "a")

    def append(self, entry: Dict[str, Any]) -> None:
        """Durably record one entry (write, then :func:`sync`)."""
        assert self._handle is not None, f"{self.path!r} is not open"
        try:
            self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
            sync(self._handle)
        except BaseException:
            self.close()
            raise
        self.entries.append(entry)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "AppendLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class SortJournal(AppendLog):
    """Append-only JSONL run manifest of one durable sort.

    The first entry is always ``meta`` carrying the sort's parameter
    *fingerprint* (format, memory, fan-in, checksum flag, input
    identity…).  :meth:`open_dir` only resumes a journal whose
    fingerprint matches the current sort exactly; anything else — a
    different input file, a changed memory budget, a corrupt manifest —
    wipes the work directory and starts fresh, because mixing runs
    from two configurations would merge silently wrong data.
    Durability and the torn-tail rule are :class:`AppendLog`'s.
    """

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def open_dir(
        cls, work_dir: str, fingerprint: Dict[str, Any], resume: bool
    ) -> "SortJournal":
        """Open (resuming) or initialise the journal of ``work_dir``."""
        os.makedirs(work_dir, exist_ok=True)
        path = os.path.join(work_dir, JOURNAL_NAME)
        if resume and os.path.exists(path):
            journal = cls(path)
            try:
                journal.entries = cls.load_entries(path)
                meta = journal.entries[0] if journal.entries else {}
                if (
                    meta.get("type") == "meta"
                    and meta.get("version") == JOURNAL_VERSION
                    and meta.get("fingerprint") == fingerprint
                ):
                    journal._open()
                    return journal
            except JournalError:
                pass
        # Fresh start: stale artifacts from another configuration (or a
        # rejected journal) must not survive into this attempt.  Never
        # wipe a directory that was not ours: anything non-empty
        # without a journal is the user's data, not sort state.
        if os.listdir(work_dir) and not os.path.exists(path):
            raise JournalError(
                f"work directory {work_dir!r} is not empty and holds no "
                f"sort journal; refusing to wipe it — pass an empty or "
                f"dedicated directory"
            )
        _wipe_directory(work_dir)
        journal = cls(path)
        journal._open()
        journal.append(
            {
                "type": "meta",
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            }
        )
        return journal

    # -- queries ---------------------------------------------------------------

    def _last_by_key(self, entry_type: str, key: str) -> Dict[Any, Dict]:
        found: Dict[Any, Dict] = {}
        for entry in self.entries:
            if entry.get("type") == entry_type:
                found[entry.get(key)] = entry
        return found

    def valid_runs(self, work_dir: str) -> Dict[int, Dict[str, Any]]:
        """Journaled generation runs whose files verify on disk."""
        return {
            run_id: entry
            for run_id, entry in self._last_by_key("run", "id").items()
            if artifact_valid(
                os.path.join(work_dir, entry["file"]),
                entry["records"],
                entry["crc32"],
            )
        }

    def runs(self) -> Dict[int, Dict[str, Any]]:
        """All journaled generation-run entries (no disk verification)."""
        return self._last_by_key("run", "id")

    def merges(self) -> Dict[Any, Dict[str, Any]]:
        """All journaled merge entries by id (no disk verification)."""
        return self._last_by_key("merge", "id")

    def runs_done(self) -> Optional[Dict[str, Any]]:
        """The generation-complete entry, when one was reached."""
        done = None
        for entry in self.entries:
            if entry.get("type") == "runs_done":
                done = entry
        return done


class _ResumeState:
    """What a resumed sort may reuse, with supersession reasoning.

    A journaled artifact (generation run ``i`` or merge output
    ``m<j>``) is *available* to the resumed merge schedule when either

    * its file still verifies on disk, or
    * it was **consumed by an available merge** — the crash-consistency
      invariant deletes a merge's inputs only after the output is
      journaled, so a deleted input whose consumer (transitively)
      survives on disk is work that never needs redoing.

    Without the second clause, a crash *after* an intermediate merge
    pass would force regeneration of every input run that pass already
    consumed — re-paying exactly the cost the journal exists to save —
    only for the reused merge output to discard the fresh files unread.
    """

    def __init__(self, journal: SortJournal, work_dir: str) -> None:
        self.work_dir = work_dir
        self.run_entries = journal.runs()
        self.merge_entries = journal.merges()
        self.by_inputs = {
            tuple(entry["inputs"]): entry
            for entry in self.merge_entries.values()
        }
        #: artifact id -> the merge entry that consumed it.
        self.consumer_of = {
            rid: entry
            for entry in self.merge_entries.values()
            for rid in entry["inputs"]
        }
        self._disk: Dict[Any, bool] = {}

    def _disk_valid(self, key: Any, entry: Dict[str, Any]) -> bool:
        cached = self._disk.get(key)
        if cached is None:
            cached = artifact_valid(
                os.path.join(self.work_dir, entry["file"]),
                entry["records"],
                entry["crc32"],
            )
            self._disk[key] = cached
        return cached

    def _covered(self, artifact_id: Any) -> bool:
        """True when a (transitive) consumer merge survives on disk."""
        entry = self.consumer_of.get(artifact_id)
        while entry is not None:
            merge_key = f"m{entry['id']}"
            if self._disk_valid(merge_key, entry):
                return True
            entry = self.consumer_of.get(merge_key)
        return False

    def run_available(self, run_id: int) -> bool:
        entry = self.run_entries.get(run_id)
        if entry is None:
            return False
        return self._disk_valid(run_id, entry) or self._covered(run_id)

    def merge_reusable(self, inputs: Tuple[Any, ...]) -> Optional[Dict]:
        """The journaled merge over ``inputs`` if its output is usable."""
        entry = self.by_inputs.get(inputs)
        if entry is None:
            return None
        merge_key = f"m{entry['id']}"
        if self._disk_valid(merge_key, entry) or self._covered(merge_key):
            return entry
        return None


class ResumableSpillSort:
    """Serial external sort with a durable, restartable work directory.

    The drop-in durable sibling of :class:`~repro.sort.spill.
    FileSpillSort` (same instrumentation surface, so
    :class:`~repro.engine.planner.SortEngine` streams through either),
    with three behavioural differences:

    * **Chunk-aligned run generation** — run *i* is ``sorted()`` over
      input records ``[i*memory, (i+1)*memory)``; deterministic and
      exactly resumable (module docstring).  Reported algorithm name:
      ``CKPT``.
    * **Journaled progress** — every run and intermediate merge is
      fsynced, CRC-recorded and journaled when complete; consumed
      inputs are only deleted *after* their merge output is journaled.
    * **Failure keeps the work directory** — only a fully consumed
      sort removes it; anything else leaves runs + journal behind for
      ``resume=True`` (or ``repro sort --resume``) to pick up.

    ``resume=True`` with a compatible journal skips the sort+write of
    every surviving run (:attr:`runs_reused` / :attr:`merges_reused`
    count the savings); an incompatible or corrupt journal wipes the
    directory and starts fresh.  ``input_fingerprint`` ties the
    journal to one input (the CLI passes path+size+mtime); API callers
    that omit it promise the input stream is unchanged between
    attempts.
    """

    def __init__(
        self,
        *,
        memory: int,
        work_dir: str,
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        record_format: RecordFormat = INT,
        checksum: bool = False,
        resume: bool = False,
        input_fingerprint: Optional[str] = None,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
        spill_codec: str = "none",
    ) -> None:
        if memory < 1:
            raise ValueError(f"memory must be >= 1, got {memory}")
        validate_merge_params(fan_in, buffer_records)
        validate_block_records(buffer_records)
        self.memory = memory
        self.work_dir = work_dir
        self.fan_in = fan_in
        self.buffer_records = buffer_records
        self.record_format = record_format
        self.checksum = checksum
        self.resume = resume
        self.input_fingerprint = input_fingerprint
        self.cpu_op_time = cpu_op_time
        #: Spill codec (DESIGN.md §15) for every journaled artifact.
        self.spill_codec = validate_codec(spill_codec)
        # -- instrumentation of the last finished sort --
        self.report: Optional[SortReport] = None
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        #: Runs / intermediate merges skipped thanks to the journal.
        self.runs_reused = 0
        self.merges_reused = 0

    # -- public API --------------------------------------------------------------

    def fingerprint(self) -> Dict[str, Any]:
        """Parameters that must match for a journal to be resumable."""
        return {
            "mode": "spill-ckpt",
            "memory": self.memory,
            "fan_in": self.fan_in,
            "buffer_records": self.buffer_records,
            "checksum": self.checksum,
            "format": self.record_format.name,
            # Binary and text run files are not mutually readable, so a
            # resume across an encoding switch must wipe and start over.
            "encoding": (
                "binary" if getattr(self.record_format, "spill_binary", False)
                else "text"
            ),
            # Codec framings are not mutually readable either: a work
            # dir journaled under one codec must never be resumed under
            # another, so the codec is part of the resume identity.
            "codec": self.spill_codec,
            "input": self.input_fingerprint,
        }

    def sort(self, records: Iterable[Any]) -> Iterator[Any]:
        """Lazily yield ``records`` ascending, journaling as it goes.

        The work directory is created if missing, reused if resuming,
        and removed only when the returned iterator is *fully*
        consumed; a raise or abandonment mid-stream leaves every
        journaled artifact in place for the next attempt.
        """
        os.makedirs(self.work_dir, exist_ok=True)
        journal = SortJournal.open_dir(
            self.work_dir, self.fingerprint(), self.resume
        )
        self._resume_state = _ResumeState(journal, self.work_dir)
        session = SpillSession(
            self.work_dir, checksum=self.checksum, codec=self.spill_codec
        )
        self.runs_reused = 0
        self.merges_reused = 0
        completed = False
        report = None
        try:
            counter = MergeCounter()
            started = time.perf_counter()
            runs, consumed, gen_ops, run_lengths = self._generate_runs(
                records, journal, session
            )
            run_wall = time.perf_counter() - started

            report = SortReport(
                algorithm="CKPT",
                records=consumed,
                runs=len(runs),
                run_lengths=run_lengths,
            )
            report.run_phase = PhaseReport(
                cpu_ops=gen_ops,
                cpu_time=gen_ops * self.cpu_op_time,
                wall_time=run_wall,
            )

            started = time.perf_counter()
            yield from merge_spilled_runs(
                session,
                runs,
                counter,
                self.record_format,
                self.fan_in,
                self.buffer_records,
                merge_group=self._journaled_merge_group(
                    journal, session, counter
                ),
            )
            report.merge_phase = PhaseReport(
                cpu_ops=counter.cpu_ops,
                cpu_time=counter.cpu_ops * self.cpu_op_time,
                wall_time=time.perf_counter() - started,
            )
            completed = True
        finally:
            # Run-phase stats survive an abandoned or faulted merge.
            if report is not None:
                report.spill_raw_bytes = session.spill_raw_bytes
                report.spill_disk_bytes = session.spill_disk_bytes
                self.report = report
            journal.close()
            self.merge_passes = session.merge_passes
            self.max_resident_records = session.max_resident_records
            self.max_open_readers = session.max_open_readers
            if completed:
                session.cleanup()

    # -- internals -----------------------------------------------------------------

    def _run_path(self, run_id: Any) -> str:
        return os.path.join(self.work_dir, f"run-{run_id:06d}.txt")

    def _merge_path(self, merge_id: int) -> str:
        return os.path.join(self.work_dir, f"merge-{merge_id:06d}.txt")

    def _adopt(
        self, session: SpillSession, path: str, length: int, run_id: Any
    ) -> SpilledRun:
        """A journaled file as a merge input the merge must not delete."""
        run = SpilledRun(
            session, path, length, self.record_format, self.buffer_records,
            keep=True,
        )
        run.run_id = run_id
        return run

    def _generate_runs(
        self,
        records: Iterable[Any],
        journal: SortJournal,
        session: SpillSession,
    ) -> Tuple[List[SpilledRun], int, int, List[int]]:
        """Chunk, sort and spill the input — reusing journaled runs.

        Returns ``(runs, records_consumed, cpu_ops, run_lengths)``.
        A journaled run counts as reusable when its file verifies on
        disk *or* a surviving merge already consumed it
        (:class:`_ResumeState`); when a previous attempt finished
        generation and every run is reusable, the input stream is not
        touched at all (the mid-merge-crash fast path).
        """
        state = self._resume_state
        done = journal.runs_done()
        if done is not None and all(
            state.run_available(run_id) for run_id in range(done["runs"])
        ):
            runs = []
            run_lengths = []
            for run_id in range(done["runs"]):
                entry = state.run_entries[run_id]
                runs.append(
                    self._adopt(
                        session,
                        os.path.join(self.work_dir, entry["file"]),
                        entry["records"],
                        run_id,
                    )
                )
                run_lengths.append(entry["records"])
            self.runs_reused = len(runs)
            return runs, done["records"], 0, run_lengths

        stream = iter(records)
        runs: List[SpilledRun] = []
        run_lengths: List[int] = []
        cpu_ops = 0
        consumed = 0
        run_id = 0
        while True:
            chunk = list(islice(stream, self.memory))
            if not chunk:
                break
            consumed += len(chunk)
            entry = state.run_entries.get(run_id)
            path = self._run_path(run_id)
            if (
                entry is not None
                and entry["records"] == len(chunk)
                and state.run_available(run_id)
            ):
                runs.append(self._adopt(session, path, len(chunk), run_id))
                self.runs_reused += 1
            else:
                chunk.sort()
                count, crc = write_block_file(
                    path,
                    chunk,
                    self.record_format,
                    self.buffer_records,
                    checksum=self.checksum,
                    fsync=True,
                    codec=self.spill_codec,
                    session=session,
                )
                journal.append(
                    {
                        "type": "run",
                        "id": run_id,
                        "file": os.path.basename(path),
                        "records": count,
                        "crc32": crc,
                    }
                )
                runs.append(self._adopt(session, path, count, run_id))
                cpu_ops += count * log_cost(count)
            run_lengths.append(len(chunk))
            run_id += 1
        journal.append(
            {"type": "runs_done", "runs": run_id, "records": consumed}
        )
        return runs, consumed, cpu_ops, run_lengths

    def _journaled_merge_group(
        self,
        journal: SortJournal,
        session: SpillSession,
        counter: MergeCounter,
    ) -> Callable[[Sequence["SpilledRun"]], "SpilledRun"]:
        """Build the journaling merge_group for ``merge_spilled_runs``.

        Each intermediate pass node gets a deterministic id (call
        order over the deterministic pass structure of
        ``reduce_to_fan_in``), so a resumed sort matches its groups
        against journaled ones by input-id tuple and skips the ones
        whose outputs survived on disk — or were themselves consumed
        by a surviving later merge (a placeholder run is adopted; it
        is never read, only matched by id in *its* consumer's group).
        Consumed inputs are deleted only after the group's output is
        journaled — the crash-consistency invariant.
        """
        state = self._resume_state
        next_id = iter(range(10**9))

        def merge_group(group: Sequence[SpilledRun]) -> SpilledRun:
            merge_id = next(next_id)
            ids = tuple(run.run_id for run in group)
            entry = state.merge_reusable(ids)
            if entry is not None:
                self.merges_reused += 1
                out = self._adopt(
                    session,
                    os.path.join(self.work_dir, entry["file"]),
                    entry["records"],
                    f"m{entry['id']}",
                )
            else:
                path = self._merge_path(merge_id)
                count, crc = write_block_file(
                    path,
                    kway_merge([run.records() for run in group], counter),
                    self.record_format,
                    self.buffer_records,
                    checksum=self.checksum,
                    fsync=True,
                    codec=self.spill_codec,
                    session=session,
                )
                journal.append(
                    {
                        "type": "merge",
                        "id": merge_id,
                        "inputs": list(ids),
                        "file": os.path.basename(path),
                        "records": count,
                        "crc32": crc,
                    }
                )
                out = self._adopt(session, path, count, f"m{merge_id}")
            for run in group:
                try:
                    os.remove(run.path)
                except OSError:
                    pass
            return out

        return merge_group
