"""Real-file spill backend for streaming external sorts (DESIGN.md §6).

The simulated pipeline (:mod:`repro.sort.external`) charges I/O to an
analytic disk clock; this module is its real-I/O twin for the CLI: runs
are spilled to newline-delimited temporary files *as the generator
produces them*, and the merge phase consumes them through lazy buffered
readers, ``fan_in`` at a time.  Peak resident memory is therefore
O(memory_capacity + fan_in * buffer_records) regardless of the input
size — the whole point of external sorting — where the previous CLI
path materialised every run and the merged output as Python lists.

Serialisation is delegated to a :class:`~repro.core.records.
RecordFormat` (DESIGN.md §9): spill files are written and read in
*blocks* of records through :mod:`repro.engine.block_io`.  Every merge
pass, intermediate or final, reads its runs through one synchronous
block reader, :meth:`SpilledRun.records` (DESIGN.md §9.3).

The backend instruments its own laziness: :attr:`FileSpillSort.
max_resident_records` tracks the largest number of records ever held in
read buffers at once and :attr:`FileSpillSort.max_open_readers` the
widest concurrent reader fan-in, so tests can assert the bounded-memory
property instead of trusting it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.core.records import INT, RecordFormat
from repro.engine.errors import SortError
from repro.engine.block_io import (
    open_run,
    read_blocks,
    write_sequence,
)
from repro.engine.spill_codec import validate_codec
from repro.engine.merge_reading import open_reading
from repro.merge.kway import (
    MergeCounter,
    kway_merge,
    reduce_to_fan_in,
    validate_merge_params,
)
from repro.merge.merge_tree import DEFAULT_FAN_IN
from repro.runs.base import RunGenerator
from repro.sort.external import DEFAULT_CPU_OP_TIME, PhaseReport, SortReport

#: Records decoded per read chunk of one run reader.
DEFAULT_BUFFER_RECORDS = 4096


class SpillSession:
    """Per-``sort()`` state: temp directory and laziness accounting.

    Each call to :meth:`FileSpillSort.sort` owns one session, so
    overlapping or abandoned sorts on the same backend never share a
    temp directory or cross-wire each other's instrumentation.
    """

    def __init__(
        self, work_dir: str, checksum: bool = False, codec: str = "none"
    ) -> None:
        self.work_dir = work_dir
        #: Spill files written under this session carry per-block
        #: checksum headers (DESIGN.md §11); readers verify them.
        self.checksum = checksum
        #: Spill codec (DESIGN.md §15) for every run and intermediate
        #: merge file written under this session.
        self.codec = validate_codec(codec)
        self.next_spill_id = 0
        self.merge_passes = 0
        self.resident = 0
        self.open_readers = 0
        self.max_resident_records = 0
        self.max_open_readers = 0
        #: Spill traffic: encoded record bytes before codec framing vs
        #: bytes actually written (equal when the codec is "none").
        self.spill_raw_bytes = 0
        self.spill_disk_bytes = 0
        #: Blocks delivered by every run reader of this session.
        self.block_reads = 0

    def spilled(self, raw_bytes: int, disk_bytes: int) -> None:
        """Record one spill write's byte accounting."""
        self.spill_raw_bytes += raw_bytes
        self.spill_disk_bytes += disk_bytes

    def spill_path(self) -> str:
        path = os.path.join(self.work_dir, f"run-{self.next_spill_id:06d}.txt")
        self.next_spill_id += 1
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # -- laziness instrumentation ----------------------------------------------

    def buffer_grew(self, n: int) -> None:
        self.resident += n
        if self.resident > self.max_resident_records:
            self.max_resident_records = self.resident

    def buffer_shrank(self, n: int) -> None:
        self.resident -= n

    def reader_opened(self) -> None:
        self.open_readers += 1
        if self.open_readers > self.max_open_readers:
            self.max_open_readers = self.open_readers

    def reader_closed(self) -> None:
        self.open_readers -= 1


class SpilledRun:
    """One sorted run stored in a real temporary file.

    Records are one per line in the owning sort's
    :class:`RecordFormat`.  :meth:`records` is a lazy block-buffered
    reader that holds at most ``buffer_records`` decoded records at a
    time and deletes the file once it is fully consumed.
    """

    def __init__(
        self,
        session: SpillSession,
        path: str,
        length: int,
        record_format: RecordFormat = INT,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        keep: bool = False,
        checksum: Optional[bool] = None,
        skip_blank: bool = False,
        binary: Optional[bool] = None,
        codec: Optional[str] = None,
    ) -> None:
        self._session = session
        self.path = path
        self.length = length
        self.record_format = record_format
        self.buffer_records = buffer_records
        #: Per-run framing override: caller-provided merge inputs are
        #: text files even when the engine's working format spills
        #: binary (its text-side codec decodes them); ``None`` defers
        #: to the format's ``spill_binary`` flag.
        self.binary = binary
        #: True for caller-owned files the merge must not delete
        #: (:meth:`SortEngine.merge_files` inputs) and for journaled
        #: durable runs, which only their resilience layer may delete.
        self.keep = keep
        #: Per-run override of the session's checksum mode: caller-
        #: provided merge inputs are plain files even when the session
        #: checksums its own intermediate spills.
        self._checksum = checksum
        #: Tolerate blank separator lines (caller-provided merge
        #: inputs, same contract as the CLI's input streams).  Spill
        #: files the sort writes itself never need it.
        self.skip_blank = skip_blank
        #: Per-run override of the session's spill codec: caller-
        #: provided merge inputs are uncompressed text even when the
        #: session compresses its own intermediate spills.
        self._codec = codec

    @property
    def checksum(self) -> bool:
        """Whether this run's file carries per-block checksum headers."""
        if self._checksum is not None:
            return self._checksum
        return self._session.checksum

    @property
    def codec(self) -> str:
        """The spill codec this run's file was written with."""
        if self._codec is not None:
            return self._codec
        return self._session.codec

    def records(self) -> Iterator[Any]:
        """Yield the run's records in order, buffered and lazily.

        A run whose file ends early — checksums can only vouch for the
        blocks that *are* there, not for silently missing ones — fails
        with a :class:`~repro.engine.errors.SortError` naming the file
        and both counts, instead of quietly merging a partial run.
        """
        session = self._session
        delivered = 0
        session.reader_opened()
        try:
            with open_run(
                self.path, "r", self.record_format, self.binary,
                codec=self.codec,
            ) as handle:
                for chunk in read_blocks(
                    handle, self.record_format, self.buffer_records,
                    checksum=self.checksum, skip_blank=self.skip_blank,
                    binary=self.binary, codec=self.codec,
                ):
                    delivered += len(chunk)
                    session.block_reads += 1
                    session.buffer_grew(len(chunk))
                    try:
                        yield from chunk
                    finally:
                        session.buffer_shrank(len(chunk))
        finally:
            session.reader_closed()
        if self.length and delivered != self.length:
            raise SortError(
                f"spilled run {self.path!r} delivered {delivered} records "
                f"but {self.length} were written — file was truncated or "
                f"lost blocks on disk"
            )
        self.discard()

    def discard(self) -> None:
        """Delete the backing file (idempotent; no-op for kept files)."""
        if self.keep:
            return
        try:
            os.remove(self.path)
        except OSError:
            pass


def merge_group_to_file(
    session: SpillSession,
    group: Sequence[SpilledRun],
    counter: MergeCounter,
    record_format: RecordFormat,
    buffer_records: int,
) -> SpilledRun:
    """Merge one group of spilled runs into a new spilled run file.

    The merge_group callable of one intermediate pass (see
    :func:`repro.merge.kway.reduce_to_fan_in`), shared by the serial
    spill backend, the parallel partitioned sort's parent merge, and
    the engine's file merge.
    """
    path = session.spill_path()
    length = write_sequence(
        path, kway_merge([run.records() for run in group], counter),
        record_format, buffer_records, checksum=session.checksum,
        codec=session.codec, session=session,
    )
    return SpilledRun(session, path, length, record_format, buffer_records)


def merge_spilled_runs(
    session: SpillSession,
    runs: Sequence[SpilledRun],
    counter: MergeCounter,
    record_format: RecordFormat,
    fan_in: int,
    buffer_records: int,
    merge_group: Optional[Callable[[Sequence[SpilledRun]], SpilledRun]] = None,
) -> Iterator[Any]:
    """Reduce ``runs`` to ``fan_in`` and stream the final k-way merge.

    The shared merge tail of every real-file backend: intermediate
    passes (``merge_group``, :func:`merge_group_to_file` by default)
    write new spill files; the final merge reads the survivors through
    the same :meth:`SpilledRun.records` reader.  ``session.merge_passes``
    describes what happened once the stream is consumed.
    """
    if merge_group is None:
        def merge_group(group: Sequence[SpilledRun]) -> SpilledRun:
            return merge_group_to_file(
                session, group, counter, record_format, buffer_records
            )
    runs, extra_passes = reduce_to_fan_in(runs, fan_in, merge_group)
    session.merge_passes = 1 + extra_passes
    final = open_reading(runs, session)
    try:
        yield from kway_merge(
            final.streams(), counter,
            fan_in=fan_in, buffer_records=buffer_records,
        )
    finally:
        final.close()


class FileSpillSort:
    """Streaming external sort over real temporary files.

    Parameters
    ----------
    generator:
        Any :class:`~repro.runs.base.RunGenerator`; each run it yields
        is written to its own temp file immediately and freed.
    fan_in:
        Maximum runs merged simultaneously; with more runs than this,
        intermediate merge passes write new spilled runs first.
    buffer_records:
        Decoded records each run reader holds at a time (also the
        block size of spill-file writes).
    tmp_dir:
        Parent directory for the per-sort temp directory (system
        default when None).
    record_format:
        Record <-> line serialisation and key extraction
        (:data:`~repro.core.records.INT` by default, matching the
        CLI's historical key format).
    checksum:
        Write per-block CRC-32 headers into every spill file and
        verify them on read-back (DESIGN.md §11), so a torn or
        bit-flipped block fails the merge loudly with file + offset
        instead of silently merging garbage.
    cpu_op_time:
        Simulated seconds per analytic CPU op, for the report's
        ``cpu_time`` alongside the measured wall times.

    :attr:`report`, :attr:`merge_passes`, :attr:`max_resident_records`
    and :attr:`max_open_readers` describe the most recently *finished*
    sort (each ``sort()`` call keeps its own
    private state while running, so overlapping sorts do not
    interfere).
    """

    def __init__(
        self,
        generator: RunGenerator,
        fan_in: int = DEFAULT_FAN_IN,
        buffer_records: int = DEFAULT_BUFFER_RECORDS,
        tmp_dir: Optional[str] = None,
        record_format: RecordFormat = INT,
        checksum: bool = False,
        cpu_op_time: float = DEFAULT_CPU_OP_TIME,
        spill_codec: str = "none",
    ) -> None:
        validate_merge_params(fan_in, buffer_records)
        self.generator = generator
        self.fan_in = fan_in
        self.buffer_records = buffer_records
        self.tmp_dir = tmp_dir
        self.record_format = record_format
        self.checksum = checksum
        self.cpu_op_time = cpu_op_time
        #: Spill codec (DESIGN.md §15) for runs, intermediate merges
        #: and shard output files.  The final ``sort()`` stream is
        #: unaffected — codecs only change bytes at rest.
        self.spill_codec = validate_codec(spill_codec)
        #: CRC-32 of the bytes the last :meth:`sort_to_path` intended
        #: to write (set when ``track_crc=True``); shard completion
        #: markers record it so resume verification catches any
        #: divergence between intent and disk.
        self.last_output_crc: Optional[int] = None
        #: Final :class:`SortReport`; set once a sort is fully consumed.
        self.report: Optional[SortReport] = None
        #: Merge passes of the last sort (1 = single lazy merge).
        self.merge_passes = 0
        self.max_resident_records = 0
        self.max_open_readers = 0

    # -- public API --------------------------------------------------------------

    def sort(self, records: Iterable[Any]) -> Iterator[Any]:
        """Lazily yield ``records`` in ascending order.

        Runs are spilled to disk as they are generated; the returned
        iterator streams the merged output.  :attr:`report` holds the
        phase timings once the iterator is exhausted.  Abandoning the
        iterator mid-sort still removes all temporary files.
        """
        # Nothing between creating the temp directory and entering the
        # try: every later failure — run generation raising mid-stream,
        # a decode error during the merge, the caller abandoning the
        # iterator — must reach the finally and remove the directory.
        session = SpillSession(
            tempfile.mkdtemp(prefix="repro-sort-", dir=self.tmp_dir),
            checksum=self.checksum,
            codec=self.spill_codec,
        )
        report = None
        try:
            counter = MergeCounter()
            started = time.perf_counter()
            runs = [
                self._spill_run(session, run)
                for run in self.generator.generate_runs(records)
            ]
            run_wall = time.perf_counter() - started
            # Snapshot now: a later sort() on the same generator resets
            # its stats while this sort's merge is still streaming.
            stats = self.generator.stats
            report = SortReport(
                algorithm=self.generator.name,
                records=stats.records_in,
                runs=stats.runs_out,
                run_lengths=list(stats.run_lengths),
            )
            report.run_phase = PhaseReport(
                cpu_ops=stats.cpu_ops,
                cpu_time=stats.cpu_ops * self.cpu_op_time,
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
                merge_group=lambda group: self._merge_to_file(
                    session, group, counter
                ),
            )
            merge_wall = time.perf_counter() - started

            report.merge_phase = PhaseReport(
                cpu_ops=counter.cpu_ops,
                cpu_time=counter.cpu_ops * self.cpu_op_time,
                wall_time=merge_wall,
            )
        finally:
            # Published even when the consumer abandons (or a fault
            # kills) the merge stream: a truncating caller like top-k
            # still sees the run-phase stats, with merge_phase zeroed.
            if report is not None:
                report.spill_raw_bytes = session.spill_raw_bytes
                report.spill_disk_bytes = session.spill_disk_bytes
                self.report = report
            self.merge_passes = session.merge_passes
            self.max_resident_records = session.max_resident_records
            self.max_open_readers = session.max_open_readers
            session.cleanup()

    def sort_to_path(
        self,
        records: Iterable[Any],
        path: str,
        track_crc: bool = False,
        fsync: bool = False,
    ) -> int:
        """Sort ``records`` into the file at ``path``; return the length.

        Streaming block-buffered write of the merged output — the
        parallel partitioned sort uses this inside worker processes to
        leave one fully sorted file per shard behind.  ``track_crc``
        records the output's CRC-32 in :attr:`last_output_crc` and
        ``fsync`` forces the file to stable storage before returning —
        both required before a durable completion marker may be
        written for the file.
        """
        # Imported here: resilience builds on this module.
        from repro.engine.resilience import write_block_file

        length, crc = write_block_file(
            path,
            self.sort(records),
            self.record_format,
            self.buffer_records,
            checksum=self.checksum,
            fsync=fsync,
            codec=self.spill_codec,
            session=self,
        )
        self.last_output_crc = crc if track_crc else None
        return length

    def spilled(self, raw_bytes: int, disk_bytes: int) -> None:
        """Count :meth:`sort_to_path`'s output file as spill traffic:
        the parent merge reads a shard file back exactly like a run."""
        if self.report is not None:
            self.report.spill_raw_bytes += raw_bytes
            self.report.spill_disk_bytes += disk_bytes

    # -- internals -----------------------------------------------------------------

    def _spill_run(
        self, session: SpillSession, run: Sequence[Any]
    ) -> SpilledRun:
        """Write one generated run to its own temp file, in blocks."""
        path = session.spill_path()
        write_sequence(
            path, run, self.record_format, self.buffer_records,
            checksum=self.checksum, codec=session.codec, session=session,
        )
        return SpilledRun(
            session, path, len(run), self.record_format, self.buffer_records
        )

    def _merge_to_file(
        self,
        session: SpillSession,
        group: Sequence[SpilledRun],
        counter: MergeCounter,
    ) -> SpilledRun:
        """One intermediate merge pass node: group -> new spilled run."""
        return merge_group_to_file(
            session, group, counter, self.record_format, self.buffer_records
        )
