"""The final merge pass's reader handle (DESIGN.md §9.3).

Every real-file merge pass — intermediate and final — reads its runs
through one block reader, :meth:`repro.sort.spill.SpilledRun.records`,
synchronously: a run refills its one buffer of decoded records when
it empties.  The paper's §3.7.2 prefetching strategies live on in the
simulator (:mod:`repro.merge.reading`); their real-file port was
retired because BENCH_blockio.json measured it no faster than the
synchronous reader (500k ints, 1 CPU: 1.508 s synchronous vs 1.535 s
and 1.579 s prefetching, identical digests).

:func:`open_reading` wraps the final pass's run streams in one handle
so the pass has a single open/close boundary — the seam where callers
(and external tracers) observe it — and :class:`ReadingStats` reports
how many blocks that pass read.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, List, Sequence


class ReadingStats:
    """What the final merge pass read.

    ``block_reads`` counts the blocks that delivered records during the
    pass; ``prefetches`` and ``prefetch_hits`` stay 0 because the
    reader never reads ahead.
    """

    __slots__ = ("block_reads", "prefetches", "prefetch_hits")

    def __init__(self) -> None:
        self.block_reads = 0
        self.prefetches = 0
        self.prefetch_hits = 0


class ReadingStrategy:
    """The final pass's run streams, with one ``close()`` for all.

    ``runs`` are :class:`~repro.sort.spill.SpilledRun` objects sharing
    ``session``; each stream is the run's own ``records()`` generator,
    so the final pass reads, verifies and discards runs exactly as the
    intermediate passes do.
    """

    def __init__(self, runs: Sequence[Any], session: Any) -> None:
        self._session = session
        self._reads_before = session.block_reads
        self.stats = ReadingStats()
        self._streams: List[Generator[Any, None, None]] = [
            run.records() for run in runs
        ]

    def streams(self) -> List[Iterator[Any]]:
        """One ascending record iterator per run, for ``kway_merge``."""
        return list(self._streams)

    def close(self) -> None:
        """Close every run stream and settle :attr:`stats` (idempotent)."""
        for stream in self._streams:
            stream.close()
        self.stats.block_reads = self._session.block_reads - self._reads_before


def open_reading(runs: Sequence[Any], session: Any) -> ReadingStrategy:
    """Open the final merge pass over ``runs`` (a :class:`ReadingStrategy`)."""
    return ReadingStrategy(runs, session)
