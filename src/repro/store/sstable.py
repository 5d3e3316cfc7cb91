"""SSTable writing and reading (DESIGN.md §17).

An SSTable is a sorted run with a map.  The data region is exactly
what the sort engine spills — RBLK (or codec-framed RBLC) blocks of
``(key_bytes, meta_bytes)`` records written by
:class:`~repro.engine.block_io.BlockWriter` through the ``open_bytes``
fault seam — followed by a *sparse index* (one ``(offset,
first_key)`` pair per block, plus the table's key range, record count
and max seqno) and a fixed 24-byte footer whose magic is the last
thing written.  File layout::

    [block 0][block 1]...[block N-1][index body][footer]
    footer = index_offset u64 | index_len u32 | index_crc u32 | magic 8s

A reader opens by parsing footer + index (CRC-checked) and then
serves:

* ``lookup(key)`` — binary search the block first-keys, seek, read
  *one* block through the same corruption-checked parser the merge
  path uses (:func:`~repro.engine.block_io.read_framed_block`), binary
  search inside it.  Two reads per point lookup, both block-aligned.
* ``entries(start, end)`` — block-at-a-time ordered scan from the
  first covering block.  The yielded tuples go straight into
  ``kway_merge`` heaps and LWW grouping without any per-record decode
  (R007 holds here and in compaction).

Keys within one table are unique — the memtable holds one entry per
key and compaction dedups — so readers never tiebreak on meta.
"""

from __future__ import annotations

import os
import struct
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.engine.block_io import (
    DEFAULT_BLOCK_RECORDS,
    BlockWriter,
    open_bytes,
    read_framed_block,
)
from repro.engine.errors import StoreError
from repro.engine.resilience import sync
from repro.engine.spill_codec import CODEC_IDS, validate_codec
from repro.store.format import STORE_FORMAT

__all__ = [
    "SSTABLE_MAGIC",
    "TABLE_VERSION",
    "TableInfo",
    "SSTableReader",
    "write_table",
]

#: Footer magic — written last, so its presence implies the whole
#: index body preceded it onto disk.
SSTABLE_MAGIC = b"RSSTIDX1"

#: Index schema version (bumped on incompatible layout changes).
TABLE_VERSION = 1

#: index_offset, index_len, index_crc, magic.
_FOOTER = struct.Struct(">QII8s")

#: version, record count, max seqno, codec id, block count.
_INDEX_FIXED = struct.Struct(">HQQBI")

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")

#: Codec wire ids for the index header.  The RBLC ids are reused, with
#: 0 (reserved there — "none" blocks are RBLK-framed, not RBLC) taken
#: for the uncompressed layout, since the index must record it too.
_CODEC_WIRE = {"none": 0, **CODEC_IDS}
_CODEC_UNWIRE = {wire: name for name, wire in _CODEC_WIRE.items()}


@dataclass(frozen=True)
class TableInfo:
    """What the manifest records about one finished table.

    ``crc32`` is the CRC-32 of the *entire file* — data blocks, index
    body and footer — so :func:`~repro.engine.resilience.artifact_valid`
    verifies a table exactly the way it verifies a journaled run.
    """

    path: str
    records: int
    crc32: int
    min_key: bytes
    max_key: bytes
    max_seqno: int
    disk_bytes: int


def write_table(
    path: str,
    entries: Iterable[Tuple[bytes, bytes]],
    *,
    max_seqno: int,
    block_records: int = DEFAULT_BLOCK_RECORDS,
    codec: str = "none",
    fsync: bool = True,
) -> TableInfo:
    """Write sorted unique ``entries`` as one SSTable.

    The caller guarantees order and key uniqueness (the memtable is a
    dict; compaction dedups) — this function only *samples* the stream
    for the sparse index, it never inspects entry contents beyond
    ``entry[0]``.  Raises :class:`ValueError` on an empty stream:
    empty tables have no key range and callers must skip them instead
    (a compaction in which every record annihilates appends a
    manifest entry with no output file).
    """
    codec = validate_codec(codec)
    offsets: List[int] = []
    first_keys: List[bytes] = []
    last_key = b""
    handle = open_bytes(path, "w")
    try:
        writer = BlockWriter(
            handle, STORE_FORMAT, block_records, track_crc=True, codec=codec
        )
        count = 0
        for entry in entries:
            if count % block_records == 0:
                # BlockWriter auto-flushes exactly at block_records, so
                # disk_bytes here is the byte offset this block starts
                # at — the sparse index costs no extra buffering.
                offsets.append(writer.disk_bytes)
                first_keys.append(entry[0])
            writer.write(entry)
            last_key = entry[0]
            count += 1
        writer.flush()
        if count == 0:
            raise ValueError(
                f"refusing to write empty sstable {path!r}: an empty "
                f"table has no key range; skip it instead"
            )
        index_offset = writer.disk_bytes
        index_parts: List[bytes] = [
            _INDEX_FIXED.pack(
                TABLE_VERSION, count, max_seqno, _CODEC_WIRE[codec],
                len(offsets),
            )
        ]
        for block_offset, first_key in zip(offsets, first_keys):
            index_parts.append(_U64.pack(block_offset))
            index_parts.append(_U32.pack(len(first_key)))
            index_parts.append(first_key)
        for bound in (first_keys[0], last_key):
            index_parts.append(_U32.pack(len(bound)))
            index_parts.append(bound)
        index_body = b"".join(index_parts)
        footer = _FOOTER.pack(
            index_offset, len(index_body), zlib.crc32(index_body),
            SSTABLE_MAGIC,
        )
        handle.write(index_body)
        handle.write(footer)
        if fsync:
            sync(handle)
    finally:
        handle.close()
    return TableInfo(
        path=path,
        records=count,
        crc32=zlib.crc32(footer, zlib.crc32(index_body, writer.file_crc)),
        min_key=first_keys[0],
        max_key=last_key,
        max_seqno=max_seqno,
        disk_bytes=index_offset + len(index_body) + _FOOTER.size,
    )


class SSTableReader:
    """Random and sequential access to one SSTable.

    Opening parses and CRC-checks the footer + sparse index; anything
    structurally wrong raises :class:`StoreError` naming the file.
    Data blocks are verified on every read (``checksum=True`` through
    :func:`read_framed_block`) — a point lookup that lands on a
    bit-flipped block fails loudly, never returns garbage.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open_bytes(path, "r")
        try:
            self._parse_index()
        except BaseException:
            self.close()
            raise

    # -- open/close ------------------------------------------------------------

    def _parse_index(self) -> None:
        handle = self._handle
        path = self.path
        handle.seek(0, os.SEEK_END)
        size = handle.tell()
        if size < _FOOTER.size:
            raise StoreError(
                f"sstable {path!r} is {size} bytes — smaller than the "
                f"{_FOOTER.size}-byte footer; torn or not an sstable"
            )
        handle.seek(size - _FOOTER.size)
        index_offset, index_len, want_crc, magic = _FOOTER.unpack(
            handle.read(_FOOTER.size)
        )
        if magic != SSTABLE_MAGIC:
            raise StoreError(
                f"sstable {path!r} has bad footer magic {magic!r} — the "
                f"file was torn mid-write or is not an sstable"
            )
        if index_offset + index_len + _FOOTER.size != size:
            raise StoreError(
                f"sstable {path!r} footer is inconsistent: index at "
                f"{index_offset}+{index_len} plus footer does not equal "
                f"the {size}-byte file"
            )
        handle.seek(index_offset)
        body = handle.read(index_len)
        got_crc = zlib.crc32(body)
        if len(body) != index_len or got_crc != want_crc:
            raise StoreError(
                f"sstable {path!r} index failed its checksum (footer "
                f"says {want_crc:08x}, bytes hash to {got_crc:08x}) — "
                f"the index was corrupted on disk"
            )
        try:
            version, records, max_seqno, codec_id, n_blocks = (
                _INDEX_FIXED.unpack_from(body, 0)
            )
            pos = _INDEX_FIXED.size
            offsets: List[int] = []
            first_keys: List[bytes] = []
            for _ in range(n_blocks):
                (block_offset,) = _U64.unpack_from(body, pos)
                offsets.append(block_offset)
                pos += 8
                (key_len,) = _U32.unpack_from(body, pos)
                pos += 4
                first_keys.append(body[pos : pos + key_len])
                pos += key_len
            bounds: List[bytes] = []
            for _ in range(2):
                (key_len,) = _U32.unpack_from(body, pos)
                pos += 4
                bounds.append(body[pos : pos + key_len])
                pos += key_len
        except struct.error:
            raise StoreError(
                f"sstable {path!r} index body is malformed — truncated "
                f"or mis-framed despite a matching checksum"
            ) from None
        if version != TABLE_VERSION:
            raise StoreError(
                f"sstable {path!r} has index version {version}, this "
                f"build reads version {TABLE_VERSION}"
            )
        codec = _CODEC_UNWIRE.get(codec_id)
        if codec is None:
            raise StoreError(
                f"sstable {path!r} was written with unknown codec id "
                f"{codec_id}"
            )
        if pos != len(body):
            raise StoreError(
                f"sstable {path!r} index has {len(body) - pos} trailing "
                f"byte(s) after {n_blocks} block entries"
            )
        self.records = records
        self.max_seqno = max_seqno
        self.codec = codec
        self.min_key = bounds[0]
        self.max_key = bounds[1]
        self.data_bytes = index_offset
        self._first_keys = first_keys
        self._offsets = offsets

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SSTableReader":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- access ----------------------------------------------------------------

    def _block_at(self, index: int) -> List[Tuple[bytes, bytes]]:
        handle = self._handle
        assert handle is not None, "reader is closed"
        block_offset = self._offsets[index]
        handle.seek(block_offset)
        result = read_framed_block(
            handle, STORE_FORMAT, path=self.path, index=index,
            offset=block_offset, checksum=True, codec=self.codec,
        )
        if result is None:
            raise StoreError(
                f"sstable {self.path!r}: block {index} at offset "
                f"{block_offset} is missing — index and data disagree"
            )
        return result[0]

    def lookup(self, want: bytes) -> Optional[bytes]:
        """The meta bytes stored for ``want``, or None when absent.

        A tombstone is *present* — it returns its meta so the store can
        shadow older tables; only the store-level ``get`` translates
        tombstones into "not found".
        """
        if want < self.min_key or want > self.max_key:
            return None
        index = bisect_right(self._first_keys, want) - 1
        if index < 0:
            return None
        block = self._block_at(index)
        # ``(want,)`` compares less than ``(want, meta)`` — bisect finds
        # the first entry whose key is >= want without building probe
        # metas.
        slot = bisect_left(block, (want,))
        if slot < len(block) and block[slot][0] == want:
            return block[slot][1]
        return None

    def entries(
        self,
        start: Optional[bytes] = None,
        end: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered ``(key, meta)`` entries with ``start <= key < end``.

        Block-at-a-time: one seek to the first covering block, then
        sequential block reads.  The per-entry work is tuple indexing
        and comparison only — this iterator feeds compaction's merge
        heap directly (R007).
        """
        first = 0
        if start is not None:
            first = bisect_right(self._first_keys, start) - 1
            if first < 0:
                first = 0
        for index in range(first, len(self._offsets)):
            block = self._block_at(index)
            if start is not None and index == first:
                block = block[bisect_left(block, (start,)):]
            if end is None:
                yield from block
                continue
            for entry in block:
                if entry[0] >= end:
                    return
                yield entry
