"""Write-ahead log (DESIGN.md §17).

Every mutation is appended here *before* it is acknowledged, so the
memtable — which lives only in process memory — can always be rebuilt
after a crash.  Framing is one self-describing record per operation::

    "WREC" | crc32(body) u32 | body_len u32 | body
    body = op u8 | seqno u64 | key_len u32 | key | value

``sync=True`` fsyncs after every append (the acknowledgment point for
``repro store put``); ``sync=False`` leaves batching to the caller
(the service's bulk ingest), with :meth:`WalWriter.sync` and
:meth:`WalWriter.close` as the explicit durability points.

Replay distinguishes the two ways a WAL can be damaged:

* **Torn tail** — the crash-mid-append case the log is designed for.
  The final record fails its length or CRC check and *no valid record
  exists after it*: replay stops cleanly, dropping only the
  unacknowledged tail.
* **Mid-file corruption** — a damaged record with provably valid
  records after it.  That is not a crash artifact (appends cannot
  leapfrog), so replay raises :class:`StoreError` instead of silently
  dropping acknowledged writes.  The probe re-parses candidate frames
  (magic + CRC), so value bytes that merely *contain* the magic string
  can never turn a genuine torn tail into a false corruption report.
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Iterator, Tuple

from repro.engine.block_io import open_bytes
from repro.engine.errors import StoreError
from repro.engine.resilience import sync

__all__ = ["WAL_MAGIC", "WalWriter", "replay_wal"]

WAL_MAGIC = b"WREC"

#: magic, crc32(body), body_len.
_HEADER = struct.Struct(">4sII")

#: op, seqno, key_len — the fixed prefix of every body.
_BODY_FIXED = struct.Struct(">BQI")


class WalWriter:
    """Append-only writer for one WAL file."""

    def __init__(self, path: str, sync: bool = True) -> None:
        self.path = path
        self._sync = sync
        self._handle: Any = open_bytes(path, "a")

    def append(self, op: int, seqno: int, key: bytes, value: bytes) -> None:
        """Durably (when ``sync``) record one operation."""
        body = _BODY_FIXED.pack(op, seqno, len(key)) + key + value
        self._handle.write(
            _HEADER.pack(WAL_MAGIC, zlib.crc32(body), len(body))
        )
        self._handle.write(body)
        if self._sync:
            self.sync()

    def sync(self) -> None:
        """Flush and fsync — everything appended so far is durable."""
        sync(self._handle)

    def close(self) -> None:
        """Sync and close; the handle is released even if the sync raises."""
        if self._handle is not None:
            try:
                self.sync()
            finally:
                self._handle.close()
                self._handle = None


def _valid_frame_at(data: bytes, pos: int) -> bool:
    """Whether a complete, CRC-valid WAL record starts at ``pos``."""
    header_end = pos + _HEADER.size
    if header_end > len(data):
        return False
    magic, want_crc, body_len = _HEADER.unpack_from(data, pos)
    if magic != WAL_MAGIC:
        return False
    body_end = header_end + body_len
    if body_end > len(data):
        return False
    return zlib.crc32(data[header_end:body_end]) == want_crc


def _later_valid_record(data: bytes, scan_from: int) -> bool:
    """Whether any provably valid record starts after ``scan_from``."""
    probe = data.find(WAL_MAGIC, scan_from)
    while probe != -1:
        if _valid_frame_at(data, probe):
            return True
        probe = data.find(WAL_MAGIC, probe + 1)
    return False


def replay_wal(path: str) -> Iterator[Tuple[int, int, bytes, bytes]]:
    """Yield ``(op, seqno, key, value)`` for every intact record.

    Stops cleanly at a torn tail; raises :class:`StoreError` on
    mid-file corruption (see the module docstring for how the two are
    told apart).
    """
    with open_bytes(path, "r") as handle:
        data = handle.read()
    size = len(data)
    pos = 0
    while pos < size:
        damage = None
        header_end = pos + _HEADER.size
        if header_end > size:
            damage = "truncated record header"
        else:
            magic, want_crc, body_len = _HEADER.unpack_from(data, pos)
            body_end = header_end + body_len
            if magic != WAL_MAGIC:
                damage = f"bad record magic {magic!r}"
            elif body_end > size:
                damage = (
                    f"truncated record body ({body_end - size} byte(s) "
                    f"short)"
                )
            elif zlib.crc32(data[header_end:body_end]) != want_crc:
                damage = "record failed its checksum"
        if damage is not None:
            if _later_valid_record(data, pos + 1):
                raise StoreError(
                    f"wal {path!r}: {damage} at byte {pos} with valid "
                    f"records after it — mid-file corruption, not a "
                    f"torn tail; the log cannot be trusted"
                )
            return  # torn tail: drop the unacknowledged remainder
        op, seqno, key_len = _BODY_FIXED.unpack_from(data, header_end)
        key_start = header_end + _BODY_FIXED.size
        if key_start + key_len > body_end:
            raise StoreError(
                f"wal {path!r}: record at byte {pos} declares a "
                f"{key_len}-byte key overrunning its own body — the "
                f"log writer and reader disagree"
            )
        yield (
            op,
            seqno,
            data[key_start : key_start + key_len],
            data[key_start + key_len : body_end],
        )
        pos = body_end
