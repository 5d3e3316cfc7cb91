"""The store MANIFEST (DESIGN.md §17).

The manifest is the store's single source of truth for which tables
are live: an :class:`~repro.engine.resilience.AppendLog`, the same
JSONL log as the sort journal — every append is flushed and fsynced,
a torn trailing line (crash mid-append) is tolerated and repaired, a
torn line anywhere *else* rejects the file.  Entry types:

* ``meta`` — first line; schema version + store fingerprint.
* ``flush`` — a memtable became table ``file`` at level 0; carries
  records/crc32/key range/max_seqno for
  :func:`~repro.engine.resilience.artifact_valid`-style verification,
  plus ``wal_floor``: the first WAL filenum recovery must replay (all
  earlier WALs are superseded by this flush).
* ``compact`` — tables ``removes`` were merged; an output table's
  fields are present unless every record annihilated (tombstones
  meeting their puts), in which case there is no ``file`` key.
* ``state`` — a checkpoint: the full live-table list at rewrite time.
  :meth:`StoreManifest.checkpoint` rewrites the log as ``meta`` +
  ``state`` through :func:`~repro.engine.resilience.publish` — the
  §11 publish order, and the "manifest swap" fault point the fault
  matrix kills.

Replaying the entries in order reproduces the live-table set, the WAL
floor and the highest allocated filenum; nothing else on disk is
trusted — files the manifest does not reference are orphans from
interrupted flushes/compactions and are deleted on open.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.engine.errors import ManifestError
from repro.engine.resilience import AppendLog, publish

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "StoreManifest",
    "replay_entries",
]

MANIFEST_NAME = "MANIFEST"

#: Manifest schema version (bumped on incompatible entry changes).
MANIFEST_VERSION = 1


class StoreManifest(AppendLog):
    """Append-only manifest of one store directory (an :class:`AppendLog`)."""

    error = ManifestError
    kind = "manifest"

    # Bound on this class, not only inherited, so per-class
    # instrumentation (perfbench wraps ``StoreManifest.append``) sees
    # manifest appends and only those.
    append = AppendLog.append

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, fingerprint: Dict[str, Any]
    ) -> "StoreManifest":
        """Initialise a brand-new manifest (caller checked the dir)."""
        manifest = cls(path)
        manifest._open()
        manifest.append(
            {
                "type": "meta",
                "version": MANIFEST_VERSION,
                "fingerprint": fingerprint,
            }
        )
        return manifest

    @classmethod
    def load(
        cls, path: str, fingerprint: Dict[str, Any]
    ) -> "StoreManifest":
        """Open an existing manifest, validating version + fingerprint."""
        manifest = cls(path)
        manifest.entries = cls.load_entries(path)
        meta = manifest.entries[0] if manifest.entries else {}
        if meta.get("type") != "meta" or "version" not in meta:
            raise ManifestError(
                f"manifest {path!r} does not start with a meta entry — "
                f"not a store manifest, or its head was destroyed"
            )
        if meta.get("version") != MANIFEST_VERSION:
            raise ManifestError(
                f"manifest {path!r} has schema version "
                f"{meta.get('version')}, this build reads version "
                f"{MANIFEST_VERSION}"
            )
        if meta.get("fingerprint") != fingerprint:
            raise ManifestError(
                f"manifest {path!r} belongs to a store with fingerprint "
                f"{meta.get('fingerprint')!r}, not {fingerprint!r} — "
                f"refusing to touch another format's data"
            )
        manifest._open()
        return manifest

    def checkpoint(self) -> None:
        """Rewrite the log compactly: meta + one ``state`` entry.

        This is the manifest *swap*, a :func:`publish` over the live
        file — a crash at any earlier point leaves the old (longer but
        valid) manifest untouched.
        """
        tables, wal_floor, _ = replay_entries(self.path, self.entries)
        compacted: List[Dict[str, Any]] = [
            self.entries[0],
            {
                "type": "state",
                "tables": [tables[name] for name in sorted(tables)],
                "wal_floor": wal_floor,
            },
        ]
        self.close()
        with publish(self.path) as handle:
            handle.write(
                "".join(
                    json.dumps(entry, sort_keys=True) + "\n"
                    for entry in compacted
                )
            )
        self.entries = compacted
        self._open()


def replay_entries(
    path: str, entries: List[Dict[str, Any]]
) -> Tuple[Dict[str, Dict[str, Any]], int, int]:
    """Fold manifest ``entries`` into ``(tables, wal_floor, max_filenum)``.

    ``tables`` maps table file name → its manifest record (the fields
    of the ``flush``/``compact`` entry that created it).  Raises
    :class:`ManifestError` on internally inconsistent histories — a
    compaction removing a table that was never live means the log did
    not grow append-only.
    """
    tables: Dict[str, Dict[str, Any]] = {}
    wal_floor = 0
    max_filenum = -1

    def _adopt(entry: Dict[str, Any], line: int) -> None:
        nonlocal max_filenum
        required = (
            "file", "filenum", "level", "records", "crc32", "min_key",
            "max_key", "max_seqno",
        )
        missing = [field for field in required if field not in entry]
        if missing:
            raise ManifestError(
                f"manifest {path!r} entry {line} lacks required "
                f"field(s) {', '.join(missing)} — the manifest schema "
                f"was violated"
            )
        tables[entry["file"]] = {field: entry[field] for field in required}
        max_filenum = max(max_filenum, int(entry["filenum"]))

    for line, entry in enumerate(entries, start=1):
        kind = entry.get("type")
        if kind == "meta":
            continue
        if kind == "state":
            tables.clear()
            for record in entry.get("tables", []):
                _adopt(record, line)
            wal_floor = max(wal_floor, int(entry.get("wal_floor", 0)))
        elif kind == "flush":
            _adopt(entry, line)
            wal_floor = max(wal_floor, int(entry.get("wal_floor", 0)))
        elif kind == "compact":
            for name in entry.get("removes", []):
                if name not in tables:
                    raise ManifestError(
                        f"manifest {path!r} entry {line} compacts "
                        f"{name!r}, which is not a live table — the "
                        f"manifest history is inconsistent"
                    )
                del tables[name]
            if "file" in entry:
                _adopt(entry, line)
        else:
            raise ManifestError(
                f"manifest {path!r} entry {line} has unknown type "
                f"{kind!r} — written by a newer build, or corrupt"
            )
    return tables, wal_floor, max_filenum
