# repro-lint-corpus: src/repro/store/store.py
# expect: none
"""Known-good store order: the table is written with a literal
``fsync=True`` before the MANIFEST append that makes it live, and
superseded WALs are deleted only after; an annihilating compaction
appends no ``file`` key and needs no fsync; the WAL syncs through
the seam."""


def flush(manifest, table_path, wal_path, entries):
    write_table(table_path, entries, fsync=True)
    manifest.append(
        {"type": "flush", "file": table_path, "wal_floor": 2}
    )
    os.remove(wal_path)


def annihilating_compact(manifest, inputs):
    manifest.append({"type": "compact", "removes": inputs})


def wal_sync(handle):
    sync(handle)
