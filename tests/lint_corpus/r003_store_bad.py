# repro-lint-corpus: src/repro/store/store.py
# expect: R003:14
# expect: R003:18
# expect: R003:25
# expect: R003:30
"""Known-bad store order: the MANIFEST claims an un-fsynced table
(``fsync=False`` is not a durability event), a WAL is deleted before
the append that supersedes it, and a raw fsync and a hand-written
checkpoint swap bypass the durability seam."""


def flush_without_fsync(manifest, table_path, entries):
    write_table(table_path, entries, fsync=False)
    manifest.append({"type": "flush", "file": table_path})


def wal_deleted_before_manifest(manifest, table_path, wal_path, entries):
    os.remove(wal_path)
    write_table(table_path, entries, fsync=True)
    manifest.append({"type": "flush", "file": table_path})


def wal_sync(handle):
    handle.flush()
    os.fsync(handle.fileno())


def checkpoint(tmp, path, handle):
    sync(handle)
    os.replace(tmp, path)
