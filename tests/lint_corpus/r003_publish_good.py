# repro-lint-corpus: src/repro/engine/resilience.py
# expect: none
"""Known-good durability seam: ``_fsync`` owns the one ``os.fsync``,
``publish`` the one ``os.replace``, and everything else calls them."""


def _fsync(fd, path):
    os.fsync(fd)


def publish(path):
    tmp = path + ".tmp"
    handle = open_text(tmp, "w")
    try:
        yield handle
        sync(handle)
        handle.close()
        os.replace(tmp, path)
    except BaseException:
        handle.close()
        raise


def write_marker(path, payload):
    with publish(path) as handle:
        handle.write(json.dumps(payload))
