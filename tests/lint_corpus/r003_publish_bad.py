# repro-lint-corpus: src/repro/engine/resilience.py
# expect: R003:9
# expect: R003:14
# expect: R003:15
"""Known-bad publish: raw fsync/rename outside the seam (§11)."""


def publish_without_fsync(tmp, path):
    os.replace(tmp, path)


def hand_written_publish(handle, tmp, path):
    handle.flush()
    os.fsync(handle.fileno())
    os.replace(tmp, path)
