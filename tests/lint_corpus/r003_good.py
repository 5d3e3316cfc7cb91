# repro-lint-corpus: src/repro/engine/resilience.py
# expect: none
"""Known-good §11 order: write → sync → journal append → delete inputs."""


def merge_group(journal, out_path, inputs, handle):
    sync(handle)
    journal.append({"type": "merge", "file": out_path})
    for path in inputs:
        os.remove(path)


def metadata_only(journal):
    journal.append({"type": "runs_done", "count": 3})
