# repro-lint-corpus: src/repro/engine/resilience.py
# expect: R003:8
# expect: R003:12
"""Known-bad §11 order: journal-before-sync, delete-before-journal."""


def journal_without_fsync(journal, out_path):
    journal.append({"type": "merge", "file": out_path})


def deletes_before_journal(journal, out_path, inputs, handle):
    os.remove(inputs[0])
    sync(handle)
    journal.append({"type": "merge", "file": out_path})
