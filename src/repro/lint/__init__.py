"""Project-invariant static analysis (``python -m repro.lint``).

Every rule in this package encodes an invariant the codebase already
paid for in a real incident (CHANGES.md; DESIGN.md §13):

========  ==========================================================
rule      invariant (motivating incident)
========  ==========================================================
R001      resource safety: a file handle or :class:`BlockWriter`
          must not escape without a context manager, a ``finally``
          close, or an ownership transfer (the PR-4 ``kway_merge``
          reader leak).
R002      fault seam: record block I/O in ``engine``/``sort``/
          ``ops``/``merge`` must go through ``block_io.open_text``,
          never builtin ``open()`` — a bypass silently escapes fault
          injection and CRC checking (PR-4 harness).
R003      one durability seam: ``os.fsync``/``os.replace`` only in
          ``engine.resilience``'s ``sync``/``publish``; a sync before
          the journal append that references a file, the append
          before deleting the inputs it supersedes (DESIGN.md §11).
R004      broker pairing: a ``MemoryBroker`` request must be released
          on every exit path (the PR-1 over-allocation bug).
R005      spawn picklability: exception classes must round-trip
          ``pickle`` or a worker raising one hangs the pool forever
          (the PR-4 ``CorruptBlockError`` hang).
R006      determinism: no unseeded ``random`` / wall-clock ``time``
          calls in ``core``/``engine``/``merge``/``ops`` — resumed
          and differential sorts must be byte-identical.
========  ==========================================================

A finding is reported as ``file:line: R00N message``.  Any finding can
be waived in source with ``# repro: lint-waive R00N <reason>`` on the
flagged line or the line above; the reason is mandatory (an empty one
is itself a finding, R000).

The rule corpus under ``tests/lint_corpus/`` locks each rule's
behaviour with known-bad and known-good snippets; corpus files carry a
``# repro-lint-corpus:`` header and are skipped by directory walks so
``python -m repro.lint src/ tests/`` stays green while the corpus
itself stays red.

This package is stdlib-only (``ast`` + ``pickle``) by design: it runs
in CI before any third-party install step.  It is unrelated to
:mod:`repro.analysis`, which holds the *paper's* closed-form run-length
analysis, not static analysis of this codebase.
"""

from repro.lint.engine import (
    RULES,
    lint_file,
    lint_paths,
    lint_source,
    main,
)
from repro.lint.findings import Finding

__all__ = [
    "Finding",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]
