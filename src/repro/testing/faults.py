"""Deterministic fault injection for the real-file sort backends.

A :class:`FaultPlan` schedules exactly one failure mode at the Nth
matching block-I/O call:

* ``raise`` — the call raises :class:`FaultInjected` (a crash at a
  block boundary: worker death, disk error);
* ``short_write`` — half the payload reaches the file, then the call
  raises (a torn write: power loss mid-block);
* ``bit_flip`` — one character of the payload is silently corrupted
  and the sort *continues* (latent media corruption, caught later by
  block checksums);
* ``truncate`` — the call and every later matching one silently drop
  their payload / report end-of-file (a lost file tail);
* ``enospc`` — a full disk: half the payload reaches the file, then
  the call raises with ``errno.ENOSPC`` (writes and fsyncs only).

Injection is *deterministic*: calls are counted per process in call
order, filtered by operation (``open`` / ``read`` / ``write`` /
``fsync``) and an optional path substring, so a failing case
reproduces from its plan alone.  Activation wraps the
:func:`repro.engine.block_io.open_text` seam every file is opened
through and hooks the :func:`repro.engine.resilience.sync` seam every
fsync passes (a ``raise`` there carries ``errno.EIO``) — no backend
code is patched — and mirrors the plan into the ``REPRO_FAULT_PLAN``
environment variable so ``spawn`` worker processes of the parallel
backend (and ``repro.cli`` subprocesses) inherit the same schedule
and fault their own I/O at the same deterministic points.

:class:`FaultyFormat` is the record-format twin for unit tests that
want a decode/encode failure mid-merge without real files.
"""

from __future__ import annotations

import errno
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Iterator, List, Optional, Sequence, TextIO

from repro.core.records import RecordFormat
from repro.engine.block_io import set_io_wrapper
from repro.engine.errors import SortError
from repro.engine.resilience import set_sync_hook

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultInjected",
    "FaultPlan",
    "FaultState",
    "FaultyFile",
    "FaultyFormat",
    "activate",
    "activate_from_env",
    "deactivate",
]

#: Environment variable carrying the active plan to child processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Operations a plan can target.
FAULT_OPS = ("open", "read", "write", "fsync")

#: Failure modes a plan can inject.
FAULT_KINDS = ("raise", "short_write", "bit_flip", "truncate", "enospc")


class FaultInjected(SortError, OSError):
    """The scheduled fault fired.

    Subclasses both :class:`~repro.engine.errors.SortError` (the sort
    failed cleanly and reportably) and :class:`OSError` (what the real
    failure being simulated — a dying disk, a killed worker — would
    look like to the I/O layer), so tests can assert either contract.
    """


@dataclass(frozen=True)
class FaultPlan:
    """One scheduled fault: the Nth matching call of ``op`` fails.

    Parameters
    ----------
    op:
        Which I/O operation to count: ``"open"``, ``"read"`` (one line
        handed to a reader), ``"write"`` (one buffered block or header
        flushed) or ``"fsync"`` (file or directory).
    nth:
        1-based index of the matching call that faults.
    kind:
        ``"raise"``, ``"short_write"``, ``"bit_flip"``, ``"truncate"``
        or ``"enospc"`` (see the module docstring); ``fsync`` takes
        only ``raise`` and ``enospc``.
    path_substring:
        Only calls on files whose path contains this substring are
        counted (empty = every file).  ``"run-"`` targets spill runs,
        ``"shard-"`` sorted shard outputs, ``"part-"`` partition files,
        ``"merge"`` intermediate merge outputs.
    """

    op: str
    nth: int
    kind: str
    path_substring: str = ""

    def __post_init__(self) -> None:
        if self.op not in FAULT_OPS:
            raise ValueError(
                f"op must be one of {FAULT_OPS}, got {self.op!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if (self.op == "fsync" and self.kind not in ("raise", "enospc")) or (
            self.kind == "enospc" and self.op not in ("write", "fsync")
        ):
            raise ValueError(
                f"kind {self.kind!r} does not apply to op {self.op!r}"
            )

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            fields = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"unparseable fault plan {text!r}: {exc}"
            ) from exc
        return cls(**fields)

    def describe(self) -> str:
        where = f" on *{self.path_substring}*" if self.path_substring else ""
        return f"{self.kind} at {self.op} #{self.nth}{where}"


class FaultState:
    """Per-process counters and audit trail of an activated plan.

    ``opened`` / ``closed`` record every path the harness saw pass
    through the seam, so leak regressions can assert "every handle
    opened during the faulted merge was closed again" without groping
    around ``/proc``.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.calls = 0
        self.fired = False
        self.truncating = False
        self.opened: List[str] = []
        self.closed: List[str] = []

    def leaked(self) -> List[str]:
        """Paths opened through the seam and never closed."""
        remaining = list(self.closed)
        leaks = []
        for path in self.opened:
            if path in remaining:
                remaining.remove(path)
            else:
                leaks.append(path)
        return leaks

    def _matches(self, op: str, path: str) -> bool:
        return (
            self.plan.op == op
            and self.plan.path_substring in path
        )

    def due(self, op: str, path: str) -> bool:
        """Count one call; True when the plan's Nth call is reached."""
        if self.fired or not self._matches(op, path):
            return False
        self.calls += 1
        if self.calls == self.plan.nth:
            self.fired = True
            return True
        return False


def _flip_char(text: str) -> str:
    """Corrupt one payload character, preserving the line structure."""
    for index, char in enumerate(text):
        if char != "\n":
            flipped = "0" if char != "0" else "9"
            return text[:index] + flipped + text[index + 1 :]
    return text


def _flip_byte(data: bytes) -> bytes:
    """Corrupt one payload byte (binary twin of :func:`_flip_char`)."""
    if not data:
        return data
    flipped = 0x30 if data[0] != 0x30 else 0x39
    return bytes((flipped,)) + data[1:]


class FaultyFile:
    """File proxy that applies the active plan to one file's calls.

    Wraps a real handle — text or binary, the seam passes both
    through here.  Text reads are counted per line handed out
    (``__next__``, which is how the text block readers consume files);
    binary reads per ``read()`` call (the binary reader makes exactly
    two per block: header, then body).  Writes are counted per
    ``write()`` call (one buffered block, checksum header, or binary
    header/body each).  Everything else is forwarded untouched.
    """

    def __init__(self, handle: TextIO, path: str, state: FaultState) -> None:
        self._handle = handle
        self._path = path
        self._state = state
        self._read_eof = False
        state.opened.append(path)

    # -- faulted operations ----------------------------------------------------

    def write(self, text: Any) -> int:
        state = self._state
        if state.truncating and state.plan.path_substring in self._path:
            return len(text)
        if state.due("write", self._path):
            kind = state.plan.kind
            if kind == "raise":
                raise FaultInjected(
                    f"injected write fault ({state.plan.describe()}) "
                    f"on {self._path!r}"
                )
            if kind in ("short_write", "enospc"):
                self._handle.write(text[: len(text) // 2])
                self._handle.flush()
                if kind == "enospc":
                    raise _errno_fault(state, self._path, "disk full")
                raise FaultInjected(
                    f"injected torn write ({state.plan.describe()}) "
                    f"on {self._path!r}"
                )
            if kind == "bit_flip":
                flip = _flip_byte if isinstance(text, bytes) else _flip_char
                return self._handle.write(flip(text))
            if kind == "truncate":
                state.truncating = True
                return len(text)
        return self._handle.write(text)

    def read(self, size: int = -1) -> Any:
        """Counted binary-style read (one block header or body each)."""
        if self._read_eof:
            return b"" if "b" in getattr(self._handle, "mode", "") else ""
        data = self._handle.read(size)
        state = self._state
        if state.due("read", self._path):
            kind = state.plan.kind
            if kind in ("raise", "short_write"):
                raise FaultInjected(
                    f"injected read fault ({state.plan.describe()}) "
                    f"on {self._path!r}"
                )
            if kind == "bit_flip":
                return _flip_byte(data) if isinstance(data, bytes) else (
                    _flip_char(data)
                )
            if kind == "truncate":
                self._read_eof = True
                return data[:0]
        return data

    def __next__(self) -> str:
        if self._read_eof:
            raise StopIteration
        line = next(self._handle)
        state = self._state
        if state.due("read", self._path):
            kind = state.plan.kind
            if kind in ("raise", "short_write"):
                raise FaultInjected(
                    f"injected read fault ({state.plan.describe()}) "
                    f"on {self._path!r}"
                )
            if kind == "bit_flip":
                return _flip_char(line)
            if kind == "truncate":
                self._read_eof = True
                raise StopIteration
        return line

    def __iter__(self) -> "FaultyFile":
        return self

    # -- plumbing -------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._path

    def close(self) -> None:
        if not self._handle.closed:
            self._state.closed.append(self._path)
        self._handle.close()

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._handle, attribute)


#: The plan currently wired into the block-I/O seam (per process).
_ACTIVE: Optional[FaultState] = None


def _errno_fault(state: FaultState, path: str, what: str) -> FaultInjected:
    code = errno.ENOSPC if state.plan.kind == "enospc" else errno.EIO
    return FaultInjected(
        code, f"injected {what} ({state.plan.describe()}) on {path!r}"
    )


def _check_sync(path: str) -> None:
    """The sync-seam hook: fail the plan's Nth matching fsync."""
    state = _ACTIVE
    if state is not None and state.due("fsync", path):
        raise _errno_fault(state, path, "fsync failure")


def _wrap(handle: TextIO, path: str, mode: str) -> TextIO:
    state = _ACTIVE
    if state is None:  # pragma: no cover - unhooked race guard
        return handle
    if state.due("open", path):
        handle.close()
        raise FaultInjected(
            f"injected open fault ({state.plan.describe()}) on {path!r}"
        )
    return FaultyFile(handle, path, state)


def _install(plan: FaultPlan) -> FaultState:
    global _ACTIVE
    state = FaultState(plan)
    _ACTIVE = state
    set_io_wrapper(_wrap)
    set_sync_hook(_check_sync)
    return state


def deactivate() -> None:
    """Remove the active plan, the I/O hooks and the environment relay."""
    global _ACTIVE
    _ACTIVE = None
    set_io_wrapper(None)
    set_sync_hook(None)
    os.environ.pop(FAULT_PLAN_ENV, None)


@contextmanager
def activate(plan: FaultPlan) -> Iterator[FaultState]:
    """Arm ``plan`` for this process *and* any child it spawns.

    The plan is installed on the I/O and sync seams and exported through
    ``REPRO_FAULT_PLAN``, so parallel-sort workers (fresh ``spawn``
    processes) arm themselves on startup with their own independent
    call counters.  Yields the :class:`FaultState` for assertions;
    always disarms on exit, even when the injected fault propagates.
    """
    state = _install(plan)
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        yield state
    finally:
        deactivate()


def activate_from_env() -> Optional[FaultState]:
    """Arm the plan found in ``REPRO_FAULT_PLAN``, if any.

    Called at worker-process and CLI startup.  A no-op when the
    variable is unset or a plan is already active in this process, so
    it is always safe to call.
    """
    if _ACTIVE is not None:
        return _ACTIVE
    text = os.environ.get(FAULT_PLAN_ENV)
    if not text:
        return None
    return _install(FaultPlan.from_json(text))


class FaultyFormat(RecordFormat):
    """Record-format proxy that fails the Nth block encode or decode.

    The no-files counterpart to :class:`FaultyFile`: unit tests hand
    it to a backend (or directly to a merge) to make one reader or
    writer raise :class:`FaultInjected` mid-stream — e.g. the
    ``kway_merge`` handle-leak regression.  Counters live on the
    instance, so construct a fresh one per scenario.
    """

    def __init__(
        self,
        inner: RecordFormat,
        fail_decode_at: Optional[int] = None,
        fail_encode_at: Optional[int] = None,
    ) -> None:
        self._inner = inner
        self._fail_decode_at = fail_decode_at
        self._fail_encode_at = fail_encode_at
        self.decode_calls = 0
        self.encode_calls = 0
        self.name = f"faulty[{inner.name}]"
        self.numeric = inner.numeric
        self.blank_input_skippable = inner.blank_input_skippable

    def decode(self, text: str) -> Any:
        return self._inner.decode(text)

    def encode(self, record: Any) -> str:
        return self._inner.encode(record)

    def key(self, record: Any) -> Any:
        return self._inner.key(record)

    def decode_block(self, lines: Sequence[str]) -> List[Any]:
        self.decode_calls += 1
        if self.decode_calls == self._fail_decode_at:
            raise FaultInjected(
                f"injected decode fault at block #{self.decode_calls}"
            )
        return self._inner.decode_block(lines)

    def encode_block(self, records: Sequence[Any]) -> str:
        self.encode_calls += 1
        if self.encode_calls == self._fail_encode_at:
            raise FaultInjected(
                f"injected encode fault at block #{self.encode_calls}"
            )
        return self._inner.encode_block(records)
