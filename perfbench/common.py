"""Shared helpers: child processes, statistics, calibration, metadata."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from probe import HostProbe

#: Directory of the benchmark's own files.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Root of the checkout the benchmark measures.
ROOT = os.path.dirname(BENCH_DIR)

#: Scratch space for inputs, stores, spools and child output; one
#: subdirectory per run, removed when the run ends.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0


@dataclass
class Context:
    """What one benchmark run knows: its arguments and its work dir."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    work_dir: str
    #: The CPU every program process is pinned to (see ``probe.py``).
    cpu: int
    #: The host-speed probe of an untraced run (None when traced).
    probe: Optional[HostProbe] = None

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def child_env(self) -> Dict[str, str]:
        """Environment of every child: the checkout's sources, temp
        files inside the work dir, no byte-code writes (so the bytes a
        child writes are its own), and a fixed hash seed."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = self.work_dir
        return env

    def launcher(
        self,
        stats: str,
        trace: Optional[str] = None,
        root: Optional[str] = None,
    ) -> List[str]:
        """Command prefix running an entry point under ``launch.py``."""
        argv = [sys.executable, os.path.join(BENCH_DIR, "launch.py")]
        argv += ["--stats", stats, "--cpu", str(self.cpu)]
        if trace is not None:
            argv += ["--trace", trace]
        if root is not None:
            argv += ["--root", root]
        return argv


@dataclass
class Outcome:
    """One workload run: the gate's verdict and the measured values."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a failed check is an error."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


@dataclass
class ChildResult:
    returncode: int
    started: float
    ended: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def ref_seconds(self, probe: HostProbe) -> float:
        """The child's wall time in reference seconds (see ``probe.py``)."""
        return probe.ref_seconds(self.started, self.ended)


def start_child(
    argv: Sequence[str], ctx: Context, log_name: str
) -> subprocess.Popen:
    with open(ctx.path(log_name), "wb") as log:
        return subprocess.Popen(
            list(argv), cwd=ctx.work_dir, env=ctx.child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )


def reap(proc: subprocess.Popen, started: float) -> ChildResult:
    """Wait for ``proc`` with ``wait4`` (for its peak RSS), killing it
    after :data:`CHILD_TIMEOUT_S`.  A child already reaped by ``poll()``
    (it died early) reports no RSS."""
    if proc.returncode is not None:
        return ChildResult(proc.returncode, started, time.perf_counter(), 0.0)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, started, ended,
                       usage.ru_maxrss / 1024.0)


def run_child(argv: Sequence[str], ctx: Context, log_name: str) -> ChildResult:
    started = time.perf_counter()
    return reap(start_child(argv, ctx, log_name), started)


def read_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def another_unit(started: float, seconds: float, units: Sequence[float]) -> bool:
    """Whether to start another unit of work: the first always runs,
    later ones only while they are expected to end within ``seconds``
    of ``started`` (so a run of long units does not overshoot by one)."""
    if not units:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(units) <= seconds


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (median of three).

    Host-drift diagnostic only: a slow run whose calibration is slow
    too was slowed by the host, not by the program.
    """
    samples = []
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += (i * i) % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def source_digest() -> str:
    """SHA-256 over the program's sources, standing in for a commit id
    (the measured checkout need not be a git repository)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_metadata(ctx: Context) -> Dict[str, Any]:
    return {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": ctx.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "source_sha256": source_digest(),
        "commit": git_commit(),
    }


def fresh_work_dir(workload: str) -> str:
    path = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass
