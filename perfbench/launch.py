"""Run one Python entry point as a benchmark child process.

Usage::

    python3 perfbench/launch.py --stats STATS.json [--cpu N]
        [--trace TRACE.json] [--root NAME] (-m MODULE | SCRIPT) [ARGS ...]

The entry point runs exactly as ``python -m MODULE ARGS`` (or
``python SCRIPT ARGS``) would.  At exit the launcher writes
``STATS.json``: the bytes the process passed to ``write()``
(``/proc/self/io`` ``wchar``) and its CPU times.  ``--cpu`` pins the
process, and every thread it starts, to that CPU.  With ``--trace`` it
first installs the span probes of ``tracer.py`` and writes the spans
to ``TRACE.json`` at exit; ``--root`` wraps the whole entry point in a
root span of that name.
"""

from __future__ import annotations

import atexit
import json
import os
import resource
import runpy
import sys
from typing import Dict, List, Optional

import tracer


def _proc_io() -> Dict[str, int]:
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            return {
                key: int(value)
                for key, value in (line.split(": ") for line in handle)
            }
    except OSError:
        return {}


def _write_stats(path: str) -> None:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    io = _proc_io()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "wchar": io.get("wchar", 0),
                "user_s": usage.ru_utime,
                "sys_s": usage.ru_stime,
            },
            handle,
        )


def main(argv: List[str]) -> None:
    stats_path: Optional[str] = None
    trace_path: Optional[str] = None
    root: Optional[str] = None
    while argv and argv[0] in ("--stats", "--cpu", "--trace", "--root"):
        flag, value, argv = argv[0], argv[1], argv[2:]
        if flag == "--stats":
            stats_path = value
        elif flag == "--cpu":
            os.sched_setaffinity(0, {int(value)})
        elif flag == "--trace":
            trace_path = value
        else:
            root = value
    module = None
    if argv[0] == "-m":
        module, argv = argv[1], argv[2:]
        sys.argv = [module] + argv
    else:
        sys.argv = list(argv)

    active = None
    if trace_path is not None:
        active = tracer.ACTIVE = tracer.Tracer()
        tracer.install_probes(active)
        atexit.register(active.dump, trace_path)
    if stats_path is not None:
        atexit.register(_write_stats, stats_path)

    span = active.begin(root) if active is not None and root else None
    try:
        if module is not None:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(sys.argv[0], run_name="__main__")
    finally:
        if span is not None:
            active.end(span)


if __name__ == "__main__":
    main(sys.argv[1:])
