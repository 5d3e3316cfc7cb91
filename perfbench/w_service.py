"""Workload ``service-mixed``: small jobs through the resident service.

A child runs ``python -m repro.cli serve`` with its defaults (a
100 000-record broker pool, 8 job workers).  A closed loop of two
client threads, one ``ServiceClient`` each, submits jobs, waits for
each with ``ServiceClient.wait`` at its default interval (a status poll
every 50 ms, as ``repro submit --wait`` does), streams the result back
and checks its digest; only then does that client submit its next
job.  Jobs cycle through ``sort`` (int), ``distinct`` (CSV, by key)
and ``agg`` (CSV, count+sum), each over its own 5 000-record input
file with job memory 1 000, so every job spills and journals; the
inputs repeat every ``DATASETS`` jobs.  Job time runs from submit to
the verified result.  The loop goes on past ``--seconds`` until at
least ``MIN_BEYOND_P95`` jobs lie beyond the p95 it reports.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from common import (
    ROOT,
    Context,
    Outcome,
    median,
    quantile,
    read_json,
    reap,
    start_child,
)
from tracer import TraceSummary

JOB_OPS = ("sort", "distinct", "agg")
JOB_RECORDS = 5_000
JOB_MEMORY = 1_000
CSV_KEYS = 2_000
CLIENTS = 2
#: Distinct inputs of a run, made before it starts.  Job ``i`` gets
#: its own copy of input ``i % DATASETS`` in its own file, so its id
#: (a hash of its spec, input path included) and its work are its own,
#: and the clients spend no time making data while the run is timed.
DATASETS = 30
#: Jobs that must lie beyond the reported p95 job time.
MIN_BEYOND_P95 = 10
#: The loop gives up extending past ``--seconds`` after this long.
EXTEND_LIMIT_S = 60.0
SETUP_SPAWNS = 8
#: Jobs in each phase of a traced run (a multiple of len(JOB_OPS)).
TRACE_JOBS = 90
READY_TIMEOUT_S = 30.0


def make_dataset(seed: int, index: int) -> Tuple[Dict[str, Any], str, str]:
    """Input ``index`` of this seed: (spec without its input, input
    text, expected result digest)."""
    rng = random.Random(f"{seed}/{index}")
    op = JOB_OPS[index % len(JOB_OPS)]
    if op == "sort":
        values = [rng.randrange(1_000_000_000) for _ in range(JOB_RECORDS)]
        text = "".join(f"{value}\n" for value in values)
        expected = "".join(f"{value}\n" for value in sorted(values))
        spec = {"op": "sort"}
    else:
        rows = [
            (f"k{rng.randrange(CSV_KEYS):06d}", rng.randrange(-1000, 1000))
            for _ in range(JOB_RECORDS)
        ]
        text = "".join(f"{key},{value}\n" for key, value in rows)
        if op == "distinct":
            first: Dict[str, str] = {}
            for key, value in rows:
                row = f"{key},{value}"
                if key not in first or row < first[key]:
                    first[key] = row
            expected = "".join(f"{first[key]}\n" for key in sorted(first))
            spec = {"op": "distinct", "format": "csv", "key": 0, "by": "key"}
        else:
            groups: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
            for key, value in rows:
                groups[key][0] += 1
                groups[key][1] += value
            expected = "".join(
                f"{key},{count},{total}\n"
                for key, (count, total) in sorted(groups.items())
            )
            spec = {"op": "agg", "format": "csv", "key": 0, "value": 1,
                    "aggregates": ["count", "sum"]}
    spec["memory"] = JOB_MEMORY
    return spec, text, hashlib.sha256(expected.encode("ascii")).hexdigest()


def make_datasets(seed: int) -> List[Tuple[Dict[str, Any], str, str]]:
    return [make_dataset(seed, index) for index in range(DATASETS)]


def result_matches(text: str, expected_digest: str) -> bool:
    """The correctness gate: the streamed result hashes to the oracle's."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest() == expected_digest


class Server:
    """One ``repro serve`` child, from spawn to reaped exit."""

    def __init__(self, ctx: Context, tag: str, trace: bool = False) -> None:
        from repro.service.client import ServiceClient
        from repro.engine.resilience import read_marker

        self.stats = ctx.path(f"{tag}.stats.json")
        endpoint = ctx.path(f"{tag}.endpoint.json")
        argv = ctx.launcher(
            self.stats, trace=ctx.path(f"{tag}.trace.json") if trace else None
        )
        argv += ["-m", "repro.cli", "serve", "--spool", ctx.path(f"{tag}.spool"),
                 "--endpoint-file", endpoint]
        self.started = time.perf_counter()
        self.proc = start_child(argv, ctx, f"{tag}.log")
        self.ready_at = self.started
        deadline = self.started + READY_TIMEOUT_S
        self.address: Optional[str] = None
        while time.perf_counter() < deadline and self.proc.poll() is None:
            marker = read_marker(endpoint)
            if marker and "port" in marker:
                address = f"{marker['host']}:{marker['port']}"
                try:
                    ServiceClient(address).ping()
                except OSError:
                    pass
                else:
                    self.address = address
                    break
            time.sleep(0.002)
        self.ready_at = time.perf_counter()
        self.ready_s = self.ready_at - self.started

    def stop(self) -> Tuple[int, float, int]:
        """Shut down; returns (exit code, peak RSS MB, bytes written)."""
        from repro.service.client import ServiceClient

        if self.address is not None and self.proc.poll() is None:
            try:
                ServiceClient(self.address).shutdown()
            except OSError:
                self.proc.terminate()
        elif self.proc.poll() is None:
            self.proc.terminate()
        child = reap(self.proc, self.started)
        wchar = read_json(self.stats)["wchar"] if os.path.exists(
            self.stats) else 0
        return child.returncode, child.maxrss_mb, wchar


class ClosedLoop:
    """``CLIENTS`` threads, each submitting its next job only after the
    previous one is verified."""

    def __init__(self, ctx: Context, outcome: Outcome, address: str,
                 datasets: List[Tuple[Dict[str, Any], str, str]]) -> None:
        self.ctx = ctx
        self.outcome = outcome
        self.address = address
        self.datasets = datasets
        self.jobs: List[Dict[str, Any]] = []
        self.input_bytes = 0
        self._next = 0
        self._lock = threading.Lock()
        self.span = (0.0, 0.0)

    def _claim(self, limit: Optional[int], deadline: float) -> Optional[int]:
        with self._lock:
            if limit is not None and self._next >= limit:
                return None
            now = time.perf_counter()
            if limit is None and now >= deadline and (
                beyond_p95(self._next) >= MIN_BEYOND_P95
                or now >= deadline + EXTEND_LIMIT_S
            ):
                return None
            index = self._next
            self._next += 1
            return index

    def _client(self, limit: Optional[int], deadline: float) -> None:
        from repro.service.client import ServiceClient

        client = ServiceClient(self.address)
        polls = [0]
        status = client.status

        def counted_status(job_id: str) -> Dict[str, Any]:
            polls[0] += 1
            return status(job_id)

        client.status = counted_status  # counts the polls of wait()
        while True:
            index = self._claim(limit, deadline)
            if index is None:
                return
            spec, text, digest = self.datasets[index % DATASETS]
            path = self.ctx.path(f"job-{index:05d}.in")
            with open(path, "w", encoding="ascii") as handle:
                handle.write(text)
            spec = dict(spec, input=path)
            record = self._one_job(client, polls, spec, digest, index)
            with self._lock:
                self.input_bytes += len(text)
                if record is not None:
                    self.jobs.append(record)

    def _one_job(self, client: Any, polls: List[int], spec: Dict[str, Any],
                 digest: str, index: int) -> Optional[Dict[str, Any]]:
        started = time.perf_counter()
        try:
            status = client.submit(spec)
            submitted = time.perf_counter()
            polls_before = polls[0]
            status = client.wait(status["id"])
            polled = time.perf_counter()
            ok = status["status"] == "done"
            sink = io.StringIO()
            if ok:
                client.result(status["id"], sink)
                ok = result_matches(sink.getvalue(), digest)
            finished = time.perf_counter()
        except Exception as exc:  # a failed job counts; the loop goes on
            with self._lock:
                self.outcome.check(False, f"job {index}: {exc!r}")
            return None
        with self._lock:
            self.outcome.check(ok, f"job {index} ({spec['op']}): status "
                                   f"{status['status']}, result digest "
                                   f"{'ok' if ok else 'wrong'}")
        report = status.get("report") or {}
        return {
            "op": spec["op"],
            "latency_s": finished - started,
            "started": started,
            "finished": finished,
            "submit_s": submitted - started,
            "polls": polls[0] - polls_before,
            "result_s": finished - polled,
            "waited_s": status.get("waited_s", 0.0),
            "ran_s": status.get("ran_s", 0.0),
            "run_wall_s": report.get("run_wall_s", 0.0),
            "merge_wall_s": report.get("merge_wall_s", 0.0),
        }

    def drive(self, limit: Optional[int] = None,
              seconds: float = 0.0) -> float:
        """Run ``limit`` jobs, or as many as start within ``seconds``;
        returns the wall time until the last job was verified."""
        started = time.perf_counter()
        threads = [
            threading.Thread(target=self._client,
                             args=(limit, started + seconds))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        ended = time.perf_counter()
        if self.jobs:
            ended = max(job["finished"] for job in self.jobs)
        self.span = (started, ended)
        return ended - started


def beyond_p95(jobs: int) -> int:
    """Jobs that lie beyond the nearest-rank p95 of ``jobs`` samples."""
    return jobs - int(0.95 * jobs + 0.5)


def _ensure_importable() -> None:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def measure_setup(ctx: Context, outcome: Outcome) -> List[Server]:
    servers = []
    for spawn in range(SETUP_SPAWNS):
        server = Server(ctx, f"setup-{spawn}")
        code, _, _ = server.stop()
        outcome.check(server.address is not None and code == 0,
                      f"setup server {spawn}: ready={server.address}, "
                      f"exit {code}")
        servers.append(server)
    return servers


def run(ctx: Context, outcome: Outcome) -> None:
    _ensure_importable()
    if ctx.trace:
        run_traced(ctx, outcome)
        return
    datasets = make_datasets(ctx.seed)
    spawns = measure_setup(ctx, outcome)
    server = Server(ctx, "server")
    spawns.append(server)
    loop = None
    if server.address is not None:
        loop = ClosedLoop(ctx, outcome, server.address, datasets)
        wall = loop.drive(seconds=ctx.seconds)
    code, rss, wchar = server.stop()
    outcome.check(server.address is not None and code == 0,
                  f"server: ready={server.address}, exit {code}")
    if loop is None or not loop.jobs:
        return
    probe = ctx.probe
    latencies = sorted(job["latency_s"] for job in loop.jobs)
    ref_latencies = sorted(
        probe.ref_seconds(job["started"], job["finished"])
        for job in loop.jobs
    )
    ref_wall = probe.ref_seconds(*loop.span)
    jobs = len(latencies)
    outcome.details.update(
        jobs=jobs,
        jobs_per_s=jobs / wall,
        job_p50_s=quantile(latencies, 0.5),
        job_p95_s=quantile(latencies, 0.95),
        jobs_beyond_p95=beyond_p95(jobs),
        host_cpu_factor=probe.cpu_factor(*loop.span),
        raw_setup_s=median([s.ready_s for s in spawns]),
    )
    outcome.check(beyond_p95(jobs) >= MIN_BEYOND_P95,
                  f"only {beyond_p95(jobs)} jobs lie beyond p95, "
                  f"{MIN_BEYOND_P95} needed")
    outcome.metrics.update(
        setup_s=median([probe.ref_seconds(s.started, s.ready_at)
                        for s in spawns]),
        peak_rss_mb=rss,
        records_per_s=jobs * JOB_RECORDS / ref_wall,
        op_tail_ms=quantile(ref_latencies, 0.95) * 1e3,
        write_amp=wchar / loop.input_bytes,
    )


def run_traced(ctx: Context, outcome: Outcome) -> None:
    walls = []
    loop = None
    datasets = make_datasets(ctx.seed)
    for tag, trace in (("plain", False), ("traced", True)):
        server = Server(ctx, tag, trace=trace)
        if server.address is not None:
            loop = ClosedLoop(ctx, outcome, server.address, datasets)
            walls.append(loop.drive(limit=TRACE_JOBS))
        code, _, _ = server.stop()
        outcome.check(server.address is not None and code == 0,
                      f"{tag} server: ready={server.address}, exit {code}")
    if len(walls) != 2 or loop is None:
        return
    summary = TraceSummary(read_json(ctx.path("traced.trace.json")))
    outcome.metrics.update(summary.common_metrics())
    outcome.metrics.update(summary.sort_metrics())
    outcome.metrics.update(summary.store_metrics(gets=0, writes=0))
    outcome.metrics.update(summary.service_metrics(loop.jobs))
    outcome.metrics["trace.overhead_ratio"] = walls[1] / walls[0] - 1.0
    outcome.details["untraced_wall_s"] = walls[0]
    outcome.details["traced_wall_s"] = walls[1]
