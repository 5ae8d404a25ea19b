"""The ``http-serve`` workload: the index behind the HTTP front door.

The index is saved and served by ``repro.serving.serve`` with the
default ``ServingConfig`` in its own process (``serve_index.py``).
This process generates the load over at most ``nproc`` keep-alive
connections: an open loop of Poisson arrivals at a fixed ladder of
rates below saturation, each request carrying a fixed ``deadline_ms``,
then a short closed loop for the saturation throughput.  With so few
connections batches hold one or two rows, so HTTP/JSON handling, the
coalescer window and per-call orchestration dominate and the kernel is
a small share.
"""

from __future__ import annotations

import http.client
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import loadgen
import tracing
from common import (
    EF, K, N_BASE, NPROC, SETUP_REPEATS, BenchError, Outcome, build,
    build_phases, exact_knn, make_vectors, overhead_pct, percentile, recall,
    reference, same_graph,
)
from repro.io import save_index

HERE = Path(__file__).resolve().parent
POOL_QUERIES = 500
CONNECTIONS = NPROC
DEADLINE_MS = 1000.0
# (rate in requests/s, share of the run's seconds); latency percentiles
# are read at REFERENCE_RATE, the step long enough for ten samples
# beyond p99.  At ~1/4 of saturation queueing stays short, so the
# percentiles follow the per-request cost rather than the queue.
LADDER = ((50, 0.04), (100, 0.67), (200, 0.07), (300, 0.04))
REFERENCE_RATE = 100
SATURATION_SHARE = 0.18
P99_LIMIT_MS = 50.0
# a step whose last reply lands later than this after its last arrival
# left a backlog
DRAIN_LIMIT_MS = 100.0
# the generator must hand every request over within this of its due
# time, or the run is invalid
LATE_LIMIT_MS = 100.0
# latency percentiles and saturation throughput are medians over
# windows (of due time, and of consecutive completions), taken over the
# windows in which the host stole the least CPU time
# (``loadgen.least_stolen``)
WINDOW_S = 0.5
WINDOW_REPLIES = 50


class ServerProcess:
    """One ``serve_index.py`` child: start, wait for ``/healthz``, scrape,
    stop with SIGTERM and require a clean drain."""

    def __init__(self, index_path: Path, work: Path, spans: Path | None):
        self.log = work / f"server-{time.monotonic_ns()}.log"
        cmd = [sys.executable, str(HERE / "serve_index.py"), str(index_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.host, self.port = "127.0.0.1", None

    def output(self) -> str:
        return self.log.read_text()

    def wait_ready(self, timeout_s: float = 120.0) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early:\n{self.output()}")
            if self.port is None:
                for line in self.output().splitlines():
                    if line.startswith("repro serving on http://"):
                        self.port = int(line.split()[3].rsplit(":", 1)[1])
            if self.port is not None:
                try:
                    status, _ = self.get("/healthz")
                    if status == 200:
                        return
                except OSError:
                    pass
            time.sleep(0.01)
        raise BenchError("server did not answer /healthz in time")

    def get(self, path: str):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM, then require exit status 0 after a finished drain."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("server did not drain within 60 s") from None
        if code != 0 or "repro serving: stopped" not in self.output():
            raise BenchError(f"unclean server stop ({code}):\n{self.output()}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _windowed_percentile(replies, q: float, clock) -> float:
    """The ``q``-th latency percentile within each ``WINDOW_S`` window of
    due time, as a least-stolen median over the windows."""
    start = replies[0].due
    windows: dict[int, list] = {}
    for r in replies:
        windows.setdefault(int((r.due - start) / WINDOW_S), []).append(
            r.latency_ms)
    return statistics.median(loadgen.least_stolen(
        [percentile(lat, q) for lat in windows.values()],
        [clock.stolen(start + i * WINDOW_S, start + (i + 1) * WINDOW_S)
         for i in windows],
    ))


def _windowed_rate(replies, clock) -> float:
    """Completion rate over runs of ``WINDOW_REPLIES`` consecutive
    completions of a closed-loop phase, as a least-stolen median over
    the runs."""
    done = sorted(r.done for r in replies)
    step = max(2, min(WINDOW_REPLIES, len(done)))
    spans = [(done[i], done[i + step - 1])
             for i in range(0, len(done) - step + 1, step)]
    return statistics.median(loadgen.least_stolen(
        [(step - 1) / (end - start) for start, end in spans],
        [clock.stolen(start, end) for start, end in spans],
    ))


def _step_stats(replies, ok, clock) -> dict:
    lat = [r.latency_ms for r in replies]
    last_due = max(r.due for r in replies)
    last_done = max(r.done for r in replies)
    return {
        "count": len(lat),
        "p50_ms": _windowed_percentile(replies, 50, clock),
        "p90_ms": _windowed_percentile(replies, 90, clock),
        "p99_ms": percentile(lat, 99),
        "all_ok": bool(all(ok(r) for r in replies)),
        "drain_ms": (last_done - last_due) * 1e3,
        "late_ms_max": max(r.late for r in replies) * 1e3,
    }


def _load(server: ServerProcess, bodies, seed: int, seconds: float, ok):
    """The ladder, then the closed loop; returns per-step stats and
    replies."""
    rng = np.random.default_rng(seed)
    clock = loadgen.StealClock()
    steps, ladder_replies = {}, []
    for rate, share in LADDER:
        count = max(1, round(rate * seconds * share))
        offsets = loadgen.poisson_schedule(rng, rate, count)
        order = rng.integers(0, len(bodies), size=count)
        replies = loadgen.open_loop(server.host, server.port, bodies, order,
                                    offsets, CONNECTIONS, clock)
        steps[rate] = _step_stats(replies, ok, clock)
        steps[rate]["replies"] = replies
        ladder_replies += replies
    order = rng.permutation(len(bodies))
    sat_replies = loadgen.closed_loop(
        server.host, server.port, bodies, order,
        seconds * SATURATION_SHARE, CONNECTIONS, clock)
    late = max(s["late_ms_max"] for s in steps.values())
    if late > LATE_LIMIT_MS:
        raise BenchError(f"load generator ran {late:.1f} ms late "
                         f"(limit {LATE_LIMIT_MS} ms): run invalid")
    slo_rate = 0.0
    for rate, _ in LADDER:
        s = steps[rate]
        if (s["all_ok"] and s["p99_ms"] <= P99_LIMIT_MS
                and s["drain_ms"] <= DRAIN_LIMIT_MS):
            slo_rate = float(rate)
    return {
        "steps": steps,
        "ladder": ladder_replies,
        "saturation": sat_replies,
        "qps": _windowed_rate(sat_replies, clock),
        "slo_rate": slo_rate,
        "late_ms_max": late,
        "steal_ticks": clock.ticks[-1] - clock.ticks[0],
    }


def http_serve(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    out = Outcome()
    base, _, queries = make_vectors(seed, N_BASE, 0, POOL_QUERIES)
    truth = exact_knn(base, queries, K)
    index_path = work / "index.npz"
    bodies = [
        json.dumps({"vector": q.tolist(), "k": K, "ef": EF,
                    "deadline_ms": DEADLINE_MS}).encode()
        for q in queries
    ]
    servers: list[ServerProcess] = []
    try:
        indexes, seconds_setup = [], []
        for rep in range(SETUP_REPEATS):
            started = time.perf_counter()
            index, _ = build(base)
            save_index(index, index_path)
            server = ServerProcess(index_path, work, None)
            servers.append(server)
            server.wait_ready()
            seconds_setup.append(time.perf_counter() - started)
            if indexes and not same_graph(indexes[0], index):
                raise BenchError("two builds of the same data differ")
            indexes.append(index)
            if rep < SETUP_REPEATS - 1:
                server.stop()
        index = indexes[0]
        ref_ids, ref_ndc = reference(index, queries)

        def ok(reply) -> bool:
            p = reply.payload
            if reply.status != 200 or p.get("degraded"):
                return False
            ids = np.full(K, -1, dtype=np.int64)
            ids[: len(p["ids"])] = p["ids"]
            return (np.array_equal(ids, ref_ids[reply.body])
                    and p["ndc"] == ref_ndc[reply.body])

        def account(result, stats) -> None:
            replies = result["ladder"] + result["saturation"]
            out.attempted += len(replies)
            out.failed += sum(1 for r in replies if not ok(r))
            for path, count in stats["kernel_paths"].items():
                out.count_paths(path, count)

        untraced = _load(server, bodies, seed, seconds, ok)
        stats = _scrape(server)
        rss = server.peak_rss_mb()
        server.stop()
        account(untraced, stats)

        # recall and NDC over each distinct query served on the ladder
        served = {r.body: r for r in untraced["ladder"] if r.status == 200}
        found = np.full((len(served), K), -1, dtype=np.int64)
        for row, r in enumerate(served.values()):
            found[row, : len(r.payload["ids"])] = r.payload["ids"]
        ref_step = untraced["steps"][REFERENCE_RATE]
        out.e2e = {
            "setup_s": statistics.median(seconds_setup),
            "qps": untraced["qps"],
            "recall_at_10": recall(found, truth[list(served)]),
            "ndc_per_query": float(np.mean(
                [r.payload["ndc"] for r in served.values()])),
            "p50_ms": ref_step["p50_ms"],
            "p90_ms": ref_step["p90_ms"],
            "peak_rss_mb": rss,
            "index_mb": index.index_size_bytes() / 1e6,
        }
        out.notes.append(
            f"slo_rate={untraced['slo_rate']:.0f} "
            f"late_ms_max={untraced['late_ms_max']:.2f} "
            f"steal_ticks={untraced['steal_ticks']} ladder=" + ", ".join(
                f"{rate}/s n={s['count']} p50={s['p50_ms']:.2f} "
                f"p90={s['p90_ms']:.2f} p99={s['p99_ms']:.2f} "
                f"ok={s['all_ok']} drain={s['drain_ms']:.1f}ms"
                for rate, s in untraced["steps"].items()))
        if trace:
            spans_path = work / "server-spans.jsonl"
            server = ServerProcess(index_path, work, spans_path)
            servers.append(server)
            server.wait_ready()
            traced = _load(server, bodies, seed, seconds, ok)
            stats = _scrape(server)
            server.stop()
            account(traced, stats)
            out.spans = tracing.load_spans(spans_path)
            out.layers, note = _layers(untraced, traced, stats, out.spans)
            out.layers.update(build_phases(indexes))
            out.notes.append(note)
    finally:
        for server in servers:
            server.kill()
    return out


def _scrape(server: ServerProcess) -> dict:
    """``/stats`` before the stop; the queue must be empty by then."""
    status, stats = server.get("/stats")
    if status != 200 or stats.get("queue_depth") != 0:
        raise BenchError(f"unexpected /stats before stop: {status} {stats}")
    return stats


def _layers(untraced, traced, stats, spans) -> tuple[dict, str]:
    layers = tracing.library_layers(spans)
    layers.update(tracing.server_layers(spans))
    ref = [r for r in traced["steps"][REFERENCE_RATE]["replies"]
           if r.status == 200]
    waits = [r.payload["wait_ms"] for r in ref]
    all_waits = sum(
        r.payload.get("wait_ms", 0.0)
        for r in traced["ladder"] + traced["saturation"]
    )
    layers.update({
        "coalescer.wait_ms_p50": percentile(waits, 50),
        "coalescer.wait_ms_p99": percentile(waits, 99),
        "coalescer.batch_size_mean": float(stats["mean_batch_size"]),
        "coalescer.rejected": float(sum(stats["rejected"].values())),
        "server.overhead_ms_p50": percentile(
            [(r.done - r.sent) * 1e3 - r.payload["total_ms"] for r in ref], 50),
        "loadgen.late_ms_max": untraced["late_ms_max"],
        "slo_rate": untraced["slo_rate"],
        "trace.overhead_pct": overhead_pct(
            untraced["steps"][REFERENCE_RATE]["p50_ms"],
            traced["steps"][REFERENCE_RATE]["p50_ms"],
            higher_is_better=False),
    })
    waited = all_waits / 1e3 + layers["batch.self_s"]
    note = (
        "reasoning: coalescer wait + batch self = {:.3f} s vs native walk "
        "{:.3f} s -> {}".format(
            waited, layers["native.walk_busy_s"],
            "holds" if waited > layers["native.walk_busy_s"] else "FAILS"))
    return layers, note
