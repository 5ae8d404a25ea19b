"""The library-path workloads: ``batch-read`` and ``read-write``.

``batch-read``: a static index with a PQ tier, answering repeated
full-batch ``search_batch`` calls over a fixed query set, alternating
exact and compressed.  The C walk does almost all of the work, plus the
LUT build and re-rank on the compressed calls; there is no delta tier
and no HTTP, so serving and delta changes should leave it unchanged.

``read-write``: the same build with auto-consolidation off, driven by a
fixed schedule of single-point inserts (growing the delta tier to 10%
of the base), deletes of 1% of the base ids and fixed-size reads, then
one inline ``consolidate()`` and a verification read.  The delta walk,
its merge and the tombstone filter dominate the reads, which use the
same exact kernel as ``batch-read``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import tracing
from common import (
    EF, K, N_BASE, NPROC, SETUP_REPEATS, BenchError, Outcome, build,
    build_phases, exact_knn, make_vectors, mismatched_rows, overhead_pct,
    peak_rss_mb, percentile, recall, reference, same_graph,
)
from repro import batch

BATCH_QUERIES = 500

RW_INSERTS = N_BASE // 10
RW_DELETES = N_BASE // 100
RW_STEPS = 20
RW_READ_ROWS = 50
RW_QUERIES = 500


def set_up(base, compressed: bool, keep: int):
    """Build ``SETUP_REPEATS`` identical indexes; returns the first
    ``keep`` of them and the median set-up seconds."""
    indexes, seconds = [], []
    for _ in range(SETUP_REPEATS):
        index, took = build(base, compressed=compressed)
        seconds.append(took)
        if indexes and not same_graph(indexes[0], index):
            raise BenchError("two builds of the same data differ")
        indexes.append(index)
    phases = build_phases(indexes)
    return indexes[:keep], statistics.median(seconds), phases


# -- batch-read ----------------------------------------------------------------


def _batch_read_phase(index, queries, refs, seconds, out: Outcome):
    """Alternate exact and compressed full-batch calls for ``seconds``."""
    times = {False: [], True: []}
    first = {}
    stop_at = time.perf_counter() + seconds
    mode = False
    while time.perf_counter() < stop_at or not times[True]:
        started = time.perf_counter()
        result = batch.search_batch(index, queries, k=K, ef=EF,
                                    workers=NPROC, compressed=mode)
        times[mode].append(time.perf_counter() - started)
        out.attempted += len(queries)
        out.failed += int(mismatched_rows(result, *refs[mode]).sum())
        out.count_paths(result.kernel_path)
        first.setdefault(mode, result)
        mode = not mode
    rows = len(queries)
    return {
        "qps": rows * len(times[False]) / sum(times[False]),
        "adc_qps": rows * len(times[True]) / sum(times[True]),
        "p50_ms": percentile(times[False], 50) * 1e3,
        "p90_ms": percentile(times[False], 90) * 1e3,
        "p99_ms": percentile(times[False], 99) * 1e3,
        "calls": len(times[False]),
    }, first


def batch_read(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    base, _, queries = make_vectors(seed, N_BASE, 0, BATCH_QUERIES)
    truth = exact_knn(base, queries, K)
    indexes, setup_s, phases = set_up(base, compressed=True, keep=1)
    index = indexes[0]
    refs = {False: reference(index, queries),
            True: reference(index, queries, compressed=True)}

    timed, first = _batch_read_phase(index, queries, refs, seconds, out)
    exact, adc = first[False], first[True]
    out.e2e = {
        "setup_s": setup_s,
        "qps": timed["qps"],
        "recall_at_10": recall(exact.ids, truth),
        "ndc_per_query": float(exact.ndc.mean()),
        "p50_ms": timed["p50_ms"],
        "p90_ms": timed["p90_ms"],
        "peak_rss_mb": peak_rss_mb(),
        "index_mb": index.index_size_bytes() / 1e6,
    }
    out.notes.append(f"exact call p99_ms={timed['p99_ms']:.3f} "
                     f"over {timed['calls']} calls")
    extra = {
        "adc_qps": timed["adc_qps"],
        "adc_recall_at_10": recall(adc.ids, truth),
    }
    out.notes.append(f"adc_qps={extra['adc_qps']:.1f} "
                     f"adc_recall_at_10={extra['adc_recall_at_10']:.4f}")
    if trace:
        tracer = tracing.Tracer()
        tracing.install_library(tracer, index)
        tracer.active = True
        try:
            traced, _ = _batch_read_phase(index, queries, refs, seconds, out)
        finally:
            tracer.active = False
            tracer.uninstall()
        out.spans = tracer.spans
        layers = tracing.library_layers(tracer.spans)
        layers.update(phases)
        layers.update(extra)
        layers["trace.overhead_pct"] = overhead_pct(
            timed["qps"], traced["qps"], higher_is_better=True)
        busy = {path: sum(s.duration for s in tracer.spans
                          if s.name == "batch"
                          and s.attrs["kernel_path"] == path)
                for path in ("fused_mt", "fused_mt_adc")}
        share = layers["native.walk_busy_s"] / busy["fused_mt"]
        adc_share = layers["native.adc_walk_busy_s"] / busy["fused_mt_adc"]
        out.notes.append(
            f"reasoning: native walk is {share:.0%} of exact-call busy time "
            f"-> {'holds' if share > 0.5 else 'FAILS'} (ADC walk: "
            f"{adc_share:.0%} of compressed-call busy time)")
        out.layers = layers
    return out


# -- read-write ----------------------------------------------------------------


def _read_write_phase(index, base, extra, queries, deletes, seconds,
                      out: Outcome, tracer=None):
    """Run the fixed write/read schedule on ``index``; returns timings.

    Correctness checks run outside the timed calls, with ``tracer``
    paused: every read's first answer is compared with ``index.search``
    row by row and with exact kNN over the live set, and must hold no
    deleted id.
    """
    def tracing_on(flag: bool) -> None:
        if tracer is not None:
            tracer.active = flag

    points = np.vstack([base, extra])
    all_ids = np.arange(len(points))
    live = np.zeros(len(points), dtype=bool)
    live[: len(base)] = True
    insert_s, read_s, latencies = 0.0, 0.0, []
    read_rows = 0
    per_step = RW_INSERTS // RW_STEPS
    del_per_step = RW_DELETES // RW_STEPS
    slice_s = seconds / RW_STEPS
    found_all, truth_all, ndc_all = [], [], []

    def check(result, rows):
        tracing_on(False)
        ref_ids, ref_ndc = reference(index, rows)
        bad = mismatched_rows(result, ref_ids, ref_ndc)
        dead = (result.ids >= 0) & ~live[np.maximum(result.ids, 0)]
        bad |= dead.any(axis=1)
        truth = exact_knn(points[live], rows, K, ids=all_ids[live])
        found_all.append(result.ids)
        truth_all.append(truth)
        ndc_all.append(result.ndc)
        tracing_on(True)
        return bad

    for step in range(RW_STEPS):
        for j in range(step * per_step, (step + 1) * per_step):
            started = time.perf_counter()
            new_id = index.insert(extra[j])
            insert_s += time.perf_counter() - started
            out.attempted += 1
            if new_id != len(base) + j:
                out.failed += 1
            live[new_id] = True
        for victim in deletes[step * del_per_step:(step + 1) * del_per_step]:
            index.delete(int(victim))
            out.attempted += 1
            live[victim] = False
        lo = (step * RW_READ_ROWS) % len(queries)
        rows = queries[lo: lo + RW_READ_ROWS]
        first, step_read_s, step_latencies = None, 0.0, []
        while first is None or step_read_s < slice_s:
            started = time.perf_counter()
            result = batch.search_batch(index, rows, k=K, ef=EF, workers=NPROC)
            took = time.perf_counter() - started
            step_read_s += took
            read_s += took
            step_latencies.append(took)
            read_rows += len(rows)
            out.attempted += len(rows)
            out.count_paths(result.kernel_path)
            if first is None:
                first = result
                bad = check(result, rows)
            else:
                bad = (result.ids != first.ids).any(1) | (result.ndc != first.ndc)
            out.failed += int(bad.sum())
        latencies.append(step_latencies)

    delta_points = index.delta_points
    started = time.perf_counter()
    index.consolidate()
    consolidate_s = time.perf_counter() - started
    tracing_on(False)
    out.attempted += 1
    if index.delta_points != 0 or len(index.data) != len(points):
        out.failed += 1
    result = batch.search_batch(index, queries, k=K, ef=EF, workers=NPROC)
    out.attempted += len(queries)
    out.count_paths(result.kernel_path)
    out.failed += int(check(result, queries).sum())

    return {
        "recall": recall(np.vstack(found_all), np.vstack(truth_all)),
        "ndc": float(np.concatenate(ndc_all).mean()),
        "qps": read_rows / read_s,
        # read latency changes with the delta size, so percentiles are
        # taken per step and averaged over the schedule's steps
        "p50_ms": np.mean([percentile(lat, 50) for lat in latencies]) * 1e3,
        "p90_ms": np.mean([percentile(lat, 90) for lat in latencies]) * 1e3,
        "p99_ms": percentile(np.concatenate(latencies), 99) * 1e3,
        "calls": sum(len(lat) for lat in latencies),
        "inserts_per_s": RW_INSERTS / insert_s,
        "consolidate_s": consolidate_s,
        "delta_points": float(delta_points),
    }


def read_write(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    base, extra, queries = make_vectors(seed, N_BASE, RW_INSERTS, RW_QUERIES)
    rng = np.random.default_rng(seed)
    deletes = rng.choice(N_BASE, size=RW_DELETES, replace=False)
    indexes, setup_s, phases = set_up(base, compressed=False,
                                      keep=2 if trace else 1)
    for index in indexes:
        index.auto_consolidate = False

    timed = _read_write_phase(indexes[0], base, extra, queries, deletes,
                              seconds, out)
    out.e2e = {
        "setup_s": setup_s,
        "qps": timed["qps"],
        "recall_at_10": timed["recall"],
        "ndc_per_query": timed["ndc"],
        "p50_ms": timed["p50_ms"],
        "p90_ms": timed["p90_ms"],
        "peak_rss_mb": peak_rss_mb(),
        "index_mb": indexes[0].index_size_bytes() / 1e6,
    }
    out.notes.append(f"read call p99_ms={timed['p99_ms']:.3f} "
                     f"over {timed['calls']} calls")
    extra_metrics = {
        "inserts_per_s": timed["inserts_per_s"],
        "consolidate_s": timed["consolidate_s"],
    }
    out.notes.append(f"inserts_per_s={timed['inserts_per_s']:.1f} "
                     f"consolidate_s={timed['consolidate_s']:.3f}")
    if trace:
        tracer = tracing.Tracer()
        tracing.install_library(tracer, indexes[1])
        tracer.active = True
        try:
            traced = _read_write_phase(indexes[1], base, extra, queries,
                                       deletes, seconds, out, tracer)
        finally:
            tracer.active = False
            tracer.uninstall()
        out.spans = tracer.spans
        layers = tracing.library_layers(tracer.spans)
        layers.update(phases)
        layers.update(extra_metrics)
        layers["delta.points"] = traced["delta_points"]
        layers["trace.overhead_pct"] = overhead_pct(
            timed["qps"], traced["qps"], higher_is_better=True)
        share = layers["delta.search_busy_s"] / layers["batch.busy_s"]
        out.notes.append(
            "reasoning: delta walk is {:.0%} of read time -> {}".format(
                share, "holds" if share > 0.5 else "FAILS"))
        out.layers = layers
    return out
