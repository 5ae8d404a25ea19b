"""The repository's benchmark: one command per named workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-read --seed 1 --seconds 10 --trace 0

Workloads: ``batch-read``, ``read-write`` (see ``workloads.py``) and
``http-serve`` (see ``http_serve.py``).  The run builds its inputs from
``--seed``, measures for about ``--seconds``, checks every answer, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A traced run measures the
workload untraced and then traced, and writes its spans to
``.bench_work/spans-<workload>-<seed>.jsonl``.

A run that cannot be valid (no native kernel, an environment switch
that changes the engine, a lagging load generator) exits non-zero and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: end-to-end metrics and their units, reported by every workload
E2E_UNITS = {
    "setup_s": "s",
    "qps": "queries/s",
    "recall_at_10": "fraction",
    "ndc_per_query": "count",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "index_mb": "MB",
}

#: per-layer metrics and their units; a layer a workload never calls
#: reports 0 there
LAYER_UNITS = {
    "base.build.c1_s": "s",
    "base.build.c2c3_s": "s",
    "base.build.c4_s": "s",
    "base.build.c5_s": "s",
    "base.build_ndc": "count",
    "base.insert_busy_s": "s",
    "base.delete_busy_s": "s",
    "batch.calls": "count",
    "batch.rows_per_call": "count",
    "batch.busy_s": "s",
    "batch.self_s": "s",
    "batch.fused_row_share": "fraction",
    "batch.degraded_rows": "count",
    "batch.error_rows": "count",
    "seeding.busy_s": "s",
    "seeding.ndc_per_query": "count",
    "native.walk_busy_s": "s",
    "native.hops_per_query": "count",
    "native.visited_per_query": "count",
    "native.thread_utilization": "fraction",
    "native.adc_walk_busy_s": "s",
    "native.adc_lookups_per_query": "count",
    "quantization.lut_busy_s": "s",
    "compressed.rerank_busy_s": "s",
    "compressed.rerank_ndc_per_query": "count",
    "delta.search_busy_s": "s",
    "delta.search_calls": "count",
    "delta.ndc_per_query": "count",
    "delta.hops_per_query": "count",
    "delta.insert_busy_s": "s",
    "delta.points": "count",
    "protocol.parse_us": "us",
    "protocol.encode_us": "us",
    "coalescer.wait_ms_p50": "ms",
    "coalescer.wait_ms_p99": "ms",
    "coalescer.batch_size_mean": "count",
    "coalescer.index_ms_p50": "ms",
    "coalescer.rejected": "count",
    "server.overhead_ms_p50": "ms",
    "loadgen.late_ms_max": "ms",
    "adc_qps": "queries/s",
    "adc_recall_at_10": "fraction",
    "inserts_per_s": "1/s",
    "consolidate_s": "s",
    "slo_rate": "req/s",
    "trace.overhead_pct": "%",
}

WORKLOADS = ("batch-read", "read-write", "http-serve")
ENGINE_SWITCHES = ("REPRO_NO_NATIVE", "REPRO_TRACE", "REPRO_METRICS")


class SetupError(Exception):
    pass


def check_environment() -> dict:
    """Refuse to report Python-path numbers as native ones."""
    for name in ENGINE_SWITCHES:
        if os.environ.get(name):
            raise SetupError(f"{name} is set; it changes the engine measured")
    if not (ROOT / "src" / "repro").is_dir():
        raise SetupError(f"no repro sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from repro import _native

    if _native.LIB is None:
        raise SetupError(f"native kernel not loaded: {_native.LOAD_ERROR}")
    return {"nproc": os.cpu_count(), "kernel": "loaded"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        env = check_environment()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from common import BenchError

    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "http-serve":
            from http_serve import http_serve

            out = http_serve(args.seed, args.seconds, trace, work)
        else:
            from workloads import batch_read, read_write

            run = batch_read if args.workload == "batch-read" else read_write
            out = run(args.seed, args.seconds, trace)
    except BenchError as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} nproc={env['nproc']} "
          f"kernel={env['kernel']} kernel_paths={json.dumps(out.kernel_paths)}")
    for note in out.notes:
        print(f"# {note}")
    if trace:
        from tracing import dump_spans

        spans_path = work_root / f"spans-{args.workload}-{args.seed}.jsonl"
        dump_spans(out.spans, spans_path)
        print(f"# {len(out.spans)} spans written to {spans_path.relative_to(ROOT)}")
        # a layer the workload never calls did no work: it reports 0
        values = dict.fromkeys(LAYER_UNITS, 0.0) | out.layers
        units = LAYER_UNITS
    else:
        values, units = out.e2e, E2E_UNITS
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 4
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
