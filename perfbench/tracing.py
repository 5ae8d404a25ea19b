"""Span capture from outside the program, for the traced benchmark run.

The benchmark never turns on ``repro.observability`` tracing: that
switches ``search_batch`` onto the Python frontier, so it would time a
different engine.  Instead :class:`Tracer` replaces the public entry
points of each layer (module attributes and class methods) with thin
wrappers that record one span per call, in memory, and restores the
originals on :meth:`Tracer.uninstall`.

A span is ``(name, start, end, parent, group, attrs)``.  The parent is
the innermost open span on the same thread; the group is the batch id
of the outermost span, inherited by its children.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    group: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Tracer:
    """In-memory span recorder plus the patches that feed it.

    Spans are recorded only while :attr:`active` is set, so correctness
    checks that call the same functions outside the timed phase do not
    show up in the layer totals.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_group = 0
        self._patches: list[tuple[object, str, object | None]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, on_result=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``;
        ``on_result(span, args, kwargs, result)`` may attach counts."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if parent is None:
                group = self._next_group
                self._next_group += 1
            else:
                group = self.spans[parent].group
            span = Span(name, 0.0, parent=parent, group=group)
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
        if on_result is not None:
            on_result(span, args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)
        # an inherited method is patched on the subclass and removed again
        own = not isinstance(owner, type) or attr in owner.__dict__
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, on_result)

        self._patches.append((owner, attr, original if own else None))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------



def dump_spans(spans: list[Span], path) -> None:
    """Write every span as one JSON line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "group": s.group, "attrs": s.attrs,
            }) + "\n")


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# -- the layers this benchmark traces ----------------------------------------


def _batch_result(span, args, kwargs, result):
    span.attrs.update(
        rows=len(result.ids),
        kernel_path=result.kernel_path,
        degraded=int(result.num_degraded),
        errors=int(result.num_errors),
    )


def _walk_result(span, args, kwargs, result):
    _ids, _sq, _len, stats, thread_busy = result
    span.attrs.update(
        rows=len(stats),
        lookups=int(stats[:, 0].sum()),
        hops=int(stats[:, 1].sum()),
        visited=int(stats[:, 2].sum()),
        thread_busy=float(np.sum(thread_busy)),
        threads=len(thread_busy),
    )


def _seed_result(span, args, kwargs, result):
    _seeds, counts = result
    span.attrs.update(rows=len(counts), ndc=int(np.sum(counts)))


def _rerank_result(span, args, kwargs, result):
    span.attrs.update(ndc=len(args[2]))


def _delta_result(span, args, kwargs, result):
    span.attrs.update(ndc=int(result.ndc), hops=int(result.hops))


def install_library(tracer: Tracer, index) -> None:
    """Trace the library path: batch engine, seeding, native walks, LUT
    build, re-rank, delta tier and the index's write calls."""
    from repro import _native, batch
    from repro.algorithms.base import GraphANNS
    from repro.delta import DeltaTier
    from repro.quantization import CompressedTier

    tracer.wrap(batch, "search_batch", "batch", _batch_result)
    tracer.wrap(_native, "best_first_batch_mt", "native.walk", _walk_result)
    tracer.wrap(_native, "best_first_batch_adc_mt", "native.adc_walk",
                _walk_result)
    tracer.wrap(type(index.seed_provider), "acquire_batch", "seeding",
                _seed_result)
    tracer.wrap(CompressedTier, "lut_batch", "quantization.lut")
    tracer.wrap(batch, "rerank_exact", "compressed.rerank", _rerank_result)
    tracer.wrap(DeltaTier, "search", "delta.search", _delta_result)
    tracer.wrap(DeltaTier, "insert", "delta.insert")
    tracer.wrap(GraphANNS, "insert", "base.insert")
    tracer.wrap(GraphANNS, "delete", "base.delete")


def install_server(tracer: Tracer, index) -> None:
    """Trace the serving path on top of the library path: request
    parsing and response encoding as the server calls them, and the
    coalescer's ``index.search_batch`` call."""
    from repro.serving import server

    install_library(tracer, index)
    tracer.wrap(server, "parse_search_request", "protocol.parse")
    tracer.wrap(server, "encode_result", "protocol.encode")
    tracer.wrap(type(index), "search_batch", "coalescer.index")


# -- per-layer summary ---------------------------------------------------------


def _total(spans, attr=None) -> float:
    if attr is None:
        return float(sum(s.duration for s in spans))
    return float(sum(s.attrs.get(attr, 0) for s in spans))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def library_layers(spans: list[Span]) -> dict:
    """Per-layer metrics of the library path from one span list."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    batch_idx = [i for i, s in enumerate(spans) if s.name == "batch"]
    batches = [spans[i] for i in batch_idx]
    rows = _total(batches, "rows")
    fused_rows = sum(
        s.attrs.get("rows", 0) for s in batches
        if str(s.attrs.get("kernel_path", "")).startswith("fused")
    )
    walks, adc_walks = named("native.walk"), named("native.adc_walk")
    all_walks = walks + adc_walks
    thread_wall = sum(s.attrs.get("threads", 0) * s.duration for s in all_walks)
    seeding = named("seeding")
    reranks = named("compressed.rerank")
    adc_rows = _total(adc_walks, "rows")
    deltas = named("delta.search")
    return {
        "base.insert_busy_s": _total(named("base.insert")),
        "base.delete_busy_s": _total(named("base.delete")),
        "batch.calls": float(len(batches)),
        "batch.rows_per_call": _ratio(rows, len(batches)),
        "batch.busy_s": _total(batches),
        "batch.self_s": float(sum(selfs[i] for i in batch_idx)),
        "batch.fused_row_share": _ratio(fused_rows, rows),
        "batch.degraded_rows": _total(batches, "degraded"),
        "batch.error_rows": _total(batches, "errors"),
        "seeding.busy_s": _total(seeding),
        "seeding.ndc_per_query": _ratio(_total(seeding, "ndc"),
                                        _total(seeding, "rows")),
        "native.walk_busy_s": _total(walks),
        "native.hops_per_query": _ratio(_total(walks, "hops"),
                                        _total(walks, "rows")),
        "native.visited_per_query": _ratio(_total(walks, "visited"),
                                           _total(walks, "rows")),
        "native.thread_utilization": _ratio(
            _total(all_walks, "thread_busy"), thread_wall),
        "native.adc_walk_busy_s": _total(adc_walks),
        "native.adc_lookups_per_query": _ratio(_total(adc_walks, "lookups"),
                                               adc_rows),
        "quantization.lut_busy_s": _total(named("quantization.lut")),
        "compressed.rerank_busy_s": _total(reranks),
        "compressed.rerank_ndc_per_query": _ratio(_total(reranks, "ndc"),
                                                  adc_rows),
        "delta.search_busy_s": _total(deltas),
        "delta.search_calls": float(len(deltas)),
        "delta.ndc_per_query": _ratio(_total(deltas, "ndc"), len(deltas)),
        "delta.hops_per_query": _ratio(_total(deltas, "hops"), len(deltas)),
        "delta.insert_busy_s": _total(named("delta.insert")),
    }


def server_layers(spans: list[Span]) -> dict:
    """Serving-side metrics from the server process's spans."""

    def median_of(name, scale):
        durations = [s.duration for s in spans if s.name == name]
        return float(np.median(durations)) * scale if durations else 0.0

    return {
        "protocol.parse_us": median_of("protocol.parse", 1e6),
        "protocol.encode_us": median_of("protocol.encode", 1e6),
        "coalescer.index_ms_p50": median_of("coalescer.index", 1e3),
    }
