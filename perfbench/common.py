"""Shared set-up and checks for the three workloads.

Every workload builds the same index: NSG over the sift1m stand-in
(128-d, LID 9.3), ``n_workers = nproc``, searched at k=10 and a fixed
ef in the ~0.95 recall@10 regime.  The workload seed only changes the
generated vectors; the index's own seed is fixed.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro import create
from repro.datasets.realworld import make_standin

DATASET = "sift1m"
N_BASE = 2000
K = 10
EF = 32
INDEX_SEED = 0
SETUP_REPEATS = 3      # set-up runs per benchmark run; setup_s is their median
PQ_SUBSPACES = 16      # 16x64 PQ reaches ~0.9 ADC recall; the 8x32 default ~0.7
PQ_CODEBOOK = 64
NPROC = os.cpu_count() or 1


class BenchError(Exception):
    """The run cannot produce a valid result; nothing is reported."""


@dataclass
class Outcome:
    """What one workload measured."""

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    kernel_paths: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    spans: list = field(default_factory=list)   # traced run only

    def count_paths(self, path: str | None, times: int = 1) -> None:
        self.kernel_paths[path] = self.kernel_paths.get(path, 0) + times


def make_vectors(seed: int, n_base: int, n_extra: int, n_queries: int):
    """``(base, extra, queries)`` float32 arrays from the stand-in
    generator; ``extra`` rows are drawn from the same distribution as
    the base and serve as points to insert."""
    ds = make_standin(DATASET, cardinality=n_base + n_extra,
                      num_queries=n_queries, gt_depth=1, seed=seed)
    return ds.base[:n_base], ds.base[n_base:], ds.queries


def exact_knn(points: np.ndarray, queries: np.ndarray, k: int,
              ids: np.ndarray | None = None) -> np.ndarray:
    """Exact top-``k`` ids (``ids[row]`` when given) by brute force."""
    p = points.astype(np.float64)
    q = queries.astype(np.float64)
    d = (q * q).sum(1)[:, None] - 2.0 * q @ p.T + (p * p).sum(1)[None, :]
    top = np.argpartition(d, k - 1, axis=1)[:, :k]
    order = np.take_along_axis(d, top, 1).argsort(1, kind="stable")
    top = np.take_along_axis(top, order, 1)
    return top if ids is None else ids[top]


def recall(found: np.ndarray, truth: np.ndarray) -> float:
    """Mean recall@k of result rows against exact rows."""
    k = truth.shape[1]
    hits = sum(
        len(set(f[f >= 0].tolist()) & set(t.tolist()))
        for f, t in zip(found, truth)
    )
    return hits / (k * len(truth))


def build(base: np.ndarray, compressed: bool = False):
    """Build one index; returns ``(index, seconds)``."""
    started = time.perf_counter()
    index = create("nsg", seed=INDEX_SEED, n_workers=NPROC)
    index.build(base)
    if compressed:
        index.enable_compressed(PQ_SUBSPACES, PQ_CODEBOOK)
    return index, time.perf_counter() - started


def same_graph(a, b) -> bool:
    ia, na = a.graph.csr()
    ib, nb = b.graph.csr()
    return np.array_equal(ia, ib) and np.array_equal(na, nb)


def build_phases(indexes) -> dict:
    """Median per-phase build seconds and the build NDC, from each
    index's ``BuildReport``."""
    reports = [ix.build_report for ix in indexes]
    out = {}
    for phase, name in (("c1", "c1_s"), ("c2+c3", "c2c3_s"),
                        ("c4", "c4_s"), ("c5", "c5_s")):
        out[f"base.build.{name}"] = statistics.median(
            r.phases[phase].wall_s if phase in r.phases else 0.0
            for r in reports
        )
    out["base.build_ndc"] = float(reports[0].build_ndc)
    return out


def reference(index, queries: np.ndarray, compressed: bool = False):
    """``(ids, ndc)`` of an in-process ``index.search`` per query, ids
    padded with -1 to k columns: what every batched or served answer
    must equal."""
    ids = np.full((len(queries), K), -1, dtype=np.int64)
    ndc = np.zeros(len(queries), dtype=np.int64)
    for i, q in enumerate(queries):
        r = index.search(q, k=K, ef=EF, compressed=compressed)
        ids[i, : len(r.ids)] = r.ids
        ndc[i] = r.ndc
    return ids, ndc


def mismatched_rows(result, ref_ids, ref_ndc) -> np.ndarray:
    """Rows of a batch result that differ from the reference in ids or
    NDC, or carry an error or a degraded flag."""
    bad = (result.ids != ref_ids).any(axis=1) | (result.ndc != ref_ndc)
    bad |= np.asarray([e is not None for e in result.errors], dtype=bool)
    if result.degraded is not None:
        bad |= result.degraded
    return bad


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def overhead_pct(untraced: float, traced: float, higher_is_better: bool) -> float:
    """How much worse the traced figure is, in percent of the untraced."""
    if untraced == 0:
        return 0.0
    worse = untraced - traced if higher_is_better else traced - untraced
    return 100.0 * worse / untraced
