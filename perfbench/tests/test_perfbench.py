"""Self-tests of the benchmark, at a tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import http_serve  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from loadgen import least_stolen  # noqa: E402
from tracing import Span, covered, self_times  # noqa: E402

DETERMINISTIC = ("recall_at_10", "ndc_per_query", "index_mb")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few hundred points and a short run."""
    for module in (workloads, http_serve):
        monkeypatch.setattr(module, "N_BASE", 300)
        monkeypatch.setattr(module, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "BATCH_QUERIES", 20)
    monkeypatch.setattr(workloads, "RW_INSERTS", 8)
    monkeypatch.setattr(workloads, "RW_DELETES", 4)
    monkeypatch.setattr(workloads, "RW_STEPS", 4)
    monkeypatch.setattr(workloads, "RW_READ_ROWS", 5)
    monkeypatch.setattr(workloads, "RW_QUERIES", 20)
    monkeypatch.setattr(http_serve, "POOL_QUERIES", 20)
    monkeypatch.setattr(http_serve, "LADDER", ((40, 0.3), (80, 0.5)))
    monkeypatch.setattr(http_serve, "REFERENCE_RATE", 80)


def run_once(capsys, workload: str, seed: int, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "1", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric(tiny, capsys, workload):
    for trace, units in ((0, run.E2E_UNITS), (1, run.LAYER_UNITS)):
        result = run_once(capsys, workload, 3, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        if not trace:   # end-to-end metrics are never 0
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ("batch-read", "read-write"))
def test_same_seed_repeats_deterministic_metrics(tiny, capsys, workload):
    first = run_once(capsys, workload, 5, 0)["metrics"]
    second = run_once(capsys, workload, 5, 0)["metrics"]
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name


def test_self_time_of_nested_spans():
    spans = [
        Span("batch", 0.0, 10.0),
        Span("seeding", 1.0, 2.0, parent=0),
        Span("native.walk", 3.0, 7.0, parent=0),
        Span("inner", 4.0, 5.0, parent=2),
        Span("delta.search", 6.5, 8.0, parent=0),   # overlaps the walk
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 1.0, 1.5])


def test_covered_clips_and_merges():
    assert covered([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == pytest.approx(3.0)
    assert covered([], 0, 1) == 0.0


def test_least_stolen_keeps_the_least_stolen_quarter_and_ties():
    assert least_stolen([1, 2, 3, 4], [0, 0, 0, 0]) == [1, 2, 3, 4]
    values = list(range(8))
    assert least_stolen(values, [5, 0, 3, 0, 9, 1, 2, 7]) == [1, 3, 5]


def test_tracer_records_parent_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = tracing.Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    layer = Layer()
    assert layer.outer() == 2 and tracer.spans == []   # inactive: no spans
    tracer.active = True
    assert layer.outer() == 2
    outer, inner = tracer.spans
    assert inner.parent == 0 and inner.group == outer.group
    tracer.uninstall()
    assert Layer.__dict__["outer"].__name__ == "outer"
    assert not hasattr(Layer.outer, "__wrapped__")


@pytest.mark.parametrize("switch", run.ENGINE_SWITCHES)
def test_engine_switches_refuse_to_run(monkeypatch, capsys, switch):
    monkeypatch.setenv(switch, "1")
    code = run.main(["--workload", "batch-read", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
