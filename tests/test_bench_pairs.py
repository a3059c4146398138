"""``jobs/bench_pairs.py`` runs the workloads ``BENCHMARK.json`` lists
and states whether each end-to-end metric of the change is within its
``BENCHMARK.json`` bound of the base."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "jobs" / "bench_pairs.py"

DECLARED = {
    "throughput_per_s": {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
    "latency_ms_p90": {"name": "latency_ms_p90", "better": "lower", "bound": 0.25},
    "engine.data_plane_ms": {"name": "engine.data_plane_ms", "better": "lower"},
}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(side_values):
    """Synthetic runs: ``side_values[side]`` is one metrics dict per run."""
    return {
        side: [
            {"metrics": {n: {"value": v} for n, v in values.items()}, "failed": 0, "attempted": 3}
            for values in per_run
        ]
        for side, per_run in side_values.items()
    }


def test_summary_states_each_bound(bench_pairs):
    base = [
        {"throughput_per_s": t, "latency_ms_p90": 10.0, "engine.data_plane_ms": 5.0}
        for t in (990.0, 1000.0, 1010.0)
    ]
    # throughput -30 %: outside its 0.25 bound; p90 +10 %: inside it
    change = [
        {"throughput_per_s": t, "latency_ms_p90": 11.0, "engine.data_plane_ms": 9.0}
        for t in (690.0, 700.0, 710.0)
    ]
    summary = bench_pairs._summary(_runs({"base": base, "change": change}), DECLARED)
    m = summary["metrics"]
    assert m["throughput_per_s"]["ratio"] == pytest.approx(0.7)
    assert m["throughput_per_s"]["within_bound"] is False
    assert m["latency_ms_p90"]["ratio"] == pytest.approx(1.1)
    assert m["latency_ms_p90"]["within_bound"] is True
    # a metric declared without a bound gets no verdict
    assert "within_bound" not in m["engine.data_plane_ms"]
    assert bench_pairs._outside_bound("engine-sse", summary) == ["engine-sse/throughput_per_s"]


@pytest.mark.parametrize(
    "better, base, change, within",
    [
        ("higher", 100.0, 75.0, True),
        ("higher", 100.0, 74.0, False),
        ("higher", 100.0, 300.0, True),
        ("lower", 100.0, 125.0, True),
        ("lower", 100.0, 126.0, False),
        ("lower", 100.0, 10.0, True),
    ],
)
def test_within_bound_follows_direction(bench_pairs, better, base, change, within):
    assert bench_pairs._within_bound(base, change, better, 0.25) is within


def test_runs_the_workloads_benchmark_json_lists(bench_pairs, tmp_path, monkeypatch):
    spec = {
        "run_seconds": 1,
        "workloads": [{"name": "b-workload"}, {"name": "a-workload"}],
        "end_to_end": [DECLARED["throughput_per_s"]],
        "per_layer": [DECLARED["engine.data_plane_ms"]],
    }
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    ran = []

    def fake_pairs(base, change, workload, n, seconds, trace):
        ran.append((workload, trace))
        one = [{"throughput_per_s": 1.0, "engine.data_plane_ms": 1.0}] * n
        return _runs({"base": one, "change": one})

    monkeypatch.setattr(bench_pairs, "_pairs", fake_pairs)
    monkeypatch.setattr(bench_pairs, "_git_head", lambda checkout: None)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "base"), str(tmp_path / "change"), "--out", str(out)]) == 0
    assert ran == [("b-workload", 0), ("b-workload", 1), ("a-workload", 0), ("a-workload", 1)]
    assert list(json.loads(out.read_text())["workloads"]) == ["b-workload", "a-workload"]
