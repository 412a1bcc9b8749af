"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
The quick-run tests start the benchmark as a subprocess and take about
a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


# ----------------------------------------------------------------------
# Quick runs emit every metric BENCHMARK.json names
# ----------------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_set_emits_every_metric(tmp_path, trace):
    out = tmp_path / "set.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    payload = json.loads(out.read_text())
    assert payload["provenance"]["cpu_count"] >= 1
    assert len(payload["calibration_s"]) == 2
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert sorted(payload["workloads"]) == sorted(WORKLOADS)
    for name, record in payload["workloads"].items():
        assert record["correct"] and record["failed_frac"] == 0, name
        assert list(record["metrics"]) == [m["name"] for m in wanted], name
        for spec in wanted:
            assert record["metrics"][spec["name"]]["unit"] == spec["unit"]
        if not trace:
            assert all(m["value"] > 0 for m in record["metrics"].values())
    if trace:
        assert (tmp_path / "set.spans.json").exists()


def test_single_workload_result_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "steady_n100",
         "--quick", "--seed", "2", "--seconds", "0.3", "--trace", "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["attempted"] >= 3 and line["failed"] == 0
    assert sorted(line["metrics"]) == sorted(
        m["name"] for m in BENCH["end_to_end"])


# ----------------------------------------------------------------------
# Self time on a synthetic span tree
# ----------------------------------------------------------------------
def _span(name, layer, start, end, parent, run_id=0):
    return [name, layer, start, end, parent, run_id]


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span("a", "A", 0.0, 10.0, -1),      # 0: root
        _span("b", "B", 1.0, 4.0, 0),        # 1: child of a
        _span("c", "C", 5.0, 9.0, 0),        # 2: child of a
        _span("d", "B", 6.0, 8.0, 2),        # 3: child of c
        _span("e", "A", 10.5, 11.0, -1),     # 4: second root
        _span("f", "C", 20.0, 25.0, -1, 1),  # 5: another run
    ]
    stats = spans.layer_self_times(tree, run=0)
    assert stats["A"] == (2, pytest.approx(3.0 + 0.5))
    assert stats["B"] == (2, pytest.approx(3.0 + 2.0))
    assert stats["C"] == (1, pytest.approx(2.0))
    assert spans.root_seconds(tree, run=0) == pytest.approx(10.5)
    assert spans.layer_self_times(tree, run=1) == {"C": (1, 5.0)}
    everything = spans.layer_self_times(tree)
    assert sum(s for _, s in everything.values()) == pytest.approx(
        spans.root_seconds(tree))


def test_tracer_wraps_and_restores():
    from repro.cluster import simulation
    from repro.experiments import maxload
    from repro.experiments.setups import paper_single_class_config

    originals = (simulation.simulate, maxload.simulate)
    tracer = spans.Tracer()
    config = paper_single_class_config(
        "masstree", 1.0, n_queries=300, seed=4).at_load(0.5)
    with tracer:
        assert simulation.simulate is maxload.simulate
        assert simulation.simulate is not originals[0]
        traced = simulation.simulate(config)
    assert (simulation.simulate, maxload.simulate) == originals
    assert traced.latency.tobytes() == simulation.simulate(
        config).latency.tobytes()
    layers = [span[spans.LAYER] for span in tracer.spans]
    assert layers[0] == "cluster.simulation"
    assert {"workloads.generator", "core.deadline",
            "cluster.config"} <= set(layers)
    assert all(span[spans.PARENT] == 0 for span in tracer.spans[1:])


# ----------------------------------------------------------------------
# Compare verdicts
# ----------------------------------------------------------------------
def _m(value, q1=None, q3=None):
    return run.metric(value, q1, q3)


@pytest.mark.parametrize("base, new, better, expected", [
    (_m(1.0, 0.99, 1.01), _m(1.05), "lower", "same"),
    (_m(1.0, 0.99, 1.01), _m(1.2), "lower", "worse"),
    (_m(1.0, 0.99, 1.01), _m(0.8), "lower", "better"),
    (_m(1.0, 0.99, 1.01), _m(0.8), "higher", "worse"),
    (_m(1.0, 0.99, 1.01), _m(1.2), "higher", "better"),
    (_m(1.0, 0.80, 1.20), _m(2.0), "lower", "unresolved"),
])
def test_verdicts(base, new, better, expected):
    assert run.verdict(base, new, 0.1, better) == expected


def _set(path, seed, wall, p99, digest="d", failed_frac=0.0, self_s=0.5):
    record = {
        "seed": seed, "quick": False, "digest": digest,
        "failed_frac": failed_frac, "sim": {"sim_p99_ms": p99},
        "metrics": {
            "wall_s": {**_m(wall, wall * 0.99, wall * 1.01), "unit": "s"},
            "cluster.simulation.self_s": {**_m(self_s), "unit": "s"},
        },
    }
    path.write_text(json.dumps({"workloads": {"steady_n100": record}}))
    return path


@pytest.mark.parametrize("changes, code, word", [
    ({}, 0, "same"),
    ({"wall": 1.5}, 1, "worse"),
    ({"wall": 0.5}, 0, "better"),
    ({"p99": 2.1}, 1, "changed: sim_p99_ms"),
    ({"p99": 2.1, "seed": 2}, 0, "same"),
    ({"digest": "e"}, 1, "changed: digest"),
    ({"failed_frac": 0.1}, 1, "failed_frac"),
])
def test_compare_exit_codes(tmp_path, capsys, changes, code, word):
    a = _set(tmp_path / "a.json", 1, 1.0, 2.0)
    b = _set(tmp_path / "b.json", changes.get("seed", 1),
             changes.get("wall", 1.0), changes.get("p99", 2.0),
             changes.get("digest", "d"), changes.get("failed_frac", 0.0),
             self_s=0.25)
    assert run.compare(a, b) == code
    out = capsys.readouterr().out
    assert word in out
    assert "cluster.simulation.self_s" in out and "-0.25" in out
