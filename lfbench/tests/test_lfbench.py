"""Tests of the benchmark harness itself: span self time, the tail rule, the
output gate, and a smoke run of every workload.

    python3 -m pytest -q lfbench/tests
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import run
import spans


def test_self_time_of_nested_spans():
    # op [0, 100] holds a [10, 40] (which holds b [15, 25] and c [20, 35],
    # overlapping) and d [50, 60]; e belongs to nothing.
    sp = [
        ("op", 0, 100, -1, 0, None),
        ("a", 10, 40, 0, 0, None),
        ("b", 15, 25, 1, 0, None),
        ("c", 20, 35, 1, 0, None),
        ("d", 50, 60, 0, 0, None),
        ("e", 200, 230, -1, 1, None),
    ]
    assert spans.self_times_ns(sp) == [100 - 30 - 10, 30 - 20, 10, 15, 10, 30]


def test_self_time_clips_children_to_the_parent():
    sp = [("p", 0, 10, -1, 0, None), ("c", 5, 20, 0, 0, None)]
    assert spans.self_times_ns(sp)[0] == 5


def test_layer_metrics_counts_per_suite_pass():
    sp = [
        ("op", 0, 100, -1, 0, None),
        ("pipeline.run_pipeline", 10, 90, 0, 0, None),
        ("op", 100, 200, -1, 1, None),
        ("pipeline.run_pipeline", 110, 190, 2, 1, None),
    ]
    m = spans.layer_metrics(sp, [[0, 1]], [])
    assert m["pipeline.run_pipeline.calls"] == (2.0, "count")
    assert m["op.uncovered_share"][0] == pytest.approx(40 / 200)
    m = spans.layer_metrics(sp, [[0], [1]], [])
    assert m["pipeline.run_pipeline.calls"] == (1.0, "count")


def test_tail_needs_ten_samples_beyond():
    samples = list(range(199))
    with pytest.raises(ValueError):
        run.tail_percentile(samples, 95.0)
    assert not run.can_report_tail(199, 95.0)
    assert run.tail_percentile(list(range(200)), 95.0) == pytest.approx(189.05)
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(99)), 90.0)


@pytest.fixture(scope="module")
def forward_result():
    from lanefuse.config import RunConfig
    from lanefuse.fusion import build_params
    from lanefuse.pipeline import run_pipeline
    from lanefuse.scene_synth import generate_scene

    cfg = RunConfig()
    scene = generate_scene(cfg.suite_specs()[0], n_p=cfg.n_p)
    return cfg, run_pipeline(scene, cfg, build_params(cfg.block_config()))


def test_gate_flags_a_perturbed_forward_output(forward_result):
    cfg, result = forward_result
    digest = run.forward_digest(result)
    gate = run.Gate(pinned={"scene_00": digest})
    assert gate.check("scene_00", digest, run.forward_problems(result, cfg.n_d, cfg.n_p))

    points = result.predictions.points.copy()
    points[0, 0, 0] = np.nextafter(points[0, 0, 0], np.inf)
    bumped = dataclasses.replace(
        result, predictions=dataclasses.replace(result.predictions, points=points))
    assert run.forward_digest(bumped) != digest
    assert not gate.check("scene_00", run.forward_digest(bumped), [])
    assert len(gate.failures) == 2  # pinned and first-of-run both differ

    points[0, 0, 0] = np.nan
    assert run.forward_problems(bumped, cfg.n_d, cfg.n_p) == ["non-finite prediction"]
    assert run.forward_problems(result, cfg.n_d, cfg.n_p + 2)


def test_gate_flags_a_broken_eval_invariant():
    good = {"scenes": [{"scene_id": "scene_00", "ds": 100.0 * 0.5 * 0.6,
                        "rc": 0.5, "is": 0.6}]}
    assert run.eval_problems(json.dumps(good).encode(), 1) == []
    bad = json.loads(json.dumps(good))
    bad["scenes"][0]["ds"] += 1e-9
    assert run.eval_problems(json.dumps(bad).encode(), 1)
    assert run.eval_problems(json.dumps(good).encode(), 2)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_per_key_median_averages_each_inputs_median():
    # op i ran input i % 3; input medians are 5.5, 11 and 16.5
    assert run.per_key_median([1, 2, 3, 10, 20, 30], 3) == pytest.approx(11.0)
    assert run.per_key_median([5, 7, 9], 1) == 7.0
