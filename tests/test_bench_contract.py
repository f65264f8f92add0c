"""What the benchmark harness under ``lfbench/`` reads of the program.

The harness traces the functions its span table names and digests fields of
each ``run_pipeline`` result and the ``eval.json`` of each gt eval. A rename
on either side fails here in seconds, where the benchmark would instead zero
a per-layer metric or fail its run.
The harness modules are loaded by path; no file under ``lfbench/`` changes.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lanefuse.cli import main
from lanefuse.config import RunConfig
from lanefuse.fusion import build_params
from lanefuse.pipeline import run_pipeline
from lanefuse.scene_synth import generate_scene

LFBENCH = Path(__file__).resolve().parent.parent / "lfbench"

# Span table entries with no function of that name in their module today:
# their per-layer metrics read 0 until the harness is brought up to the code.
STALE_SPANS = {"pillar.voxelize", "sim_eval.route_completion",
               "geometry.project_point_to_polyline", "pipeline.make_gt_planner"}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"lfbench_{name}", LFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    spans = _load("spans")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "spans", spans)  # run.py imports it by its bare name
        run = _load("run")
    return spans, run


def test_span_table_resolves_but_for_the_known_stale_entries(harness):
    spans, _ = harness
    names = [(mod, fn) for mod, fn, _ in spans.SPAN_TABLE if fn != "planner"]
    names.append(("pipeline", spans.PLANNER_FACTORY))
    missing = {f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"lanefuse.{mod}"), fn, None))}
    assert missing <= STALE_SPANS, missing - STALE_SPANS


def test_forward_gate_passes_a_run_pipeline_result(harness):
    """The gate's checks run on a seed-42 result, and its digest is the
    pinned one the benchmark compares against."""
    _, run = harness
    cfg = RunConfig(seed_scene=42, suite=run.SUITE)
    scene = generate_scene(cfg.suite_specs()[0], n_p=cfg.n_p)
    result = run_pipeline(scene, cfg, build_params(cfg.block_config()))
    assert run.forward_problems(result, cfg.n_d, cfg.n_p) == []
    assert run.forward_digest(result) == run.load_pinned("forward_reference", 42)["scene_00"]


def test_closed_loop_gate_passes_a_gt_eval(harness, tmp_path):
    """The closed_loop_gt gate's checks pass on a seed-42 gt eval of the
    reference suite, and its digest is the pinned one: scene occupancy and
    collisions feed it."""
    _, run = harness
    assert main(["eval", "--planner", "gt", "--suite", run.SUITE, "--seed-scene", "42",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "eval.json").read_bytes()
    assert run.eval_problems(data, 10) == []
    assert run.eval_digest(data) == run.load_pinned("closed_loop_gt", 42)["suite"]


@pytest.mark.parametrize("workload", ["forward_reference", "forward_dense", "closed_loop_gt"])
def test_harness_set_up_runs(harness, workload):
    """lfbench's own set-up builds its config, store and scenes from the
    program's public calls."""
    _, run = harness
    path = list(sys.path)
    try:
        ctx = run.setup(run.WORKLOADS[workload], 42)
    finally:
        sys.path[:] = path
    assert ctx.store.cfg == ctx.cfg.block_config()
    assert len(ctx.scenes) == len(ctx.cfg.suite_specs())
