"""Golden digests of closed-loop evaluation outputs.

Refactors of the simulator, the planners or the geometry must leave every
score, infraction time and feature count unchanged to the bit; these
SHA-256 digests of ``eval.json`` (default config, seed 42, and the gt
planner at the held-out seed 7331) pin that. Wall-
clock fields are the only thing allowed to move, so the pipeline digest is
taken with each scene's ``latency_ms`` removed and the JSON written back the
way the CLI writes it.
"""

import hashlib
import json

from lanefuse.cli import main

GT_REFERENCE_SHA256 = "c49f22a1e92aaeb7f786a174562ae03f74b00931c964de9a9a45217ab78a63d1"
GT_REFERENCE_SEED_7331_SHA256 = (
    "d450aafa64ab55de1a8426211006d777d9deaa4a5c3cc55f0c29328e6d4d80bc")
PIPELINE_TRIVIAL_NO_LATENCY_SHA256 = (
    "ba17e2425e251633ab3d851aabef8017d14626aa238a5a118c8ce9356a978c54")


def eval_json(tmp_path, planner: str, suite: str, seed: int = 42) -> bytes:
    out = tmp_path / f"{planner}_{suite}_{seed}"
    assert main(["eval", "--planner", planner, "--suite", suite,
                 "--seed-scene", str(seed), "--out", str(out)]) == 0
    return (out / "eval.json").read_bytes()


def test_gt_planner_reference_suite_eval_json(tmp_path):
    data = eval_json(tmp_path, "gt", "reference")
    assert hashlib.sha256(data).hexdigest() == GT_REFERENCE_SHA256


def test_gt_planner_reference_suite_eval_json_held_out_seed(tmp_path):
    data = eval_json(tmp_path, "gt", "reference", seed=7331)
    assert hashlib.sha256(data).hexdigest() == GT_REFERENCE_SEED_7331_SHA256


def test_pipeline_planner_trivial_suite_eval_json_without_latency(tmp_path):
    obj = json.loads(eval_json(tmp_path, "pipeline", "trivial"))
    for scene in obj["scenes"]:
        assert set(scene.pop("latency_ms")) >= {"render_lidar", "interpret"}
    stripped = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(stripped).hexdigest() == PIPELINE_TRIVIAL_NO_LATENCY_SHA256
