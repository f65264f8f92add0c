"""Golden digests of closed-loop evaluation outputs.

Refactors of the simulator, the planners or the geometry must leave every
score, infraction time and feature count unchanged to the bit; these
SHA-256 digests of ``eval.json`` (default config, seed 42) pin that. Wall-
clock fields are the only thing allowed to move, so the pipeline digest is
taken with each scene's ``latency_ms`` removed and the JSON written back the
way the CLI writes it.
"""

import hashlib
import json

from lanefuse.cli import main

GT_REFERENCE_SHA256 = "c49f22a1e92aaeb7f786a174562ae03f74b00931c964de9a9a45217ab78a63d1"
PIPELINE_TRIVIAL_NO_LATENCY_SHA256 = (
    "ba17e2425e251633ab3d851aabef8017d14626aa238a5a118c8ce9356a978c54")


def eval_json(tmp_path, planner: str, suite: str) -> bytes:
    out = tmp_path / f"{planner}_{suite}"
    assert main(["eval", "--planner", planner, "--suite", suite,
                 "--seed-scene", "42", "--out", str(out)]) == 0
    return (out / "eval.json").read_bytes()


def test_gt_planner_reference_suite_eval_json(tmp_path):
    data = eval_json(tmp_path, "gt", "reference")
    assert hashlib.sha256(data).hexdigest() == GT_REFERENCE_SHA256


def test_pipeline_planner_trivial_suite_eval_json_without_latency(tmp_path):
    obj = json.loads(eval_json(tmp_path, "pipeline", "trivial"))
    for scene in obj["scenes"]:
        assert set(scene.pop("latency_ms")) >= {"render_lidar", "interpret"}
    stripped = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert hashlib.sha256(stripped).hexdigest() == PIPELINE_TRIVIAL_NO_LATENCY_SHA256
