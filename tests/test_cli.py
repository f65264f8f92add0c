import csv
import dataclasses
import json
import logging
import math
import os
import resource
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from lanefuse import heads_losses
from lanefuse.cli import main
from lanefuse.config import RunConfig
from lanefuse.double_edge import PlannedPath, interpret_path
from lanefuse.fusion import build_params, save_params
from lanefuse.heads_losses import LOSS_NAMES
from lanefuse.io_utils import dumps
from lanefuse.pipeline import run_pipeline
from lanefuse.sim_eval import DEFAULT_PENALTIES, run_closed_loop
from lanefuse.scene_synth import generate_scene, load_point_cloud, scene_from_json, scene_to_json


@pytest.fixture()
def fast_config(tmp_path):
    cfg = RunConfig(bench_repeats=2, lidar_density=2.0)
    path = tmp_path / "config.json"
    path.write_bytes(dumps(cfg))
    return str(path)


def read_dir_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestGenScenes:
    def test_writes_ten_scene_files_and_manifest(self, tmp_path, fast_config):
        out = tmp_path / "a"
        assert main(["gen-scenes", "--config", fast_config, "--out", str(out)]) == 0
        scene_files = sorted(out.glob("scene_*.json"))
        assert len(scene_files) == 10
        assert (out / "manifest.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed_scene"] == 42
        assert len(manifest["scenes"]) == 10
        for p in scene_files:
            scene_from_json(p.read_bytes())  # parses and validates

    def test_rerun_bit_identical(self, tmp_path, fast_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["gen-scenes", "--config", fast_config, "--out", str(out_a)])
        main(["gen-scenes", "--config", fast_config, "--out", str(out_b)])
        assert read_dir_bytes(out_a) == read_dir_bytes(out_b)

    def test_invalid_config_field_named(self, tmp_path, caplog):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_p": 7}))
        code = main(["gen-scenes", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert code == 2
        assert any("n_p" in r.message for r in caplog.records)


class TestRun:
    def test_injected_run_has_zero_total_loss(self, tmp_path, fast_config):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        code = main(["run", "--config", fast_config, "--suite", "trivial",
                     "--scene", str(out / "scene_00.json"), "--out", str(out),
                     "--inject-gt"])
        assert code == 0
        dump = json.loads((out / "run_scene_00.json").read_text())
        assert dump["losses"]["total"] == 0.0
        assert all(dump["losses"][k] == 0.0 for k in LOSS_NAMES)

    def test_seeded_run_twice_identical(self, tmp_path, fast_config):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        args = ["run", "--config", fast_config, "--scene",
                str(out / "scene_01.json"), "--out", str(out)]
        main(args)
        first = (out / "run_scene_01.json").read_bytes()
        main(args)
        assert (out / "run_scene_01.json").read_bytes() == first

    def test_losses_satisfy_linear_combination(self, tmp_path, fast_config):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
              "--out", str(out)])
        dump = json.loads((out / "run_scene_00.json").read_text())
        c = dump["losses"]
        expected = (3.0 * c["roi"] + 2.0 * c["int"] + 1.0 * c["dir"] + 3.0 * c["occ"]
                    + 4.0 * c["plan"] + 5.0 * c["edg"] + 1.0 * c["spd"] + 0.1 * c["sig"])
        assert c["total"] == expected

    def test_dump_cloud_writes_readable_file(self, tmp_path, fast_config):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
              "--out", str(out), "--inject-gt", "--dump-cloud"])
        cloud = load_point_cloud(out / "scene_00.lfpc")
        assert len(cloud) > 0

    def test_dump_cloud_into_fresh_nested_directory(self, tmp_path, fast_config):
        scenes = tmp_path / "scenes"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(scenes)])
        out = tmp_path / "fresh" / "nested"
        code = main(["run", "--config", fast_config, "--scene", str(scenes / "scene_00.json"),
                     "--out", str(out), "--dump-cloud"])
        assert code == 0
        cloud = load_point_cloud(out / "scene_00.lfpc")
        assert len(cloud) > 0

    def test_weight_file_changes_predictions(self, tmp_path, fast_config):
        from lanefuse.fusion import build_params, save_params
        import numpy as np

        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        scene_arg = str(out / "scene_00.json")
        main(["run", "--config", fast_config, "--scene", scene_arg, "--out", str(out)])
        base = json.loads((out / "run_scene_00.json").read_text())

        cfg = RunConfig.from_file(fast_config)
        store = build_params(cfg.block_config())
        tweaked = store.replaced({"head_spd.b": np.array([42.0])})
        weights = tmp_path / "w.lfpw"
        save_params(tweaked, weights)
        main(["run", "--config", fast_config, "--scene", scene_arg, "--out", str(out),
              "--params", str(weights)])
        loaded = json.loads((out / "run_scene_00.json").read_text())
        assert loaded["predictions"]["speed"] != base["predictions"]["speed"]
        assert loaded["predictions"]["points"] == base["predictions"]["points"]

    def test_truncated_weight_file_exits_2_with_one_line(self, tmp_path, fast_config,
                                                         caplog):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        weights = tmp_path / "w.lfpw"
        weights.write_bytes(b"LFPW\x01")
        caplog.clear()
        code = main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
                     "--out", str(out), "--params", str(weights)])
        assert code == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "truncated block header" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()

    def test_unknown_weight_block_exits_2_with_plain_message(self, tmp_path, fast_config,
                                                             caplog):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        name = b"no_such_block"
        weights = tmp_path / "w.lfpw"
        weights.write_bytes(b"LFPW" + struct.pack("<H", len(name)) + name
                            + struct.pack("<Q", 1) + struct.pack("<d", 1.0))
        caplog.clear()
        code = main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
                     "--out", str(out), "--params", str(weights)])
        assert code == 2
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert error.exc_info is None
        assert error.getMessage() == "unknown parameter block 'no_such_block'"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself warns
    def test_overflowing_weights_exit_2_naming_attention_check(self, tmp_path, fast_config,
                                                               caplog):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        store = build_params(RunConfig.from_file(fast_config).block_config())
        gain = store["img_enc0.ln1.g"]
        weights = tmp_path / "w.lfpw"
        save_params(store.replaced({"img_enc0.ln1.g": np.full(gain.shape, 1e300)}), weights)
        caplog.clear()
        code = main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
                     "--out", str(out), "--params", str(weights)])
        assert code == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "attention row sums" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()

    @pytest.mark.parametrize("field, corrupt", [
        ("route.lane", lambda obj: obj["route"].update(lane=[0])),
        ("spec", lambda obj: obj["spec"].update(wheels=4)),
        ("agents", lambda obj: obj.update(agents=5)),
        ("ground_truth", lambda obj: obj["ground_truth"].update(lanes=5)),
        pytest.param("spec", lambda obj: obj.pop("spec"), id="spec-missing"),
        pytest.param("route.lane", lambda obj: obj["route"].pop("lane"),
                     id="route.lane-missing"),
        pytest.param("lane_widths[0]: must be > 0, got -3.5",
                     lambda obj: obj.update(lane_widths=[-3.5] * len(obj["lane_widths"])),
                     id="lane_widths-negative"),
        pytest.param("lane_widths[0]: must be > 0, got 0.0",
                     lambda obj: obj.update(lane_widths=[0.0] * len(obj["lane_widths"])),
                     id="lane_widths-zero"),
    ])
    def test_mistyped_scene_field_exits_2_with_one_line(self, tmp_path, fast_config,
                                                        caplog, field, corrupt):
        out = tmp_path / "o"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        obj = json.loads((out / "scene_00.json").read_text())
        corrupt(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        caplog.clear()
        code = main(["run", "--config", fast_config, "--scene", str(bad),
                     "--out", str(out)])
        assert code == 2
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert f"scene field {field}" in errors[0].getMessage()
        assert "\n" not in errors[0].getMessage()


class TestBench:
    def test_csv_schemas_and_forced_columns(self, tmp_path, fast_config):
        out = tmp_path / "b"
        code = main(["bench", "--config", fast_config, "--suite", "trivial",
                     "--out", str(out)])
        assert code == 0
        with open(out / "feature_counts.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["scene_id", "voxel_count", "pillar_count",
                          "lane_level_count", "ratio_voxel", "ratio_pillar"]
        assert len(rows) == 3
        for row in rows:
            assert int(row[3]) == 120  # n_d * n_p, forced
            assert int(row[1]) >= int(row[2])
        with open(out / "latency.csv", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            lrows = list(reader)
        assert header == ["stage", "median_ms", "p95_ms", "variant"]
        stages = {(r[0], r[3]) for r in lrows}
        assert ("encode", "lane_level") in stages
        assert ("encode", "dense_pillar") in stages
        for r in lrows:
            assert 0.0 < float(r[1]) <= float(r[2]), r
        summary = json.loads((out / "bench_summary.json").read_text())
        assert summary["lane_level_features"] == 120.0
        med = {(r[0], r[3]): float(r[1]) for r in lrows}
        assert summary["pillarize_speedup"] == (med[("pillarize", "dense_pillar")]
                                                / med[("pillarize", "lane_level")])


def test_stage_names_match_across_run_bench_and_eval(tmp_path, fast_config):
    cfg = RunConfig.from_file(fast_config).with_overrides(suite="trivial")
    scene = generate_scene(cfg.suite_specs()[0], n_p=cfg.n_p)
    stages = list(run_pipeline(scene, cfg, build_params(cfg.block_config())).stage_ms)
    assert stages == ["view_synth", "positional_encode", "coarse_prior",
                      "image_transformer", "render_lidar", "pillarize", "lane_sample",
                      "encode", "fusion", "heads", "decode", "interpret"]
    out = tmp_path / "o"
    for cmd in (["bench"], ["eval", "--planner", "pipeline"]):
        assert main([*cmd, "--config", fast_config, "--suite", "trivial",
                     "--out", str(out)]) == 0
    with open(out / "latency.csv", newline="") as fh:
        bench = [r["stage"] for r in csv.DictReader(fh) if r["variant"] == "lane_level"]
    assert bench == stages
    for s in json.loads((out / "eval.json").read_text())["scenes"]:
        assert list(s["latency_ms"]) == sorted(stages)  # eval.json sorts its keys


@pytest.mark.parametrize("argv", [["eval", "--planner", "pipeline"], ["eval", "--planner", "gt"],
                                  ["run", "--dump-cloud"],
                                  ["run", "--dump-cloud", "--inject-gt"]])
def test_each_scene_rendered_once(tmp_path, fast_config, monkeypatch, argv):
    """eval counts features from, and run --dump-cloud saves, the cloud the
    forward pass rendered; both equal a fresh render's."""
    from lanefuse import cli, pipeline
    from lanefuse.pipeline import scene_feature_counts
    from lanefuse.scene_synth import render_lidar, save_point_cloud

    cfg = RunConfig.from_file(fast_config).with_overrides(suite="trivial")
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
    out = tmp_path / "o"
    main(["gen-scenes", "--config", fast_config, "--suite", "trivial", "--out", str(out)])
    rendered = []

    def counting(scene, *args):
        rendered.append(scene.spec.seed)
        return render_lidar(scene, *args)

    monkeypatch.setattr(pipeline, "render_lidar", counting)
    monkeypatch.setattr(cli, "render_lidar", counting)
    if argv[0] == "run":
        argv = [*argv, "--scene", str(out / "scene_00.json")]
        scenes = scenes[:1]
    assert main([*argv, "--config", fast_config, "--suite", "trivial", "--out", str(out)]) == 0
    assert rendered == [scene.spec.seed for scene in scenes]

    monkeypatch.undo()
    if argv[0] == "eval":
        got = [s["feature_counts"] for s in json.loads((out / "eval.json").read_text())["scenes"]]
        assert got == [scene_feature_counts(scene, cfg) for scene in scenes]
    else:
        save_point_cloud(tmp_path / "fresh.lfpc", render_lidar(
            scenes[0], cfg.lidar_density, cfg.lidar_noise_sigma, scenes[0].spec.seed))
        assert (out / "scene_00.lfpc").read_bytes() == (tmp_path / "fresh.lfpc").read_bytes()


class TestEval:
    def test_trivial_suite_with_gt_planner_scores_high(self, tmp_path, fast_config):
        out = tmp_path / "e"
        code = main(["eval", "--config", fast_config, "--suite", "trivial",
                     "--out", str(out), "--planner", "gt"])
        assert code == 0
        report = json.loads((out / "eval.json").read_text())
        assert report["aggregate"]["ds"] >= 99.0
        assert report["aggregate"]["rc"] >= 0.99
        assert report["aggregate"]["is"] == 1.0

    def test_aggregate_is_mean_of_scenes(self, tmp_path, fast_config):
        out = tmp_path / "e"
        main(["eval", "--config", fast_config, "--suite", "trivial",
              "--out", str(out), "--planner", "gt"])
        report = json.loads((out / "eval.json").read_text())
        for key in ("ds", "rc", "is"):
            assert report["aggregate"][key] == pytest.approx(
                float(np.mean([s[key] for s in report["scenes"]])), abs=1e-12)

    def test_rerun_identical_ignoring_timings(self, tmp_path, fast_config):
        outs = []
        for label in ("e1", "e2"):
            out = tmp_path / label
            main(["eval", "--config", fast_config, "--suite", "trivial",
                  "--out", str(out), "--planner", "pipeline"])
            obj = json.loads((out / "eval.json").read_text())
            for s in obj["scenes"]:
                s.pop("latency_ms")
            outs.append(obj)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("planner, builds", [("gt", 0), ("pipeline", 1)])
    def test_builds_params_only_for_pipeline_planner(self, tmp_path, fast_config,
                                                     monkeypatch, planner, builds):
        import lanefuse.cli as cli_mod

        calls = []

        def counting(block):
            calls.append(block)
            return build_params(block)

        monkeypatch.setattr(cli_mod, "build_params", counting)
        assert main(["eval", "--config", fast_config, "--suite", "trivial",
                     "--out", str(tmp_path / "e"), "--planner", planner]) == 0
        assert len(calls) == builds

    @pytest.mark.parametrize("planner, passes", [("gt", 0), ("pipeline", 3)])
    def test_one_plan_one_episode_per_scene(self, tmp_path, fast_config, monkeypatch,
                                            planner, passes):
        import lanefuse.cli as cli_mod

        episodes, runs = [], []

        def counting_episode(scene, path, *args, **kwargs):
            episodes.append(path)
            return run_closed_loop(scene, path, *args, **kwargs)

        def counting_pipeline(*args):
            runs.append(args)
            return run_pipeline(*args)

        monkeypatch.setattr(cli_mod, "run_closed_loop", counting_episode)
        monkeypatch.setattr(cli_mod, "run_pipeline", counting_pipeline)
        assert main(["eval", "--config", fast_config, "--suite", "trivial",
                     "--out", str(tmp_path / "e"), "--planner", planner]) == 0
        assert len(episodes) == 3
        assert all(isinstance(path, PlannedPath) for path in episodes)
        assert len(runs) == passes

    def test_failed_plan_drives_a_failure_episode(self, tmp_path, fast_config, monkeypatch):
        import lanefuse.cli as cli_mod

        dropped = RunConfig.from_file(fast_config).with_overrides(suite="trivial").suite_specs()[1]

        def flaky(scene, *args):
            if scene.spec.seed == dropped.seed:
                raise RuntimeError("sensor dropout")
            return run_pipeline(scene, *args)

        monkeypatch.setattr(cli_mod, "run_pipeline", flaky)
        out = tmp_path / "e"
        assert main(["eval", "--config", fast_config, "--suite", "trivial",
                     "--out", str(out), "--planner", "pipeline"]) == 0
        rows = json.loads((out / "eval.json").read_text())["scenes"]
        assert [row["terminated"] == "failure" for row in rows] == [False, True, False]
        assert rows[1]["latency_ms"] == {} and "error" not in rows[1]
        assert rows[1]["is"] == 1.0 and rows[1]["feature_counts"]  # counted from a fresh render
        assert rows[0]["latency_ms"] and rows[2]["latency_ms"]

    def test_scene_failure_recorded_aggregate_still_produced(self, tmp_path,
                                                             fast_config, monkeypatch):
        import lanefuse.cli as cli_mod

        real = cli_mod._eval_one

        def flaky(scene, scene_id, cfg, use_gt, store):
            if scene_id == "scene_01":
                raise RuntimeError("synthetic breakage")
            return real(scene, scene_id, cfg, use_gt, store)

        monkeypatch.setattr(cli_mod, "_eval_one", flaky)
        out = tmp_path / "e"
        code = main(["eval", "--config", fast_config, "--suite", "trivial",
                     "--out", str(out), "--planner", "gt"])
        assert code == 0
        report = json.loads((out / "eval.json").read_text())
        broken = [s for s in report["scenes"] if s["scene_id"] == "scene_01"]
        assert broken and broken[0]["terminated"] == "failure"
        assert "synthetic breakage" in broken[0]["error"]
        assert len(report["scenes"]) == 3


class TestGradcheckCommand:
    def test_default_passes_with_eight_rows(self, tmp_path, fast_config):
        out = tmp_path / "g"
        code = main(["gradcheck", "--config", fast_config, "--out", str(out),
                     "--points", "20"])
        assert code == 0
        with open(out / "gradcheck.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["loss_name"] for r in rows] == list(LOSS_NAMES)
        assert all(float(r["max_rel_err"]) < 1e-4 for r in rows)

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_exits_2(self, tmp_path, fast_config, caplog, points):
        """A check over no points would pass vacuously."""
        out = tmp_path / "g"
        caplog.clear()
        code = main(["gradcheck", "--config", fast_config, "--out", str(out),
                     "--points", points])
        assert code == 2
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert errors == [f"gradcheck points must be >= 1, got {points}"]
        assert not (out / "gradcheck.csv").exists()

    def test_corrupted_gradient_fails(self, tmp_path, fast_config, monkeypatch):
        core = heads_losses._plan_core

        def skewed(*args):
            value, grad = core(*args)
            return value, grad * 1.5 + 1e-3
        monkeypatch.setattr(heads_losses, "_plan_core", skewed)
        out = tmp_path / "g"
        code = main(["gradcheck", "--config", fast_config, "--out", str(out),
                     "--points", "5"])
        assert code == 1


class TestExportPlot:
    def test_svgs_well_formed_and_path_matches_interpreter(self, tmp_path, fast_config):
        out = tmp_path / "r"
        main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
              "--out", str(out)])
        main(["bench", "--config", fast_config, "--suite", "trivial", "--out", str(out)])
        main(["run", "--config", fast_config, "--scene", str(out / "scene_00.json"),
              "--out", str(out), "--inject-gt"])
        code = main(["export-plot", "--results", str(out)])
        assert code == 0
        plots = out / "plots"
        for svg in plots.glob("*.svg"):
            ET.fromstring(svg.read_text())  # well-formed XML

        counts_svg = ET.fromstring((plots / "feature_counts.svg").read_text())
        ns = {"svg": "http://www.w3.org/2000/svg"}
        bars = counts_svg.findall(".//svg:rect[@class='bar']", ns)
        scenes = {b.get("data-group") for b in bars}
        assert len(bars) == 3 * len(scenes)  # voxel/pillar/lane_level per scene

        scene = scene_from_json((out / "scene_00.json").read_bytes())
        expected = interpret_path(scene.ground_truth, scene.gt_speed)
        scene_doc = ET.fromstring((plots / "scene_00.svg").read_text())
        poly = scene_doc.find(".//svg:polyline[@id='plan-path']", ns)
        pts = [tuple(float(v) for v in pair.split(","))
               for pair in poly.get("points").split()]
        assert pts == [(w[0], w[1]) for w in expected.waypoints]

    def test_missing_inputs_diagnosed(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["export-plot", "--results", str(empty)]) == 2

    @pytest.mark.parametrize("signal_line_s", [25.0, 1.5e11])
    def test_signal_drawn_at_its_arc_length(self, tmp_path, signal_line_s):
        """The signal circle sits on the route at arc length signal_line_s,
        clamped to the route's end; a huge value allocates nothing."""
        spec = RunConfig(seed_scene=42).suite_specs()[1]
        scene = dataclasses.replace(generate_scene(spec, n_p=20), signal_line_s=signal_line_s)
        assert scene.signal_state != "none"
        out = tmp_path / "r"
        out.mkdir()
        (out / "scene_01.json").write_bytes(scene_to_json(scene))
        assert main(["export-plot", "--results", str(out)]) == 0
        doc = ET.fromstring((out / "plots" / "scene_01.svg").read_text())
        circle = doc.find(".//svg:circle[@class='signal']", {"svg": "http://www.w3.org/2000/svg"})
        route = scene.route_polyline
        seg = np.linalg.norm(np.diff(route[:, :2], axis=0), axis=1)
        k = min(int(np.searchsorted(np.cumsum(seg), signal_line_s)), len(seg) - 1)
        along = min(signal_line_s, seg.sum()) - seg[:k].sum()
        want = route[k, :2] + (route[k + 1, :2] - route[k, :2]) * along / seg[k]
        got = np.array([float(circle.get("cx")), float(circle.get("cy"))])
        assert np.allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("name, text, where", [
        ("scene_00.json", lambda obj: obj.pop("spec"), "scene_00.json: scene field spec: missing"),
        ("scene_00.json", lambda obj: obj["ground_truth"].update(lanes=[], n_d=0),
         "scene_00.json: zero-size array"),
        ("run_scene_00.json", "[]", "run_scene_00.json"),
        ("run_scene_00.json", "null", "run_scene_00.json"),
        ("feature_counts.csv", "scene_id,voxel_count,pillar_count,lane_level_count\n"
                               "scene_00,10,5\n", "feature_counts.csv line 2"),
        ("latency.csv", "stage,median_ms,p95_ms,variant\nview_synth,0.5\n", "latency.csv line 2"),
        ("feature_counts.csv", "scene_id,voxel_count,pillar_count,lane_level_count\n"
                               "scene_00,1,5,1\nscene_01,nan,5,1\n",
         "feature_counts.csv line 3 column 'voxel_count': not finite"),
        ("feature_counts.csv", "scene_id,voxel_count,pillar_count,lane_level_count\n"
                               "scene_00,1,-inf,1\n",
         "feature_counts.csv line 2 column 'pillar_count': not finite"),
        ("feature_counts.csv", "scene_id,voxel_count,pillar_count,lane_level_count\n"
                               "scene_00,ten,5,1\n",
         "feature_counts.csv line 2 column 'voxel_count': not a number"),
        ("feature_counts.csv", "scene_id,pillar_count,lane_level_count\nscene_00,5,1\n",
         "feature_counts.csv line 2 column 'voxel_count': no such column"),
        ("latency.csv", "stage,median_ms,p95_ms,variant\nview_synth,nan,1.0,a\n",
         "latency.csv line 2 column 'median_ms': not finite"),
        ("latency.csv", "stage,median_ms,p95_ms,variant\nview_synth,0.5,inf,a\n",
         "latency.csv line 2 column 'p95_ms': not finite"),
        ("latency.csv", "stage,median_ms,p95_ms,variant\nview_synth,0.5,ten,a\n",
         "latency.csv line 2 column 'p95_ms': not a number"),
        ("latency.csv", "stage,median_ms,variant\nview_synth,0.5,a\n",
         "latency.csv line 2 column 'p95_ms': no such column"),
        ("feature_counts.csv", "voxel_count,pillar_count,lane_level_count\n10,5,1\n",
         "feature_counts.csv line 2 column 'scene_id': no such column"),
        ("latency.csv", "median_ms,p95_ms,variant\n0.5,1.0,a\n",
         "latency.csv line 2 column 'stage': no such column"),
        ("latency.csv", "stage,median_ms,p95_ms\nview_synth,0.5,1.0\n",
         "latency.csv line 2 column 'variant': no such column"),
    ], ids=["scene-no-spec", "scene-no-lanes", "run-dump-list", "run-dump-null",
            "counts-short-row", "latency-short-row",
            "counts-nan", "counts-inf", "counts-text", "counts-no-column",
            "latency-nan", "latency-inf", "latency-text", "latency-no-column",
            "counts-no-scene-id", "latency-no-stage", "latency-no-variant"])
    def test_malformed_input_exits_2_naming_it(self, tmp_path, caplog, name, text, where):
        out = tmp_path / "r"
        out.mkdir()
        scene = generate_scene(RunConfig().suite_specs()[0], n_p=20)
        (out / "scene_00.json").write_bytes(scene_to_json(scene))
        if callable(text):  # a corruption of the scene object
            obj = json.loads(scene_to_json(scene))
            text(obj)
            text = json.dumps(obj)
        (out / name).write_text(text)
        caplog.clear()
        assert main(["export-plot", "--results", str(out)]) == 2
        (error,) = [r for r in caplog.records if r.levelname == "ERROR"]
        assert error.exc_info is None and "\n" not in error.getMessage()
        assert where in error.getMessage()


class TestConfigFile:
    def test_round_trip_and_overrides(self, tmp_path):
        cfg = RunConfig(seed_scene=5, bench_repeats=4)
        path = tmp_path / "c.json"
        path.write_bytes(dumps(cfg))
        loaded = RunConfig.from_file(path)
        assert loaded == cfg
        assert loaded.with_overrides(seed_scene=9).seed_scene == 9
        assert loaded.with_overrides(seed_scene=None).seed_scene == 5

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError, match="bogus"):
            RunConfig.from_file(path)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ValueError, match="n_p"):
            RunConfig(n_p=7)
        with pytest.raises(ValueError, match="heads"):
            RunConfig(e_dim=30, heads=4)
        for bad in (0, "3"):
            with pytest.raises(ValueError, match="bench_repeats"):
                RunConfig(bench_repeats=bad)


def _set(path: str, value):
    """A corruption that sets the value at a dotted/indexed path."""
    def corrupt(obj):
        *parents, last = path.replace("[", ".").replace("]", "").split(".")
        for key in parents:
            obj = obj[int(key)] if isinstance(obj, list) else obj[key]
        obj[int(last) if isinstance(obj, list) else last] = value
    return corrupt


class TestHostileInputs:
    """Mistyped or out-of-range config and scene fields end in exit 2 with one
    ERROR line naming the dotted field."""

    @pytest.fixture(scope="class")
    def scene_obj(self):
        cfg = RunConfig()
        spec = cfg.suite_specs()[1]  # two lanes, one agent
        return json.loads(scene_to_json(generate_scene(spec, n_p=cfg.n_p)))

    @staticmethod
    def one_error(caplog) -> str:
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        message = errors[0].getMessage()
        assert "\n" not in message
        return message

    @pytest.mark.parametrize("config, field", [
        pytest.param({"n_p": "20"}, "config.n_p: expected int, got str", id="n_p-str"),
        pytest.param({"controller": {"foo": 1}}, "config.controller.foo: unknown field",
                     id="controller-unknown"),
        pytest.param({"loss_weights": 5}, "config.loss_weights: expected dict, got int",
                     id="loss_weights-int"),
        pytest.param({"voxel_resolution": 5}, "config.voxel_resolution: expected list, got int",
                     id="voxel_resolution-int"),
        pytest.param({"horizon": "60"}, "config.horizon: expected float, got str",
                     id="horizon-str"),
        pytest.param({"horizon": True}, "config.horizon: expected float, got bool",
                     id="horizon-bool"),
        pytest.param({"seed_scene": 1.5}, "config.seed_scene: expected int, got float",
                     id="seed_scene-float"),
        pytest.param({"horizon": math.nan}, "config.horizon: expected a finite float, got nan",
                     id="horizon-nan"),
        pytest.param({"horizon": math.inf}, "config.horizon: expected a finite float, got inf",
                     id="horizon-inf"),
        pytest.param({"controller": {"dt": -math.inf}},
                     "config.controller.dt: expected a finite float, got -inf",
                     id="controller.dt-minus-inf"),
        pytest.param({"horizon": 10 ** 400}, "config.horizon: int too large to convert to float",
                     id="horizon-int-beyond-float"),
        pytest.param({"bounds_min": [0, 0]}, "config.bounds_min: expected 3 values, got 2",
                     id="bounds_min-short"),
        pytest.param({"heads": 0}, "config.e_dim 32 not divisible by heads 0", id="heads-zero"),
        pytest.param({"eval_config": {"penalties": {"red_light": 0.5}}},
                     "config.eval_config.penalties must name exactly the kinds",
                     id="penalties-partial"),
        pytest.param({"eval_config": {"penalties": {**DEFAULT_PENALTIES, "red_light": "0.7"}}},
                     "config.eval_config.penalties.red_light: expected float, got str",
                     id="penalty-str"),
        pytest.param({"eval_config": {"penalties": {**DEFAULT_PENALTIES, "red_light": 1.5}}},
                     "config.eval_config.penalties.red_light must be in (0, 1]",
                     id="penalty-range"),
        pytest.param({"eval_config": {"arrival_radius": -5.0, "ego_radius": -3.0}},
                     "config.eval_config.arrival_radius must be > 0, got -5.0",
                     id="arrival_radius-negative"),
        pytest.param({"eval_config": {"arrival_radius": 0}},
                     "config.eval_config.arrival_radius must be > 0, got 0",
                     id="arrival_radius-zero"),
        pytest.param({"eval_config": {"ego_radius": -3.0}},
                     "config.eval_config.ego_radius must be >= 0, got -3.0",
                     id="ego_radius-negative"),
        pytest.param({"eval_config": {"deviation_seconds": -1.0, "deviation_lane_widths": 0.0}},
                     "config.eval_config.deviation_lane_widths must be > 0, got 0.0",
                     id="deviation_lane_widths-zero"),
        pytest.param({"eval_config": {"deviation_seconds": -1.0}},
                     "config.eval_config.deviation_seconds must be > 0, got -1.0",
                     id="deviation_seconds-negative"),
        pytest.param({"e_dim": 0}, "config.e_dim must be >= 1, got 0", id="e_dim-zero"),
        pytest.param({"e_dim": 6, "heads": 2},
                     "config.e_dim must be divisible by 4 for 2D encoding, got 6",
                     id="e_dim-not-divisible-by-4"),
        pytest.param({"k_layers": 0}, "config.k_layers must be >= 1, got 0", id="k_layers-zero"),
        pytest.param({"n_d": -1}, "config.n_d must be >= 1, got -1", id="n_d-negative"),
        pytest.param({"n_p": 0}, "config.n_p must be even and >= 4, got 0", id="n_p-zero"),
        pytest.param({"n_p": 2}, "config.n_p must be even and >= 4, got 2", id="n_p-two"),
        pytest.param({"n_p": -2}, "config.n_p must be even and >= 4, got -2", id="n_p-negative"),
        pytest.param({"view_h": 0}, "config.view_h must be >= 1, got 0", id="view_h-zero"),
        pytest.param({"view_w": -1}, "config.view_w must be >= 1, got -1", id="view_w-negative"),
        pytest.param({"c_channels": -1}, "config.c_channels must be >= 1, got -1",
                     id="c_channels-negative"),
        pytest.param({"r_max": 0.0}, "config.r_max must be > 0, got 0.0", id="r_max-zero"),
        pytest.param({"lidar_density": 0.0}, "config.lidar_density must be > 0, got 0.0",
                     id="lidar_density-zero"),
        pytest.param({"lidar_noise_sigma": -1.0},
                     "config.lidar_noise_sigma must be >= 0, got -1.0",
                     id="lidar_noise_sigma-negative"),
        pytest.param({"horizon": 0.0}, "config.horizon must be > 0, got 0.0", id="horizon-zero"),
        pytest.param({"horizon": 1e7},
                     "config.horizon 10000000.0 s at controller.dt 0.05 s takes more than "
                     "1000000 steps", id="horizon-beyond-step-cap"),
        pytest.param({"controller": {"dt": 1e-9}},
                     "config.horizon 60.0 s at controller.dt 1e-09 s takes more than "
                     "1000000 steps", id="dt-beyond-step-cap"),
        pytest.param({"voxel_resolution": [0.0, 0.5, 0.5]},
                     "config.voxel_resolution must be > 0 on every axis, got (0.0, 0.5, 0.5)",
                     id="voxel_resolution-zero"),
        pytest.param({"pillar_resolution": [0.5, -0.5, 8.0]},
                     "config.pillar_resolution must be > 0 on every axis",
                     id="pillar_resolution-negative"),
        pytest.param({"bounds_min": [200.0, -60.0, 0.0]},
                     "config.bounds_min must be below bounds_max on every axis, got "
                     "(200.0, -60.0, 0.0) and (170.0, 130.0, 8.0)", id="bounds-inverted"),
        pytest.param({"bounds_max": [170.0, -60.0, 8.0]},
                     "config.bounds_min must be below bounds_max on every axis",
                     id="bounds-empty"),
    ])
    def test_config_field_exits_2_naming_it(self, tmp_path, caplog, config, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        caplog.clear()
        code = main(["gen-scenes", "--config", str(bad), "--suite", "trivial",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in self.one_error(caplog)

    @pytest.mark.parametrize("horizon, field", [
        (math.nan, "config.horizon: expected a finite float"),
        (math.inf, "config.horizon: expected a finite float"),
        (1e7, "config.horizon 10000000.0 s at controller.dt 0.05 s takes more than"),
    ], ids=["nan", "inf", "beyond-step-cap"])
    def test_non_finite_horizon_eval_exits_2(self, tmp_path, caplog, horizon, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": horizon}))
        caplog.clear()
        code = main(["eval", "--planner", "gt", "--config", str(bad), "--suite", "trivial",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert field in self.one_error(caplog)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("r_max", [1e6, 1e308])
    def test_huge_r_max_runs(self, tmp_path, scene_obj, r_max):
        """A window past the grid covers the grid; r_max / dx may overflow."""
        scene, cfg = tmp_path / "scene.json", tmp_path / "cfg.json"
        scene.write_text(json.dumps(scene_obj))
        cfg.write_text(json.dumps({"r_max": r_max}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--scene", str(scene), "--out", str(out)]) == 0
        assert json.loads((out / "run_scene.json").read_text())["losses"]

    @pytest.mark.parametrize("config, field", [
        ({"view_h": 100, "view_w": 100}, "config.view_h 100 x view_w 100 makes 40000 image"),
        ({"n_d": 2000, "n_p": 20}, "config.n_d 2000 x n_p 20 makes 40000 lane queries"),
        ({"e_dim": 40000}, "parameter block 'img_enc0.attn.wq' (40000, 40000) takes the model "
                           "past 32000000 values (k_layers 2, e_dim 40000"),
        ({"k_layers": 100000}, "takes the model past 32000000 values (k_layers 100000, e_dim 32"),
        ({"c_channels": 10 ** 7}, "parameter block 'tok_proj.w' (32, 10000000) takes the model "
                                  "past 32000000 values"),
        ({"pillar_resolution": [1e-4, 1e-4, 8.0]}, "config.pillar_resolution (0.0001, 0.0001, "
                                                    "8.0) makes a 1.9e+06 x 1.9e+06 cell grid"),
    ], ids=["view", "lane-queries", "e_dim", "k_layers", "c_channels", "pillar-grid"])
    def test_model_beyond_size_caps_run_exits_2(self, tmp_path, scene_obj, config, field):
        """Each cap refuses before the array it guards is allocated: the run
        ends in one line within a 3 GB address space."""
        import lanefuse

        scene, bad = tmp_path / "scene.json", tmp_path / "bad.json"
        scene.write_text(json.dumps(scene_obj))
        bad.write_text(json.dumps(config))
        limit = 3 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "lanefuse.cli", "run", "--config", str(bad),
             "--scene", str(scene), "--out", str(tmp_path / "o")],
            env={**os.environ, "PYTHONPATH": str(Path(lanefuse.__file__).resolve().parents[1]),
                 "LFP_LOG": "WARNING"},
            capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("ERROR lanefuse: ") and field in line

    def test_cloud_beyond_cap_run_exits_2(self, tmp_path, caplog, scene_obj):
        scene, bad = tmp_path / "scene.json", tmp_path / "bad.json"
        scene.write_text(json.dumps(scene_obj))
        bad.write_text(json.dumps({"lidar_density": 1e6}))
        caplog.clear()
        code = main(["run", "--config", str(bad), "--scene", str(scene),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "more than the 10000000 a cloud may hold" in self.one_error(caplog)

    @pytest.mark.parametrize("planner, levels", [
        ("gt", ["ERROR"]),
        ("pipeline", ["WARNING", "ERROR"]),  # the failed plan, then the count's render
    ])
    def test_cloud_beyond_cap_eval_exits_2(self, tmp_path, caplog, planner, levels):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"lidar_density": 1e6}))
        caplog.clear()
        code = main(["eval", "--planner", planner, "--config", str(bad), "--suite", "trivial",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "more than the 10000000 a cloud may hold" in self.one_error(caplog)
        assert [r.levelname for r in caplog.records if r.levelno >= logging.WARNING] == levels
        assert not (tmp_path / "o" / "eval.json").exists()

    @pytest.mark.parametrize("keep", [0.0, 0.5, 0.999])
    def test_truncated_scene_exits_2_with_one_line(self, tmp_path, caplog, scene_obj, keep):
        data = json.dumps(scene_obj).encode()
        bad = tmp_path / "bad.json"
        bad.write_bytes(data[:int(len(data) * keep)])
        caplog.clear()
        code = main(["run", "--scene", str(bad), "--out", str(tmp_path / "o"), "--inject-gt"])
        assert code == 2
        assert "Expecting" in self.one_error(caplog)

    @pytest.mark.parametrize("corrupt, field", [
        (_set("agents[0].extent", [4.0, 2.0]),
         "scene field agents[0].extent: expected 3 values, got 2"),
        (_set("agents[0].center", [10.0, 0.0]),
         "scene field agents[0].center: expected 3 values, got 2"),
        (_set("route.start", [0.0, 0.0]), "scene field route.start: expected 3 values, got 2"),
        (lambda obj: obj["centerlines"].__setitem__(0, [p[:2] for p in obj["centerlines"][0]]),
         "scene field centerlines[0]: expected shape"),
        (_set("lane_widths", []), "scene field lane_widths: expected 2 values"),
        (_set("signal_state", "blue"), "scene field signal_state: expected one of"),
        (_set("ground_truth.n_p", "x"), "scene field ground_truth: n_p: expected int, got str"),
        (_set("ground_truth.n_p", 21), "scene field ground_truth: n_p must be even, got 21"),
        (_set("ground_truth.lanes[0].left[0].occ", True),
         "scene field ground_truth: lane 0 left[0]: occ flag True not in {0,1}"),
        (_set("ground_truth.lanes[0].right[2].plan", False),
         "scene field ground_truth: lane 0 right[2]: plan flag False not in {0,1}"),
        (_set("ground_truth.lanes[1].int", 1.0),
         "scene field ground_truth: lane 1: intersection flag 1.0 not in {0,1}"),
        (_set("ground_truth.lanes[0].dir", 0.0),
         "scene field ground_truth: lane 0: direction flag 0.0 not in {0,1}"),
        (_set("ground_truth.lanes[0].left[0].p", ["1.5", True, "0"]),
         "scene field ground_truth: lanes[0].left[0].p[0]: expected float, got str"),
        (_set("ground_truth.lanes[1].right[3].p", [1.0, True, 0.0]),
         "scene field ground_truth: lanes[1].right[3].p[1]: expected float, got bool"),
        (_set("ground_truth.lanes[0].left[2].p", [1, 2, 3, 99]),
         "scene field ground_truth: lanes[0].left[2].p: expected 3 values, got 4"),
    ], ids=["agent-extent", "agent-center", "route-start", "centerline-2-columns",
            "lane-widths-empty", "signal-state-blue", "ground-truth-n_p-str",
            "ground-truth-n_p-odd", "flag-true", "flag-false", "flag-1.0", "flag-0.0",
            "position-str", "position-bool", "position-4-values"])
    def test_scene_field_exits_2_naming_it(self, tmp_path, caplog, scene_obj, corrupt, field):
        obj = json.loads(json.dumps(scene_obj))
        corrupt(obj)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        caplog.clear()
        code = main(["run", "--scene", str(bad), "--out", str(tmp_path / "o"), "--inject-gt"])
        assert code == 2
        assert field in self.one_error(caplog)


def test_numeric_failure_prints_one_stderr_line(tmp_path, fast_config, capfd):
    """numpy's floating-point warnings stay silent; the failing check's
    one-line error is all that reaches stderr."""
    import lanefuse

    scenes = tmp_path / "scenes"
    assert main(["gen-scenes", "--config", fast_config, "--suite", "trivial",
                 "--out", str(scenes)]) == 0
    store = build_params(RunConfig.from_file(fast_config).block_config())
    gain = store["img_enc0.ln1.g"]
    weights = tmp_path / "w.lfpw"
    save_params(store.replaced({"img_enc0.ln1.g": np.full(gain.shape, 1e300)}), weights)
    capfd.readouterr()
    src = str(Path(lanefuse.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "lanefuse.cli", "run", "--config", fast_config,
         "--scene", str(scenes / "scene_00.json"), "--out", str(tmp_path / "o"),
         "--params", str(weights)],
        env={**os.environ, "PYTHONPATH": src, "LFP_LOG": "WARNING"})
    assert proc.returncode == 2
    err = capfd.readouterr().err
    assert err.splitlines() == ["ERROR lanefuse: attention row sums off by nan"]
