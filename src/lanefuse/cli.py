"""Command-line entry point.

Subcommands: gen-scenes, run, bench, eval, gradcheck, export-plot. One JSON
config file plus flag overrides drives everything; all randomness flows from
the two named seeds. Machine-readable outputs go to files, log text to
stderr (level via the LFP_LOG environment variable). Output files are
written atomically and reruns with the same config are bit-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, SUITE_NAMES
from .double_edge import PlannedPath, interpret_path
from .fusion import AttentionInvariantError, build_params, load_params
from .heads_losses import LOSS_NAMES, grad_check
from .io_utils import atomic_write_bytes, atomic_write_text, write_csv
from .pillar import LaneROI
from .pipeline import (
    PipelineResult,
    injected_losses,
    make_gt_planner,
    pipeline_losses,
    run_pipeline,
    scene_feature_counts,
    bench_suite,
)
from .plotting import bar_chart_svg, scene_svg
from .scene_synth import (
    generate_scene,
    render_lidar,
    save_point_cloud,
    scene_from_json,
    scene_to_json,
)
from .sim_eval import run_closed_loop

log = logging.getLogger("lanefuse")

GRADCHECK_THRESHOLD = 1e-4


def _setup_logging() -> None:
    level = os.environ.get("LFP_LOG", "WARNING").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    cfg = cfg.with_overrides(seed_scene=args.seed_scene, seed_params=args.seed_params,
                             suite=args.suite)
    log.info("seeds: scene=%d params=%d suite=%s", cfg.seed_scene, cfg.seed_params,
             cfg.suite)
    return cfg


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _scene_files(out: Path) -> list[Path]:
    return sorted(out.glob("scene_*.json"))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_scenes(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    manifest_scenes = []
    for idx, spec in enumerate(cfg.suite_specs()):
        name = f"scene_{idx:02d}.json"
        atomic_write_bytes(out / name, scene_to_json(generate_scene(spec, n_p=cfg.n_p)))
        manifest_scenes.append({"file": name, "seed": spec.seed,
                                "geometry": spec.geometry})
        log.info("wrote %s", name)
    manifest = {
        "version": __version__,
        "suite": cfg.suite,
        "seed_scene": cfg.seed_scene,
        "seed_params": cfg.seed_params,
        "config": json.loads(cfg.to_json()),
        "scenes": manifest_scenes,
    }
    atomic_write_bytes(out / "manifest.json", _dumps(manifest))
    return 0


def _predictions_obj(pred) -> dict:
    return {
        "points": pred.points.tolist(),
        "int_logits": pred.int_logits.tolist(),
        "dir_logits": pred.dir_logits.tolist(),
        "occ_logits": pred.occ_logits.tolist(),
        "plan_logits": pred.plan_logits.tolist(),
        "speed": pred.speed,
        "signal_logits": pred.signal_logits.tolist(),
    }


def _path_obj(path: PlannedPath) -> dict:
    return {"waypoints": [list(w) for w in path.waypoints],
            "target_speed": path.target_speed}


def cmd_run(args) -> int:
    cfg = _load_config(args)
    scene = scene_from_json(Path(args.scene).read_bytes())
    store = build_params(cfg.block_config())
    if args.params:
        store = load_params(store, args.params)
    out = Path(args.out)
    dump: dict = {"scene": Path(args.scene).name, "injected": bool(args.inject_gt)}
    if args.inject_gt:
        breakdown, path = injected_losses(scene, cfg)
        dump["losses"] = breakdown.as_dict()
        dump["path"] = _path_obj(path)
    else:
        result = run_pipeline(scene, cfg, store)
        breakdown = pipeline_losses(result, scene, cfg)
        dump["losses"] = breakdown.as_dict()
        dump["path"] = _path_obj(result.path)
        dump["predictions"] = _predictions_obj(result.predictions)
        dump["prior_weights"] = result.prior.weights.weights.tolist()
    if args.dump_cloud:
        cloud = render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma,
                             scene.spec.seed)
        save_point_cloud(out / (Path(args.scene).stem + ".lfpc"), cloud)
    name = f"run_{Path(args.scene).stem}.json"
    atomic_write_bytes(out / name, _dumps(dump))
    write_csv(out / f"run_{Path(args.scene).stem}_losses.csv",
              ["loss_name", "value"],
              [[k, repr(v)] for k, v in dump["losses"].items()])
    log.info("wrote %s (total loss %.6f)", name, breakdown.total)
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    store = build_params(cfg.block_config())
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]

    zero_roi = LaneROI(points=np.zeros((cfg.n_d, cfg.n_p, 3)))
    count_rows = []
    for idx, scene in enumerate(scenes):
        counts = scene_feature_counts(scene, cfg, zero_roi)
        count_rows.append([
            f"scene_{idx:02d}",
            int(counts["voxel_count"]), int(counts["pillar_count"]),
            int(counts["lane_level_count"]),
            repr(counts["ratio_voxel"]), repr(counts["ratio_pillar"]),
        ])
    write_csv(out / "feature_counts.csv",
              ["scene_id", "voxel_count", "pillar_count", "lane_level_count",
               "ratio_voxel", "ratio_pillar"],
              count_rows)

    rows, summary = bench_suite(scenes, cfg, store, repeats=cfg.bench_repeats)
    write_csv(out / "latency.csv",
              ["stage", "median_ms", "p95_ms", "variant"],
              [[r["stage"], repr(r["median_ms"]), repr(r["p95_ms"]), r["variant"]]
               for r in rows])
    atomic_write_bytes(out / "bench_summary.json", _dumps(summary))
    log.info("bench: %.1fx feature reduction, %.1fx encode speedup",
             summary["feature_reduction"], summary["encode_speedup"])
    return 0


def _eval_one(scene, scene_id: str, cfg: RunConfig, use_gt: bool, store) -> dict:
    """The ``eval.json`` row of one closed-loop episode."""
    runs: list[PipelineResult] = []  # the one forward pass the episode plans with
    if use_gt:
        planner = make_gt_planner(cfg)
    else:
        def planner(sc):
            runs.append(run_pipeline(sc, cfg, store))
            return runs[-1].path
    counts = scene_feature_counts(
        scene, cfg, LaneROI(points=np.zeros((cfg.n_d, cfg.n_p, 3))))
    report = run_closed_loop(scene, planner, cfg.controller, cfg.horizon,
                             eval_cfg=cfg.eval_config)
    return {
        "scene_id": scene_id,
        "ds": report.ds, "rc": report.rc, "is": report.is_score,
        "terminated": report.terminated,
        "infractions": [{"time": ev.time, "kind": ev.kind, "penalty": ev.penalty}
                        for ev in report.infractions.events],
        "feature_counts": counts,
        "latency_ms": runs[0].stage_ms if runs else {},
    }


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    store = build_params(cfg.block_config())
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
    use_gt = args.planner == "gt"
    scene_objs = []
    for i, scene in enumerate(scenes):
        scene_id = f"scene_{i:02d}"
        try:
            scene_objs.append(_eval_one(scene, scene_id, cfg, use_gt, store))
        except Exception as exc:
            # a broken scene still yields a row so the aggregate stands
            log.error("eval %s failed: %s", scene_id, exc)
            scene_objs.append({
                "scene_id": scene_id, "ds": 0.0, "rc": 0.0, "is": 1.0,
                "terminated": "failure", "error": str(exc),
                "infractions": [], "feature_counts": {}, "latency_ms": {},
            })
    aggregate = {
        "ds": float(np.mean([s["ds"] for s in scene_objs])),
        "rc": float(np.mean([s["rc"] for s in scene_objs])),
        "is": float(np.mean([s["is"] for s in scene_objs])),
        "planner": args.planner,
    }
    atomic_write_bytes(out / "eval.json", _dumps({"aggregate": aggregate,
                                                  "scenes": scene_objs}))
    write_csv(out / "eval.csv",
              ["scene_id", "ds", "rc", "is", "terminated"],
              [[s["scene_id"], repr(s["ds"]), repr(s["rc"]), repr(s["is"]), s["terminated"]]
               for s in scene_objs])
    log.info("eval aggregate: DS %.2f RC %.3f IS %.3f", aggregate["ds"],
             aggregate["rc"], aggregate["is"])
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    rows = []
    worst = 0.0
    for name in LOSS_NAMES:
        res = grad_check(name, seed=cfg.seed_params, points=args.points,
                         cfg=cfg.loss_config, corrupt=(args.corrupt == name))
        rows.append([name, repr(res.max_rel_err)])
        worst = max(worst, res.max_rel_err)
        log.info("gradcheck %s: max rel err %.3e (resampled %d)", name,
                 res.max_rel_err, res.resampled)
    write_csv(out / "gradcheck.csv", ["loss_name", "max_rel_err"], rows)
    if worst >= GRADCHECK_THRESHOLD:
        log.error("gradient check failed: max rel err %.3e >= %.0e", worst,
                  GRADCHECK_THRESHOLD)
        return 1
    return 0


def cmd_export_plot(args) -> int:
    results = Path(args.results)
    plots = results / "plots"
    made_any = False

    counts_csv = results / "feature_counts.csv"
    if counts_csv.exists():
        with open(counts_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        groups = [
            (r["scene_id"], [("voxel", float(r["voxel_count"])),
                             ("pillar", float(r["pillar_count"])),
                             ("lane_level", float(r["lane_level_count"]))])
            for r in rows
        ]
        atomic_write_text(plots / "feature_counts.svg",
                          bar_chart_svg("LiDAR feature counts per scene", groups))
        made_any = True

    latency_csv = results / "latency.csv"
    if latency_csv.exists():
        with open(latency_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        groups = [(f'{r["stage"]} [{r["variant"]}]', [("median", float(r["median_ms"])),
                                                      ("p95", float(r["p95_ms"]))])
                  for r in rows]
        atomic_write_text(plots / "latency.svg",
                          bar_chart_svg("Per-stage latency", groups, unit="ms"))
        made_any = True

    for scene_path in _scene_files(results):
        scene = scene_from_json(scene_path.read_bytes())
        run_dump = results / f"run_{scene_path.stem}.json"
        if run_dump.exists():
            obj = json.loads(run_dump.read_text("utf-8"))
            path = PlannedPath(waypoints=tuple(tuple(w) for w in obj["path"]["waypoints"]),
                               target_speed=obj["path"]["target_speed"])
        else:
            path = interpret_path(scene.ground_truth, scene.gt_speed)
        atomic_write_text(plots / f"{scene_path.stem}.svg", scene_svg(scene, path=path))
        made_any = True

    if not made_any:
        log.error("no plottable inputs under %s", results)
        return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lanefuse",
        description="Lane-level camera-LiDAR fusion planning sandbox",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed-scene", type=int, default=None)
        p.add_argument("--seed-params", type=int, default=None)
        p.add_argument("--suite", choices=SUITE_NAMES, default=None)
        if needs_out:
            p.add_argument("--out", type=str, required=True, help="output directory")

    p = sub.add_parser("gen-scenes", help="write suite scenes and a manifest")
    common(p)
    p.set_defaults(fn=cmd_gen_scenes)

    p = sub.add_parser("run", help="run the pipeline on one scene file")
    common(p)
    p.add_argument("--scene", type=str, required=True)
    p.add_argument("--params", type=str, default=None, help="LFPW weight file")
    p.add_argument("--inject-gt", action="store_true",
                   help="use ground-truth-injected predictions")
    p.add_argument("--dump-cloud", action="store_true",
                   help="also write the rendered point cloud (.lfpc)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="feature-count and latency benchmarks")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("eval", help="closed-loop evaluation over the suite")
    common(p)
    p.add_argument("--planner", choices=("pipeline", "gt"), default="pipeline")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    common(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--corrupt", choices=LOSS_NAMES, default=None,
                   help="test hook: skew one analytic gradient")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("export-plot", help="emit SVG charts and scene renderings")
    p.add_argument("--results", type=str, required=True,
                   help="directory holding gen-scenes/bench/eval outputs")
    p.set_defaults(fn=cmd_export_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, AttentionInvariantError) as exc:
        log.error("%s", exc)
        return 2


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
