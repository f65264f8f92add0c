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
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, SUITE_NAMES
from .double_edge import PlannedPath, interpret_path
from .fusion import AttentionInvariantError, build_params, load_params
from .heads_losses import LOSS_NAMES, grad_check
from .io_utils import atomic_write_bytes, atomic_write_text, dumps, from_json, write_csv
from .pipeline import bench_suite, gt_plan, run_pipeline, scene_feature_counts, scene_losses
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
        "config": cfg,
        "scenes": manifest_scenes,
    }
    atomic_write_bytes(out / "manifest.json", dumps(manifest))
    return 0


def cmd_run(args) -> int:
    cfg = _load_config(args)
    scene = scene_from_json(Path(args.scene).read_bytes())
    store = build_params(cfg.block_config())
    if args.params:
        store = load_params(store, args.params)
    out = Path(args.out)
    dump: dict = {"scene": Path(args.scene).name, "injected": bool(args.inject_gt)}
    kept: dict = {}  # the pass's stage outputs
    if args.inject_gt:
        pred, roi, dump["path"] = gt_plan(scene, cfg)
    else:
        result = run_pipeline(scene, cfg, store, kept)
        pred, roi, dump["path"] = result.predictions, result.prior.roi, result.path
        dump["predictions"] = pred
        dump["prior_weights"] = result.prior.weights.weights
    breakdown = scene_losses(pred, roi, scene, cfg)
    dump["losses"] = asdict(breakdown)
    if args.dump_cloud:
        cloud = kept.get("render_lidar")
        if cloud is None:  # no pass ran
            cloud = render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma,
                                 scene.spec.seed)
        save_point_cloud(out / (Path(args.scene).stem + ".lfpc"), cloud)
    name = f"run_{Path(args.scene).stem}.json"
    atomic_write_bytes(out / name, dumps(dump))
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

    count_rows = []
    for idx, scene in enumerate(scenes):
        counts = scene_feature_counts(scene, cfg)
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
    atomic_write_bytes(out / "bench_summary.json", dumps(summary))
    log.info("bench: %.1fx feature reduction, %.1fx encode speedup",
             summary["feature_reduction"], summary["encode_speedup"])
    return 0


def _eval_one(scene, scene_id: str, cfg: RunConfig, use_gt: bool, store) -> dict:
    """The ``eval.json`` row of one scene: plan, then drive; a failed plan drives ``None``."""
    latency_ms: dict = {}  # the stage rows of the one forward pass, if any
    kept: dict = {}  # that pass's stage outputs; its cloud is counted below
    try:
        if use_gt:
            path = gt_plan(scene, cfg)[2]
        else:
            result = run_pipeline(scene, cfg, store, kept)
            path, latency_ms = result.path, result.stage_ms
    except Exception as exc:
        log.warning("plan for %s failed: %s", scene_id, exc)
        path = None
    report = run_closed_loop(scene, path, cfg.controller, cfg.horizon,
                             eval_cfg=cfg.eval_config)
    counts = scene_feature_counts(scene, cfg, kept.get("render_lidar"))
    return {
        "scene_id": scene_id,
        "ds": report.ds, "rc": report.rc, "is": report.is_score,
        "terminated": report.terminated,
        "infractions": report.infractions,
        "feature_counts": counts,
        "latency_ms": latency_ms,
    }


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = Path(args.out)
    use_gt = args.planner == "gt"
    store = None if use_gt else build_params(cfg.block_config())  # gt plans without it
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
    scene_objs = []
    for i, scene in enumerate(scenes):
        scene_id = f"scene_{i:02d}"
        try:
            scene_objs.append(_eval_one(scene, scene_id, cfg, use_gt, store))
        except ValueError:  # the config's limits (cloud cap, horizon) fail every scene
            raise
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
    atomic_write_bytes(out / "eval.json", dumps({"aggregate": aggregate,
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
        res = grad_check(name, seed=cfg.seed_params, points=args.points, cfg=cfg.loss_config)
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


def _csv_rows(path: Path) -> list[tuple[int, dict[str, str]]]:
    """The rows of a results CSV keyed by its header, each with its line
    number; a row shorter than the header is a ValueError naming the file."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            if None in row.values():
                raise ValueError(f"{path.name} line {reader.line_num}: "
                                 "fewer fields than its header")
            rows.append((reader.line_num, row))
    return rows


def _csv_text(path: Path, line: int, row: dict[str, str], column: str) -> str:
    """``row[column]``; a missing column is a ValueError naming the file,
    line and column."""
    if column not in row:
        raise ValueError(f"{path.name} line {line} column {column!r}: no such column")
    return row[column]


def _csv_number(path: Path, line: int, row: dict[str, str], column: str) -> float:
    """``row[column]`` as a finite float; a missing column, a non-number or
    a non-finite value is a ValueError naming the file, line and column."""
    text = _csv_text(path, line, row, column)
    where = f"{path.name} line {line} column {column!r}"
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: not finite: {text!r}")
    return value


def cmd_export_plot(args) -> int:
    results = Path(args.results)
    plots = results / "plots"
    made_any = False

    counts_csv = results / "feature_counts.csv"
    if counts_csv.exists():
        groups = [
            (_csv_text(counts_csv, line, r, "scene_id"),
             [(label, _csv_number(counts_csv, line, r, f"{label}_count"))
              for label in ("voxel", "pillar", "lane_level")])
            for line, r in _csv_rows(counts_csv)
        ]
        atomic_write_text(plots / "feature_counts.svg",
                          bar_chart_svg("LiDAR feature counts per scene", groups))
        made_any = True

    latency_csv = results / "latency.csv"
    if latency_csv.exists():
        groups = [(f'{_csv_text(latency_csv, line, r, "stage")} '
                   f'[{_csv_text(latency_csv, line, r, "variant")}]',
                   [(label, _csv_number(latency_csv, line, r, f"{label}_ms"))
                    for label in ("median", "p95")])
                  for line, r in _csv_rows(latency_csv)]
        atomic_write_text(plots / "latency.svg",
                          bar_chart_svg("Per-stage latency", groups, unit="ms"))
        made_any = True

    for scene_path in _scene_files(results):
        run_dump = results / f"run_{scene_path.stem}.json"
        try:
            scene = scene_from_json(scene_path.read_bytes())
            if run_dump.exists():
                dump = from_json(dict, json.loads(run_dump.read_text("utf-8")), run_dump.name)
                path = from_json(PlannedPath, dump.get("path"), f"{run_dump.name} path")
            else:
                path = interpret_path(scene.ground_truth, scene.gt_speed)
            svg = scene_svg(scene, path=path)
        except ValueError as exc:
            raise ValueError(f"{scene_path.name}: {exc}") from None
        atomic_write_text(plots / f"{scene_path.stem}.svg", svg)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed-scene", type=int, default=None)
        p.add_argument("--seed-params", type=int, default=None)
        p.add_argument("--suite", choices=SUITE_NAMES, default=None)
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
        # Non-finite values end in the checks' one-line errors below; numpy's
        # floating-point warnings would only add lines before them.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, OSError, AttentionInvariantError) as exc:
        log.error("%s", exc)
        return 2


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
