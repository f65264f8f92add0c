"""End-to-end wiring: scene -> view features -> tokens -> coarse prior ->
image branch, LiDAR branch with prior-guided sampling, query integration,
feature enhancement, heads, and the interpreted path. Also the ground-truth
planner used by the closed-loop evaluator and the suite-level feature and
latency benchmarks.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .config import SIGNAL_CLASSES, RunConfig
from .double_edge import DoubleEdgeSet, PlannedPath, interpret_path
from .fusion import (
    BlockConfig,
    CoarseLanePrior,
    ParamStore,
    QuerySet,
    coarse_lane_detect,
    enhance_features,
    image_transformer,
    init_lidar_queries,
    integrate_queries,
    lidar_transformer,
    positional_encode,
)
from .heads_losses import (
    LossBreakdown,
    Predictions,
    compute_losses,
    heads_forward,
    inject_ground_truth,
    predictions_to_double_edge,
)
from .pillar import LanePillarSet, LaneROI, encode_pillars, feature_count_report, lane_sample, pillarize
from .scene_synth import Scene, render_lidar, synth_view_features

__all__ = [
    "PipelineResult",
    "run_pipeline",
    "pipeline_losses",
    "injected_losses",
    "make_gt_planner",
    "scene_feature_counts",
    "bench_suite",
]


@dataclass(frozen=True)
class PipelineResult:
    prior: CoarseLanePrior
    lane_pillars: LanePillarSet
    predictions: Predictions
    predicted_lanes: DoubleEdgeSet
    path: PlannedPath
    stage_ms: dict[str, float]


def _fusion(f_image, f_lane, q_image: QuerySet, prior: CoarseLanePrior,
            store: ParamStore, bc: BlockConfig):
    """LiDAR queries integrated with the image queries, the LiDAR
    transformer, and the prior-weighted feature enhancement."""
    q_lidar = init_lidar_queries(f_lane, store)
    q_integrated = integrate_queries(q_image, q_lidar, prior.weights)
    f_lidar = lidar_transformer(q_integrated, f_lane, store, bc)
    return enhance_features(f_image, f_lidar, prior.weights)


def _forward(scene: Scene, cfg: RunConfig, store: ParamStore, stage):
    """The forward pass, written once. Every layer call goes through
    ``stage(name, fn, *args)``, which must return ``fn(*args)``; the names
    are the stage rows of the run, bench and eval reports, in order.

    Returns the fields of :class:`PipelineResult` before ``stage_ms``.
    """
    bc = cfg.block_config()
    grid = stage("view_synth", synth_view_features, scene, cfg.c_channels,
                 cfg.view_h, cfg.view_w, cfg.seed_params)
    tokens = stage("positional_encode", positional_encode, grid, store)
    prior = stage("coarse_prior", coarse_lane_detect, tokens, store, bc)
    q_image = QuerySet(queries=store["q_image"])
    f_image = stage("image_transformer", image_transformer, tokens, q_image, store, bc)

    cloud = stage("render_lidar", render_lidar, scene, cfg.lidar_density,
                  cfg.lidar_noise_sigma, scene.spec.seed)
    pillars = stage("pillarize", pillarize, cloud, cfg.pillar_spec(), prior.roi, cfg.r_max)
    lane_pillars = stage("lane_sample", lane_sample, pillars, prior.roi, cfg.r_max)
    f_lane = stage("encode", encode_pillars, lane_pillars,
                   store["pillar_enc.w"], store["pillar_enc.b"])
    f_enhanced = stage("fusion", _fusion, f_image, f_lane, q_image, prior, store, bc)

    predictions = stage("heads", heads_forward, f_enhanced, store)
    predicted_lanes = stage("decode", predictions_to_double_edge, predictions)
    path = stage("interpret", interpret_path, predicted_lanes,
                 max(0.0, predictions.speed))
    return prior, lane_pillars, predictions, predicted_lanes, path


def _timed(stage_ms: dict[str, float], name: str, fn, *args):
    """``fn(*args)``; its wall time in ms goes to ``stage_ms[name]``."""
    t0 = time.perf_counter()
    out = fn(*args)
    stage_ms[name] = (time.perf_counter() - t0) * 1e3
    return out


def run_pipeline(scene: Scene, cfg: RunConfig, store: ParamStore) -> PipelineResult:
    """One full forward pass; deterministic in (scene, cfg, store).
    ``stage_ms`` holds each stage row's wall time, in pass order."""
    stage_ms: dict[str, float] = {}
    return PipelineResult(*_forward(scene, cfg, store, functools.partial(_timed, stage_ms)),
                          stage_ms=stage_ms)


def pipeline_losses(result: PipelineResult, scene: Scene, cfg: RunConfig) -> LossBreakdown:
    """Loss breakdown of a pipeline result against the scene ground truth."""
    return compute_losses(result.predictions, result.prior.roi, scene.ground_truth,
                          np.asarray(scene.route_target), scene.gt_speed,
                          SIGNAL_CLASSES.index(scene.signal_state),
                          cfg.loss_config, cfg.loss_weights)


def injected_losses(scene: Scene, cfg: RunConfig) -> tuple[LossBreakdown, PlannedPath]:
    """Losses and path for ground-truth-injected predictions (all zeros)."""
    pred, roi = inject_ground_truth(scene.ground_truth, scene.gt_speed,
                                    SIGNAL_CLASSES.index(scene.signal_state), cfg.n_d)
    breakdown = compute_losses(pred, roi, scene.ground_truth,
                               np.asarray(scene.route_target), scene.gt_speed,
                               SIGNAL_CLASSES.index(scene.signal_state),
                               cfg.loss_config, cfg.loss_weights)
    lanes = predictions_to_double_edge(pred)
    return breakdown, interpret_path(lanes, max(0.0, pred.speed))


def make_gt_planner(cfg: RunConfig):
    """Planner that feeds ground-truth-injected predictions through the
    interpreter."""

    def planner(scene: Scene) -> PlannedPath:
        pred, _ = inject_ground_truth(scene.ground_truth, scene.gt_speed,
                                      SIGNAL_CLASSES.index(scene.signal_state), cfg.n_d)
        lanes = predictions_to_double_edge(pred)
        return interpret_path(lanes, max(0.0, pred.speed))

    return planner


def scene_feature_counts(scene: Scene, cfg: RunConfig, roi: LaneROI) -> dict[str, float]:
    cloud = render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma, scene.spec.seed)
    return feature_count_report(cloud, roi, cfg.voxel_spec(), cfg.pillar_spec())


# ---------------------------------------------------------------------------
# latency benchmark
# ---------------------------------------------------------------------------


def _dense_encode(features: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(features @ w.T + b, 0.0)


def bench_suite(scenes: list[Scene], cfg: RunConfig, store: ParamStore,
                repeats: int) -> tuple[list[dict], dict[str, float]]:
    """Per-stage latency over a suite: the ``stage_ms`` rows of
    :func:`run_pipeline` as the lane-level variant, plus pillarize and
    encode over the whole cloud as the dense-pillar variant, and the
    pillarize and encoding comparison summary.

    The lane-level rows are the in-pass timings that eval reports as
    ``latency_ms``, so the lane-level ``pillarize`` bins only the points
    around the coarse ROI (ROI-first); the dense variant bins and encodes
    each scene's cloud, rendered once up front.

    After one untimed warm-up round, each of ``repeats`` rounds visits every
    scene once, so a slow phase of the host spreads over all scenes instead
    of owning one scene's samples. The reported median is the median of
    per-scene medians, which stays reproducible even though scenes differ
    widely in cost; p95 is taken over all pooled samples.
    """
    spec = cfg.pillar_spec()
    w_enc, b_enc = store["pillar_enc.w"], store["pillar_enc.b"]
    clouds = [render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma, scene.spec.seed)
              for scene in scenes]
    dense_counts: list[float] = []
    samples: dict[tuple[str, str], list[list[float]]] = {}  # row -> per-scene samples
    for round_idx in range(repeats + 1):
        for i, (scene, cloud) in enumerate(zip(scenes, clouds)):
            lane_ms = run_pipeline(scene, cfg, store).stage_ms
            dense_ms: dict[str, float] = {}
            features = _timed(dense_ms, "pillarize", pillarize, cloud, spec).features
            _timed(dense_ms, "encode", _dense_encode, features, w_enc, b_enc)
            if round_idx == 0:  # warm-up
                dense_counts.append(float(len(features)))
                continue
            for variant, stage_ms in (("lane_level", lane_ms), ("dense_pillar", dense_ms)):
                for stage, ms in stage_ms.items():
                    samples.setdefault((stage, variant), [[] for _ in scenes])[i].append(ms)

    rows = [{"stage": stage, "variant": variant,
             "median_ms": float(np.median([np.median(s) for s in per_scene])),
             "p95_ms": float(np.percentile(np.concatenate(per_scene), 95))}
            for (stage, variant), per_scene in samples.items()]
    med = {(r["stage"], r["variant"]): r["median_ms"] for r in rows}
    lane_level = float(cfg.n_d * cfg.n_p)
    summary = {
        "pillarize_speedup": (med[("pillarize", "dense_pillar")]
                              / max(med[("pillarize", "lane_level")], 1e-12)),
        "encode_speedup": med[("encode", "dense_pillar")] / max(med[("encode", "lane_level")], 1e-12),
        "mean_dense_features": float(np.mean(dense_counts)),
        "lane_level_features": lane_level,
        "feature_reduction": float(np.mean(dense_counts)) / lane_level,
    }
    return rows, summary
