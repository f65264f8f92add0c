"""End-to-end wiring: scene -> view features -> tokens -> coarse prior ->
image branch, LiDAR branch with prior-guided sampling, query integration,
feature enhancement, heads, and the interpreted path. Also the
ground-truth-injected plan, the scene losses of either plan's predictions,
and the suite-level feature and latency benchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .double_edge import DoubleEdgeSet, PlannedPath, interpret_path
from .fusion import (
    CoarseLanePrior,
    ParamStore,
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
from .pillar import LanePillarSet, encode_pillars, feature_count_report, lane_sample, pillarize
from .scene_synth import Scene, render_lidar, synth_view_features

__all__ = [
    "PipelineResult",
    "run_pipeline",
    "gt_plan",
    "scene_losses",
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


def _fusion(f_image, f_lane, prior: CoarseLanePrior, store: ParamStore):
    """LiDAR queries integrated with the image queries, the LiDAR
    transformer, and the prior-weighted feature enhancement."""
    q_lidar = init_lidar_queries(f_lane, store)
    q_integrated = integrate_queries(store.q_image, q_lidar, prior.weights)
    f_lidar = lidar_transformer(q_integrated, f_lane, store)
    return enhance_features(f_image, f_lidar, prior.weights)


def _timed(stage_ms: dict[str, float], name: str, fn, *args):
    """``fn(*args)``; its wall time in ms goes to ``stage_ms[name]``."""
    t0 = time.perf_counter()
    out = fn(*args)
    stage_ms[name] = (time.perf_counter() - t0) * 1e3
    return out


def run_pipeline(scene: Scene, cfg: RunConfig, store: ParamStore,
                 keep: dict | None = None) -> PipelineResult:
    """The forward pass, written once; deterministic in (scene, cfg, store).
    ``stage_ms`` holds each stage row's wall time, in pass order; the row
    names are those of the run, bench and eval reports. A ``keep`` dict
    also receives each stage's output under its row name, outside the timed
    region (``keep["render_lidar"]`` is the pass's point cloud)."""
    stage_ms: dict[str, float] = {}
    keep = {} if keep is None else keep

    def stage(name, fn, *args):
        keep[name] = _timed(stage_ms, name, fn, *args)
        return keep[name]

    views = stage("view_synth", synth_view_features, scene, cfg.c_channels,
                  cfg.view_h, cfg.view_w, cfg.seed_params)
    tokens = stage("positional_encode", positional_encode, views, store)
    prior = stage("coarse_prior", coarse_lane_detect, tokens, store)
    f_image = stage("image_transformer", image_transformer, tokens, store)

    cloud = stage("render_lidar", render_lidar, scene, cfg.lidar_density,
                  cfg.lidar_noise_sigma, scene.spec.seed)
    pillars = stage("pillarize", pillarize, cloud, cfg.pillar_spec(), prior.roi, cfg.r_max)
    lane_pillars = stage("lane_sample", lane_sample, pillars, prior.roi, cfg.r_max)
    f_lane = stage("encode", encode_pillars, lane_pillars, *store.pillar_enc)
    f_enhanced = stage("fusion", _fusion, f_image, f_lane, prior, store)

    predictions = stage("heads", heads_forward, f_enhanced, store)
    predicted_lanes = stage("decode", predictions_to_double_edge, predictions)
    path = stage("interpret", interpret_path, predicted_lanes,
                 max(0.0, predictions.speed))
    return PipelineResult(prior, lane_pillars, predictions, predicted_lanes, path, stage_ms)


def scene_losses(pred: Predictions, roi: np.ndarray, scene: Scene,
                 cfg: RunConfig) -> LossBreakdown:
    """Loss breakdown of predictions and their ROI against the scene's
    ground truth."""
    return compute_losses(pred, roi, scene.ground_truth, np.asarray(scene.route_target),
                          scene.gt_speed, scene.signal_class, cfg.loss_config,
                          cfg.loss_weights)


def gt_plan(scene: Scene, cfg: RunConfig) -> tuple[Predictions, np.ndarray, PlannedPath]:
    """Ground-truth-injected predictions, their (n_d, n_p, 3) ROI, and the
    path the interpreter makes of them."""
    pred, roi = inject_ground_truth(scene.ground_truth, scene.gt_speed, scene.signal_class,
                                    cfg.n_d)
    path = interpret_path(predictions_to_double_edge(pred), max(0.0, pred.speed))
    return pred, roi, path


def scene_feature_counts(scene: Scene, cfg: RunConfig,
                         cloud: np.ndarray | None = None) -> dict[str, float]:
    """Feature counts of the scene's full cloud; ``cloud`` is that cloud
    when the caller already rendered it."""
    if cloud is None:
        cloud = render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma, scene.spec.seed)
    return feature_count_report(cloud, cfg.n_d * cfg.n_p, cfg.voxel_spec(), cfg.pillar_spec())


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
    w_enc, b_enc = store.pillar_enc
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
