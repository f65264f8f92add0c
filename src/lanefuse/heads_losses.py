"""Prediction heads over enhanced lane features and the full loss suite with
analytic gradients.

Conventions shared with the rest of the pipeline: point and flag arrays are
laid out (n_d, n_p, ...) with the first n_p/2 slots belonging to the left
edge and the rest to the right edge. Ground-truth lanes are assigned to
prediction slots by index; surplus prediction slots are unsupervised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .double_edge import DoubleEdgeSet, StructuralError
from .fusion import ParamStore, _affine, _sigmoid
from .io_utils import require_finite
from .scene_synth import SIGNAL_CLASSES

__all__ = [
    "Predictions",
    "LossWeights",
    "LossConfig",
    "LossBreakdown",
    "GradCheckResult",
    "LOSS_NAMES",
    "heads_forward",
    "predictions_to_double_edge",
    "inject_ground_truth",
    "loss_roi",
    "loss_edge",
    "focal_loss",
    "smooth_l1",
    "cross_entropy",
    "loss_plan",
    "total_loss",
    "compute_losses",
    "grad_check",
]

LOSS_NAMES = ("roi", "edg", "int", "dir", "occ", "plan", "spd", "sig")

_SATURATED_LOGIT = 1e3  # drives logistic/softmax to exact 0/1 in float64


@dataclass(frozen=True)
class Predictions:
    points: np.ndarray  # (n_d, n_p, 3)
    int_logits: np.ndarray  # (n_d,)
    dir_logits: np.ndarray  # (n_d,)
    occ_logits: np.ndarray  # (n_d, n_p)
    plan_logits: np.ndarray  # (n_d, n_p)
    speed: float
    signal_logits: np.ndarray  # (n_classes,)


@dataclass(frozen=True)
class LossWeights:
    """Combination weights; defaults follow the 3:2:1:3:4:5:1:0.1 ratios."""

    gamma: float = 3.0  # roi
    delta: float = 2.0  # int
    epsilon: float = 1.0  # dir
    varepsilon: float = 3.0  # occ
    zeta: float = 4.0  # plan
    eta: float = 5.0  # edg
    theta: float = 1.0  # spd
    iota: float = 0.1  # sig

    def __post_init__(self):
        require_finite(self)
        for name in ("gamma", "delta", "epsilon", "varepsilon", "zeta", "eta", "theta", "iota"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LossConfig:
    rho: float = 0.25
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    d_p2t_floor: float = 0.1

    def __post_init__(self):
        require_finite(self)
        for name in ("rho", "focal_gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.d_p2t_floor <= 0:
            raise ValueError("d_p2t_floor must be > 0")


@dataclass(frozen=True)
class LossBreakdown:
    roi: float
    edg: float
    int: float
    dir: float
    occ: float
    plan: float
    spd: float
    sig: float
    total: float

    def __post_init__(self):
        require_finite(self)


# ---------------------------------------------------------------------------
# heads
# ---------------------------------------------------------------------------


def heads_forward(f_enhanced: np.ndarray, store: ParamStore) -> Predictions:
    """Affine prediction heads over the (n_d, n_p, E) enhanced features: per
    point for geometry/occ/plan, per lane (mean-pooled) for int/dir, global
    (mean-pooled) for speed and signal. This is the forward pass's one
    finiteness check: a ValueError names the first head whose output is
    NaN or +-inf."""
    f = f_enhanced
    lane_pool, g = f.mean(axis=1), f.mean(axis=(0, 1))
    (w_spd, b_spd), (w_sig, b_sig) = store.head_spd, store.head_sig
    out = {"head_pts": _affine(f, store.head_pts),
           "head_occ": _affine(f, store.head_occ)[..., 0],
           "head_plan": _affine(f, store.head_plan)[..., 0],
           "head_int": _affine(lane_pool, store.head_int)[:, 0],
           "head_dir": _affine(lane_pool, store.head_dir)[:, 0],
           "head_spd": w_spd @ g + b_spd,
           "head_sig": w_sig @ g + b_sig}
    for name, arr in out.items():
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} output is non-finite")
    return Predictions(points=out["head_pts"], int_logits=out["head_int"],
                       dir_logits=out["head_dir"], occ_logits=out["head_occ"],
                       plan_logits=out["head_plan"], speed=float(out["head_spd"][0]),
                       signal_logits=out["head_sig"])


def predictions_to_double_edge(pred: Predictions) -> DoubleEdgeSet:
    """Threshold flag logits at 0 and assemble the predicted lane set."""
    occ = (pred.occ_logits > 0).astype(np.int64)
    plan = (pred.plan_logits > 0).astype(np.int64)
    intr = (pred.int_logits > 0).astype(np.int64)
    dire = (pred.dir_logits > 0).astype(np.int64)
    return DoubleEdgeSet(pred.points, occ, plan, intr, dire)


def inject_ground_truth(gt: DoubleEdgeSet, gt_speed: float, gt_signal_class: int,
                        n_d: int) -> tuple[Predictions, np.ndarray]:
    """Predictions that reproduce the ground truth exactly (saturated logits),
    plus the matching (n_d, n_p, 3) ROI. Surplus lane slots are pushed to
    all-negative."""
    n_gt, n_p = gt.n_d, gt.n_p
    if n_gt > n_d:
        raise StructuralError(f"{n_gt} ground-truth lanes exceed {n_d} slots")
    points = np.zeros((n_d, n_p, 3))
    points[:n_gt] = gt.points
    occ = np.full((n_d, n_p), -_SATURATED_LOGIT)
    plan = np.full((n_d, n_p), -_SATURATED_LOGIT)
    intr = np.full(n_d, -_SATURATED_LOGIT)
    dire = np.full(n_d, -_SATURATED_LOGIT)
    occ[:n_gt] = np.where(gt.occ == 1, _SATURATED_LOGIT, -_SATURATED_LOGIT)
    plan[:n_gt] = np.where(gt.plan == 1, _SATURATED_LOGIT, -_SATURATED_LOGIT)
    intr[:n_gt] = np.where(gt.intersection == 1, _SATURATED_LOGIT, -_SATURATED_LOGIT)
    dire[:n_gt] = np.where(gt.direction == 1, _SATURATED_LOGIT, -_SATURATED_LOGIT)
    signal = np.full(len(SIGNAL_CLASSES), -_SATURATED_LOGIT)
    signal[gt_signal_class] = _SATURATED_LOGIT
    pred = Predictions(points=points, int_logits=intr, dir_logits=dire, occ_logits=occ,
                       plan_logits=plan, speed=float(gt_speed), signal_logits=signal)
    roi = np.zeros((n_d, n_p, 3))
    roi[:n_gt] = gt.points
    return pred, roi


# ---------------------------------------------------------------------------
# scalar helpers
# ---------------------------------------------------------------------------


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise binary cross-entropy in nats, numerically stable."""
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def _gt_slice(pred: np.ndarray, gt_points: np.ndarray) -> np.ndarray:
    n_gt = gt_points.shape[0]
    if pred.shape[0] < n_gt or pred.shape[1:] != gt_points.shape[1:]:
        raise StructuralError(
            f"prediction shape {pred.shape} incompatible with ground truth {gt_points.shape}"
        )
    return pred[:n_gt]


# ---------------------------------------------------------------------------
# losses; each *_grad variant returns (value, d value / d first argument)
# ---------------------------------------------------------------------------


def _l1_core(pred_points: np.ndarray, gt: DoubleEdgeSet,
             per_point: bool) -> tuple[float, np.ndarray]:
    """Summed Manhattan mismatch of the ground-truth slots, divided by the
    lane count (roi) or by the lane-point count (``per_point``, edg)."""
    res = _gt_slice(pred_points, gt.points) - gt.points
    n_gt, n_p = gt.n_d, gt.n_p
    denom = n_gt * n_p if per_point else n_gt
    value = float(np.abs(res).sum() / denom)
    grad = np.zeros_like(pred_points)
    grad[:n_gt] = np.sign(res) / denom
    return value, grad


def loss_roi(pred_roi: np.ndarray, gt: DoubleEdgeSet) -> float:
    """Mean over ground-truth lanes of the summed Manhattan mismatch between
    predicted and true boundary points (both edges)."""
    return _l1_core(np.asarray(pred_roi, dtype=float), gt, per_point=False)[0]


def loss_edge(pred_points: np.ndarray, gt: DoubleEdgeSet) -> float:
    """Mean Manhattan distance between predicted and true edge points."""
    return _l1_core(np.asarray(pred_points, dtype=float), gt, per_point=True)[0]


def _focal_core(logits: np.ndarray, targets: np.ndarray,
                cfg: LossConfig) -> tuple[float, np.ndarray]:
    z = np.asarray(logits, dtype=float)
    y = np.asarray(targets, dtype=float)
    p = _sigmoid(z)
    p_t = y * p + (1.0 - y) * (1.0 - p)
    alpha_t = y * cfg.focal_alpha + (1.0 - y) * (1.0 - cfg.focal_alpha)
    one_m = 1.0 - p_t
    with np.errstate(divide="ignore"):
        log_pt = np.log(p_t)
    elem = -alpha_t * one_m ** cfg.focal_gamma * log_pt
    elem = np.where(p_t == 1.0, 0.0, elem)  # modulating factor kills the 0*inf corner
    value = float(elem.mean())
    # dL/dp_t, then chain through dp_t/dz = p(1-p)(2y-1)
    g = cfg.focal_gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        pow_gm1 = np.where(one_m > 0.0, one_m ** (g - 1.0), 0.0)
    term = np.where((g > 0) & (one_m > 0.0), -g * pow_gm1 * log_pt, 0.0)
    safe_pt = np.where(p_t <= 0.0, 1.0, p_t)
    dldpt = -alpha_t * (term + one_m ** g / safe_pt)
    dptdz = p * (1.0 - p) * (2.0 * y - 1.0)
    grad = dldpt * dptdz / z.size
    return value, grad


def focal_loss(logits: np.ndarray, targets: np.ndarray, cfg: LossConfig) -> float:
    """Mean focal loss over elements, logits squashed through the logistic."""
    return _focal_core(logits, targets, cfg)[0]


def _smooth_l1_core(pred: float, gt: float) -> tuple[float, float]:
    d = pred - gt
    if abs(d) < 1.0:
        return 0.5 * d * d, d
    return abs(d) - 0.5, math.copysign(1.0, d)


def smooth_l1(pred_speed: float, gt_speed: float) -> float:
    return _smooth_l1_core(float(pred_speed), float(gt_speed))[0]


def _cross_entropy_core(logits: np.ndarray, gt_class: int) -> tuple[float, np.ndarray]:
    z = np.asarray(logits, dtype=float)
    if not 0 <= gt_class < z.shape[0]:
        raise IndexError(f"class {gt_class} out of range for {z.shape[0]} logits")
    m = z.max()
    lse = m + math.log(np.exp(z - m).sum())
    value = float(lse - z[gt_class])
    softmax = np.exp(z - lse)
    grad = softmax.copy()
    grad[gt_class] -= 1.0
    return value, grad


def cross_entropy(signal_logits: np.ndarray, gt_class: int) -> float:
    return _cross_entropy_core(signal_logits, gt_class)[0]


def _plan_core(plan_logits: np.ndarray, gt: DoubleEdgeSet, target_point: np.ndarray,
               cfg: LossConfig) -> tuple[float, np.ndarray]:
    y = gt.plan.astype(float)
    z = _gt_slice(np.asarray(plan_logits, dtype=float), y)
    target = np.asarray(target_point, dtype=float)
    d = np.linalg.norm(gt.points - target, axis=2)
    d = np.maximum(d, cfg.d_p2t_floor)
    u = _bce_with_logits(z, y)
    em = np.exp(-u)
    mod = cfg.rho * (1.0 - em)
    term = mod ** 2 * u / d
    # each point pair contributes the mean of its left/right edge terms
    value = float(term.sum() / 2.0)
    dterm_du = cfg.rho ** 2 * (2.0 * (1.0 - em) * em * u + (1.0 - em) ** 2) / d
    du_dz = _sigmoid(z) - y
    grad = np.zeros_like(np.asarray(plan_logits, dtype=float))
    grad[:gt.n_d] = dterm_du * du_dz / 2.0
    return value, grad


def loss_plan(plan_logits: np.ndarray, gt: DoubleEdgeSet, target_point: np.ndarray,
              cfg: LossConfig) -> float:
    """Plan-flag loss: per edge point, a saturating modulation of the binary
    cross-entropy divided by that point's (floored) distance to the target,
    summed over lanes and indices with left/right terms averaged."""
    return _plan_core(plan_logits, gt, target_point, cfg)[0]


def total_loss(components: Mapping[str, float], weights: LossWeights) -> LossBreakdown:
    """Linear combination of the eight component losses."""
    missing = [n for n in LOSS_NAMES if n not in components]
    if missing:
        raise KeyError(f"missing loss components: {missing}")
    c = components
    total = (weights.gamma * c["roi"] + weights.delta * c["int"]
             + weights.epsilon * c["dir"] + weights.varepsilon * c["occ"]
             + weights.zeta * c["plan"] + weights.eta * c["edg"]
             + weights.theta * c["spd"] + weights.iota * c["sig"])
    return LossBreakdown(roi=c["roi"], edg=c["edg"], int=c["int"], dir=c["dir"],
                         occ=c["occ"], plan=c["plan"], spd=c["spd"], sig=c["sig"],
                         total=total)


def compute_losses(pred: Predictions, pred_roi: np.ndarray, gt: DoubleEdgeSet,
                   target_point: np.ndarray, gt_speed: float, gt_signal_class: int,
                   cfg: LossConfig, weights: LossWeights) -> LossBreakdown:
    """All components against ground truth, combined per the weight ratios."""
    n_gt = gt.n_d
    components = {
        "roi": loss_roi(pred_roi, gt),
        "edg": loss_edge(pred.points, gt),
        "int": focal_loss(pred.int_logits[:n_gt], gt.intersection, cfg),
        "dir": focal_loss(pred.dir_logits[:n_gt], gt.direction, cfg),
        "occ": focal_loss(pred.occ_logits[:n_gt], gt.occ, cfg),
        "plan": loss_plan(pred.plan_logits, gt, target_point, cfg),
        "spd": smooth_l1(pred.speed, gt_speed),
        "sig": cross_entropy(pred.signal_logits, gt_signal_class),
    }
    return total_loss(components, weights)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradCheckResult:
    loss_name: str
    max_rel_err: float
    resampled: int  # points rejected as too close to a non-differentiable spot


def _random_lane_set(rng: np.random.Generator, n_gt: int, n_p: int) -> DoubleEdgeSet:
    points = rng.uniform(-20.0, 20.0, (n_gt, n_p, 3))
    occ = rng.integers(0, 2, (n_gt, n_p))
    plan = rng.integers(0, 2, (n_gt, n_p))
    intr = rng.integers(0, 2, n_gt)
    dire = rng.integers(0, 2, n_gt)
    return DoubleEdgeSet(points, occ, plan, intr, dire)


def _grad_case(loss_name: str, rng: np.random.Generator,
               cfg: LossConfig) -> tuple[Callable[[np.ndarray], tuple[float, np.ndarray]], np.ndarray, bool]:
    """Build (fn, x0, degenerate_flag) for one randomized check point."""
    n_gt, n_d, n_p = 3, 4, 8
    if loss_name in ("roi", "edg"):
        gt = _random_lane_set(rng, n_gt, n_p)
        base = gt.points
        x0 = np.zeros((n_d, n_p, 3))
        x0[:n_gt] = base + rng.uniform(0.1, 1.5, base.shape) * rng.choice([-1.0, 1.0], base.shape)
        x0[n_gt:] = rng.uniform(-5.0, 5.0, (n_d - n_gt, n_p, 3))
        per_point = loss_name == "edg"
        return (lambda x: _l1_core(x, gt, per_point)), x0, False
    if loss_name in ("int", "dir"):
        y = rng.integers(0, 2, n_gt)
        x0 = rng.uniform(-3.0, 3.0, n_gt)
        return (lambda x: _focal_core(x, y, cfg)), x0, False
    if loss_name == "occ":
        y = rng.integers(0, 2, (n_gt, n_p))
        x0 = rng.uniform(-3.0, 3.0, (n_gt, n_p))
        return (lambda x: _focal_core(x, y, cfg)), x0, False
    if loss_name == "plan":
        gt = _random_lane_set(rng, n_gt, n_p)
        target = rng.uniform(-20.0, 20.0, 3)
        x0 = rng.uniform(-3.0, 3.0, (n_d, n_p))
        return (lambda x: _plan_core(x, gt, target, cfg)), x0, False
    if loss_name == "spd":
        gt_speed = rng.uniform(0.0, 15.0)
        d = rng.uniform(-3.0, 3.0)
        degenerate = abs(abs(d) - 1.0) < 0.05
        x0 = np.array([gt_speed + d])

        def fn(x):
            v, g = _smooth_l1_core(float(x[0]), gt_speed)
            return v, np.array([g])

        return fn, x0, degenerate
    if loss_name == "sig":
        n_cls = 3
        k = int(rng.integers(0, n_cls))
        x0 = rng.uniform(-3.0, 3.0, n_cls)
        return (lambda x: _cross_entropy_core(x, k)), x0, False
    raise KeyError(f"unknown loss {loss_name!r}")


def grad_check(loss_name: str, seed: int = 0, points: int = 100, step: float = 1e-5,
               coords: int = 10, cfg: LossConfig | None = None) -> GradCheckResult:
    """Compare analytic gradients against central finite differences at
    randomized non-degenerate points; returns the max relative error over the
    sampled coordinates."""
    if step <= 0:
        raise ValueError("step must be > 0")
    if loss_name not in LOSS_NAMES:
        raise KeyError(f"unknown loss {loss_name!r}")
    cfg = cfg or LossConfig()
    rng = np.random.default_rng([seed, LOSS_NAMES.index(loss_name)])
    max_err = 0.0
    resampled = 0
    done = 0
    while done < points:
        fn, x0, degenerate = _grad_case(loss_name, rng, cfg)
        if degenerate:
            resampled += 1
            continue
        _, grad = fn(x0)
        flat = x0.ravel()
        n_coords = min(coords, flat.size)
        picks = rng.choice(flat.size, size=n_coords, replace=False)
        for idx in picks:
            xp = flat.copy()
            xm = flat.copy()
            xp[idx] += step
            xm[idx] -= step
            fp, _ = fn(xp.reshape(x0.shape))
            fm, _ = fn(xm.reshape(x0.shape))
            fd = (fp - fm) / (2.0 * step)
            a = float(grad.ravel()[idx])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
            max_err = max(max_err, float(err))
        done += 1
    return GradCheckResult(loss_name=loss_name, max_rel_err=max_err, resampled=resampled)
