"""Closed-loop evaluation: a kinematic bicycle ego follows the interpreted
path under pure pursuit plus proportional speed control, infractions are
detected against the scene, and Driving Score / Route Completion /
Infraction Score are reported.

DS = 100 * RC * IS by construction. Penalties multiply per event; route
deviation terminates the episode. Everything is deterministic given the
scene, the planner, and the controller configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .double_edge import PlannedPath
from .geometry import PolylineProjector, polyline_length
from .scene_synth import Scene

__all__ = [
    "EgoState",
    "ControllerConfig",
    "EvalConfig",
    "InfractionEvent",
    "InfractionLog",
    "EvalReport",
    "step_ego",
    "follow_path",
    "route_completion",
    "infraction_score",
    "run_closed_loop",
    "DEFAULT_PENALTIES",
]

DEFAULT_PENALTIES = {
    "collision_vehicle": 0.60,
    "collision_static": 0.65,
    "red_light": 0.70,
    "route_deviation": 1.0,  # terminates the episode, no multiplicative hit
}


@dataclass(frozen=True)
class EgoState:
    x: float
    y: float
    heading: float
    speed: float


@dataclass(frozen=True)
class ControllerConfig:
    lookahead: float = 3.0
    wheelbase: float = 2.5
    speed_gain: float = 1.0
    dt: float = 0.05
    max_steer: float = 0.6
    max_accel: float = 3.0

    def __post_init__(self):
        for name in ("lookahead", "wheelbase", "speed_gain", "dt", "max_steer", "max_accel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"controller {name} must be > 0")
        if self.dt > 0.1:
            raise ValueError(f"dt must be <= 0.1 s, got {self.dt}")


@dataclass(frozen=True)
class EvalConfig:
    penalties: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_PENALTIES))
    ego_radius: float = 1.0  # collision inflation around the ego point
    arrival_radius: float = 0.3
    deviation_lane_widths: float = 3.0
    deviation_seconds: float = 2.0


@dataclass(frozen=True)
class InfractionEvent:
    time: float
    kind: str
    penalty: float


@dataclass(frozen=True)
class InfractionLog:
    events: tuple[InfractionEvent, ...]

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class EvalReport:
    ds: float
    rc: float
    is_score: float
    infractions: InfractionLog
    terminated: str  # completed | horizon | deviation | failure
    trajectory: np.ndarray  # (T, 4): t, x, y, speed


def step_ego(state: EgoState, steer: float, accel: float, cfg: ControllerConfig) -> EgoState:
    """One kinematic bicycle step; steering and acceleration must be within
    the configured limits."""
    if abs(steer) > cfg.max_steer + 1e-12:
        raise ValueError(f"steer {steer} exceeds limit {cfg.max_steer}")
    if abs(accel) > cfg.max_accel + 1e-12:
        raise ValueError(f"accel {accel} exceeds limit {cfg.max_accel}")
    x = state.x + state.speed * math.cos(state.heading) * cfg.dt
    y = state.y + state.speed * math.sin(state.heading) * cfg.dt
    heading = state.heading + state.speed / cfg.wheelbase * math.tan(steer) * cfg.dt
    speed = max(0.0, state.speed + accel * cfg.dt)
    return EgoState(x=x, y=y, heading=heading, speed=speed)


def follow_path(state: EgoState, path: PlannedPath, cfg: ControllerConfig) -> tuple[float, float]:
    """Pure pursuit toward the first waypoint at least one lookahead away,
    plus proportional speed control toward the path's target speed.

    An empty path yields zero controls (hold).
    """
    if len(path.waypoints) == 0:
        return 0.0, 0.0
    ego = np.array([state.x, state.y])
    dists = [math.hypot(w[0] - ego[0], w[1] - ego[1]) for w in path.waypoints]
    nearest = int(np.argmin(dists))
    target = path.waypoints[-1]
    for i in range(nearest, len(path.waypoints)):
        if dists[i] >= cfg.lookahead:
            target = path.waypoints[i]
            break
    angle_to = math.atan2(target[1] - ego[1], target[0] - ego[0])
    eta = math.remainder(angle_to - state.heading, 2.0 * math.pi)
    steer = math.atan(2.0 * cfg.wheelbase * math.sin(eta) / cfg.lookahead)
    steer = max(-cfg.max_steer, min(cfg.max_steer, steer))
    accel = cfg.speed_gain * (path.target_speed - state.speed)
    accel = max(-cfg.max_accel, min(cfg.max_accel, accel))
    return steer, accel


def _progress_fold(projections, lane_width: float, total: float) -> float:
    """Route completion from the (arc length, distance) projections of the
    trajectory points, in trajectory order."""
    if total <= 0.0:
        return 0.0
    progress = 0.0
    for s, dist in projections:
        if dist <= lane_width / 2.0 and s > progress:
            progress = s
    return min(1.0, progress / total)


def route_completion(route: np.ndarray, trajectory: np.ndarray,
                     lane_width: float) -> float:
    """Fraction of the route polyline covered by the trajectory's furthest
    monotone progress point, counting only passes within half a lane width."""
    total = polyline_length(route)
    if total <= 0.0 or len(trajectory) == 0:
        return 0.0
    project = PolylineProjector(route)
    return _progress_fold((project(p[:2]) for p in np.atleast_2d(trajectory)),
                          lane_width, total)


def infraction_score(log: InfractionLog) -> float:
    """Product of per-event penalty factors; 1.0 for a clean run.

    Factors multiply in sorted order so the score never depends on event
    ordering, including at floating-point precision.
    """
    score = 1.0
    for penalty in sorted(ev.penalty for ev in log.events):
        score *= penalty
    return score


def _signal_line_crossed(scene: Scene, prev_s: float, cur_s: float) -> bool:
    return (scene.signal_line_s is not None
            and prev_s < scene.signal_line_s <= cur_s)


def _stack_boxes(scene: Scene, ego_radius: float):
    """Kinds, centres (K, 2), inflated half-extents (K, 2), cos and sin of
    yaw for the agent boxes followed by the clutter boxes."""
    kinds, centers, halves, cos, sin = [], [], [], [], []
    for kind, boxes in (("collision_vehicle", scene.agents),
                        ("collision_static", scene.clutter)):
        for box in boxes:
            kinds.append(kind)
            centers.append(box.center[:2])
            halves.append(np.array(box.extent[:2]) / 2.0 + ego_radius)
            cos.append(math.cos(box.yaw))
            sin.append(math.sin(box.yaw))
    return (kinds, np.array(centers, dtype=float).reshape(-1, 2),
            np.array(halves, dtype=float).reshape(-1, 2), np.array(cos), np.array(sin))


def run_closed_loop(scene: Scene,
                    planner: Callable[[Scene], PlannedPath],
                    cfg: ControllerConfig,
                    horizon: float,
                    eval_cfg: EvalConfig | None = None) -> EvalReport:
    """Plan once, then tick the controller until route completion, the
    horizon, or full route deviation.

    The planner is called exactly once, before the first step, and must be
    a pure function of the scene. If it raises, the episode ends with a
    failure marker and a trajectory holding only the start row.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    eval_cfg = eval_cfg or EvalConfig()
    route = scene.route_polyline
    total_len = polyline_length(route)
    project = PolylineProjector(route)
    lane_width = scene.lane_widths[scene.route_lane]
    end_xy = np.array(scene.route_target[:2])
    kinds, centers, halves, cos, sin = _stack_boxes(scene, eval_cfg.ego_radius)
    live = np.ones(len(kinds), dtype=bool)  # boxes not hit yet; each is logged once

    state = EgoState(x=scene.route_start[0], y=scene.route_start[1],
                     heading=scene.route_start[2], speed=0.0)
    events: list[InfractionEvent] = []
    red_logged = False
    trajectory: list[tuple[float, float, float, float]] = []
    progress: list[tuple[float, float]] = []  # (s, d) per trajectory row
    terminated = "horizon"
    deviation_clock = 0.0
    prev_s, prev_d = project(np.array([state.x, state.y]))

    try:
        path = planner(scene)
    except Exception:
        path = None

    t = 0.0
    n_steps = int(math.ceil(horizon / cfg.dt))
    for _ in range(n_steps):
        trajectory.append((t, state.x, state.y, state.speed))
        progress.append((prev_s, prev_d))
        if path is None:
            terminated = "failure"
            break
        steer, accel = follow_path(state, path, cfg)
        state = step_ego(state, steer, accel, cfg)
        t += cfg.dt
        ego_xy = np.array([state.x, state.y])

        if live.any():
            d = ego_xy - centers
            u = np.abs(cos * d[:, 0] + sin * d[:, 1])
            v = np.abs(-sin * d[:, 0] + cos * d[:, 1])
            for bi in np.flatnonzero(live & (u <= halves[:, 0]) & (v <= halves[:, 1])):
                live[bi] = False
                events.append(InfractionEvent(time=t, kind=kinds[bi],
                                              penalty=eval_cfg.penalties[kinds[bi]]))

        cur_s, cur_d = project(ego_xy)
        if (scene.signal_state == "red" and not red_logged
                and _signal_line_crossed(scene, prev_s, cur_s)):
            red_logged = True
            events.append(InfractionEvent(time=t, kind="red_light",
                                          penalty=eval_cfg.penalties["red_light"]))
        prev_s, prev_d = cur_s, cur_d

        if cur_d > eval_cfg.deviation_lane_widths * lane_width:
            deviation_clock += cfg.dt
            if deviation_clock >= eval_cfg.deviation_seconds:
                events.append(InfractionEvent(time=t, kind="route_deviation",
                                              penalty=eval_cfg.penalties["route_deviation"]))
                terminated = "deviation"
                break
        else:
            deviation_clock = 0.0

        if (np.linalg.norm(ego_xy - end_xy) <= eval_cfg.arrival_radius
                or cur_s >= total_len - eval_cfg.arrival_radius):
            trajectory.append((t, state.x, state.y, state.speed))
            progress.append((cur_s, cur_d))
            terminated = "completed"
            break

    traj = np.array(trajectory)
    rc = _progress_fold(progress, lane_width, total_len)
    log = InfractionLog(events=tuple(events))
    is_score = infraction_score(log)
    ds = 100.0 * rc * is_score
    return EvalReport(ds=ds, rc=rc, is_score=is_score, infractions=log,
                      terminated=terminated, trajectory=traj)

