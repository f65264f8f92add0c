"""Closed-loop evaluation: a kinematic bicycle ego follows the interpreted
path under pure pursuit plus proportional speed control, infractions are
detected against the scene, and Driving Score / Route Completion /
Infraction Score are reported.

An episode drives one path planned before it starts; ``path=None`` (no
plan) is a failure. DS = 100 * RC * IS by construction. Penalties multiply
per event; route deviation terminates the episode. Everything is
deterministic given the scene, the path, and the controller configuration.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .double_edge import PlannedPath
from .geometry import PolylineProjector, box_table, boxes_entered, polyline_length
from .io_utils import require_finite
from .scene_synth import Scene

__all__ = [
    "ControllerConfig",
    "EvalConfig",
    "InfractionEvent",
    "EvalReport",
    "step_ego",
    "follow_path",
    "infraction_score",
    "run_closed_loop",
    "DEFAULT_PENALTIES",
]

# Steps the dynamics advance between two batched scoring passes.
_CHUNK = 64

DEFAULT_PENALTIES = {
    "collision_vehicle": 0.60,
    "collision_static": 0.65,
    "red_light": 0.70,
    "route_deviation": 1.0,  # terminates the episode, no multiplicative hit
}


@dataclass(frozen=True)
class ControllerConfig:
    lookahead: float = 3.0
    wheelbase: float = 2.5
    speed_gain: float = 1.0
    dt: float = 0.05
    max_steer: float = 0.6
    max_accel: float = 3.0

    def __post_init__(self):
        require_finite(self)
        for name in ("lookahead", "wheelbase", "speed_gain", "dt", "max_steer", "max_accel"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.dt <= 0.1:
            raise ValueError(f"dt must be <= 0.1 s, got {self.dt}")


@dataclass(frozen=True)
class EvalConfig:
    penalties: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_PENALTIES))
    ego_radius: float = 1.0  # collision inflation around the ego point
    arrival_radius: float = 0.3
    deviation_lane_widths: float = 3.0
    deviation_seconds: float = 2.0

    def __post_init__(self):
        if sorted(self.penalties) != sorted(DEFAULT_PENALTIES):
            raise ValueError(f"penalties must name exactly the kinds {sorted(DEFAULT_PENALTIES)}, "
                             f"got {sorted(self.penalties)}")
        for kind, value in self.penalties.items():
            if not 0.0 < value <= 1.0:
                raise ValueError(f"penalties.{kind} must be in (0, 1], got {value!r}")
        require_finite(self, ("ego_radius", "arrival_radius", "deviation_lane_widths",
                              "deviation_seconds"))
        for name in ("arrival_radius", "deviation_lane_widths", "deviation_seconds"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.ego_radius >= 0.0:
            raise ValueError(f"ego_radius must be >= 0, got {self.ego_radius!r}")


@dataclass(frozen=True)
class InfractionEvent:
    time: float
    kind: str
    penalty: float


@dataclass(frozen=True)
class EvalReport:
    ds: float
    rc: float
    is_score: float
    infractions: tuple[InfractionEvent, ...]
    terminated: str  # completed | horizon | deviation | failure
    trajectory: np.ndarray  # (T, 4): t, x, y, speed


def step_ego(x: float, y: float, heading: float, speed: float, steer: float, accel: float,
             cfg: ControllerConfig) -> tuple[float, float, float, float]:
    """One kinematic bicycle step of the state (x, y, heading, speed);
    steering and acceleration must be within the configured limits."""
    if abs(steer) > cfg.max_steer + 1e-12:
        raise ValueError(f"steer {steer} exceeds limit {cfg.max_steer}")
    if abs(accel) > cfg.max_accel + 1e-12:
        raise ValueError(f"accel {accel} exceeds limit {cfg.max_accel}")
    dt = cfg.dt
    return (x + speed * math.cos(heading) * dt,
            y + speed * math.sin(heading) * dt,
            heading + speed / cfg.wheelbase * math.tan(steer) * dt,
            max(0.0, speed + accel * dt))


def follow_path(x: float, y: float, heading: float, speed: float,
                waypoints: list[tuple[float, float]], target_speed: float,
                cfg: ControllerConfig) -> tuple[float, float]:
    """Pure pursuit toward the first (x, y) waypoint at least one lookahead
    away, plus proportional speed control toward ``target_speed``.

    An empty waypoint list yields zero controls (hold).
    """
    if not waypoints:
        return 0.0, 0.0
    # math.dist forms |w - here| as math.hypot(wx - x, wy - y) does, bit for bit
    dists = list(map(math.dist, waypoints, [(x, y)] * len(waypoints)))
    nearest = dists.index(min(dists))
    tx, ty = waypoints[-1]
    lookahead = cfg.lookahead
    for i in range(nearest, len(waypoints)):
        if dists[i] >= lookahead:
            tx, ty = waypoints[i]
            break
    eta = math.remainder(math.atan2(ty - y, tx - x) - heading, 2.0 * math.pi)
    steer = math.atan(2.0 * cfg.wheelbase * math.sin(eta) / lookahead)
    steer = max(-cfg.max_steer, min(cfg.max_steer, steer))
    accel = cfg.speed_gain * (target_speed - speed)
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


def infraction_score(events: tuple[InfractionEvent, ...]) -> float:
    """Product of per-event penalty factors; 1.0 for a clean run.

    Factors multiply in sorted order so the score never depends on event
    ordering, including at floating-point precision.
    """
    score = 1.0
    for penalty in sorted(ev.penalty for ev in events):
        score *= penalty
    return score


def run_closed_loop(scene: Scene,
                    path: PlannedPath | None,
                    cfg: ControllerConfig,
                    horizon: float,
                    eval_cfg: EvalConfig | None = None) -> EvalReport:
    """Tick the controller along ``path`` until route completion, the
    horizon, or full route deviation. With no path (``None``, a plan that
    could not be made) the episode ends with a failure marker and a
    trajectory holding only the start row.

    Only the controller and the bicycle model feed back into the next step,
    so they advance :data:`_CHUNK` steps at a time, on the state as four
    floats and the path's waypoints read once as (x, y) floats. Each chunk
    is then scored at once (one route projection and one box test over all
    its steps) and scanned in step order, in Python floats, to log events
    and find the terminating step; the steps after it are dropped.

    Once a step returns the state it was stepped from, bit for bit, the ego
    is at rest: the controller and the bicycle model are pure, so every
    later step would return that state too. Later steps call neither, and
    later chunks reuse the last row's projection and run no box test; the
    scan still runs, so the deviation clock and the horizon still end the
    episode.

    The report is the same, to the bit, as ticking and scoring one step at
    a time.
    """
    if not math.isfinite(horizon) or horizon <= 0:
        raise ValueError(f"horizon must be finite and > 0, got {horizon}")
    eval_cfg = eval_cfg or EvalConfig()
    route = scene.route_polyline
    total_len = polyline_length(route)
    project = PolylineProjector(route)
    lane_width = scene.lane_widths[scene.route_lane]
    end_xy = np.array(scene.route_target[:2])
    boxes = box_table((*scene.agents, *scene.clutter))  # agents first
    live = set(range(len(boxes)))  # boxes not hit yet; each is logged once
    red_line = scene.signal_line_s if scene.signal_state == "red" else None  # None once logged
    deviation_d = eval_cfg.deviation_lane_widths * lane_width
    arrival_r = eval_cfg.arrival_radius
    arrival_s = total_len - arrival_r
    penalties = eval_cfg.penalties

    state = (*scene.route_start[:3], 0.0)  # x, y, heading, speed
    events: list[InfractionEvent] = []
    # One row per tick boundary: row i is the state before step i.
    rows: list[tuple[float, float, float, float]] = [(0.0, state[0], state[1], state[3])]
    s0, d0 = project(np.array(state[:2]))
    progress_s, progress_d = [s0], [d0]  # (s, d) per row
    waypoints = [] if path is None else [(float(w[0]), float(w[1])) for w in path.waypoints]

    n_steps = int(math.ceil(horizon / cfg.dt))
    kept, terminated = n_steps, "horizon"  # rows the trajectory keeps
    if path is None:
        kept, terminated = 1, "failure"
    t = 0.0
    deviation_clock = 0.0
    prev_s = s0
    step = 0
    at_rest = False  # the state is a fixed point of follow_path + step_ego
    while terminated == "horizon" and step < n_steps:
        first = len(rows)
        rest_chunk = at_rest
        for _ in range(min(_CHUNK, n_steps - step)):
            if not at_rest:
                steer, accel = follow_path(*state, waypoints, path.target_speed, cfg)
                moved = step_ego(*state, steer, accel, cfg)
                # == alone would take a -0.0 that steps to +0.0 for rest
                at_rest = (moved == state
                           and struct.pack("<4d", *moved) == struct.pack("<4d", *state))
                state = moved
            t += cfg.dt
            rows.append((t, state[0], state[1], state[3]))
        if rest_chunk:
            # Every row repeats the last row scored: the same (s, d), and its
            # boxes and any arrival were handled in that row's chunk.
            m = len(rows) - first
            chunk_s, chunk_d = [chunk_s[-1]] * m, [chunk_d[-1]] * m
            entered, arrived = {}, [False] * m
        else:
            xy = np.array([row[1:3] for row in rows[first:]])
            s_arr, d_arr = project.project(xy)
            chunk_s, chunk_d = s_arr.tolist(), d_arr.tolist()
            entered = boxes_entered(xy, boxes, eval_cfg.ego_radius) if live else {}
            # sqrt(dx * dx + dy * dy) per row; a 1-D norm would be a BLAS dot
            arrived = (np.linalg.norm(xy - end_xy, axis=1) <= arrival_r).tolist()
        for j, (cur_s, cur_d) in enumerate(zip(chunk_s, chunk_d)):
            step += 1
            t_j = rows[first + j][0]
            for bi in entered.get(j, ()):
                if bi in live:
                    live.remove(bi)
                    kind = "collision_vehicle" if bi < len(scene.agents) else "collision_static"
                    events.append(InfractionEvent(time=t_j, kind=kind, penalty=penalties[kind]))
            if red_line is not None and prev_s < red_line <= cur_s:
                red_line = None
                events.append(InfractionEvent(time=t_j, kind="red_light",
                                              penalty=penalties["red_light"]))
            prev_s = cur_s
            if cur_d > deviation_d:
                deviation_clock += cfg.dt
                if deviation_clock >= eval_cfg.deviation_seconds:
                    events.append(InfractionEvent(time=t_j, kind="route_deviation",
                                                  penalty=penalties["route_deviation"]))
                    kept, terminated = step, "deviation"
                    break
            else:
                deviation_clock = 0.0
            if arrived[j] or cur_s >= arrival_s:
                kept, terminated = step + 1, "completed"
                break
        progress_s += chunk_s
        progress_d += chunk_d

    traj = np.array(rows[:kept])
    rc = _progress_fold(zip(progress_s[:kept], progress_d[:kept]), lane_width, total_len)
    infractions = tuple(events)
    is_score = infraction_score(infractions)
    ds = 100.0 * rc * is_score
    return EvalReport(ds=ds, rc=rc, is_score=is_score, infractions=infractions,
                      terminated=terminated, trajectory=traj)
