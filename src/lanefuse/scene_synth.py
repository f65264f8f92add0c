"""Reproducible synthetic driving scenes.

Generates lane geometry (straight / arc / intersection), static agent and
clutter boxes, a route, double-edge ground truth, a surface-sampled LiDAR
point cloud (an (N, 3) array), and the per-view feature stack (a (4, C, H, W)
array) that stands in for an image backbone. Everything is a pure function
of (spec, seed); repeated calls are bit-identical. Scene files are canonical
JSON that embed the ground truth as a :func:`double_edge.to_obj` object.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .double_edge import DoubleEdgeSet, from_obj, to_obj, validate
from .geometry import (
    OrientedBox,
    SegmentTable,
    polyline_length,
    resample_polyline,
)
from .io_utils import atomic_write_bytes, dumps, from_json, require_finite

__all__ = [
    "SceneSpec",
    "Scene",
    "GenerationError",
    "generate_scene",
    "render_lidar",
    "rasterize_semantic_views",
    "synth_view_features",
    "occupancy_flags",
    "scene_to_json",
    "scene_from_json",
    "save_point_cloud",
    "load_point_cloud",
]

GEOMETRIES = ("straight", "arc", "intersection")
# signal states, in the order of the signal head's classes
SIGNAL_CLASSES = ("none", "green", "red")

# rng stream ids, combined with the owning seed as default_rng([seed, STREAM_*])
_STREAM_SCENE = 0
_STREAM_LIDAR = 1
_STREAM_VIEWS = 2

# Most points one cloud may hold, checked before allocating (the densest
# benchmark cloud has ~120k). A 9.99M-point render with the default noise
# took peak RSS from 37 to ~500 MB (Python 3.11, numpy, 2-CPU x86-64 host).
MAX_CLOUD_POINTS = 10_000_000

_CRUISE_SPEED = 8.0  # m/s commanded on open road
_EGO_CLEARANCE = 8.0  # agents keep this distance from the start pose
_CENTERLINE_STEP = 1.0  # native centerline sampling, meters


class GenerationError(ValueError):
    """Spec cannot be realized (invalid field or unreachable target)."""


@dataclass(frozen=True)
class SceneSpec:
    seed: int
    lane_count: int = 1
    geometry: str = "straight"
    radius: float | None = None  # required for geometry="arc"
    lane_width: float = 3.5
    route_length: float = 100.0
    agent_count: int = 0
    clutter_density: float = 0.0  # objects per 100 m^2 of roadside band
    traffic_signal: str = "none"

    def validate(self) -> None:
        require_finite(self, ("lane_width", "route_length", "clutter_density", "radius"),
                       GenerationError)
        if self.lane_count < 1:
            raise GenerationError(f"lane_count must be >= 1, got {self.lane_count}")
        if self.geometry not in GEOMETRIES:
            raise GenerationError(f"geometry must be one of {GEOMETRIES}, got {self.geometry!r}")
        if self.lane_width <= 0:
            raise GenerationError(f"lane_width must be > 0, got {self.lane_width}")
        if self.route_length <= 0:
            raise GenerationError(f"route_length must be > 0, got {self.route_length}")
        if self.agent_count < 0:
            raise GenerationError(f"agent_count must be >= 0, got {self.agent_count}")
        if self.clutter_density < 0:
            raise GenerationError(f"clutter_density must be >= 0, got {self.clutter_density}")
        if self.traffic_signal not in SIGNAL_CLASSES:
            raise GenerationError(
                f"traffic_signal must be one of {SIGNAL_CLASSES}, got {self.traffic_signal!r}"
            )
        if self.geometry == "arc":
            if self.radius is None or self.radius <= self.lane_width:
                raise GenerationError(
                    f"arc radius must exceed lane_width, got radius={self.radius}"
                )


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    centerlines: tuple[np.ndarray, ...]  # per lane, (M, 3)
    lane_widths: tuple[float, ...]
    agents: tuple[OrientedBox, ...]
    clutter: tuple[OrientedBox, ...]
    route_start: tuple[float, float, float]  # x, y, heading
    route_target: tuple[float, float, float]
    route_lane: int
    signal_state: str
    signal_line_s: float | None  # arc length along the route lane, if any signal
    ground_truth: DoubleEdgeSet
    gt_speed: float

    @property
    def route_polyline(self) -> np.ndarray:
        return self.centerlines[self.route_lane]

    @property
    def signal_class(self) -> int:
        """Index of ``signal_state`` among the signal head's classes."""
        return SIGNAL_CLASSES.index(self.signal_state)


# ---------------------------------------------------------------------------
# lane geometry
# ---------------------------------------------------------------------------


def _straight_centerline(length: float, offset: float) -> np.ndarray:
    n = max(2, int(math.ceil(length / _CENTERLINE_STEP)) + 1)
    x = np.linspace(0.0, length, n)
    return np.column_stack([x, np.full(n, offset), np.zeros(n)])


def _arc_centerline(radius: float, arc_len: float, offset: float) -> np.ndarray:
    # Concentric left-turn arcs sharing the base angular span; the ego lane
    # starts at the origin with +x tangent, turn center at (0, radius).
    r = radius - offset
    theta_max = arc_len / radius
    n = max(2, int(math.ceil(r * theta_max / _CENTERLINE_STEP)) + 1)
    theta = np.linspace(0.0, theta_max, n)
    x = r * np.sin(theta)
    y = radius - r * np.cos(theta)
    return np.column_stack([x, y, np.zeros(n)])


def _lane_layout(spec: SceneSpec) -> tuple[list[np.ndarray], list[int], list[int]]:
    """Centerlines plus per-lane intersection/direction flags."""
    n_cross = min(2, spec.lane_count - 1) if spec.geometry == "intersection" else 0
    n_main = spec.lane_count - n_cross
    n_same = (n_main + 1) // 2

    centerlines: list[np.ndarray] = []
    int_flags: list[int] = []
    dir_flags: list[int] = []
    for k in range(n_main):
        offset = k * spec.lane_width
        if spec.geometry == "arc":
            line = _arc_centerline(float(spec.radius), spec.route_length, offset)
        else:
            line = _straight_centerline(spec.route_length, offset)
        centerlines.append(line)
        int_flags.append(0)
        dir_flags.append(1 if k < n_same else 0)

    if n_cross:
        x_c = spec.route_length / 2.0
        span = min(30.0, spec.route_length / 2.0)
        for k in range(n_cross):
            x_off = x_c + k * spec.lane_width
            n = max(2, int(math.ceil(2 * span / _CENTERLINE_STEP)) + 1)
            y = np.linspace(-span, span, n)
            centerlines.append(np.column_stack([np.full(n, x_off), y, np.zeros(n)]))
            int_flags.append(1)
            dir_flags.append(0)
    return centerlines, int_flags, dir_flags


def _orient_ego_outward(line: np.ndarray, ego_xy: np.ndarray) -> np.ndarray:
    """Reverse the polyline if its far end is nearer the ego than its start."""
    d0 = np.linalg.norm(line[0, :2] - ego_xy)
    d1 = np.linalg.norm(line[-1, :2] - ego_xy)
    return line[::-1].copy() if d1 < d0 else line


def occupancy_flags(midpoints: np.ndarray, agents: tuple[OrientedBox, ...]) -> np.ndarray:
    """occ flag per lane sample: 1 iff the lane midpoint sits inside any
    agent footprint."""
    out = np.zeros(len(midpoints), dtype=np.int64)
    for box in agents:
        out |= box.contains_xy(midpoints[:, :2]).astype(np.int64)
    return out


def _ground_truth(
    centerlines: list[np.ndarray],
    int_flags: list[int],
    dir_flags: list[int],
    lane_width: float,
    agents: tuple[OrientedBox, ...],
    route_lane: int,
    n_p: int,
) -> DoubleEdgeSet:
    half = n_p // 2
    n_d = len(centerlines)
    points = np.zeros((n_d, n_p, 3))
    occ = np.zeros((n_d, n_p), dtype=np.int64)
    plan = np.zeros((n_d, n_p), dtype=np.int64)
    for i, line in enumerate(centerlines):
        mid = resample_polyline(line, half)
        tang = np.gradient(mid[:, :2], axis=0)
        norm = np.linalg.norm(tang, axis=1, keepdims=True)
        tang = tang / np.where(norm == 0.0, 1.0, norm)
        left_n = np.column_stack([-tang[:, 1], tang[:, 0]])
        points[i, :half, :2] = mid[:, :2] + left_n * (lane_width / 2.0)
        points[i, half:, :2] = mid[:, :2] - left_n * (lane_width / 2.0)
        points[i, :, 2] = 0.0
        lane_occ = occupancy_flags(mid, agents)
        occ[i, :half] = lane_occ
        occ[i, half:] = lane_occ
        if i == route_lane:
            plan[i, :] = 1
    return DoubleEdgeSet(points, occ, plan, int_flags, dir_flags)


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------


def _place_agents(rng: np.random.Generator, spec: SceneSpec,
                  centerlines: list[np.ndarray]) -> tuple[OrientedBox, ...]:
    agents = []
    ego = np.zeros(2)
    for _ in range(spec.agent_count):
        for _attempt in range(1000):
            lane = int(rng.integers(0, len(centerlines)))
            line = centerlines[lane]
            length = polyline_length(line)
            s = float(rng.uniform(0.05, 0.95)) * length
            pos = resample_polyline(line, max(2, int(length) + 1))
            idx = min(int(s / max(length, 1e-9) * (len(pos) - 1)), len(pos) - 2)
            p = pos[idx]
            tang = pos[idx + 1, :2] - pos[idx, :2]
            yaw = math.atan2(tang[1], tang[0]) + float(rng.uniform(-0.1, 0.1))
            lateral = float(rng.uniform(-0.3, 0.3))
            c = np.array([p[0] - lateral * math.sin(yaw), p[1] + lateral * math.cos(yaw)])
            if np.linalg.norm(c - ego) < _EGO_CLEARANCE:
                continue
            ext = (
                float(rng.uniform(4.0, 5.0)),
                float(rng.uniform(1.8, 2.2)),
                float(rng.uniform(1.4, 1.8)),
            )
            agents.append(OrientedBox(center=(float(c[0]), float(c[1]), ext[2] / 2.0),
                                      yaw=float(yaw), extent=ext))
            break
        else:
            raise GenerationError("could not place agents clear of the ego start pose")
    return tuple(agents)


# Clutter candidates bounded per numpy pass. An attempt takes 2 doubles of
# the rng stream and a kept one 4 more, so a window covers 22-64 attempts.
_CLUTTER_WINDOW = 64
# Slack on the vertex bound, far above its ~1e-13 m rounding error.
_CLUTTER_MARGIN = 1e-6


def _place_clutter(rng: np.random.Generator, spec: SceneSpec,
                   centerlines: list[np.ndarray]) -> tuple[OrientedBox, ...]:
    """Rejection-sample ``count`` boxes at least ``road_clear`` off every
    centerline segment.

    Each attempt draws a center uniform over the padded lane bounds; a kept
    one then draws its extent and yaw. The doubles come from ``rng.random``
    blocks and are scaled as ``Generator.uniform`` scales them, so the boxes
    are the same bits as drawing each value with ``uniform``. ``rng`` is
    left past the last block, so nothing may draw from it afterwards.

    The distance to the road lies in ``[d_v - L/2, d_v]``, where ``d_v`` is
    the distance to the nearest vertex and ``L`` the longest segment,
    because every point of a segment lies within half its length of an
    endpoint. That bound, taken for a window of candidates at once, decides
    most attempts; the rest get the exact ``SegmentTable.min_distance``
    test.
    """
    if spec.clutter_density <= 0.0:
        return ()
    allpts = np.vstack(centerlines)
    lo = allpts[:, :2].min(axis=0) - 15.0
    hi = allpts[:, :2].max(axis=0) + 15.0
    span = hi - lo
    band_area = float(np.prod(span))
    count = int(round(spec.clutter_density * band_area / 100.0))
    road_clear = spec.lane_width / 2.0 + 2.0
    lanes = SegmentTable(*centerlines)
    vx, vy = allpts[:, 0], allpts[:, 1]
    # squared nearest-vertex distances below / above which the bound decides
    reject2 = (road_clear - _CLUTTER_MARGIN) ** 2
    keep2 = (road_clear + float(lanes.seg_len.max()) / 2.0 + _CLUTTER_MARGIN) ** 2
    stream = np.zeros(0)  # rng doubles not yet consumed start at offset pos
    pos = 0
    clutter = []
    attempts = 0
    while len(clutter) < count and attempts < count * 200:
        if pos + 4 >= len(stream):  # the next candidate is past the window
            stream = np.concatenate([stream[pos:],
                                     rng.random(2 * _CLUTTER_WINDOW + 4 - len(stream) + pos)])
            pos = 0
            cand = lo + span * stream[:2 * _CLUTTER_WINDOW].reshape(-1, 2)
            dx = cand[:, :1] - vx
            dy = cand[:, 1:] - vy
            dx *= dx
            dy *= dy
            dx += dy
            near2 = dx.min(axis=1)
            rejected, kept = (near2 < reject2).tolist(), (near2 > keep2).tolist()
            centers = cand.tolist()
        attempts += 1
        k = pos // 2
        if rejected[k] or (not kept[k]
                           and lanes.min_distance(cand[k:k + 1])[0] < road_clear):
            pos += 2
            continue
        d = stream[pos + 2:pos + 6].tolist()
        ext = (2.0 + 4.0 * d[0], 2.0 + 4.0 * d[1], 2.0 + 3.0 * d[2])
        yaw = 2.0 * math.pi * d[3]
        x, y = centers[k]
        clutter.append(OrientedBox(center=(x, y, ext[2] / 2.0), yaw=yaw, extent=ext))
        pos += 6
    return tuple(clutter)


def generate_scene(spec: SceneSpec, n_p: int = 20) -> Scene:
    """Build the full scene for a spec; deterministic in ``spec.seed``."""
    spec.validate()
    if spec.geometry == "arc" and spec.route_length > 1.75 * math.pi * float(spec.radius):
        raise GenerationError("target unreachable: arc route folds back onto itself")
    if n_p % 2 != 0 or n_p < 4:
        raise GenerationError(f"n_p must be even and >= 4, got {n_p}")

    rng = np.random.default_rng([spec.seed, _STREAM_SCENE])
    centerlines, int_flags, dir_flags = _lane_layout(spec)
    ego_xy = np.zeros(2)
    centerlines = [_orient_ego_outward(line, ego_xy) for line in centerlines]

    agents = _place_agents(rng, spec, centerlines)
    clutter = _place_clutter(rng, spec, centerlines)

    route_lane = 0
    gt = _ground_truth(centerlines, int_flags, dir_flags, spec.lane_width,
                       agents, route_lane, n_p)
    diags = validate(gt)
    if diags:  # generator bug, not user input
        raise GenerationError("generated ground truth is invalid: " + "; ".join(diags))

    route = centerlines[route_lane]
    tang0 = route[1, :2] - route[0, :2]
    start = (float(route[0, 0]), float(route[0, 1]), math.atan2(tang0[1], tang0[0]))
    target = (float(route[-1, 0]), float(route[-1, 1]), float(route[-1, 2]))

    signal_line_s = None
    if spec.traffic_signal != "none":
        signal_line_s = polyline_length(route) / 2.0
    gt_speed = 0.0 if spec.traffic_signal == "red" else _CRUISE_SPEED

    return Scene(
        spec=spec,
        centerlines=tuple(centerlines),
        lane_widths=tuple(spec.lane_width for _ in centerlines),
        agents=agents,
        clutter=clutter,
        route_start=start,
        route_target=target,
        route_lane=route_lane,
        signal_state=spec.traffic_signal,
        signal_line_s=signal_line_s,
        ground_truth=gt,
        gt_speed=gt_speed,
    )


# ---------------------------------------------------------------------------
# LiDAR rendering: stratified surface sampling of road strips and box faces
# ---------------------------------------------------------------------------


# Points per rng.random call and per noise draw. Blocks of whole rectangles
# keep the per-point temporaries small while amortising per-call overhead:
# drawing a whole 120k-point cloud at once raised peak RSS by ~5 MB and was slower.
_BLOCK_POINTS = 16384


# Column starts of a rectangle table, an (R, 12) array with one row per
# rectangle: a point at (u, v) in [0, len_u] x [0, len_v] lies at
# origin + u * dir_u + (v - shift) * dir_v, the last three being 3-vectors.
_LEN_U, _LEN_V, _SHIFT, _ORIGIN, _DIR_U, _DIR_V = 0, 1, 2, 3, 6, 9


def _road_rects(scene: Scene) -> np.ndarray:
    """One rectangle per centerline segment of nonzero length: u along the
    segment from its start, v across the lane, centered (z = 0).

    A segment's length is sqrt(seg . seg), what np.linalg.norm(seg) computes.
    One batched matmul runs that BLAS dot on every length-2 pair, bit-equal
    to a per-segment ``seg.dot(seg)``; einsum and x*x + y*y round
    differently from it.
    """
    lanes = [(ln, w) for ln, w in zip(scene.centerlines, scene.lane_widths) if len(ln) > 1]
    if not lanes:
        return np.zeros((0, 12))
    segs = np.concatenate([ln[1:, :2] - ln[:-1, :2] for ln, _ in lanes])
    starts = np.concatenate([ln[:-1, :2] for ln, _ in lanes])
    widths = np.concatenate([np.full(len(ln) - 1, float(w)) for ln, w in lanes])
    lengths = np.sqrt(np.matmul(segs[:, None, :], segs[:, :, None])[:, 0, 0])
    rows = np.flatnonzero(lengths != 0.0)
    lengths, widths = lengths[rows], widths[rows]
    t = segs[rows] / lengths[:, None]
    zero = np.zeros(len(rows))
    return np.column_stack([lengths, widths, widths / 2.0, starts[rows], zero,
                            t, zero, -t[:, 1], t[:, 0], zero])


def _box_rects(boxes) -> np.ndarray:
    """The top and four side faces of every box, five rectangles per box."""
    if not boxes:
        return np.zeros((0, 12))
    ex, ey, ez = (np.array([float(b.extent[k]) for b in boxes]) for k in range(3))
    c = np.array([math.cos(b.yaw) for b in boxes])
    s = np.array([math.sin(b.yaw) for b in boxes])
    zero = np.zeros(len(boxes))
    ux = np.column_stack([c, s, zero])
    uy = np.column_stack([-s, c, zero])
    uz = np.column_stack([zero, zero, zero + 1.0])
    base = np.column_stack([[b.center[0] for b in boxes], [b.center[1] for b in boxes], zero])
    corner = base - ux * ex[:, None] / 2.0 - uy * ey[:, None] / 2.0

    def faces(*per_face):  # (B, 5, ...) -> rows box-major, face-minor
        return np.stack(per_face, axis=1).reshape(5 * len(boxes), *per_face[0].shape[1:])

    return np.column_stack([faces(ex, ex, ex, ey, ey), faces(ey, ez, ez, ez, ez),
                            np.zeros(5 * len(boxes)),
                            faces(corner + uz * ez[:, None], corner, corner + uy * ey[:, None],
                                  corner, corner + ux * ex[:, None]),
                            faces(ux, ux, ux, uy, uy), faces(uy, uz, uz, uz, uz)])


def _sample_uv(rng: np.random.Generator, n: np.ndarray, len_u: np.ndarray,
               len_v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jittered-grid (u, v) samples, ``n[k]`` in rectangle k, from a single
    rng.random call laid out [u_1, v_1, u_2, v_2, ...]: the same draws, in
    the same order, as drawing each rectangle's u then v separately."""
    g1 = np.maximum(1, np.rint(np.sqrt(n * len_u / np.maximum(len_v, 1e-9)))).astype(np.int64)
    g2 = np.maximum(1, np.ceil(n / g1)).astype(np.int64)
    first = np.repeat(np.cumsum(n) - n, n)  # each point's rectangle start
    pos = np.arange(len(first))
    cols = np.repeat(g1, n)
    cj, ci = np.divmod(pos - first, cols)
    r = rng.random(2 * len(first))
    u = (ci + r[pos + first]) / cols * np.repeat(len_u, n)
    v = (cj + r[pos + first + np.repeat(n, n)]) / np.repeat(g2, n) * np.repeat(len_v, n)
    return u, v


def render_lidar(scene: Scene, density: float, noise_sigma: float, seed: int) -> np.ndarray:
    """Surface-sample the scene at ``density`` points/m^2 with optional
    isotropic Gaussian noise; deterministic in ``seed``. Returns the (N, 3)
    float64 cloud, ego frame meters.

    Road segments, then agent boxes, then clutter boxes are sampled in that
    order, each rectangle with a jittered grid of points.
    """
    if density <= 0:
        raise ValueError(f"density must be > 0, got {density}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.default_rng([seed, _STREAM_LIDAR])
    rects = np.concatenate([_road_rects(scene), _box_rects((*scene.agents, *scene.clutter))])
    budgets = rects[:, _LEN_U] * rects[:, _LEN_V] * density
    if not budgets.sum() <= MAX_CLOUD_POINTS:  # the counts below sum to it +- 0.5
        raise ValueError(f"density {density!r} asks for {budgets.sum():.4g} points, "
                         f"more than the {MAX_CLOUD_POINTS} a cloud may hold")
    # Counts come from one scalar pass in drawing order: each rounds its
    # budget plus the fraction carried over from the rectangle before, so
    # totals track area * density.
    counts = []
    append, floor = counts.append, math.floor
    carry = 0.0
    for budget in budgets.tolist():
        carry += budget
        n = floor(carry + 0.5)
        carry -= n
        append(n)
    counts = np.maximum(np.array(counts, dtype=np.int64), 0)
    rows = np.flatnonzero(counts)
    n, rects = counts[rows], rects[rows]
    ends = np.cumsum(n)
    pts = np.zeros((int(ends[-1]) if len(n) else 0, 3))
    lo = 0
    while lo < len(n):
        start = int(ends[lo] - n[lo])
        hi = min(len(n), int(np.searchsorted(ends, start + _BLOCK_POINTS)) + 1)
        block, k = rects[lo:hi], n[lo:hi]
        u, v = _sample_uv(rng, k, block[:, _LEN_U], block[:, _LEN_V])
        v -= np.repeat(block[:, _SHIFT], k)
        out = pts[start:int(ends[hi - 1])]
        for c in range(3):
            out[:, c] = (np.repeat(block[:, _ORIGIN + c], k)
                         + u * np.repeat(block[:, _DIR_U + c], k)
                         + v * np.repeat(block[:, _DIR_V + c], k))
        lo = hi
    if noise_sigma > 0.0:
        # rng.normal(0.0, sigma) draws 0.0 + sigma * z with the same z, so
        # this is the same draw, rounded the same, -0.0 turned +0.0 included.
        # Drawn per block, z is the stream one whole-cloud call would draw.
        for lo in range(0, len(pts), _BLOCK_POINTS):
            part = pts[lo:lo + _BLOCK_POINTS]
            z = rng.standard_normal(part.shape)
            z *= noise_sigma
            z += 0.0
            part += z
    return pts



# ---------------------------------------------------------------------------
# Per-view semantic rasters and the fixed projection standing in for an
# image backbone. Four views at yaws 0/90/180/270 deg, 90 deg HFOV each.
# ---------------------------------------------------------------------------

VIEW_YAWS = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
N_VIEWS = 4
SEMANTIC_CHANNELS = 3  # lane mask, agent mask, signal state
_VIEW_R_MIN = 0.5
_VIEW_R_MAX = 80.0
# Most centerline samples (two per meter) one view stack may splat, checked
# before resampling: 500 km of lanes, where a reference scene has under 1 km.
# Each sample takes ~0.2 KB of per-view temporaries.
MAX_VIEW_SAMPLES = 1_000_000


def rasterize_semantic_views(scene: Scene, h: int, w: int) -> np.ndarray:
    """(4, 3, H, W) semantic stacks: lane mask, agent mask, signal state."""
    sem = np.zeros((N_VIEWS, SEMANTIC_CHANNELS, h, w))
    lengths = [polyline_length(line) for line in scene.centerlines]
    if not 2.0 * sum(lengths) <= MAX_VIEW_SAMPLES:  # also catches an overflowing length
        raise ValueError(f"centerlines {sum(lengths):.4g} m long need more than the "
                         f"{MAX_VIEW_SAMPLES} samples a view stack may splat")
    lanes = np.vstack([resample_polyline(line, max(2, int(length) * 2))[:, :2]
                       for line, length in zip(scene.centerlines, lengths)])
    pts = np.vstack([lanes] + [
        np.vstack([box.footprint_corners(), np.array(box.center[:2])[None, :]])
        for box in scene.agents
    ])
    # Every point in every view frame, one row per view.
    c = np.array([math.cos(yaw) for yaw in VIEW_YAWS])[:, None]
    s = np.array([math.sin(yaw) for yaw in VIEW_YAWS])[:, None]
    x = c * pts[:, 0] + s * pts[:, 1]
    y = -s * pts[:, 0] + c * pts[:, 1]
    r = np.hypot(x, y)
    az = np.arctan2(y, x)
    view, i = np.nonzero((np.abs(az) <= math.pi / 4.0) & (r >= _VIEW_R_MIN) & (r <= _VIEW_R_MAX))
    col = np.clip(((az[view, i] + math.pi / 4.0) / (math.pi / 2.0) * w).astype(int), 0, w - 1)
    row = np.clip(((r[view, i] - _VIEW_R_MIN) / (_VIEW_R_MAX - _VIEW_R_MIN) * h).astype(int),
                  0, h - 1)
    channel = (i >= len(lanes)).astype(np.intp)  # lane mask, then agent mask
    sem[view, channel, row, col] = 1.0
    if scene.signal_state == "green":
        sem[0, 2, :, :] = 0.5
    elif scene.signal_state == "red":
        sem[0, 2, :, :] = 1.0
    return sem


def synth_view_features(scene: Scene, c_channels: int, h: int, w: int,
                        seed: int) -> np.ndarray:
    """Project the semantic rasters through a fixed seeded linear map into
    the (4, C, H, W) per-view feature stack."""
    sem = rasterize_semantic_views(scene, h, w)
    rng = np.random.default_rng([seed, _STREAM_VIEWS])
    proj = rng.uniform(-1.0, 1.0, (c_channels, SEMANTIC_CHANNELS)) / math.sqrt(SEMANTIC_CHANNELS)
    return np.einsum("cs,vshw->vchw", proj, sem)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _field(obj: dict, name: str, tp):
    """Field ``name`` of ``obj``, a dotted path whose last part is the key,
    checked against the annotation ``tp``. A ValueError names the field if
    it is missing or does not match."""
    key = name.rsplit(".", 1)[-1]
    if key not in obj:
        raise ValueError(f"scene field {name}: missing")
    return from_json(tp, obj[key], f"scene field {name}")


def _centerline(value, name: str) -> np.ndarray:
    """One (M, 3) polyline, M >= 2, of finite numbers parsed by numpy."""
    try:
        line = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"scene field {name}: {exc}") from None
    if line.ndim != 2 or line.shape[0] < 2 or line.shape[1] != 3:
        raise ValueError(f"scene field {name}: expected shape (M >= 2, 3), got {line.shape}")
    if not np.isfinite(line).all():
        raise ValueError(f"scene field {name}: non-finite coordinates")
    return line


def scene_to_json(scene: Scene) -> bytes:
    return dumps({
        "spec": scene.spec,
        "centerlines": scene.centerlines,
        "lane_widths": scene.lane_widths,
        "agents": scene.agents,
        "clutter": scene.clutter,
        "route": {"start": scene.route_start, "target": scene.route_target,
                  "lane": scene.route_lane},
        "signal_state": scene.signal_state,
        "signal_line_s": scene.signal_line_s,
        "ground_truth": to_obj(scene.ground_truth),
        "gt_speed": scene.gt_speed,
    })


def scene_from_json(data: bytes) -> Scene:
    """Parse :func:`scene_to_json` output. A missing field, one of the wrong
    JSON type or one out of range raises a ValueError naming it."""
    obj = from_json(dict, json.loads(data.decode("utf-8")), "scene field (top level)")
    spec = _field(obj, "spec", SceneSpec)
    try:
        gt = from_obj(_field(obj, "ground_truth", dict))
    except ValueError as exc:
        raise ValueError(f"scene field ground_truth: {exc}") from None
    centerlines = tuple(_centerline(line, f"centerlines[{i}]")
                        for i, line in enumerate(_field(obj, "centerlines", list)))
    lane_widths = _field(obj, "lane_widths", tuple[float, ...])
    if len(lane_widths) != len(centerlines):
        raise ValueError(f"scene field lane_widths: expected {len(centerlines)} values, "
                         f"one per centerline, got {len(lane_widths)}")
    for i, width in enumerate(lane_widths):
        if width <= 0:
            raise ValueError(f"scene field lane_widths[{i}]: must be > 0, got {width!r}")
    route = _field(obj, "route", dict)
    route_lane = _field(route, "route.lane", int)
    if not 0 <= route_lane < len(centerlines):
        raise ValueError(f"scene field route.lane: {route_lane} is not one of the "
                         f"{len(centerlines)} centerlines")
    signal_state = _field(obj, "signal_state", str)
    if signal_state not in SIGNAL_CLASSES:
        raise ValueError(f"scene field signal_state: expected one of {SIGNAL_CLASSES}, "
                         f"got {signal_state!r}")
    return Scene(
        spec=spec,
        centerlines=centerlines,
        lane_widths=lane_widths,
        agents=_field(obj, "agents", tuple[OrientedBox, ...]),
        clutter=_field(obj, "clutter", tuple[OrientedBox, ...]),
        route_start=_field(route, "route.start", tuple[float, float, float]),
        route_target=_field(route, "route.target", tuple[float, float, float]),
        route_lane=route_lane,
        signal_state=signal_state,
        signal_line_s=_field(obj, "signal_line_s", float | None),
        ground_truth=gt,
        gt_speed=_field(obj, "gt_speed", float),
    )


_PC_MAGIC = b"LFPC"


def save_point_cloud(path: str | Path, cloud: np.ndarray) -> None:
    """Little-endian binary: magic 'LFPC', u32 count, N x 3 float32. Written
    atomically; missing parent directories are created."""
    pts = np.asarray(cloud, dtype="<f4")
    atomic_write_bytes(path, _PC_MAGIC + struct.pack("<I", pts.shape[0]) + pts.tobytes())


def load_point_cloud(path: str | Path) -> np.ndarray:
    """The (N, 3) float64 cloud of a :func:`save_point_cloud` file."""
    raw = Path(path).read_bytes()
    if raw[:4] != _PC_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header, {len(raw)} of 8 bytes")
    (count,) = struct.unpack("<I", raw[4:8])
    body = raw[8:]
    if len(body) != count * 12:
        raise ValueError(f"{path}: expected {count * 12} payload bytes, got {len(body)}")
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 3)
    if not np.isfinite(pts).all():  # before the cast, which warns on a NaN payload
        raise ValueError(f"{path}: non-finite point coordinates")
    return pts.astype(float)
