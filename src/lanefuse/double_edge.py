"""Double-edge lane data model, validation, JSON serialization, and the
path interpreter.

A lane is described by its left and right boundary edges. Each edge is an
ordered sequence of 3D points with per-point occupancy and planning flags;
the lane additionally carries intersection and direction flags. A set of
such lanes is the unit flowing through the whole pipeline, and the
interpreter turns plan-flagged point pairs into drivable midpoint waypoints.

Coordinates are meters in the ego frame: x forward, y left, z up. All types
are plain immutable dataclasses; invariants are checked by ``validate``
(violations are data, not exceptions) so that raw or corrupted inputs can be
inspected rather than rejected at construction time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .io_utils import dumps, from_json

__all__ = [
    "EdgePoint",
    "Edge",
    "DoubleEdgeLane",
    "DoubleEdgeSet",
    "PlannedPath",
    "StructuralError",
    "ParseError",
    "ValidationError",
    "validate",
    "interpret_path",
    "serialize",
    "deserialize",
    "lanes_from_arrays",
    "lanes_to_arrays",
]


class StructuralError(ValueError):
    """Shape or pairing mismatch that makes an operation undefined."""


class ParseError(ValueError):
    """Malformed serialized input; the message names the offending location."""


class ValidationError(ValueError):
    """A set violated its invariants; carries the diagnostics list."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class EdgePoint:
    """One boundary point: position (x, y, z) plus occupancy and plan flags."""

    position: tuple[float, float, float]
    occ: int
    plan: int


@dataclass(frozen=True)
class Edge:
    """Ordered boundary points, nearest-to-ego first."""

    points: tuple[EdgePoint, ...]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class DoubleEdgeLane:
    left: Edge
    right: Edge
    intersection: int
    direction: int


@dataclass(frozen=True)
class DoubleEdgeSet:
    lanes: tuple[DoubleEdgeLane, ...]

    @property
    def n_d(self) -> int:
        return len(self.lanes)

    @property
    def n_p(self) -> int:
        """Points per lane across both edges (0 for an empty set)."""
        if not self.lanes:
            return 0
        return 2 * len(self.lanes[0].left)


@dataclass(frozen=True)
class PlannedPath:
    """Midpoint waypoints (ego frame, meters) plus the commanded speed."""

    waypoints: tuple[tuple[float, float, float], ...]
    target_speed: float

    def __len__(self) -> int:
        return len(self.waypoints)


_FLAGS = (0, 1)


def validate(
    lanes: DoubleEdgeSet,
    expected_n_d: int | None = None,
    expected_n_p: int | None = None,
) -> list[str]:
    """Check every invariant and return a list of human-readable violations.

    An empty list means the set is well formed. Violations never raise here;
    callers that require validity (serialization, the interpreter) raise on a
    non-empty result.
    """
    diags: list[str] = []
    if expected_n_d is not None and len(lanes.lanes) != expected_n_d:
        diags.append(f"set has {len(lanes.lanes)} lanes, expected {expected_n_d}")
    edge_len: int | None = None
    for i, lane in enumerate(lanes.lanes):
        if len(lane.left) != len(lane.right):
            diags.append(
                f"lane {i}: left/right length mismatch "
                f"({len(lane.left)} vs {len(lane.right)})"
            )
        if edge_len is None:
            edge_len = len(lane.left)
        elif len(lane.left) != edge_len:
            diags.append(
                f"lane {i}: edge length {len(lane.left)} differs from lane 0 ({edge_len})"
            )
        if lane.intersection not in _FLAGS:
            diags.append(f"lane {i}: intersection flag {lane.intersection!r} not in {{0,1}}")
        if lane.direction not in _FLAGS:
            diags.append(f"lane {i}: direction flag {lane.direction!r} not in {{0,1}}")
        for side, edge in (("left", lane.left), ("right", lane.right)):
            for j, pt in enumerate(edge.points):
                if pt.occ not in _FLAGS:
                    diags.append(f"lane {i} {side}[{j}]: occ flag {pt.occ!r} not in {{0,1}}")
                if pt.plan not in _FLAGS:
                    diags.append(f"lane {i} {side}[{j}]: plan flag {pt.plan!r} not in {{0,1}}")
                if len(pt.position) != 3 or not all(math.isfinite(c) for c in pt.position):
                    diags.append(f"lane {i} {side}[{j}]: non-finite or malformed position")
    if expected_n_p is not None and edge_len is not None and 2 * edge_len != expected_n_p:
        diags.append(f"edges have {edge_len} points, expected {expected_n_p // 2}")
    return diags


def interpret_path(lanes: DoubleEdgeSet, target_speed: float) -> PlannedPath:
    """Turn plan-flagged left/right point pairs into midpoint waypoints.

    Pairs are taken by index within each lane; a waypoint is emitted exactly
    when both paired points carry plan = 1. Lane order, then point order, is
    preserved. Selecting nothing is a valid outcome meaning "no plan".
    """
    waypoints: list[tuple[float, float, float]] = []
    for i, lane in enumerate(lanes.lanes):
        if len(lane.left) != len(lane.right):
            raise StructuralError(
                f"lane {i}: cannot pair edges of length {len(lane.left)} and {len(lane.right)}"
            )
        for pl, pr in zip(lane.left.points, lane.right.points):
            if pl.plan == 1 and pr.plan == 1:
                waypoints.append(
                    (
                        (pl.position[0] + pr.position[0]) / 2.0,
                        (pl.position[1] + pr.position[1]) / 2.0,
                        (pl.position[2] + pr.position[2]) / 2.0,
                    )
                )
    return PlannedPath(waypoints=tuple(waypoints), target_speed=target_speed)


# ---------------------------------------------------------------------------
# JSON interchange. Schema (shared with scene ground truth and prediction
# dumps):
#   {"n_d": int, "n_p": int,
#    "lanes": [{"int": 0|1, "dir": 0|1,
#               "left":  [{"p": [x, y, z], "occ": 0|1, "plan": 0|1}, ...],
#               "right": [...]}]}
# Floats are written with repr precision, so a round trip is bit-exact.
# ---------------------------------------------------------------------------


def _edge_to_obj(edge: Edge) -> list[dict]:
    return [
        {"p": [pt.position[0], pt.position[1], pt.position[2]], "occ": pt.occ, "plan": pt.plan}
        for pt in edge.points
    ]


def serialize(lanes: DoubleEdgeSet) -> bytes:
    """Encode a validating set as canonical JSON bytes."""
    diags = validate(lanes)
    if diags:
        raise ValidationError(diags)
    obj = {
        "n_d": lanes.n_d,
        "n_p": lanes.n_p,
        "lanes": [
            {
                "int": lane.intersection,
                "dir": lane.direction,
                "left": _edge_to_obj(lane.left),
                "right": _edge_to_obj(lane.right),
            }
            for lane in lanes.lanes
        ],
    }
    return dumps(obj)


def _parse_edge(obj, where: str) -> Edge:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of points")
    pts = []
    for j, e in enumerate(obj):
        try:
            p = e["p"]
            pts.append(EdgePoint(position=(float(p[0]), float(p[1]), float(p[2])),
                                 occ=e["occ"], plan=e["plan"]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ParseError(f"{where}[{j}]: {exc!r}") from exc
    return Edge(points=tuple(pts))


def deserialize(data: bytes) -> DoubleEdgeSet:
    """Decode and validate JSON bytes produced by :func:`serialize`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"top-level: {exc}") from exc
    if not isinstance(obj, dict) or "lanes" not in obj:
        raise ParseError("top-level: missing 'lanes'")
    if not isinstance(obj["lanes"], list):
        raise ParseError(f"lanes: expected a list, got {type(obj['lanes']).__name__}")
    lanes = []
    for i, lobj in enumerate(obj["lanes"]):
        try:
            lane = DoubleEdgeLane(
                left=_parse_edge(lobj["left"], f"lanes[{i}].left"),
                right=_parse_edge(lobj["right"], f"lanes[{i}].right"),
                intersection=lobj["int"],
                direction=lobj["dir"],
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"lanes[{i}]: {exc!r}") from exc
        lanes.append(lane)
    out = DoubleEdgeSet(lanes=tuple(lanes))
    n_d, n_p = (from_json(int | None, obj.get(key), key) for key in ("n_d", "n_p"))
    diags = validate(out, expected_n_d=n_d, expected_n_p=n_p)
    if diags:
        raise ValidationError(diags)
    return out


# ---------------------------------------------------------------------------
# Array bridge used by the numeric pipeline. Points are laid out as
# (n_d, n_p, 3) with the first n_p/2 slots holding the left edge and the
# remainder the right edge; flag arrays share that layout.
# ---------------------------------------------------------------------------


def lanes_from_arrays(
    points: np.ndarray,
    occ: np.ndarray,
    plan: np.ndarray,
    intersection: Sequence[int] | np.ndarray,
    direction: Sequence[int] | np.ndarray,
) -> DoubleEdgeSet:
    points = np.asarray(points, dtype=float)
    occ = np.asarray(occ)
    plan = np.asarray(plan)
    n_d, n_p, _ = points.shape
    if n_p % 2 != 0:
        raise StructuralError(f"n_p must be even, got {n_p}")
    half = n_p // 2
    lanes = []
    for i in range(n_d):
        edges = []
        for lo, hi in ((0, half), (half, n_p)):
            edges.append(Edge(points=tuple(
                EdgePoint(
                    position=(float(points[i, j, 0]), float(points[i, j, 1]), float(points[i, j, 2])),
                    occ=int(occ[i, j]),
                    plan=int(plan[i, j]),
                )
                for j in range(lo, hi)
            )))
        lanes.append(DoubleEdgeLane(left=edges[0], right=edges[1],
                                    intersection=int(intersection[i]), direction=int(direction[i])))
    return DoubleEdgeSet(lanes=tuple(lanes))


def lanes_to_arrays(lanes: DoubleEdgeSet) -> dict[str, np.ndarray]:
    """Inverse of :func:`lanes_from_arrays`; requires a validating set."""
    diags = validate(lanes)
    if diags:
        raise ValidationError(diags)
    n_d, n_p = lanes.n_d, lanes.n_p
    points = np.zeros((n_d, n_p, 3))
    occ = np.zeros((n_d, n_p), dtype=np.int64)
    plan = np.zeros((n_d, n_p), dtype=np.int64)
    intersection = np.zeros(n_d, dtype=np.int64)
    direction = np.zeros(n_d, dtype=np.int64)
    half = n_p // 2
    for i, lane in enumerate(lanes.lanes):
        intersection[i] = lane.intersection
        direction[i] = lane.direction
        for j, pt in enumerate(lane.left.points):
            points[i, j] = pt.position
            occ[i, j] = pt.occ
            plan[i, j] = pt.plan
        for j, pt in enumerate(lane.right.points):
            points[i, half + j] = pt.position
            occ[i, half + j] = pt.occ
            plan[i, half + j] = pt.plan
    return {"points": points, "occ": occ, "plan": plan,
            "intersection": intersection, "direction": direction}
