"""Double-edge lane data model, validation, JSON serialization, and the
path interpreter.

A lane is described by its left and right boundary edges. Each edge is an
ordered sequence of 3D points with per-point occupancy and planning flags;
the lane additionally carries intersection and direction flags. A set of
such lanes is the unit flowing through the whole pipeline, and the
interpreter turns plan-flagged point pairs into drivable midpoint waypoints.

A set of n_d lanes is five arrays: ``points`` (n_d, n_p, 3), ``occ`` and
``plan`` (n_d, n_p), ``intersection`` and ``direction`` (n_d,). The first
n_p/2 slots of a lane hold its left edge and the rest its right edge, each
nearest-to-ego first, so slot j of the left edge pairs with slot n_p/2 + j.

Coordinates are meters in the ego frame: x forward, y left, z up.
Construction checks shapes only; flag and position invariants are checked by
``validate`` (violations are data, not exceptions) so that raw or corrupted
inputs can be inspected rather than rejected at construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from .io_utils import dumps, from_json

__all__ = [
    "DoubleEdgeSet",
    "PlannedPath",
    "StructuralError",
    "ParseError",
    "ValidationError",
    "validate",
    "interpret_path",
    "serialize",
    "deserialize",
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


@dataclass(frozen=True, eq=False)
class DoubleEdgeSet:
    """n_d lanes of n_p boundary slots, left edge first (see the module
    docstring). Sets compare equal when all five arrays do."""

    points: np.ndarray  # (n_d, n_p, 3) float
    occ: np.ndarray  # (n_d, n_p)
    plan: np.ndarray  # (n_d, n_p)
    intersection: np.ndarray  # (n_d,)
    direction: np.ndarray  # (n_d,)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        for name in ("occ", "plan", "intersection", "direction"):
            object.__setattr__(self, name, np.asarray(getattr(self, name)))
        if self.points.ndim != 3 or self.points.shape[2] != 3:
            raise StructuralError(f"points must be (n_d, n_p, 3), got {self.points.shape}")
        n_d, n_p = self.points.shape[:2]
        if n_p % 2 != 0:
            raise StructuralError(f"n_p must be even, got {n_p}")
        for name, shape in (("occ", (n_d, n_p)), ("plan", (n_d, n_p)),
                            ("intersection", (n_d,)), ("direction", (n_d,))):
            if getattr(self, name).shape != shape:
                raise StructuralError(
                    f"{name} must have shape {shape}, got {getattr(self, name).shape}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DoubleEdgeSet):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def n_d(self) -> int:
        return self.points.shape[0]

    @property
    def n_p(self) -> int:
        """Points per lane across both edges."""
        return self.points.shape[1]


@dataclass(frozen=True)
class PlannedPath:
    """Midpoint waypoints (ego frame, meters) plus the commanded speed."""

    waypoints: tuple[tuple[float, float, float], ...]
    target_speed: float

    def __len__(self) -> int:
        return len(self.waypoints)


_FLAGS = (0, 1)
# Only the integers 0 and 1 are flags. True == 1 and 1.0 == 1, so the
# membership test alone would let a bool or a float through.
_outside_flags = np.frompyfunc(
    lambda v: isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v not in _FLAGS,
    1, 1)


def validate(
    lanes: DoubleEdgeSet,
    expected_n_d: int | None = None,
    expected_n_p: int | None = None,
) -> list[str]:
    """Check every invariant and return a list of human-readable violations.

    An empty list means the set is well formed. Violations never raise here;
    callers that require validity (serialization) raise on a non-empty
    result. Flags may hold values of any type, as parsed, until they pass;
    only the integers 0 and 1 pass, so ``True`` or ``1.0`` does not.
    """
    diags: list[str] = []
    n_d, n_p = lanes.n_d, lanes.n_p
    if expected_n_d is not None and n_d != expected_n_d:
        diags.append(f"set has {n_d} lanes, expected {expected_n_d}")
    half = n_p // 2

    def slot(i: int, s: int) -> str:
        return f"lane {i} left[{s}]" if s < half else f"lane {i} right[{s - half}]"

    found: list[tuple[int, int, str]] = []  # (lane, slot, text); lane flags take slot -1
    for name in ("intersection", "direction"):
        values = getattr(lanes, name).tolist()
        for (i,) in np.argwhere(_outside_flags(getattr(lanes, name)).astype(bool)):
            found.append((i, -1, f"lane {i}: {name} flag {values[i]!r} not in {{0,1}}"))
    for name in ("occ", "plan"):
        values = getattr(lanes, name).tolist()
        for i, s in np.argwhere(_outside_flags(getattr(lanes, name)).astype(bool)):
            found.append((i, s, f"{slot(i, s)}: {name} flag {values[i][s]!r} not in {{0,1}}"))
    for i, s in np.argwhere(~np.isfinite(lanes.points).all(axis=2)):
        found.append((i, s, f"{slot(i, s)}: non-finite or malformed position"))
    diags.extend(text for _, _, text in sorted(found, key=lambda f: f[:2]))
    if expected_n_p is not None and expected_n_p % 2:
        diags.append(f"n_p must be even, got {expected_n_p}")
    elif expected_n_p is not None and n_d and n_p != expected_n_p:
        diags.append(f"edges have {half} points, expected {expected_n_p // 2}")
    return diags


def interpret_path(lanes: DoubleEdgeSet, target_speed: float) -> PlannedPath:
    """Turn plan-flagged left/right point pairs into midpoint waypoints.

    Pairs are taken by index within each lane; a waypoint is emitted exactly
    when both paired points carry plan = 1. Lane order, then point order, is
    preserved. Selecting nothing is a valid outcome meaning "no plan".
    """
    half = lanes.n_p // 2
    both = (lanes.plan[:, :half] == 1) & (lanes.plan[:, half:] == 1)
    mid = (lanes.points[:, :half][both] + lanes.points[:, half:][both]) / 2.0
    return PlannedPath(waypoints=tuple(map(tuple, mid.tolist())), target_speed=target_speed)


# ---------------------------------------------------------------------------
# JSON interchange. Schema (shared with scene ground truth and prediction
# dumps):
#   {"n_d": int, "n_p": int,
#    "lanes": [{"int": 0|1, "dir": 0|1,
#               "left":  [{"p": [x, y, z], "occ": 0|1, "plan": 0|1}, ...],
#               "right": [...]}]}
# Floats are written with repr precision, so a round trip is bit-exact.
# ---------------------------------------------------------------------------


def serialize(lanes: DoubleEdgeSet) -> bytes:
    """Encode a validating set as canonical JSON bytes."""
    diags = validate(lanes)
    if diags:
        raise ValidationError(diags)
    points = lanes.points.tolist()
    occ, plan, intersection, direction = (
        getattr(lanes, name).astype(np.int64).tolist()
        for name in ("occ", "plan", "intersection", "direction"))
    half = lanes.n_p // 2

    def edge(i: int, slots: range) -> list[dict]:
        return [{"p": points[i][j], "occ": occ[i][j], "plan": plan[i][j]} for j in slots]

    obj = {
        "n_d": lanes.n_d,
        "n_p": lanes.n_p,
        "lanes": [
            {
                "int": intersection[i],
                "dir": direction[i],
                "left": edge(i, range(half)),
                "right": edge(i, range(half, lanes.n_p)),
            }
            for i in range(lanes.n_d)
        ],
    }
    return dumps(obj)


def _parse_edge(obj, where: str) -> list[tuple]:
    """``(x, y, z, occ, plan)`` per point; flags are kept as parsed."""
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of points")
    pts = []
    for j, e in enumerate(obj):
        try:
            p = e["p"]
            pts.append((float(p[0]), float(p[1]), float(p[2]), e["occ"], e["plan"]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ParseError(f"{where}[{j}]: {exc!r}") from exc
    return pts


def _as_objects(values: list, shape: tuple[int, ...]) -> np.ndarray:
    """Parsed flag values, whatever their JSON type, as an object array."""
    out = np.empty(len(values), dtype=object)
    for k, v in enumerate(values):
        out[k] = v
    return out.reshape(shape)


def deserialize(data: bytes) -> DoubleEdgeSet:
    """Decode and validate JSON bytes produced by :func:`serialize`. Edges
    that cannot fill the arrays (left and right of unequal length, or lanes
    of unequal length) are a :class:`ValidationError` before any flag is
    checked; a validating set's flags are returned as int64."""
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
            lanes.append((_parse_edge(lobj["left"], f"lanes[{i}].left"),
                          _parse_edge(lobj["right"], f"lanes[{i}].right"),
                          lobj["int"], lobj["dir"]))
        except (KeyError, TypeError) as exc:
            raise ParseError(f"lanes[{i}]: {exc!r}") from exc
    diags = []
    for i, (left, right, _, _) in enumerate(lanes):
        if len(left) != len(right):
            diags.append(f"lane {i}: left/right length mismatch ({len(left)} vs {len(right)})")
        if len(left) != len(lanes[0][0]):
            diags.append(
                f"lane {i}: edge length {len(left)} differs from lane 0 ({len(lanes[0][0])})")
    if diags:
        raise ValidationError(diags)
    slots = [pt for left, right, _, _ in lanes for pt in left + right]
    shape = (len(lanes), len(slots) // max(len(lanes), 1))
    out = DoubleEdgeSet(
        points=np.array([pt[:3] for pt in slots], dtype=float).reshape(*shape, 3),
        occ=_as_objects([pt[3] for pt in slots], shape),
        plan=_as_objects([pt[4] for pt in slots], shape),
        intersection=_as_objects([lane[2] for lane in lanes], shape[:1]),
        direction=_as_objects([lane[3] for lane in lanes], shape[:1]))
    n_d, n_p = (from_json(int | None, obj.get(key), key) for key in ("n_d", "n_p"))
    diags = validate(out, expected_n_d=n_d, expected_n_p=n_p)
    if diags:
        raise ValidationError(diags)
    return DoubleEdgeSet(out.points, *(getattr(out, name).astype(np.int64)
                                       for name in ("occ", "plan", "intersection", "direction")))
