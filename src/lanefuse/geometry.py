"""Small planar geometry helpers shared by scene synthesis, evaluation and
plotting: polyline resampling/projection and oriented boxes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrientedBox",
    "box_table",
    "boxes_entered",
    "polyline_cumlen",
    "polyline_length",
    "resample_polyline",
    "SegmentTable",
    "PolylineProjector",
]


@dataclass(frozen=True)
class OrientedBox:
    """Axis box rotated by yaw about +z, sitting on the ground plane.

    ``center`` is the 3D box center, ``extent`` the full (x, y, z) sizes in
    the box frame.
    """

    center: tuple[float, float, float]
    yaw: float
    extent: tuple[float, float, float]

    @property
    def axes(self) -> tuple[float, float]:
        """(cos yaw, sin yaw): the box's x axis in the ground plane. This is
        the one place a box's yaw is read."""
        return math.cos(self.yaw), math.sin(self.yaw)

    def footprint_corners(self) -> np.ndarray:
        """(4, 2) footprint corner coordinates, counter-clockwise."""
        hx, hy = self.extent[0] / 2.0, self.extent[1] / 2.0
        local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
        c, s = self.axes
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array(self.center[:2])


def box_table(boxes) -> np.ndarray:
    """(K, 6) table of K boxes, one row per box: centre x, centre y, extent
    x, extent y, cos yaw, sin yaw."""
    return np.array([(*box.center[:2], *box.extent[:2], *box.axes) for box in boxes],
                    dtype=float).reshape(-1, 6)


def boxes_entered(xy: np.ndarray, table: np.ndarray, margin: float) -> dict[int, list[int]]:
    """Footprint test of (m >= 1, 2) points against the boxes of a
    :func:`box_table`, each grown by ``margin`` on every side: for every row
    that lies in at least one box, the box indices it lies in, ascending.

    A point inside a box with half-extents (hx, hy) is within hx + hy of its
    centre along both x and y, whatever the yaw, so only the boxes whose
    centre lies within that reach (plus 1e-6 m for rounding) of the points'
    bounding box go through the exact test.
    """
    centers, halves = table[:, 0:2], table[:, 2:4] / 2.0 + margin
    reach = (halves[:, 0] + halves[:, 1] + 1e-6)[:, None]
    near = np.flatnonzero(((centers >= xy.min(axis=0) - reach)
                           & (centers <= xy.max(axis=0) + reach)).all(axis=1))
    if not len(near):
        return {}
    d = xy[:, None, :] - centers[near]
    c, s = table[near, 4], table[near, 5]
    u = np.abs(c * d[..., 0] + s * d[..., 1])
    v = np.abs(-s * d[..., 0] + c * d[..., 1])
    entered: dict[int, list[int]] = {}
    for row, k in zip(*np.nonzero((u <= halves[near, 0]) & (v <= halves[near, 1]))):
        entered.setdefault(int(row), []).append(int(near[k]))
    return entered


def polyline_cumlen(points: np.ndarray) -> np.ndarray:
    """Cumulative arc length per vertex, starting at 0."""
    points = np.asarray(points, dtype=float)
    seg = np.linalg.norm(np.diff(points[:, :2], axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def polyline_length(points: np.ndarray) -> float:
    return float(polyline_cumlen(points)[-1])


def resample_polyline(points: np.ndarray, n: int) -> np.ndarray:
    """Resample to n arc-length-uniform vertices including both endpoints."""
    points = np.asarray(points, dtype=float)
    if n < 2:
        raise ValueError("resampling needs n >= 2")
    s = polyline_cumlen(points)
    if s[-1] <= 0.0:
        return np.repeat(points[:1], n, axis=0)
    t = np.linspace(0.0, s[-1], n)
    return np.column_stack([np.interp(t, s, points[:, k]) for k in range(points.shape[1])])


class SegmentTable:
    """Start points, segment vectors and squared lengths of one or more
    polylines' segments, stacked in order with no bridging segments.

    The table is built once, so repeated queries against the same lines only
    pay for the per-point arithmetic.
    """

    def __init__(self, *polylines: np.ndarray):
        lines = [np.asarray(line, dtype=float)[:, :2] for line in polylines]
        self.a = np.concatenate([line[:-1] for line in lines])
        self.ab = np.concatenate([line[1:] - line[:-1] for line in lines])
        seg_len2 = np.einsum("ij,ij->i", self.ab, self.ab)
        self.seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
        self.seg_len = np.sqrt(seg_len2)

    def closest(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For (N, 2) points, the (N, S) clamped segment parameters of the
        closest point on each segment and the distances to it.

        Each (N, S) array is broadcast from the point and segment columns.
        The dot product is ``(px - ax) * abx``, then ``+ 0.0``, then
        ``+ (py - ay) * aby``: the sum starts at +0.0 as ``einsum``'s does, so
        two -0.0 products still sum to +0.0. Each row depends only on its
        point, so it is bit-identical to querying that point alone. The
        distance is taken per coordinate as ``sqrt(qx * qx + qy * qy)``, the
        sum ``np.linalg.norm`` forms over a length-2 axis.
        """
        p = np.asarray(points, dtype=float)
        px, py = p[:, 0, None], p[:, 1, None]
        ax, ay = self.a[:, 0], self.a[:, 1]
        abx, aby = self.ab[:, 0], self.ab[:, 1]
        dot = (px - ax) * abx
        dot += 0.0
        dot += (py - ay) * aby
        t = np.clip(dot / self.seg_len2, 0.0, 1.0)
        qx = ax + t * abx - px
        qy = ay + t * aby - py
        qx *= qx
        qy *= qy
        qx += qy
        return t, np.sqrt(qx, out=qx)

    def min_distance(self, points: np.ndarray) -> np.ndarray:
        """(N,) distance from each point to the nearest segment of any line."""
        return self.closest(points)[1].min(axis=1)


class PolylineProjector(SegmentTable):
    """Projects 2D points onto one fixed polyline, adding the cumulative arc
    length to its segment table."""

    def __init__(self, polyline: np.ndarray):
        super().__init__(polyline)
        self.cum = polyline_cumlen(polyline)

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N,) arc lengths of the closest points to (N, 2) points and (N,)
        distances to them; ties across segments resolve to the earliest arc
        length."""
        t, dist = self.closest(points)
        k = dist.argmin(axis=1)
        rows = np.arange(len(k))
        return self.cum[k] + t[rows, k] * self.seg_len[k], dist[rows, k]

    def __call__(self, point: np.ndarray) -> tuple[float, float]:
        """:meth:`project` of one point, as Python floats."""
        s, d = self.project(np.asarray(point, dtype=float)[None, :2])
        return float(s[0]), float(d[0])

