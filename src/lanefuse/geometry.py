"""Small planar geometry helpers shared by scene synthesis, evaluation and
plotting: polyline resampling/projection and oriented boxes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OrientedBox",
    "polyline_cumlen",
    "polyline_length",
    "resample_polyline",
    "PolylineProjector",
    "project_point_to_polyline",
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

    def contains_xy(self, pts: np.ndarray) -> np.ndarray:
        """Footprint membership test for an (N, 2) array of ground points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = pts - np.array(self.center[:2])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        u = c * d[:, 0] + s * d[:, 1]
        v = -s * d[:, 0] + c * d[:, 1]
        return (np.abs(u) <= self.extent[0] / 2.0) & (np.abs(v) <= self.extent[1] / 2.0)

    def footprint_corners(self) -> np.ndarray:
        """(4, 2) footprint corner coordinates, counter-clockwise."""
        hx, hy = self.extent[0] / 2.0, self.extent[1] / 2.0
        local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
        c, s = np.cos(self.yaw), np.sin(self.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array(self.center[:2])


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


class PolylineProjector:
    """Projects 2D points onto one fixed polyline.

    The segment table (start points, segment vectors, squared and plain
    lengths, cumulative arc length) is built once, so repeated projections
    onto the same polyline only pay for the per-point arithmetic.
    """

    def __init__(self, polyline: np.ndarray):
        poly = np.asarray(polyline, dtype=float)[:, :2]
        self.a = poly[:-1]
        self.ab = poly[1:] - self.a
        seg_len2 = np.einsum("ij,ij->i", self.ab, self.ab)
        self.seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
        self.seg_len = np.sqrt(seg_len2)
        self.cum = polyline_cumlen(poly)

    def __call__(self, point: np.ndarray) -> tuple[float, float]:
        """(arc length of the closest point, distance to it); ties across
        segments resolve to the earliest arc length."""
        p = np.asarray(point, dtype=float)[:2]
        t = np.clip(np.einsum("ij,ij->i", p - self.a, self.ab) / self.seg_len2, 0.0, 1.0)
        proj = self.a + t[:, None] * self.ab
        dist = np.linalg.norm(proj - p, axis=1)
        k = int(np.argmin(dist))
        return float(self.cum[k] + t[k] * self.seg_len[k]), float(dist[k])


def project_point_to_polyline(point: np.ndarray, polyline: np.ndarray) -> tuple[float, float]:
    """Project a 2D point onto a polyline.

    Returns (arc length of the closest point, distance to it). Ties across
    segments resolve to the earliest arc length.
    """
    return PolylineProjector(polyline)(point)
