"""LiDAR grid encodings: dense voxel counting, height-adjusted pillars over a
2D ground grid, nearest-pillar sampling around lane priors, and the small
affine pillar feature encoder.

Inputs are plain arrays: the point cloud is (N, 3) and the lane ROI, the
coarse prior's boundary points, is (n_d, n_p, 3), both ego frame meters.

Pillars carry a fixed 9-channel raw feature vector:
[count, centroid x, centroid y, centroid z, z_min, z_max,
 centroid offset x from cell center, offset y, placeholder 0].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GridSpec",
    "PillarSet",
    "LanePillarSet",
    "LaneWeights",
    "RAW_FEATURE_DIM",
    "pillarize",
    "lane_sample",
    "encode_pillars",
    "feature_count_report",
]

RAW_FEATURE_DIM = 9


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution (dx, dy, dz) and axis-aligned bounds, meters."""

    resolution: tuple[float, float, float]
    bounds_min: tuple[float, float, float]
    bounds_max: tuple[float, float, float]

    def __post_init__(self):
        if not all(r > 0 for r in self.resolution):  # NaN fails too
            raise ValueError(f"grid resolution must be positive, got {self.resolution}")
        if not all(lo < hi for lo, hi in zip(self.bounds_min, self.bounds_max)):
            raise ValueError(
                f"degenerate bounds {self.bounds_min}..{self.bounds_max}"
            )

    def cell_center_xy(self, ix: int, iy: int) -> tuple[float, float]:
        return (
            self.bounds_min[0] + (ix + 0.5) * self.resolution[0],
            self.bounds_min[1] + (iy + 0.5) * self.resolution[1],
        )


@dataclass(frozen=True)
class PillarSet:
    """Occupied 2D grid cells as arrays, in lexicographic (ix, iy) order.

    Row k of ``keys`` and ``features`` describes one cell; its member point
    indices (into the binned cloud) are ``members[offsets[k]:offsets[k + 1]]``,
    in ascending point order.
    """

    spec: GridSpec
    keys: np.ndarray  # (M, 2) int64
    features: np.ndarray  # (M, RAW_FEATURE_DIM)
    members: np.ndarray  # (P,) int64, grouped by cell
    offsets: np.ndarray  # (M + 1,) int64

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def cells(self) -> dict[tuple[int, int], np.ndarray]:
        """``{(ix, iy): member indices}``, built on every access; for
        inspection only."""
        return {(int(ix), int(iy)): self.members[self.offsets[k]:self.offsets[k + 1]]
                for k, (ix, iy) in enumerate(self.keys)}


@dataclass(frozen=True)
class LaneWeights:
    """Per-lane confidence in [0, 1], shape (n_d,)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or not np.all((w >= 0.0) & (w <= 1.0)):  # NaN fails too
            raise ValueError("lane weights must be a 1D array within [0, 1]")


@dataclass(frozen=True)
class LanePillarSet:
    """Exactly n_d x n_p sampled pillars; empty slots hold all-zero features."""

    features: np.ndarray  # (n_d, n_p, RAW_FEATURE_DIM)
    empty: np.ndarray  # (n_d, n_p) bool
    source_cells: np.ndarray  # (n_d, n_p, 2) int, -1 where empty


def _in_bounds_mask(pts: np.ndarray, spec: GridSpec) -> np.ndarray:
    """(N,) True where a point of ``pts`` (N, 3) lies in ``lo <= p < hi`` on
    every axis; a NaN coordinate is out."""
    inside = np.ones(len(pts), dtype=bool)
    for c, (lo, hi) in enumerate(zip(spec.bounds_min, spec.bounds_max)):
        col = pts[:, c]
        inside &= col >= lo
        inside &= col < hi
    return inside


def _cell_count(pts: np.ndarray, inside: np.ndarray, spec: GridSpec, axes: int) -> int:
    """Number of distinct cells over the first ``axes`` axes among the
    points ``pts[inside]``: occupied voxels for 3 axes, and for 2 axes the
    pillars :func:`pillarize` forms from the same ``floor((p - lo) / res)``
    keys, counted from one sort without building any per-cell feature."""
    kept = pts if inside.all() else pts[inside]
    if len(kept) == 0:
        return 0
    keys = None
    for c in range(axes):
        q = kept[:, c] - spec.bounds_min[c]
        q /= spec.resolution[c]
        idx = np.floor(q, out=q).astype(np.int64)
        if keys is None:
            keys = idx
        else:
            keys *= int(idx.max()) + 1
            keys += idx
    keys.sort()
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _roi_xy(roi: np.ndarray) -> np.ndarray:
    """(n_d * n_p, 2) ground-plane coordinates of the ROI points."""
    pts = np.asarray(roi, dtype=float)
    if not np.all(np.isfinite(pts)):
        raise ValueError("lane ROI contains non-finite points")
    return pts.reshape(-1, pts.shape[-1])[:, :2]


def _floor_cells(xy: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The (ix, iy) cells ``floor((p - lo) / res)`` of (N, 2) points, as floats."""
    return np.floor((xy - np.array(spec.bounds_min[:2])) / np.array(spec.resolution[:2]))


def _window_points(pts: np.ndarray, spec: GridSpec, roi: np.ndarray,
                   r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Ascending indices of the in-bounds points whose cell lies within
    ``rings = ceil(r_max / min(dx, dy)) + 1`` cells (Chebyshev) of the cell
    of at least one ROI point, and those points' (ix, iy) cells. Every cell
    center within ``r_max`` of an ROI point lies in that point's window, so
    :func:`lane_sample` picks from these points what it would pick from the
    full cloud. Each window is cut to the grid in floats (a far ROI point
    misses it, an inf ``rings`` covers it), and all are drawn in one pass:
    +1/-1 at each window's corners, then a cumsum along each axis.
    """
    origin, res = np.array(spec.bounds_min[:2]), np.array(spec.resolution[:2])
    rings = np.ceil(r_max / min(spec.resolution[:2])) + 1.0  # an overflow is inf
    roi_cells = _floor_cells(_roi_xy(roi), spec)
    w_lo = np.maximum(roi_cells - rings, 0.0)
    w_hi = np.minimum(roi_cells + rings, _floor_cells(np.array(spec.bounds_max[:2]), spec))
    hit = np.all(w_lo <= w_hi, axis=1)  # inf - inf is NaN: a miss
    if not hit.any() or pts.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
    w_lo, w_hi = w_lo[hit].astype(np.int64), w_hi[hit].astype(np.int64) + 1
    lo, hi = w_lo.min(axis=0), w_hi.max(axis=0)
    # the windows span [lo, hi); a spare zero cell on each side takes the rest
    count = np.zeros(hi - lo + 2, dtype=np.int64)
    for xs, sx in ((w_lo[:, 0], 1), (w_hi[:, 0], -1)):
        for ys, sy in ((w_lo[:, 1], 1), (w_hi[:, 1], -1)):
            np.add.at(count, (xs - lo[0] + 1, ys - lo[1] + 1), sx * sy)
    window = count.cumsum(axis=0).cumsum(axis=1) > 0
    # coarse cut on raw coordinates, a cell wider than the windows against rounding
    box_lo, box_hi = origin + (lo - 1) * res, origin + (hi + 1) * res
    near = np.flatnonzero((pts[:, 0] >= box_lo[0]) & (pts[:, 0] < box_hi[0]))
    y = pts[near, 1]
    near = near[(y >= box_lo[1]) & (y < box_hi[1])]
    near = near[_in_bounds_mask(pts[near], spec)]
    cells = _floor_cells(pts[near, :2], spec).astype(np.int64)
    inside = window[tuple(np.clip(cells - lo + 1, 0, hi - lo + 1).T)]
    return near[inside], cells[inside]


def _bin(pts: np.ndarray, keep: np.ndarray, cells: np.ndarray, spec: GridSpec) -> PillarSet:
    """Pillars of the points ``pts[keep]`` (``keep`` ascending, in the (ix,
    iy) rows of ``cells``), grouped by one stable sort on the cell key.
    Per-cell sums, minima and maxima take the points in index order, so
    each cell is the same whichever other points were binned."""
    if keep.size == 0:
        return PillarSet(spec=spec, keys=np.zeros((0, 2), dtype=np.int64),
                         features=np.zeros((0, RAW_FEATURE_DIM)),
                         members=np.zeros(0, dtype=np.int64), offsets=np.zeros(1, dtype=np.int64))
    origin, res = np.array(spec.bounds_min[:2]), np.array(spec.resolution[:2])
    flat = cells[:, 0] * (int(cells[:, 1].max()) + 1) + cells[:, 1]
    order = np.argsort(flat, kind="stable")
    flat = flat[order]
    starts = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
    m = len(starts)
    offsets = np.r_[starts, len(flat)]
    counts = np.diff(offsets)
    cell = np.repeat(np.arange(m), counts)
    srt = pts[keep[order]]
    sums = np.column_stack([np.bincount(cell, weights=srt[:, c], minlength=m) for c in range(3)])
    centroids = sums / counts[:, None]
    zmin = np.full(m, np.inf)
    zmax = np.full(m, -np.inf)
    np.minimum.at(zmin, cell, srt[:, 2])
    np.maximum.at(zmax, cell, srt[:, 2])
    keys = cells[order[starts]]
    centers = origin + (keys + 0.5) * res
    feats = np.column_stack([
        counts.astype(float), centroids, zmin, zmax, centroids[:, :2] - centers, np.zeros(m),
    ])
    return PillarSet(spec=spec, keys=keys, features=feats, members=keep[order],
                     offsets=offsets)


def _check_single_z_bin(spec: GridSpec) -> None:
    dz = spec.resolution[2]
    zspan = spec.bounds_max[2] - spec.bounds_min[2]
    if not math.isclose(dz, zspan, rel_tol=1e-9):
        raise ValueError(f"pillar_resolution dz {dz} must equal the z span {zspan} "
                         "(single z bin)")


def pillarize(cloud: np.ndarray, spec: GridSpec, roi: np.ndarray | None = None,
              r_max: float = 2.0) -> PillarSet:
    """Group points into one vertical pillar per occupied (ix, iy) cell.

    Requires dz to span the whole z range (a single z bin); the pillar's
    z extent is taken from its member points, not the grid.

    With ``roi``, only points in a window around each ROI point are binned
    (see :func:`_window_points`); the windows hold every cell whose center
    lies within ``r_max`` of their ROI point. Each binned cell comes out
    exactly as in the full-cloud set, so ``lane_sample(pillars, roi,
    r_max)`` picks the same pillars from either set.
    """
    _check_single_z_bin(spec)
    pts = np.asarray(cloud, dtype=float)
    if roi is not None:
        keep, cells = _window_points(pts, spec, roi, r_max)
    elif pts.size:
        keep = np.flatnonzero(_in_bounds_mask(pts, spec))
        cells = _floor_cells(pts[keep, :2], spec).astype(np.int64)
    else:
        keep, cells = np.zeros(0, dtype=np.int64), np.zeros((0, 2), dtype=np.int64)
    return _bin(pts, keep, cells, spec)


# A float64 square through ``** 2`` (pow) rounds differently from x * x in
# about 0.1% of cases, by at most an ulp or two. Candidates within this
# relative margin of the best one, or of r_max^2, are re-ranked with the
# scalar formula so the choice matches a scalar search exactly.
_RERANK_MARGIN = 1e-12


def lane_sample(pillars: PillarSet, roi: np.ndarray, r_max: float = 2.0) -> LanePillarSet:
    """Pick, for every ROI point, the pillar whose cell center is nearest in
    the ground plane; beyond ``r_max`` an empty zero pillar is emitted.

    Every pillar of the set is a candidate for every ROI point, so the
    pick does not depend on which cells :func:`pillarize` binned, as long
    as they include the cells within ``r_max``. Ties break toward the
    lexicographically smaller (ix, iy). The output always has exactly
    n_d x n_p entries, whatever the cloud contained. Raises ValueError on
    non-finite ROI points.
    """
    if r_max <= 0:
        raise ValueError(f"r_max must be > 0, got {r_max}")
    spec = pillars.spec
    pts = np.asarray(roi, dtype=float)
    n_d, n_p, _ = pts.shape
    xy = _roi_xy(pts)
    feats = np.zeros((n_d, n_p, RAW_FEATURE_DIM))
    empty = np.ones((n_d, n_p), dtype=bool)
    source = np.full((n_d, n_p, 2), -1, dtype=np.int64)
    if len(pillars) == 0 or len(xy) == 0:
        return LanePillarSet(features=feats, empty=empty, source_cells=source)

    keys = pillars.keys
    x0, y0 = spec.bounds_min[0], spec.bounds_min[1]
    dx, dy = spec.resolution[0], spec.resolution[1]
    # A far ROI point's square overflows to inf, which reads as out of range.
    with np.errstate(over="ignore"):
        d2 = ((x0 + (keys[:, 0] + 0.5) * dx - xy[:, 0, None]) ** 2
              + (y0 + (keys[:, 1] + 0.5) * dy - xy[:, 1, None]) ** 2)
    best = np.argmin(d2, axis=1)  # first minimum: keys are in (ix, iy) order
    d2_best = d2[np.arange(len(xy)), best]
    r2 = r_max * r_max
    take = d2_best <= r2
    close = d2 <= d2_best[:, None] * (1.0 + _RERANK_MARGIN)
    # A row whose best is past r_max stays empty whatever the order; a
    # scalar re-rank of its ties could overflow a Python float square.
    rerank = (d2_best <= r2 * (1.0 + _RERANK_MARGIN)) & (
        (close.sum(axis=1) > 1) | (np.abs(d2_best - r2) <= r2 * _RERANK_MARGIN))
    for i in np.flatnonzero(rerank):
        px, py = xy[i, 0], xy[i, 1]
        ranked = []
        for k in np.flatnonzero(close[i]):
            ix, iy = int(keys[k, 0]), int(keys[k, 1])
            ccx, ccy = spec.cell_center_xy(ix, iy)
            ranked.append(((ccx - px) ** 2 + (ccy - py) ** 2, ix, iy, k))
        d2_i, _, _, best[i] = min(ranked)
        take[i] = d2_i <= r2

    hit = np.flatnonzero(take)
    k = best[hit]
    feats.reshape(-1, RAW_FEATURE_DIM)[hit] = pillars.features[k]
    empty.reshape(-1)[hit] = False
    source.reshape(-1, 2)[hit] = keys[k]
    return LanePillarSet(features=feats, empty=empty, source_cells=source)


def encode_pillars(lane_pillars: LanePillarSet, weight: np.ndarray,
                   bias: np.ndarray) -> np.ndarray:
    """Affine + ReLU encoding of raw pillar features to (n_d, n_p, C);
    empty pillars map to the zero feature regardless of the bias."""
    w = np.asarray(weight, dtype=float)
    b = np.asarray(bias, dtype=float)
    out = np.maximum(lane_pillars.features @ w.T + b, 0.0)
    out[lane_pillars.empty] = 0.0
    return out


def feature_count_report(cloud: np.ndarray, lane_level: int, voxel_spec: GridSpec,
                         pillar_spec: GridSpec) -> dict[str, float]:
    """Feature counts for the three LiDAR encodings plus reduction ratios.

    ``lane_level`` is the lane-level count, n_d x n_p by construction;
    ratios are dense count over lane-level count. The dense counts are the
    occupied voxels and pillars (``len(pillarize(cloud, pillar_spec))``),
    counted without building either encoding.
    """
    _check_single_z_bin(pillar_spec)
    pts = np.asarray(cloud, dtype=float)
    if pts.size == 0:
        pts = np.zeros((0, 3))
    voxel_count = _cell_count(pts, _in_bounds_mask(pts, voxel_spec), voxel_spec, 3)
    pillar_count = _cell_count(pts, _in_bounds_mask(pts, pillar_spec), pillar_spec, 2)
    return {
        "voxel_count": float(voxel_count),
        "pillar_count": float(pillar_count),
        "lane_level_count": float(lane_level),
        "ratio_voxel": voxel_count / lane_level if lane_level else math.inf,
        "ratio_pillar": pillar_count / lane_level if lane_level else math.inf,
    }
