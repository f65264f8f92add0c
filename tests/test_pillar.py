import math

import numpy as np
import pytest

from lanefuse.config import RunConfig
from lanefuse.pillar import (
    GridSpec,
    LanePillarSet,
    LaneWeights,
    RAW_FEATURE_DIM,
    _cell_count,
    _in_bounds_mask,
    encode_pillars,
    feature_count_report,
    lane_sample,
    pillarize,
)
from lanefuse.scene_synth import generate_scene, render_lidar


def make_spec(res=(0.5, 0.5, 0.5), lo=(-10.0, -10.0, 0.0), hi=(10.0, 10.0, 8.0)):
    return GridSpec(resolution=res, bounds_min=lo, bounds_max=hi)


def pillar_grid_spec(lo=(-10.0, -10.0, 0.0), hi=(10.0, 10.0, 8.0)):
    return GridSpec(resolution=(0.5, 0.5, hi[2] - lo[2]), bounds_min=lo, bounds_max=hi)


def voxel_count_oracle(pts, spec: GridSpec) -> int:
    """Hash of quantized coordinates, pure python."""
    seen = set()
    for p in pts:
        if all(spec.bounds_min[k] <= p[k] < spec.bounds_max[k] for k in range(3)):
            key = tuple(
                math.floor((p[k] - spec.bounds_min[k]) / spec.resolution[k])
                for k in range(3)
            )
            seen.add(key)
    return len(seen)


def voxel_count(pts, spec: GridSpec) -> int:
    """Distinct rows of the quantized in-bounds points, by ``np.unique``."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    lo, hi = np.array(spec.bounds_min), np.array(spec.bounds_max)
    p = pts[np.all((pts >= lo) & (pts < hi), axis=1)]
    return len(np.unique(np.floor((p - lo) / np.array(spec.resolution)).astype(np.int64),
                         axis=0))


def counted_voxels(pts, spec: GridSpec) -> int:
    """The voxel count ``feature_count_report`` takes."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    return _cell_count(pts, _in_bounds_mask(pts, spec), spec, 3)


def feature_row(pillars, key):
    """The feature row of cell ``key``, found by a scan of ``keys``."""
    rows = np.flatnonzero(np.all(pillars.keys == np.asarray(key), axis=1))
    assert len(rows) == 1
    return pillars.features[rows[0]]


def nearest_pillar_oracle(pillars, px, py, r_max):
    """Full scan over all cells with the lexicographic tie rule."""
    best = None
    for (ix, iy) in pillars.keys.tolist():
        cx, cy = pillars.spec.cell_center_xy(ix, iy)
        d2 = (cx - px) ** 2 + (cy - py) ** 2
        cand = (d2, ix, iy)
        if best is None or cand < best:
            best = cand
    if best is None or best[0] > r_max * r_max:
        return None
    return (best[1], best[2])


class TestVoxelize:
    """The voxel count against the ``np.unique`` and pure-Python oracles."""

    def test_empty_cloud(self):
        assert counted_voxels(np.zeros((0, 3)), make_spec()) == 0
        assert voxel_count(np.zeros((0, 3)), make_spec()) == 0

    def test_eight_points_in_eight_cells(self):
        spec = make_spec()
        centers = []
        for ix in (0, 1):
            for iy in (0, 1):
                for iz in (0, 1):
                    centers.append([
                        spec.bounds_min[0] + (ix + 0.5) * 0.5,
                        spec.bounds_min[1] + (iy + 0.5) * 0.5,
                        spec.bounds_min[2] + (iz + 0.5) * 0.5,
                    ])
        assert counted_voxels(centers, spec) == voxel_count(centers, spec) == 8

    def test_matches_quantization_oracle_randomized(self):
        rng = np.random.default_rng(10)
        spec = make_spec()
        for _ in range(10):
            pts = rng.uniform(-12, 12, (500, 3)) * [1, 1, 0.4]
            pts[:, 2] = np.abs(pts[:, 2])
            want = voxel_count_oracle(pts, spec)
            assert counted_voxels(pts, spec) == voxel_count(pts, spec) == want

    def test_out_of_bounds_discarded(self):
        spec = make_spec()
        pts = np.array([[100.0, 0.0, 0.0], [0.0, 0.0, 0.25]])
        assert counted_voxels(pts, spec) == voxel_count(pts, spec) == 1


class TestPillarize:
    def test_two_points_one_pillar_height_adjusted(self):
        spec = pillar_grid_spec()
        pts = np.array([[0.1, 0.1, 0.1], [0.12, 0.13, 3.0]])
        ps = pillarize(pts, spec)
        assert len(ps) == 1
        feat = ps.features[0]
        assert feat[0] == 2.0
        assert feat[4] == 0.1 and feat[5] == 3.0

    def test_voxel_count_at_least_pillar_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pts = rng.uniform(-9, 9, (800, 3))
            pts[:, 2] = rng.uniform(0, 7.9, 800)
            vcount = voxel_count(pts, make_spec())
            pcount = len(pillarize(pts, pillar_grid_spec()))
            assert vcount >= pcount

    def test_centroids_match_brute_force(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-5, 5, (300, 3))
        pts[:, 2] = rng.uniform(0, 7.9, 300)
        spec = pillar_grid_spec()
        ps = pillarize(pts, spec)
        # independent accumulation
        groups = {}
        for p in pts:
            key = (math.floor((p[0] + 10.0) / 0.5), math.floor((p[1] + 10.0) / 0.5))
            groups.setdefault(key, []).append(p)
        keys = list(map(tuple, ps.keys.tolist()))
        assert set(keys) == set(groups)
        assert keys == sorted(groups)
        for key, members in groups.items():
            members = np.array(members)
            feat = feature_row(ps, key)
            assert feat[0] == len(members)
            assert np.allclose(feat[1:4], members.mean(axis=0))
            assert feat[4] == members[:, 2].min()
            assert feat[5] == members[:, 2].max()
            cx, cy = spec.cell_center_xy(*key)
            assert np.allclose(feat[6:8], members.mean(axis=0)[:2] - [cx, cy])
            assert feat[8] == 0.0

    def test_members_inside_cell_bounds(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-9, 9, (200, 3))
        pts[:, 2] = rng.uniform(0, 7.9, 200)
        spec = pillar_grid_spec()
        ps = pillarize(pts, spec)
        assert ps.offsets[0] == 0 and ps.offsets[-1] == len(ps.members) == len(pts)
        for k, (ix, iy) in enumerate(ps.keys.tolist()):
            members = ps.members[ps.offsets[k]:ps.offsets[k + 1]]
            assert len(members) == ps.features[k, 0]
            assert np.all(np.diff(members) > 0)
            for m in pts[members]:
                assert spec.bounds_min[0] + ix * 0.5 <= m[0] < spec.bounds_min[0] + (ix + 1) * 0.5
                assert spec.bounds_min[1] + iy * 0.5 <= m[1] < spec.bounds_min[1] + (iy + 1) * 0.5

    def test_cells_view_matches_csr_layout(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-4, 4, (300, 3))
        ps = pillarize(pts, pillar_grid_spec())
        cells = ps.cells
        assert list(cells) == list(map(tuple, ps.keys.tolist()))
        for k, members in enumerate(cells.values()):
            assert np.array_equal(members, ps.members[ps.offsets[k]:ps.offsets[k + 1]])

    def test_roi_first_bins_exactly_the_search_windows(self):
        rng = np.random.default_rng(11)
        spec = pillar_grid_spec()
        pts = rng.uniform(-11, 11, (3000, 3))
        pts[:, 2] = rng.uniform(0, 7.9, 3000)
        roi_pts = rng.uniform(-12, 12, (2, 5, 3))
        full = pillarize(pts, spec)
        part = pillarize(pts, spec, roi=roi_pts, r_max=1.0)
        rings = math.ceil(1.0 / 0.5) + 1
        roi_cells = [(math.floor((x + 10.0) / 0.5), math.floor((y + 10.0) / 0.5))
                     for x, y, _ in roi_pts.reshape(-1, 3)]
        full_rows = {key: k for k, key in enumerate(map(tuple, full.keys.tolist()))}
        expected = [key for key in full_rows
                    if any(max(abs(key[0] - cx), abs(key[1] - cy)) <= rings
                           for cx, cy in roi_cells)]
        assert 0 < len(part) < len(full)
        assert list(map(tuple, part.keys.tolist())) == expected
        for k, key in enumerate(expected):
            f = full_rows[key]
            assert np.array_equal(part.features[k], full.features[f])
            assert np.array_equal(part.members[part.offsets[k]:part.offsets[k + 1]],
                                  full.members[full.offsets[f]:full.offsets[f + 1]])

    def test_multi_z_bin_grid_rejected(self):
        with pytest.raises(ValueError, match="single z bin"):
            pillarize(np.zeros((0, 3)), make_spec())


class TestLaneSample:
    def test_roi_at_cell_center_selects_that_cell(self):
        spec = pillar_grid_spec()
        pts = np.array([[0.2, 0.2, 1.0], [1.2, 1.2, 1.0]])
        ps = pillarize(pts, spec)
        cx, cy = spec.cell_center_xy(20, 20)  # cell containing (0.2, 0.2)
        roi = np.array([[[cx, cy, 0.0]]])
        out = lane_sample(ps, roi, r_max=2.0)
        assert tuple(out.source_cells[0, 0]) == (20, 20)
        assert not out.empty[0, 0]

    def test_equidistant_tie_breaks_lexicographically(self):
        spec = pillar_grid_spec()
        # two pillars symmetric about x = 0: cells (19, 20) and (20, 20)
        pts = np.array([[-0.25, 0.25, 1.0], [0.25, 0.25, 1.0]])
        ps = pillarize(pts, spec)
        roi = np.array([[[0.0, 0.25, 0.0]]])
        out = lane_sample(ps, roi, r_max=2.0)
        assert tuple(out.source_cells[0, 0]) == (19, 20)

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(2)
        spec = pillar_grid_spec()
        pts = rng.uniform(-9, 9, (400, 3))
        pts[:, 2] = rng.uniform(0, 7.9, 400)
        # cells (19, 20) and (20, 20) are equidistant from the ROI point, 3.01 m away
        far_tie = (np.array([[-0.25, 0.25, 1.0], [0.25, 0.25, 1.0]]),
                   np.array([[[0.0, 3.25, 0.0]]]))
        for cloud, roi in ((pts, rng.uniform(-11, 11, (6, 20, 3))), far_tie):
            ps = pillarize(cloud, spec)
            roi_first = pillarize(cloud, spec, roi=roi, r_max=2.0)
            for binned in (ps, roi_first):
                out = lane_sample(binned, roi, r_max=2.0)
                for i, j in np.ndindex(roi.shape[:2]):
                    expected = nearest_pillar_oracle(ps, roi[i, j, 0], roi[i, j, 1], 2.0)
                    if expected is None:
                        assert out.empty[i, j]
                        assert np.all(out.features[i, j] == 0.0)
                        assert tuple(out.source_cells[i, j]) == (-1, -1)
                    else:
                        assert tuple(out.source_cells[i, j]) == expected
                        assert np.array_equal(out.features[i, j], feature_row(ps, expected))
        assert out.empty.all()  # the far tie, the last input

    def test_near_ties_follow_the_scalar_distance(self):
        # On the bisector of cells (20, 20) and (22, 21), where float64
        # squares by ``** 2`` and by x * x disagree on the order (found by
        # search on glibc; the oracle defines the answer on any libm).
        spec = pillar_grid_spec()
        ps = pillarize(np.array([[0.3, 0.3, 1.0], [1.3, 0.8, 1.0]]), spec)
        roi = np.array([[[0.8963560421659162, 0.20728791566816757, 0.0],
                         [0.7175230704637556, 0.5649538590724887, 0.0]]])
        out = lane_sample(ps, roi, r_max=2.0)
        for j in range(2):
            expected = nearest_pillar_oracle(ps, roi[0, j, 0], roi[0, j, 1], 2.0)
            assert tuple(out.source_cells[0, j]) == expected

    def test_r_max_boundary_is_inclusive(self):
        spec = pillar_grid_spec()
        ps = pillarize(np.array([[0.2, 0.2, 1.0]]), spec)
        cx, cy = spec.cell_center_xy(20, 20)
        roi = np.array([[[cx + 2.0, cy, 0.0], [cx + 2.0 + 2.0 ** -40, cy, 0.0]]])
        for binned in (ps, pillarize(np.array([[0.2, 0.2, 1.0]]), spec, roi=roi, r_max=2.0)):
            out = lane_sample(binned, roi, r_max=2.0)
            assert out.empty.tolist() == [[False, True]]
            assert tuple(out.source_cells[0, 0]) == (20, 20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_roi_rejected(self, bad):
        spec = pillar_grid_spec()
        cloud = np.array([[0.2, 0.2, 1.0]])
        roi = np.zeros((2, 3, 3))
        roi[1, 2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lane_sample(pillarize(cloud, spec), roi)
        with pytest.raises(ValueError, match="non-finite"):
            pillarize(cloud, spec, roi=roi)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_roi_points_sample_nothing(self):
        spec = pillar_grid_spec()
        cloud = np.array([[0.2, 0.2, 1.0]])
        roi = np.array([[[1e300, -1e300, 0.0], [-1e300, 1e300, 0.0], [0.25, 0.25, 0.0]]])
        out = lane_sample(pillarize(cloud, spec), roi)
        assert out.empty.tolist() == [[True, True, False]]
        part = pillarize(cloud, spec, roi=roi)
        assert part.keys.tolist() == [[20, 20]]
        far = roi[:, :2]
        assert len(pillarize(cloud, spec, roi=far)) == 0
        assert lane_sample(pillarize(cloud, spec), far).empty.all()
        # both pillars' squares overflow to inf: a tie the scalar re-rank must not see
        two = np.array([[0.2, 0.2, 1.0], [-0.2, 0.2, 1.0]])
        assert lane_sample(pillarize(two, spec), roi).empty.tolist() == [[True, True, False]]

    def test_cardinality_fixed_even_for_empty_cloud(self):
        ps = pillarize(np.zeros((0, 3)), pillar_grid_spec())
        out = lane_sample(ps, np.zeros((6, 20, 3)), r_max=2.0)
        assert out.features.shape == (6, 20, RAW_FEATURE_DIM)
        assert out.empty.all()  # the far tie, the last input

    def test_selected_within_r_max_and_empty_means_none_within(self):
        rng = np.random.default_rng(12)
        spec = pillar_grid_spec()
        pts = rng.uniform(-3, 3, (50, 3))
        pts[:, 2] = 1.0
        ps = pillarize(pts, spec)
        roi_pts = rng.uniform(-10, 10, (4, 10, 3))
        r_max = 1.5
        out = lane_sample(ps, roi_pts, r_max=r_max)
        for i in range(4):
            for j in range(10):
                dists = [
                    math.hypot(*(np.array(spec.cell_center_xy(ix, iy))
                                 - roi_pts[i, j, :2]))
                    for (ix, iy) in ps.keys.tolist()
                ]
                if out.empty[i, j]:
                    assert min(dists) > r_max
                else:
                    ix, iy = out.source_cells[i, j]
                    cx, cy = spec.cell_center_xy(int(ix), int(iy))
                    assert math.hypot(cx - roi_pts[i, j, 0], cy - roi_pts[i, j, 1]) <= r_max

    def test_translation_equivariance(self):
        # dyadic coordinates keep every quantization and distance exact, so
        # the shifted run must reproduce the selection pattern bit for bit
        rng = np.random.default_rng(6)
        pts = rng.integers(-320, 320, (120, 3)) / 64.0
        pts[:, 2] = 1.0
        roi_pts = rng.integers(-384, 384, (3, 8, 3)) / 64.0
        shift = np.array([4 * 0.5, -3 * 0.5, 0.0])  # grid-aligned offset
        spec = pillar_grid_spec()
        out_a = lane_sample(pillarize(pts, spec), roi_pts, r_max=2.0)
        out_b = lane_sample(pillarize(pts + shift, spec), roi_pts + shift, r_max=2.0)
        assert np.array_equal(out_a.empty, out_b.empty)
        expected = out_a.source_cells + np.array([4, -3], dtype=np.int64)
        expected[out_a.source_cells == -1] = -1
        assert np.array_equal(out_b.source_cells, expected)


class TestEncodePillars:
    def _lane_set(self, feats, empty):
        src = np.where(empty[..., None], -1, 0).repeat(2, axis=-1)
        return LanePillarSet(features=feats, empty=empty, source_cells=src)

    def test_empty_pillar_encodes_to_zero(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, RAW_FEATURE_DIM))
        b = rng.normal(size=16)
        feats = np.zeros((1, 2, RAW_FEATURE_DIM))
        empty = np.array([[True, False]])
        out = encode_pillars(self._lane_set(feats, empty), w, b)
        assert np.all(out[0, 0] == 0.0)
        assert np.array_equal(out[0, 1], np.maximum(b, 0.0))

    def test_identical_pillars_identical_features(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(16, RAW_FEATURE_DIM))
        b = rng.normal(size=16)
        raw = rng.normal(size=RAW_FEATURE_DIM)
        feats = np.stack([raw, raw])[None, :, :]
        out = encode_pillars(self._lane_set(feats, np.zeros((1, 2), bool)), w, b)
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_doubling_point_count_changes_only_count_channel(self):
        spec = pillar_grid_spec()
        pts = np.array([[0.1, 0.2, 1.0], [0.3, 0.1, 2.0]])
        once = pillarize(pts, spec)
        twice = pillarize(np.vstack([pts, pts]), spec)
        f1 = once.features[0]
        f2 = twice.features[0]
        assert f2[0] == 2 * f1[0]
        # geometry-derived channels are unchanged up to summation order
        assert np.allclose(f1[1:], f2[1:], rtol=1e-12, atol=0.0)
        # encoded features differ only through the affine recomputation
        rng = np.random.default_rng(2)
        w = rng.normal(size=(16, RAW_FEATURE_DIM))
        b = rng.normal(size=16)
        e1 = np.maximum(f1 @ w.T + b, 0.0)
        e2 = np.maximum(f2 @ w.T + b, 0.0)
        lane1 = self._lane_set(f1[None, None, :], np.zeros((1, 1), bool))
        lane2 = self._lane_set(f2[None, None, :], np.zeros((1, 1), bool))
        assert np.array_equal(encode_pillars(lane1, w, b)[0, 0], e1)
        assert np.array_equal(encode_pillars(lane2, w, b)[0, 0], e2)


class TestFeatureCountReport:
    def test_lane_level_forced_and_ratios(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-9, 9, (2000, 3))
        pts[:, 2] = rng.uniform(0, 7.9, 2000)
        rep = feature_count_report(pts, 6 * 20, make_spec(), pillar_grid_spec())
        assert rep["lane_level_count"] == 120.0
        assert rep["voxel_count"] >= rep["pillar_count"]
        assert rep["ratio_voxel"] == rep["voxel_count"] / 120.0
        assert rep["ratio_pillar"] == rep["pillar_count"] / 120.0


def counted(pts: np.ndarray, voxel_spec: GridSpec, pillar_spec: GridSpec) -> tuple[int, int]:
    return (counted_voxels(pts, voxel_spec),
            _cell_count(pts, _in_bounds_mask(pts, pillar_spec), pillar_spec, 2))


def built(pts: np.ndarray, voxel_spec: GridSpec, pillar_spec: GridSpec) -> tuple[int, int]:
    return voxel_count(pts, voxel_spec), len(pillarize(pts, pillar_spec))


def assert_counts_match_encodings(pts, voxel_spec, pillar_spec):
    want = built(pts, voxel_spec, pillar_spec)
    assert counted(pts, voxel_spec, pillar_spec) == want
    rep = feature_count_report(pts, 120, voxel_spec, pillar_spec)
    assert (rep["voxel_count"], rep["pillar_count"]) == want
    return want


class TestCellCount:
    """The counts ``feature_count_report`` takes without building equal the
    ``np.unique`` voxel count and the size of the dense pillar set."""

    @pytest.mark.parametrize("seed", [42, 7331])
    @pytest.mark.parametrize("density", [3.0, 12.0])
    def test_reference_clouds(self, seed, density):
        cfg = RunConfig(seed_scene=seed, suite="reference")
        for spec in cfg.suite_specs():
            scene = generate_scene(spec, n_p=cfg.n_p)
            cloud = render_lidar(scene, density, cfg.lidar_noise_sigma, scene.spec.seed)
            voxels, pillars = assert_counts_match_encodings(
                cloud, cfg.voxel_spec(), cfg.pillar_spec())
            assert 0 < pillars <= voxels

    def edge_clouds(self):
        lo, hi = np.array([-10.0, -10.0, 0.0]), np.array([10.0, 10.0, 8.0])
        rng = np.random.default_rng(8)
        inner = rng.uniform(lo, hi, (300, 3))
        below_hi = np.nextafter(hi, -np.inf)
        nan_row = np.array([[np.nan, 1.0, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0, np.nan]])
        return {
            "empty": np.zeros((0, 3)),
            "all-out": rng.uniform(lo, hi, (50, 3)) + np.array([30.0, 0.0, 0.0]),
            "on-bounds": np.vstack([inner, lo, hi, [lo[0], hi[1], 1.0], [hi[0], lo[1], 1.0]]),
            "ulp-inside-hi": np.vstack([inner, below_hi, [below_hi[0], 0.0, 1.0],
                                        [0.0, below_hi[1], 1.0]]),
            "nan-row": np.vstack([inner, nan_row]),
            "only-edges": np.vstack([lo, hi, below_hi, nan_row]),
        }

    def test_edge_clouds(self):
        got = {name: assert_counts_match_encodings(pts, make_spec(), pillar_grid_spec())
               for name, pts in self.edge_clouds().items()}
        assert got["empty"] == got["all-out"] == (0, 0)
        assert got["only-edges"] == (2, 2)  # bounds_min and the point one ulp below hi

    def test_pillar_grid_needs_one_z_bin(self):
        with pytest.raises(ValueError, match="single z bin"):
            feature_count_report(np.zeros((1, 3)), 120, make_spec(), make_spec())


def test_lane_weights_domain_checked():
    for bad in (1.2, -0.1, np.nan):
        with pytest.raises(ValueError):
            LaneWeights(weights=np.array([0.5, bad]))
    LaneWeights(weights=np.array([0.0, 1.0, 0.3]))
