import dataclasses
import math
import struct
import warnings

import numpy as np
import pytest

from lanefuse import scene_synth
from lanefuse.config import RunConfig
from lanefuse.double_edge import interpret_path, validate
from lanefuse.geometry import (
    OrientedBox,
    SegmentTable,
    box_table,
    boxes_entered,
    polyline_length,
    resample_polyline,
)
from lanefuse.scene_synth import (
    GenerationError,
    Scene,
    SceneSpec,
    generate_scene,
    load_point_cloud,
    rasterize_semantic_views,
    render_lidar,
    save_point_cloud,
    scene_from_json,
    scene_to_json,
    synth_view_features,
)


def in_box_oracle(px, py, box: OrientedBox) -> bool:
    """Brute-force point-in-rotated-box check, scalar math only."""
    dx = px - box.center[0]
    dy = py - box.center[1]
    u = math.cos(box.yaw) * dx + math.sin(box.yaw) * dy
    v = -math.sin(box.yaw) * dx + math.cos(box.yaw) * dy
    return abs(u) <= box.extent[0] / 2.0 and abs(v) <= box.extent[1] / 2.0


class TestGenerateScene:
    def test_straight_unoccupied_road(self):
        spec = SceneSpec(seed=42, lane_count=1, geometry="straight", route_length=100.0)
        scene = generate_scene(spec, n_p=20)
        gt = scene.ground_truth
        assert np.all(gt.occ == 0)
        assert np.all(gt.plan[scene.route_lane] == 1)

    def test_determinism_bit_identical(self):
        spec = SceneSpec(seed=1234, lane_count=3, geometry="intersection",
                         agent_count=2, clutter_density=1.0, traffic_signal="green")
        a = scene_to_json(generate_scene(spec, n_p=20))
        b = scene_to_json(generate_scene(spec, n_p=20))
        assert a == b

    def test_occ_flags_match_point_in_box_oracle(self):
        spec = SceneSpec(seed=77, lane_count=2, geometry="straight", agent_count=3,
                         route_length=80.0)
        scene = generate_scene(spec, n_p=20)
        gt = scene.ground_truth
        half = scene.ground_truth.n_p // 2
        for i in range(scene.ground_truth.n_d):
            mids = (gt.points[i, :half] + gt.points[i, half:]) / 2.0
            for j, m in enumerate(mids):
                expected = int(any(in_box_oracle(m[0], m[1], b) for b in scene.agents))
                assert gt.occ[i, j] == expected
                assert gt.occ[i, half + j] == expected

    def test_occupancy_flags_helper_against_oracle(self):
        rng = np.random.default_rng(5)
        boxes = tuple(
            OrientedBox(center=(rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0),
                        yaw=rng.uniform(0, 2 * math.pi),
                        extent=(rng.uniform(1, 6), rng.uniform(1, 6), 2.0))
            for _ in range(4)
        )
        pts = rng.uniform(-12, 12, (200, 3))
        entered = boxes_entered(pts[:, :2], box_table(boxes), 0.0)
        for row, p in enumerate(pts):
            want = [k for k, b in enumerate(boxes) if in_box_oracle(p[0], p[1], b)]
            assert entered.get(row, []) == want

    def test_ground_truth_validates_across_random_specs(self):
        rng = np.random.default_rng(0)
        geoms = ["straight", "arc", "intersection"]
        for k in range(25):
            geom = geoms[k % 3]
            spec = SceneSpec(
                seed=int(rng.integers(0, 2**32)),
                lane_count=int(rng.integers(1, 5)),
                geometry=geom,
                radius=float(rng.uniform(50, 100)) if geom == "arc" else None,
                lane_width=float(rng.uniform(2.5, 4.5)),
                route_length=float(rng.uniform(60, 130)),
                agent_count=int(rng.integers(0, 4)),
                clutter_density=float(rng.uniform(0, 1.5)),
                traffic_signal=("none", "green", "red")[k % 3],
            )
            scene = generate_scene(spec, n_p=20)
            assert validate(scene.ground_truth) == []
            # plan flags form one contiguous run per lane
            gt = scene.ground_truth
            half = scene.ground_truth.n_p // 2
            for i in range(scene.ground_truth.n_d):
                for sl in (slice(0, half), slice(half, None)):
                    run = np.flatnonzero(gt.plan[i, sl])
                    if run.size:
                        assert np.array_equal(run, np.arange(run[0], run[-1] + 1))

    def test_target_on_route_centerline(self):
        spec = SceneSpec(seed=9, lane_count=2, geometry="arc", radius=70.0,
                         route_length=90.0)
        scene = generate_scene(spec, n_p=20)
        d = np.linalg.norm(scene.route_polyline[:, :2]
                           - np.array(scene.route_target[:2]), axis=1)
        assert d.min() < 1e-9

    def test_agents_clear_of_ego_start(self):
        spec = SceneSpec(seed=3, lane_count=2, geometry="straight", agent_count=4)
        scene = generate_scene(spec, n_p=20)
        for box in scene.agents:
            assert math.hypot(box.center[0], box.center[1]) >= 8.0

    def test_edges_ordered_ego_outward(self):
        spec = SceneSpec(seed=15, lane_count=3, geometry="intersection")
        scene = generate_scene(spec, n_p=20)
        gt = scene.ground_truth
        half = scene.ground_truth.n_p // 2
        for i in range(scene.ground_truth.n_d):
            mids = (gt.points[i, :half] + gt.points[i, half:]) / 2.0
            d = np.linalg.norm(mids[:, :2], axis=1)
            assert d[0] <= d[-1]

    def test_invalid_specs_raise_naming_field(self):
        with pytest.raises(GenerationError, match="lane_width"):
            generate_scene(SceneSpec(seed=0, lane_width=-1.0))
        with pytest.raises(GenerationError, match="radius"):
            generate_scene(SceneSpec(seed=0, geometry="arc", radius=1.0))
        with pytest.raises(GenerationError, match="route_length"):
            generate_scene(SceneSpec(seed=0, route_length=0.0))
        for field in ("lane_width", "route_length", "clutter_density", "radius"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(GenerationError, match=f"^{field} must be finite"):
                    generate_scene(SceneSpec(seed=0, geometry="arc",
                                             **{"radius": 50.0, field: value}))

    def test_unroutable_arc_raises(self):
        spec = SceneSpec(seed=0, geometry="arc", radius=10.0, route_length=100.0)
        with pytest.raises(GenerationError, match="unreachable"):
            generate_scene(spec, n_p=20)


def place_clutter_reference(rng, spec, centerlines):
    """The per-attempt placement loop: every value drawn by its own
    ``rng.uniform`` call and every center tested by the exact segment
    distance. Returns the boxes and the number of attempts."""
    if spec.clutter_density <= 0.0:
        return (), 0
    allpts = np.vstack(centerlines)
    lo = allpts[:, :2].min(axis=0) - 15.0
    hi = allpts[:, :2].max(axis=0) + 15.0
    count = int(round(spec.clutter_density * float(np.prod(hi - lo)) / 100.0))
    road_clear = spec.lane_width / 2.0 + 2.0
    lanes = SegmentTable(*centerlines)
    clutter = []
    attempts = 0
    while len(clutter) < count and attempts < count * 200:
        attempts += 1
        c = rng.uniform(lo, hi)
        if lanes.min_distance(c[None])[0] < road_clear:
            continue
        ext = (float(rng.uniform(2.0, 6.0)), float(rng.uniform(2.0, 6.0)),
               float(rng.uniform(2.0, 5.0)))
        yaw = float(rng.uniform(0.0, 2.0 * math.pi))
        clutter.append(OrientedBox(center=(float(c[0]), float(c[1]), ext[2] / 2.0),
                                   yaw=yaw, extent=ext))
    return tuple(clutter), attempts


def box_bits(boxes) -> bytes:
    return b"".join(struct.pack("<7d", *b.center, b.yaw, *b.extent) for b in boxes)


def scene_rng(spec):
    return np.random.default_rng([spec.seed, scene_synth._STREAM_SCENE])


def layout(spec):
    lines = scene_synth._lane_layout(spec)[0]
    return [scene_synth._orient_ego_outward(line, np.zeros(2)) for line in lines]


# Hand-made centerlines with ~50 m segments: the vertex bound is 25 m loose,
# so the exact test decides every attempt near the road.
LONG_SEGMENTS = {
    "one-segment": [np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]])],
    "diagonal": [np.array([[0.0, 0.0, 0.0], [30.0, 40.0, 0.0]])],
    "bend": [np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0], [50.0, 48.0, 0.0]])],
    "two-lines": [np.array([[0.0, 0.0, 0.0], [50.0, 0.0, 0.0]]),
                  np.array([[0.0, 9.0, 0.0], [52.0, 9.0, 0.0]])],
    "zero-length-segment": [np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [45.0, 20.0, 0.0]])],
}


def _layout_cases():
    geoms = (("straight", None), ("arc", 60.0), ("intersection", None))
    cases = []
    for i in range(36):
        geom, radius = geoms[i % 3]
        spec = SceneSpec(seed=1000 + i, geometry=geom, radius=radius, lane_count=1 + i % 4,
                         lane_width=(2.5, 3.5, 5.0)[i // 12],
                         route_length=(60.0, 100.0, 140.0)[(i // 3) % 3],
                         clutter_density=(0.5, 1.5, 3.0, 6.0)[(i // 4) % 4])
        cases.append(pytest.param(spec, id=f"{geom}-{spec.lane_count}lanes-{i}"))
    return cases


class TestPlaceClutter:
    """Clutter placement decides most attempts by a nearest-vertex bound;
    boxes and their order must equal the per-attempt loop's to the bit."""

    @pytest.mark.parametrize("spec", _layout_cases())
    def test_matches_per_attempt_loop_bit_for_bit(self, spec):
        lines = layout(spec)
        want, attempts = place_clutter_reference(scene_rng(spec), spec, lines)
        got = scene_synth._place_clutter(scene_rng(spec), spec, lines)
        assert attempts > len(want) > 0
        assert box_bits(got) == box_bits(want)

    @pytest.mark.parametrize("name", sorted(LONG_SEGMENTS))
    @pytest.mark.parametrize("lane_width, density", [(2.5, 2.0), (3.5, 6.0), (8.0, 4.0)])
    def test_long_segments_fall_back_to_exact_test(self, monkeypatch, name, lane_width,
                                                   density):
        lines = LONG_SEGMENTS[name]
        for seed in range(4):
            spec = SceneSpec(seed=seed, lane_width=lane_width, clutter_density=density)
            want, _ = place_clutter_reference(scene_rng(spec), spec, lines)
            exact = []
            real = SegmentTable.min_distance
            monkeypatch.setattr(SegmentTable, "min_distance",
                                lambda table, pts: exact.append(1) or real(table, pts))
            got = scene_synth._place_clutter(scene_rng(spec), spec, lines)
            monkeypatch.undo()
            assert box_bits(got) == box_bits(want), (name, seed)
            assert exact  # the loose bound left some attempts to the exact test

    @pytest.mark.parametrize("seed", [2, 6])
    @pytest.mark.parametrize("gap", [-5e-7, 5e-7])
    def test_near_ties_go_to_the_exact_test(self, seed, gap):
        """A first candidate ``road_clear + gap`` from its nearest vertex,
        inside the bound's margin: rejected at gap < 0, kept at gap > 0."""
        spec = SceneSpec(seed=seed, clutter_density=0.5)
        road_clear = spec.lane_width / 2.0 + 2.0
        # two 100 m lines fix the bounds to [-15, 115] x [-15, 75]
        frame = [np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]),
                 np.array([[0.0, 60.0, 0.0], [100.0, 60.0, 0.0]])]
        lo, hi = np.array([-15.0, -15.0]), np.array([115.0, 75.0])
        c0 = lo + (hi - lo) * scene_rng(spec).random(2)
        assert 10.0 < c0[1] < 50.0 and 0.0 < c0[0] < 80.0
        x, y = c0[0] + road_clear + gap, c0[1]
        lines = [*frame, np.array([[x, y, 0.0], [x + 10.0, y, 0.0]])]
        want, _ = place_clutter_reference(scene_rng(spec), spec, lines)
        assert (want[0].center[:2] == tuple(c0)) == (gap > 0)
        got = scene_synth._place_clutter(scene_rng(spec), spec, lines)
        assert box_bits(got) == box_bits(want)

    @pytest.mark.parametrize("density", [0.1, 0.4])
    def test_attempt_cap_when_the_road_fills_the_band(self, density):
        # road_clear = 22 m exceeds the 15 m padding: every attempt is
        # rejected, so placement stops after count * 200 attempts.
        spec = SceneSpec(seed=3, lane_width=40.0, clutter_density=density)
        lines = layout(spec)
        want, attempts = place_clutter_reference(scene_rng(spec), spec, lines)
        assert want == () and attempts == 200 * round(density * 130 * 30 / 100)
        assert scene_synth._place_clutter(scene_rng(spec), spec, lines) == ()

    @pytest.mark.parametrize("seed", [42, 7331])
    def test_reference_suite_matches_and_rarely_measures(self, monkeypatch, seed):
        attempts = 0
        exact = []
        real = SegmentTable.min_distance
        for spec in RunConfig(seed_scene=seed).suite_specs():
            lines = layout(spec)
            rng = scene_rng(spec)
            scene_synth._place_agents(rng, spec, lines)
            want, n = place_clutter_reference(rng, spec, lines)
            attempts += n
            monkeypatch.setattr(SegmentTable, "min_distance",
                                lambda table, pts: exact.append(1) or real(table, pts))
            got = generate_scene(spec, n_p=20).clutter
            monkeypatch.undo()
            assert box_bits(got) == box_bits(want), spec
        assert attempts > 600
        assert len(exact) <= 0.05 * attempts


def render_lidar_reference(scene, density, noise_sigma, seed):
    """Scalar renderer: one rectangle at a time, u then v drawn per
    rectangle, in the order road segments, agent faces, clutter faces. A
    segment's length is np.linalg.norm(seg), which is math.sqrt(seg.dot(seg))
    one segment at a time, and the noise is one rng.normal draw."""
    rng = np.random.default_rng([seed, 1])
    carry = 0.0
    chunks = []

    def take(budget):
        nonlocal carry
        carry += budget
        n = int(math.floor(carry + 0.5))
        carry -= n
        return max(0, n)

    def sample(n, a, b):
        g1 = max(1, int(round(math.sqrt(n * a / max(b, 1e-9)))))
        g2 = max(1, int(math.ceil(n / g1)))
        idx = np.arange(n)
        u = (idx % g1 + rng.random(n)) / g1 * a
        v = (idx // g1 + rng.random(n)) / g2 * b
        return u[:, None], v[:, None]

    for line, width in zip(scene.centerlines, scene.lane_widths):
        for k in range(len(line) - 1):
            seg = line[k + 1, :2] - line[k, :2]
            ds = float(np.linalg.norm(seg))
            if ds == 0.0 or (n := take(ds * width * density)) == 0:
                continue
            u, v = sample(n, ds, width)
            t = seg / ds
            xy = line[k, :2] + u * t + (v - width / 2.0) * np.array([-t[1], t[0]])
            chunks.append(np.column_stack([xy, np.zeros(n)]))
    for box in (*scene.agents, *scene.clutter):
        ex, ey, ez = box.extent
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        ux, uy, uz = np.array([c, s, 0.0]), np.array([-s, c, 0.0]), np.array([0.0, 0.0, 1.0])
        corner = (np.array([box.center[0], box.center[1], 0.0])
                  - ux * ex / 2.0 - uy * ey / 2.0)
        for origin, du, dv, lu, lv in [
                (corner + uz * ez, ux, uy, ex, ey), (corner, ux, uz, ex, ez),
                (corner + uy * ey, ux, uz, ex, ez), (corner, uy, uz, ey, ez),
                (corner + ux * ex, uy, uz, ey, ez)]:
            if (n := take(lu * lv * density)) == 0:
                continue
            u, v = sample(n, lu, lv)
            chunks.append(origin + u * du + v * dv)
    if not chunks:
        return np.zeros((0, 3))
    pts = np.vstack(chunks)
    if noise_sigma > 0.0:
        pts = pts + rng.normal(0.0, noise_sigma, pts.shape)
    return pts


class TestRenderLidar:
    def test_matches_scalar_reference_bit_for_bit(self):
        specs = RunConfig(seed_scene=5).suite_specs()
        for k, spec in enumerate(specs):
            scene = generate_scene(spec, n_p=20)
            density = (0.7, 3.0, 12.0, 25.0)[k % 4]
            sigma = (0.0, 0.05)[k % 2]
            got = render_lidar(scene, density, sigma, seed=k)
            want = render_lidar_reference(scene, density, sigma, seed=k)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (spec, density, sigma)

    @pytest.mark.parametrize("sigma", [0.0, RunConfig().lidar_noise_sigma], ids=["exact", "noisy"])
    @pytest.mark.parametrize("density", [3.0, 12.0])
    @pytest.mark.parametrize("seed", [42, 7331])
    def test_reference_suite_matches_scalar_reference(self, seed, density, sigma):
        cfg = RunConfig(seed_scene=seed)
        for spec in cfg.suite_specs():
            scene = generate_scene(spec, n_p=cfg.n_p)
            got = render_lidar(scene, density, sigma, spec.seed)
            want = render_lidar_reference(scene, density, sigma, spec.seed)
            assert got.tobytes() == want.tobytes(), spec

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_boxes_only_scene_matches_scalar_reference(self, sigma):
        """No centerlines: the empty road table joined to the box rows."""
        cfg = RunConfig(seed_scene=42)
        scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
        scene = max(scenes, key=lambda s: len(s.agents) + len(s.clutter))
        assert scene.agents and scene.clutter
        boxes_only = dataclasses.replace(scene, centerlines=(), lane_widths=())
        got = render_lidar(boxes_only, 3.0, sigma, seed=4)
        want = render_lidar_reference(boxes_only, 3.0, sigma, seed=4)
        assert len(got) > 0 and got.tobytes() == want.tobytes()

    def test_zero_length_segment_adds_no_rectangle(self):
        """A repeated centerline vertex makes a zero-length segment: it is
        dropped before its direction is divided out, and the cloud is the
        one drawn without it."""
        scene = generate_scene(SceneSpec(seed=3, lane_count=2, agent_count=1), n_p=20)
        line = scene.centerlines[0]
        repeated = dataclasses.replace(
            scene, centerlines=(np.insert(line, 5, line[5], axis=0), *scene.centerlines[1:]))
        with np.errstate(divide="raise", invalid="raise"):
            got = render_lidar(repeated, 3.0, 0.02, seed=9)
        assert got.tobytes() == render_lidar_reference(repeated, 3.0, 0.02, seed=9).tobytes()
        assert got.tobytes() == render_lidar(scene, 3.0, 0.02, seed=9).tobytes()

    def test_zero_noise_road_only_points_on_surface(self):
        spec = SceneSpec(seed=42, lane_count=1, geometry="straight")
        scene = generate_scene(spec, n_p=20)
        cloud = render_lidar(scene, density=4.0, noise_sigma=0.0, seed=42)
        assert len(cloud) > 0
        assert np.all(cloud[:, 2] == 0.0)

    def test_density_doubling_doubles_count_within_one_percent(self):
        spec = SceneSpec(seed=8, lane_count=2, geometry="straight", route_length=100.0)
        scene = generate_scene(spec, n_p=20)
        base = len(render_lidar(scene, density=4.0, noise_sigma=0.0, seed=1))
        doubled = len(render_lidar(scene, density=8.0, noise_sigma=0.0, seed=1))
        assert abs(doubled - 2 * base) <= 0.01 * 2 * base

    def test_empty_scene_yields_empty_cloud(self):
        spec = SceneSpec(seed=0)
        donor = generate_scene(spec, n_p=20)
        empty = Scene(spec=spec, centerlines=(), lane_widths=(), agents=(), clutter=(),
                      route_start=(0.0, 0.0, 0.0), route_target=(1.0, 0.0, 0.0),
                      route_lane=0, signal_state="none", signal_line_s=None,
                      ground_truth=donor.ground_truth, gt_speed=8.0)
        assert len(render_lidar(empty, density=5.0, noise_sigma=0.1, seed=3)) == 0

    def test_deterministic_in_seed(self):
        scene = generate_scene(SceneSpec(seed=2, agent_count=1, lane_count=2), n_p=20)
        a = render_lidar(scene, 3.0, 0.05, seed=11)
        b = render_lidar(scene, 3.0, 0.05, seed=11)
        c = render_lidar(scene, 3.0, 0.05, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("density", [1e6, 1e306], ids=["7.8-GiB", "overflowing"])
    def test_cloud_beyond_cap_rejected_before_allocating(self, density):
        scene = generate_scene(RunConfig().suite_specs()[0], n_p=20)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="a cloud may hold"):
            render_lidar(scene, density, 0.0, seed=0)

    def test_cap_counts_the_cloud_it_would_draw(self, monkeypatch):
        scene = generate_scene(SceneSpec(seed=21, lane_count=1, agent_count=1), n_p=20)
        n = len(render_lidar(scene, density=6.0, noise_sigma=0.0, seed=5))
        monkeypatch.setattr(scene_synth, "MAX_CLOUD_POINTS", n + 1)
        assert len(render_lidar(scene, density=6.0, noise_sigma=0.0, seed=5)) == n
        monkeypatch.setattr(scene_synth, "MAX_CLOUD_POINTS", n - 1)
        with pytest.raises(ValueError, match=f"more than the {n - 1} a cloud may hold"):
            render_lidar(scene, density=6.0, noise_sigma=0.0, seed=5)

    def test_box_surfaces_sampled(self):
        spec = SceneSpec(seed=21, lane_count=1, agent_count=1)
        scene = generate_scene(spec, n_p=20)
        cloud = render_lidar(scene, density=6.0, noise_sigma=0.0, seed=5)
        assert np.any(cloud[:, 2] > 0.5)


def splat_reference(view, pts_xy, yaw):
    """One view and one channel at a time: rotate into the view, keep the
    points inside its 90 degree wedge and range, and max in a 1."""
    h, w = view.shape
    c, s = math.cos(yaw), math.sin(yaw)
    x = c * pts_xy[:, 0] + s * pts_xy[:, 1]
    y = -s * pts_xy[:, 0] + c * pts_xy[:, 1]
    r = np.hypot(x, y)
    az = np.arctan2(y, x)
    keep = (np.abs(az) <= math.pi / 4.0) & (r >= 0.5) & (r <= 80.0)
    if not np.any(keep):
        return
    col = np.clip(((az[keep] + math.pi / 4.0) / (math.pi / 2.0) * w).astype(int), 0, w - 1)
    row = np.clip(((r[keep] - 0.5) / (80.0 - 0.5) * h).astype(int), 0, h - 1)
    np.maximum.at(view, (row, col), 1.0)


def rasterize_reference(scene, h, w):
    sem = np.zeros((4, 3, h, w))
    lane_pts = np.vstack([resample_polyline(line, max(2, int(polyline_length(line)) * 2))[:, :2]
                          for line in scene.centerlines])
    agent_pts = None
    if scene.agents:
        agent_pts = np.vstack([
            np.vstack([box.footprint_corners(), np.array(box.center[:2])[None, :]])
            for box in scene.agents
        ])
    for v, yaw in enumerate((0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)):
        splat_reference(sem[v, 0], lane_pts, yaw)
        if agent_pts is not None:
            splat_reference(sem[v, 1], agent_pts, yaw)
    if scene.signal_state == "green":
        sem[0, 2] = 0.5
    elif scene.signal_state == "red":
        sem[0, 2] = 1.0
    return sem


class TestViewFeatures:
    def test_agent_channel_zero_without_agents(self):
        scene = generate_scene(SceneSpec(seed=42, lane_count=2), n_p=20)
        sem = rasterize_semantic_views(scene, 8, 8)
        assert np.all(sem[:, 1] == 0.0)
        assert np.any(sem[:, 0] != 0.0)

    def test_identical_scenes_identical_grids(self):
        spec = SceneSpec(seed=6, lane_count=2, agent_count=1)
        a = synth_view_features(generate_scene(spec, n_p=20), 16, 8, 8, seed=7)
        b = synth_view_features(generate_scene(spec, n_p=20), 16, 8, 8, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (4, 16, 8, 8)

    def test_green_vs_red_differ_in_signal_projection(self):
        green = generate_scene(SceneSpec(seed=4, traffic_signal="green"), n_p=20)
        red = generate_scene(SceneSpec(seed=4, traffic_signal="red"), n_p=20)
        sem_g = rasterize_semantic_views(green, 8, 8)
        sem_r = rasterize_semantic_views(red, 8, 8)
        assert not np.array_equal(sem_g[0, 2], sem_r[0, 2])
        fg = synth_view_features(green, 16, 8, 8, seed=7)
        fr = synth_view_features(red, 16, 8, 8, seed=7)
        assert not np.array_equal(fg, fr)


    @pytest.mark.parametrize("far", [1.5e11, 1.7e308], ids=["150-Gm", "overflowing"])
    def test_overlong_centerlines_rejected_before_resampling(self, monkeypatch, far):
        """A scene file's centerline may reach any finite coordinate; the
        rasterizer refuses to sample it rather than allocate for it."""
        scene = generate_scene(SceneSpec(seed=3, lane_count=2), n_p=20)
        line = scene.centerlines[0].copy()
        line[36, 0], line[0, 0] = far, -far
        far_scene = dataclasses.replace(scene, centerlines=(line, *scene.centerlines[1:]))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="a view stack may splat"):
            rasterize_semantic_views(far_scene, 8, 8)
        need = 2.0 * sum(polyline_length(ln) for ln in scene.centerlines)
        monkeypatch.setattr(scene_synth, "MAX_VIEW_SAMPLES", need)
        rasterize_semantic_views(scene, 8, 8)
        monkeypatch.setattr(scene_synth, "MAX_VIEW_SAMPLES", need - 1.0)
        with pytest.raises(ValueError, match="a view stack may splat"):
            rasterize_semantic_views(scene, 8, 8)

    @pytest.mark.parametrize("seed", [42, 7331])
    @pytest.mark.parametrize("h, w", [(8, 8), (48, 64)])
    def test_matches_per_view_splat_bit_for_bit(self, seed, h, w):
        cfg = RunConfig(seed_scene=seed)
        for spec in cfg.suite_specs():
            scene = generate_scene(spec, n_p=cfg.n_p)
            got = rasterize_semantic_views(scene, h, w)
            assert got.tobytes() == rasterize_reference(scene, h, w).tobytes()


class TestPersistence:
    def test_scene_json_round_trip(self):
        spec = SceneSpec(seed=13, lane_count=3, geometry="intersection", agent_count=2,
                         clutter_density=0.5, traffic_signal="red")
        scene = generate_scene(spec, n_p=20)
        again = scene_from_json(scene_to_json(scene))
        assert scene_to_json(again) == scene_to_json(scene)
        assert again.ground_truth == scene.ground_truth

    def test_point_cloud_round_trip(self, tmp_path):
        pts = np.random.default_rng(0).uniform(-50, 50, (137, 3)).astype(np.float32)
        cloud = pts.astype(float)
        path = tmp_path / "cloud.lfpc"
        save_point_cloud(path, cloud)
        loaded = load_point_cloud(path)
        assert np.array_equal(loaded, cloud)

    def test_point_cloud_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lfpc"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_point_cloud(path)

    @pytest.mark.parametrize("data", [b"LFPC", b"LFPC\x01\x00\x00"])
    def test_point_cloud_header_too_short(self, tmp_path, data):
        path = tmp_path / "short.lfpc"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="truncated header"):
            load_point_cloud(path)

    def test_point_cloud_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.lfpc"
        save_point_cloud(path, np.array([[0.0, np.nan, 1.0], [2.0, 3.0, np.inf]]))
        with pytest.raises(ValueError, match="non-finite"):
            load_point_cloud(path)

    def test_point_cloud_truncated(self, tmp_path):
        scene = generate_scene(SceneSpec(seed=1), n_p=20)
        cloud = render_lidar(scene, 1.0, 0.0, seed=1)
        path = tmp_path / "trunc.lfpc"
        save_point_cloud(path, cloud)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(ValueError, match="payload"):
            load_point_cloud(path)

    def test_hostile_point_cloud_loads_finite_or_raises_value_error(self, tmp_path):
        """A dumped reference cloud cut at every header length and at seeded
        payload lengths, or with one bit flipped: every header bit and seeded
        payload bits. Each case loads as finite points or raises ValueError."""
        cfg = RunConfig()
        scene = generate_scene(cfg.suite_specs()[1], n_p=cfg.n_p)
        path = tmp_path / "cloud.lfpc"
        save_point_cloud(path, render_lidar(scene, cfg.lidar_density, cfg.lidar_noise_sigma,
                                            scene.spec.seed))
        raw = path.read_bytes()
        rng = np.random.default_rng(2024)
        cases = [raw[:n] for n in range(9)]
        cases += [raw[:n] for n in rng.integers(9, len(raw), 300)]
        bits = [(pos, bit) for pos in range(8) for bit in range(8)]
        bits += zip(rng.integers(8, len(raw), 600).tolist(), rng.integers(0, 8, 600).tolist())
        for pos, bit in bits:
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << bit
            cases.append(bytes(flipped))
        loaded = 0
        for data in cases:
            path.write_bytes(data)
            try:
                cloud = load_point_cloud(path)
            except ValueError:
                continue
            assert cloud.shape == ((len(data) - 8) // 12, 3)
            assert np.isfinite(cloud).all()
            loaded += 1
        assert 0 < loaded < len(cases)


    @pytest.mark.parametrize("word", [0x7F800001, 0xFF800001, 0x7FC00000, 0x7F800000],
                             ids=["snan", "negative-snan", "qnan", "inf"])
    def test_non_finite_payload_raises_value_error_without_warning(self, tmp_path, word):
        path = tmp_path / "cloud.lfpc"
        save_point_cloud(path, np.ones((3, 3)))
        raw = bytearray(path.read_bytes())
        raw[8 + 12 + 4:8 + 12 + 8] = struct.pack("<I", word)
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite point coordinates"):
                load_point_cloud(path)


def test_route_plan_path_follows_centerline():
    scene = generate_scene(SceneSpec(seed=42, lane_count=1, geometry="straight"), n_p=20)
    path = interpret_path(scene.ground_truth, scene.gt_speed)
    wp = np.array(path.waypoints)
    dense = resample_polyline(scene.route_polyline, 10)
    assert np.allclose(wp[:, :2], dense[:, :2], atol=1e-9)
    assert polyline_length(scene.route_polyline) == pytest.approx(100.0)
