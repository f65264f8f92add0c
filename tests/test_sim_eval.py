import dataclasses
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from lanefuse import sim_eval
from lanefuse.double_edge import PlannedPath, interpret_path
from lanefuse.geometry import (
    OrientedBox,
    PolylineProjector,
    SegmentTable,
    polyline_length,
)
from lanefuse.pipeline import gt_plan
from lanefuse.scene_synth import SceneSpec, generate_scene
from lanefuse.sim_eval import (
    ControllerConfig,
    EvalConfig,
    InfractionEvent,
    follow_path,
    infraction_score,
    run_closed_loop,
    step_ego,
)


def fit_circle_radius(xy: np.ndarray) -> float:
    """Least-squares (Kasa) circle fit; independent geometric oracle."""
    a = np.column_stack([2 * xy[:, 0], 2 * xy[:, 1], np.ones(len(xy))])
    b = (xy ** 2).sum(axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    cx, cy, c = sol
    return math.sqrt(c + cx * cx + cy * cy)


class TestStepEgo:
    def test_straight_line_integration(self):
        cfg = ControllerConfig(dt=0.05)
        x, y, heading, speed = step_ego(0.0, 0.0, 0.0, 1.0, steer=0.0, accel=0.0, cfg=cfg)
        assert x == pytest.approx(0.05)
        assert y == 0.0
        assert heading == 0.0
        assert speed == 1.0

    def test_stationary_state_unchanged(self):
        cfg = ControllerConfig()
        out = step_ego(3.0, -2.0, 0.7, 0.0, steer=0.2, accel=0.0, cfg=cfg)
        assert out == (3.0, -2.0, 0.7, 0.0)

    def test_constant_steer_traces_circle_of_expected_radius(self):
        cfg = ControllerConfig(dt=0.01, wheelbase=2.5, max_steer=0.6)
        steer = 0.3
        expected_r = cfg.wheelbase / math.tan(steer)
        state = (0.0, 0.0, 0.0, 1.0)
        pts = []
        for _ in range(int(2 * math.pi * expected_r / 1.0 / cfg.dt)):
            state = step_ego(*state, steer=steer, accel=0.0, cfg=cfg)
            pts.append(state[:2])
        fitted = fit_circle_radius(np.array(pts))
        assert abs(fitted - expected_r) / expected_r < 0.01

    def test_speed_clamped_at_zero(self):
        cfg = ControllerConfig()
        out = step_ego(0.0, 0.0, 0.0, 0.05, steer=0.0, accel=-3.0, cfg=cfg)
        assert out[3] == 0.0

    def test_limits_enforced(self):
        cfg = ControllerConfig()
        with pytest.raises(ValueError):
            step_ego(0.0, 0.0, 0.0, 1.0, steer=1.0, accel=0.0, cfg=cfg)
        with pytest.raises(ValueError):
            step_ego(0.0, 0.0, 0.0, 1.0, steer=0.0, accel=10.0, cfg=cfg)


class TestFollowPath:
    def test_aligned_straight_path_zero_steer(self):
        cfg = ControllerConfig()
        waypoints = [(float(x), 0.0) for x in range(1, 20)]
        steer, _ = follow_path(0.0, 0.0, 0.0, 3.0, waypoints, 5.0, cfg)
        assert abs(steer) < 1e-9

    def test_at_target_speed_zero_accel(self):
        cfg = ControllerConfig()
        _, accel = follow_path(0.0, 0.0, 0.0, 5.0, [(10.0, 0.0)], 5.0, cfg)
        assert accel == 0.0

    def test_waypoint_left_gives_positive_steer_closed_form(self):
        cfg = ControllerConfig(lookahead=3.0, wheelbase=2.5, max_steer=1.5)
        steer, _ = follow_path(0.0, 0.0, 0.0, 1.0, [(0.0, 3.0)], 2.0, cfg)
        eta = math.pi / 2.0
        expected = math.atan(2.0 * cfg.wheelbase * math.sin(eta) / cfg.lookahead)
        assert steer == pytest.approx(expected)
        assert steer > 0.0

    def test_empty_path_zero_controls(self):
        cfg = ControllerConfig()
        steer, accel = follow_path(0.0, 0.0, 0.0, 2.0, [], 0.0, cfg)
        assert (steer, accel) == (0.0, 0.0)

    def test_steer_clamped(self):
        cfg = ControllerConfig(max_steer=0.1)
        steer, _ = follow_path(0.0, 0.0, 0.0, 1.0, [(0.0, 3.0)], 2.0, cfg)
        assert steer == 0.1


def trajectory_rc(route, xy, lane_width):
    """Route completion of the (N, 2) points ``xy``: the progress fold
    ``run_closed_loop`` applies, over their projections onto ``route``."""
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    if len(xy) == 0:
        return 0.0
    s, d = PolylineProjector(route).project(xy)
    return sim_eval._progress_fold(zip(s.tolist(), d.tolist()), lane_width,
                                   polyline_length(route))


class TestRouteCompletion:
    def test_full_route(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        assert trajectory_rc(route, route[:, :2], lane_width=3.5) == 1.0

    def test_empty_trajectory(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        assert trajectory_rc(route, np.zeros((0, 2)), lane_width=3.5) == 0.0

    def test_half_route(self):
        route = np.column_stack([np.linspace(0, 100, 201), np.zeros(201), np.zeros(201)])
        traj = np.column_stack([np.linspace(0, 50, 120), np.zeros(120)])
        assert trajectory_rc(route, traj, lane_width=3.5) == pytest.approx(0.5, abs=0.01)

    def test_off_corridor_passes_do_not_count(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        traj = np.column_stack([np.linspace(0, 100, 50), np.full(50, 5.0)])
        assert trajectory_rc(route, traj, lane_width=3.5) == 0.0

    def test_monotone_over_prefixes(self):
        rng = np.random.default_rng(0)
        route = np.column_stack([np.linspace(0, 80, 161), np.zeros(161), np.zeros(161)])
        traj = np.column_stack([np.linspace(0, 80, 200),
                                rng.uniform(-1.0, 1.0, 200)])
        prev = 0.0
        for n in range(0, 201, 20):
            rc = trajectory_rc(route, traj[:n], lane_width=3.5)
            assert rc >= prev
            prev = rc


class TestInfractionScore:
    def test_empty_log(self):
        assert infraction_score(()) == 1.0

    def test_product_of_penalties(self):
        log = (
            InfractionEvent(time=1.0, kind="collision_vehicle", penalty=0.60),
            InfractionEvent(time=2.0, kind="red_light", penalty=0.70),
        )
        assert infraction_score(log) == pytest.approx(0.42, rel=1e-12)

    def test_order_independent(self):
        evs = [InfractionEvent(time=float(i), kind="collision_static", penalty=p)
               for i, p in enumerate((0.65, 0.7, 0.6))]
        a = infraction_score(tuple(evs))
        b = infraction_score(tuple(reversed(evs)))
        assert a == b

    def test_non_increasing_as_events_append(self):
        evs = []
        prev = 1.0
        for i in range(5):
            evs.append(InfractionEvent(time=float(i), kind="red_light", penalty=0.7))
            score = infraction_score(tuple(evs))
            assert score <= prev
            prev = score


def straight_scene(seed=42, length=100.0, **kwargs):
    return generate_scene(SceneSpec(seed=seed, lane_count=1, geometry="straight",
                                    route_length=length, **kwargs), n_p=20)


class TestClosedLoop:
    def test_straight_route_with_gt_injection(self, run_config):
        scene = straight_scene()
        report = run_closed_loop(scene, gt_plan(scene, run_config)[2],
                                 ControllerConfig(), horizon=60.0)
        assert report.terminated == "completed"
        assert report.rc >= 0.99
        assert report.is_score == 1.0
        assert report.ds >= 99.0
        assert report.ds == pytest.approx(100.0 * report.rc * report.is_score, abs=1e-9)

    def test_blocking_box_logs_collision(self, run_config):
        scene = straight_scene()
        block = OrientedBox(center=(50.0, 0.0, 0.9), yaw=0.0, extent=(4.0, 12.0, 1.8))
        blocked = dataclasses.replace(scene, agents=(block,))
        report = run_closed_loop(blocked, gt_plan(blocked, run_config)[2],
                                 ControllerConfig(), horizon=60.0)
        kinds = {ev.kind for ev in report.infractions}
        assert "collision_vehicle" in kinds
        assert report.is_score < 1.0

    def test_tiny_horizon_near_zero_completion(self, run_config):
        scene = straight_scene()
        report = run_closed_loop(scene, gt_plan(scene, run_config)[2],
                                 ControllerConfig(), horizon=0.05)
        assert report.rc == pytest.approx(0.0, abs=0.01)
        assert len(report.infractions) == 0

    def test_deterministic_reports(self, run_config):
        scene = straight_scene(seed=7, agent_count=0)
        a = run_closed_loop(scene, gt_plan(scene, run_config)[2], ControllerConfig(), 30.0)
        b = run_closed_loop(scene, gt_plan(scene, run_config)[2], ControllerConfig(), 30.0)
        assert a.ds == b.ds and a.rc == b.rc and a.is_score == b.is_score
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_deviating_planner_terminates_episode(self, run_config):
        scene = straight_scene()
        sideways = PlannedPath(waypoints=tuple((0.0, float(y), 0.0) for y in range(2, 80, 2)),
                               target_speed=8.0)
        report = run_closed_loop(scene, sideways, ControllerConfig(), horizon=60.0)
        assert report.terminated == "deviation"
        assert any(ev.kind == "route_deviation" for ev in report.infractions)

    def test_red_light_crossing_logged(self):
        scene = straight_scene(seed=5, traffic_signal="red")
        fast = PlannedPath(waypoints=tuple(interpret_path(scene.ground_truth, 0.0).waypoints),
                           target_speed=8.0)
        report = run_closed_loop(scene, fast, ControllerConfig(), 60.0)
        kinds = [ev.kind for ev in report.infractions]
        assert kinds.count("red_light") == 1
        assert report.is_score == pytest.approx(0.70)

    def test_red_light_respected_when_holding(self, run_config):
        scene = straight_scene(seed=5, traffic_signal="red")
        report = run_closed_loop(scene, gt_plan(scene, run_config)[2],
                                 ControllerConfig(), horizon=10.0)
        # gt speed is zero on red: ego holds, no infraction, no progress
        assert len(report.infractions) == 0
        assert report.rc == pytest.approx(0.0, abs=0.01)

    def test_missing_plan_marks_report(self, run_config):
        scene = straight_scene()
        report = run_closed_loop(scene, None, ControllerConfig(), 10.0)
        assert report.terminated == "failure"
        assert report.ds == pytest.approx(100.0 * report.rc * report.is_score, abs=1e-9)

    def test_ds_identity_holds_on_suite(self, run_config):
        for spec in run_config.suite_specs()[:4]:
            scene = generate_scene(spec, n_p=run_config.n_p)
            report = run_closed_loop(scene, gt_plan(scene, run_config)[2],
                                     run_config.controller, horizon=20.0)
            assert report.ds == pytest.approx(100.0 * report.rc * report.is_score, abs=1e-9)

    def test_boxes_entered_on_one_step_logged_once_vehicle_first(self, run_config):
        scene = straight_scene()
        box = OrientedBox(center=(50.0, 0.0, 0.9), yaw=0.3, extent=(4.0, 12.0, 1.8))
        both = dataclasses.replace(scene, agents=(box,), clutter=(box,))
        report = run_closed_loop(both, gt_plan(both, run_config)[2],
                                 ControllerConfig(), horizon=60.0)
        events = report.infractions
        assert [ev.kind for ev in events] == ["collision_vehicle", "collision_static"]
        assert events[0].time == events[1].time
        assert report.is_score == pytest.approx(0.60 * 0.65)

    def test_missing_plan_trajectory_is_start_row(self):
        scene = straight_scene()
        report = run_closed_loop(scene, None, ControllerConfig(), 10.0)
        x, y, _ = scene.route_start
        assert np.array_equal(report.trajectory, np.array([[0.0, x, y, 0.0]]))

    def test_rc_matches_route_completion_of_trajectory(self, run_config):
        for spec in run_config.suite_specs()[:4]:
            scene = generate_scene(spec, n_p=run_config.n_p)
            report = run_closed_loop(scene, gt_plan(scene, run_config)[2],
                                     run_config.controller, horizon=20.0)
            assert report.rc == trajectory_rc(
                scene.route_polyline, report.trajectory[:, 1:3],
                scene.lane_widths[scene.route_lane])


def reference_projection(point, polyline):
    """Per-call projection with the segment table rebuilt every time."""
    p = np.asarray(point, dtype=float)[:2]
    poly = np.asarray(polyline, dtype=float)[:, :2]
    a, b = poly[:-1], poly[1:]
    ab = b - a
    seg_len2 = np.einsum("ij,ij->i", ab, ab)
    seg_len2 = np.where(seg_len2 == 0.0, 1.0, seg_len2)
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / seg_len2, 0.0, 1.0)
    dist = np.linalg.norm(a + t[:, None] * ab - p, axis=1)
    k = int(np.argmin(dist))
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(poly, axis=0), axis=1))])
    seg_len = np.sqrt(np.einsum("ij,ij->i", b - a, b - a))
    return float(cum[k] + t[k] * seg_len[k]), float(dist[k])


def tie_polylines():
    """Polylines on which grid points sit at equal distance from two or more
    segments: a square U, a zigzag and a line that doubles back on itself,
    each with a zero-length segment."""
    u = np.array([[0, 0, 0], [10, 0, 0], [10, 10, 0], [10, 10, 0], [0, 10, 0]], dtype=float)
    zigzag = np.array([[0, 0, 0], [4, 4, 0], [8, 0, 0], [8, 0, 0], [12, 4, 0]], dtype=float)
    back = np.array([[0, 0, 0], [6, 0, 0], [6, 0, 0], [0, 0, 0], [0, 3, 0]], dtype=float)
    return [u, zigzag, back]


def test_polyline_projector_matches_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    lines = []
    for n in (2, 5, 40):
        poly = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        poly[n // 2] = poly[n // 2 - 1]  # a zero-length segment
        lines.append((poly, rng.uniform(-10.0, 10.0, (200, 2))))
    grid = np.array([(x, y) for x in np.arange(-2.0, 13.0, 0.5)
                     for y in np.arange(-2.0, 13.0, 0.5)])
    lines += [(poly, grid) for poly in tie_polylines()]
    for poly, points in lines:
        project = PolylineProjector(poly)
        s, d = project.project(points)
        for i, point in enumerate(points):
            expected = reference_projection(point, poly)
            assert project(point) == expected
            assert (float(s[i]), float(d[i])) == expected


def test_stacked_lanes_min_distance_matches_reference_bit_for_bit():
    rng = np.random.default_rng(5)
    lanes = [np.cumsum(rng.normal(size=(n, 3)), axis=0) for n in (3, 12, 30)]
    lanes[1][4] = lanes[1][3]  # a zero-length segment
    for group in (lanes, tie_polylines(), lanes[:1]):
        table = SegmentTable(*group)
        points = np.vstack([rng.uniform(-10.0, 13.0, (150, 2)),
                            [(5.0, 5.0), (4.0, 2.0), (3.0, 0.0), (0.0, 0.0)]])
        got = table.min_distance(points)
        one_by_one = [table.min_distance(p[None])[0] for p in points]
        for i, point in enumerate(points):
            expected = min(reference_projection(point, line)[1] for line in group)
            assert float(got[i]) == expected
            assert float(one_by_one[i]) == expected


def norm_closest(table, points):
    """``SegmentTable.closest`` with the distance taken by ``np.linalg.norm``
    over the (N, S, 2) offsets."""
    p = np.asarray(points, dtype=float)[:, None, :2]
    n = len(p)
    ab = np.tile(table.ab, (n, 1))
    dot = np.einsum("ij,ij->i", (p - table.a).reshape(-1, 2), ab).reshape(n, -1)
    t = np.clip(dot / table.seg_len2, 0.0, 1.0)
    dist = np.linalg.norm(table.a + t[:, :, None] * table.ab - p, axis=2)
    return t, dist


def test_closest_matches_norm_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    lanes = [np.cumsum(rng.normal(size=(n, 3)), axis=0) for n in (2, 7, 25)]
    lanes[1][3] = lanes[1][2]  # a zero-length segment
    lanes[2][10:13] = lanes[2][9]  # two in a row
    signed_zero = np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, 0.0], [-0.0, -0.0, 0.0],
                            [-0.0, 3.0, 0.0]])
    big = [line * 1e6 + 1e6 for line in lanes]
    cases = [
        (lanes, rng.uniform(-10.0, 13.0, (300, 2))),
        (tie_polylines(), np.array([(x, y) for x in np.arange(-2.0, 13.0, 0.5)
                                    for y in np.arange(-2.0, 13.0, 0.5)])),
        ([signed_zero, lanes[0]], np.array([[0.0, 0.0], [-0.0, -0.0], [0.0, -0.0],
                                            [-0.0, 0.0], [-0.0, 1.5], [-1.0, -0.0]])),
        (big, rng.uniform(-1e7, 1e7, (300, 2))),
        (big, np.vstack([line[:, :2] for line in big])),
    ]
    for group, points in cases:
        table = SegmentTable(*group)
        want_t, want_d = norm_closest(table, points)
        got_t, got_d = table.closest(points)
        assert np.array_equal(got_t.view(np.int64), want_t.view(np.int64))
        assert np.array_equal(got_d.view(np.int64), want_d.view(np.int64))
        for i in (0, len(points) // 2, len(points) - 1):  # one-point queries
            t1, d1 = table.closest(points[i:i + 1])
            assert np.array_equal(t1.view(np.int64), want_t[i:i + 1].view(np.int64))
            assert np.array_equal(d1.view(np.int64), want_d[i:i + 1].view(np.int64))


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(dt=0.2)
    with pytest.raises(ValueError):
        ControllerConfig(lookahead=0.0)
    for field in dataclasses.fields(ControllerConfig):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{field.name} must be"):
                ControllerConfig(**{field.name: value})


def test_eval_config_rejects_non_finite_distances():
    for name in ("ego_radius", "arrival_radius", "deviation_lane_widths", "deviation_seconds"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite, got"):
                EvalConfig(**{name: value})


def unfiltered_entered(xy, centers, halves, cos, sin):
    """The box test over every (point, box) pair: for each row inside at
    least one box, the box indices it lies in, ascending."""
    d = xy[:, None, :] - centers
    u = np.abs(cos * d[..., 0] + sin * d[..., 1])
    v = np.abs(-sin * d[..., 0] + cos * d[..., 1])
    inside = (u <= halves[:, 0]) & (v <= halves[:, 1])
    return {int(row): np.flatnonzero(inside[row]).tolist()
            for row in np.flatnonzero(inside.any(axis=1))}


def stacked_boxes(centers, extents, yaws, ego_radius):
    boxes = tuple(OrientedBox(center=(float(cx), float(cy), 0.9), yaw=float(yaw),
                              extent=(float(ex), float(ey), 1.8))
                  for (cx, cy), (ex, ey), yaw in zip(centers, extents, yaws))
    scene = types.SimpleNamespace(agents=boxes[:len(boxes) // 2],
                                  clutter=boxes[len(boxes) // 2:])
    return sim_eval._stack_boxes(scene, ego_radius)[1:]


def box_outline_points(centers, halves, cos, sin, shrink):
    """Each box's inflated corners and edge midpoints, pulled toward its
    centre by the factor ``1 - shrink``."""
    out = []
    for (cx, cy), (hx, hy), c, s in zip(centers, halves, cos, sin):
        for fu, fv in ((1, 1), (-1, 1), (-1, -1), (1, -1), (1, 0), (-1, 0), (0, 1), (0, -1)):
            u, v = fu * hx * (1.0 - shrink), fv * hy * (1.0 - shrink)
            out.append((cx + c * u - s * v, cy + s * u + c * v))
    return np.array(out).reshape(-1, 2)


def test_entered_boxes_matches_unfiltered_test():
    """The bounding-box prefilter drops no box the exact test would find:
    random chunks and boxes, points on and just inside the inflated edges
    and corners (alone and as one chunk), 45-degree boxes, coordinates near
    1e6, ego_radius 0 and a chunk far from every box."""
    rng = np.random.default_rng(17)
    hits = 0
    for trial in range(60):
        origin = (0.0, 1e6, -1e6)[trial % 3]
        k = int(rng.integers(1, 30))
        centers = origin + rng.uniform(-25.0, 25.0, (k, 2))
        extents = rng.uniform(0.0, 6.0, (k, 2))
        yaws = np.where(rng.random(k) < 0.3, math.pi / 4, rng.uniform(-math.pi, math.pi, k))
        ego_radius = (0.0, 1.0, float(rng.uniform(0.0, 2.0)))[trial // 3 % 3]
        boxes = stacked_boxes(centers, extents, yaws, ego_radius)
        walk = np.cumsum(rng.normal(0.0, 0.6, (int(rng.integers(1, 65)), 2)), axis=0)
        far = walk + origin + 1e3
        assert not unfiltered_entered(far, *boxes)
        chunks = [centers[rng.integers(k)] + rng.uniform(-8.0, 8.0, 2) + walk, far]
        for shrink in (0.0, 1e-9):
            outline = box_outline_points(*boxes, shrink)
            chunks.append(outline)
            chunks += [point[None] for point in outline]
        for xy in chunks:
            want = unfiltered_entered(xy, *boxes)
            assert sim_eval._entered_boxes(xy, *boxes) == want
            hits += len(want)
    assert hits > 5_000  # the outlines do land inside their boxes


# ---------------------------------------------------------------------------
# Chunked episode = per-step episode. The reference below is the per-step
# loop that run_closed_loop replaced: one controller step, one box test, one
# route projection (table rebuilt per call) and one arrival test per tick.
# ---------------------------------------------------------------------------


def reference_follow_path(state, path, cfg):
    if len(path.waypoints) == 0:
        return 0.0, 0.0
    ego = np.array(state[:2])
    dists = [math.hypot(w[0] - ego[0], w[1] - ego[1]) for w in path.waypoints]
    nearest = int(np.argmin(dists))
    target = path.waypoints[-1]
    for i in range(nearest, len(path.waypoints)):
        if dists[i] >= cfg.lookahead:
            target = path.waypoints[i]
            break
    angle_to = math.atan2(target[1] - ego[1], target[0] - ego[0])
    eta = math.remainder(angle_to - state[2], 2.0 * math.pi)
    steer = math.atan(2.0 * cfg.wheelbase * math.sin(eta) / cfg.lookahead)
    steer = max(-cfg.max_steer, min(cfg.max_steer, steer))
    accel = cfg.speed_gain * (path.target_speed - state[3])
    accel = max(-cfg.max_accel, min(cfg.max_accel, accel))
    return steer, accel


def reference_closed_loop(scene, path, cfg, horizon, eval_cfg=None):
    eval_cfg = eval_cfg or EvalConfig()
    route = scene.route_polyline
    total_len = polyline_length(route)
    lane_width = scene.lane_widths[scene.route_lane]
    end_x, end_y = scene.route_target[:2]
    kinds, centers, halves, cos, sin = sim_eval._stack_boxes(scene, eval_cfg.ego_radius)
    live = np.ones(len(kinds), dtype=bool)

    state = (*scene.route_start[:3], 0.0)  # x, y, heading, speed
    events = []
    red_logged = False
    trajectory = []
    progress = []
    terminated = "horizon"
    deviation_clock = 0.0
    prev_s, prev_d = reference_projection(np.array(state[:2]), route)

    t = 0.0
    for _ in range(int(math.ceil(horizon / cfg.dt))):
        trajectory.append((t, state[0], state[1], state[3]))
        progress.append((prev_s, prev_d))
        if path is None:
            terminated = "failure"
            break
        steer, accel = reference_follow_path(state, path, cfg)
        state = step_ego(*state, steer, accel, cfg)
        t += cfg.dt
        ego_xy = np.array(state[:2])

        if live.any():
            d = ego_xy - centers
            u = np.abs(cos * d[:, 0] + sin * d[:, 1])
            v = np.abs(-sin * d[:, 0] + cos * d[:, 1])
            for bi in np.flatnonzero(live & (u <= halves[:, 0]) & (v <= halves[:, 1])):
                live[bi] = False
                events.append(InfractionEvent(time=t, kind=kinds[bi],
                                              penalty=eval_cfg.penalties[kinds[bi]]))

        cur_s, cur_d = reference_projection(ego_xy, route)
        if (scene.signal_state == "red" and not red_logged
                and scene.signal_line_s is not None and prev_s < scene.signal_line_s <= cur_s):
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

        dx, dy = state[0] - end_x, state[1] - end_y
        if (math.sqrt(dx * dx + dy * dy) <= eval_cfg.arrival_radius
                or cur_s >= total_len - eval_cfg.arrival_radius):
            trajectory.append((t, state[0], state[1], state[3]))
            progress.append((cur_s, cur_d))
            terminated = "completed"
            break

    rc = sim_eval._progress_fold(progress, lane_width, total_len)
    log = tuple(events)
    is_score = infraction_score(log)
    return sim_eval.EvalReport(ds=100.0 * rc * is_score, rc=rc, is_score=is_score,
                               infractions=log, terminated=terminated,
                               trajectory=np.array(trajectory))


def assert_same_report(got, want):
    assert (got.ds, got.rc, got.is_score) == (want.ds, want.rc, want.is_score)
    assert got.infractions == want.infractions
    assert got.terminated == want.terminated
    assert got.trajectory.shape == want.trajectory.shape
    assert got.trajectory.tobytes() == want.trajectory.tobytes()


def steps_of(report) -> int:
    """Controller steps the episode took."""
    rows = len(report.trajectory)
    return rows - 1 if report.terminated == "completed" else rows


def horizon_for(steps: int, cfg: ControllerConfig) -> float:
    """A horizon of exactly ``steps`` ticks."""
    return (steps - 0.5) * cfg.dt


# A start this far from the target is within the 0.3 m arrival radius by
# sqrt(dx * dx + dy * dy), but not by sqrt(fma(dy, dy, dx * dx)), the
# rounding of some BLAS dot kernels (found by search over angles).
PARKED_OFFSET = (0.20901308883567332, -0.21520578220710274)


def parked_episode():
    """(scene, path, horizon): an ego that never moves, parked by the target
    of a route that folds back, so its arc length stays near 0."""
    route = np.array([[-1.0, -0.3, 0.0], [30.0, -0.3, 0.0], [30.0, 10.0, 0.0],
                      [0.0, 10.0, 0.0], [0.0, 0.0, 0.0]])
    scene = dataclasses.replace(
        straight_scene(), centerlines=(route,), lane_widths=(3.5,), route_lane=0,
        agents=(), clutter=(), route_start=(*PARKED_OFFSET, 0.0),
        route_target=(0.0, 0.0, 0.0))
    hold = PlannedPath(waypoints=((5.0, -0.3, 0.0), (10.0, -0.3, 0.0)), target_speed=0.0)
    return scene, hold, 10.0


def chunk_episodes(run_config):
    """(name, scene, path, horizon) per episode kind the scan handles."""
    plain = straight_scene()
    red = straight_scene(seed=5, traffic_signal="red")
    fast_red = PlannedPath(waypoints=tuple(interpret_path(red.ground_truth, 0.0).waypoints),
                           target_speed=8.0)
    sideways = PlannedPath(waypoints=tuple((0.0, float(y), 0.0) for y in range(2, 80, 2)),
                           target_speed=8.0)
    box = OrientedBox(center=(50.0, 0.0, 0.9), yaw=0.3, extent=(4.0, 12.0, 1.8))
    two_boxes = dataclasses.replace(plain, agents=(box,), clutter=(box,))
    return [
        ("completed", plain, gt_plan(plain, run_config)[2], 60.0),
        ("deviation", plain, sideways, 60.0),
        ("red-light", red, fast_red, 60.0),
        ("two-boxes-one-step", two_boxes, gt_plan(two_boxes, run_config)[2], 60.0),
        ("failure", plain, None, 10.0),
        ("empty-path", plain, PlannedPath(waypoints=(), target_speed=3.0), 5.0),
        ("horizon-not-chunk-multiple", red, gt_plan(red, run_config)[2], 7.3),
        ("parked-at-target", *parked_episode()),
    ]


def rest_episodes(run_config):
    """(name, scene, path, horizon, eval_cfg) per episode in which the ego
    comes to rest: a state that steps to itself, bit for bit."""
    cfg = ControllerConfig()
    red = straight_scene(seed=5, traffic_signal="red")
    # the variants of red below change its start or clutter, which the plan does not read
    gt = gt_plan(red, run_config)[2]
    hold = PlannedPath(waypoints=(), target_speed=3.0)
    parked = OrientedBox(center=(0.5, 0.0, 0.9), yaw=0.2, extent=(4.0, 2.0, 1.8))
    episodes = [(f"red-{steps}", red, gt, horizon_for(steps, cfg), None)
                for steps in (63, 64, 65, 1200)]
    return episodes + [
        ("empty-path", straight_scene(), hold, horizon_for(300, cfg), None),
        ("off-route", dataclasses.replace(red, route_start=(0.0, 20.0, 0.0)), gt,
         horizon_for(300, cfg), EvalConfig(deviation_seconds=5.0)),
        ("in-clutter-box", dataclasses.replace(red, clutter=(parked,)), gt,
         horizon_for(200, cfg), None),
        ("minus-zero-x", dataclasses.replace(red, route_start=(-0.0, 0.0, 0.0)), gt,
         horizon_for(200, cfg), None),
        ("minus-zero-y-heading", dataclasses.replace(red, route_start=(0.0, -0.0, -0.0)),
         gt, horizon_for(200, cfg), None),
    ]


class TestChunkedEpisode:
    def test_default_chunk_matches_per_step_loop(self, run_config):
        cfg = ControllerConfig()
        for name, scene, path, horizon in chunk_episodes(run_config):
            want = reference_closed_loop(scene, path, cfg, horizon)
            got = run_closed_loop(scene, path, cfg, horizon)
            assert_same_report(got, want)
        assert math.ceil(7.3 / cfg.dt) % sim_eval._CHUNK != 0

    def test_parked_ego_arrives_by_the_plain_sum(self):
        scene, path, horizon = parked_episode()
        dx, dy = PARKED_OFFSET
        r = EvalConfig().arrival_radius
        fused = float(Fraction(dy) * Fraction(dy) + Fraction(dx * dx))  # fma(dy, dy, dx * dx)
        assert math.sqrt(dx * dx + dy * dy) <= r < math.sqrt(fused)
        got = run_closed_loop(scene, path, ControllerConfig(), horizon)
        assert got.terminated == "completed"
        assert len(got.trajectory) == 2 and got.rc < 0.05

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_horizon_around_chunk_boundary(self, run_config, offset):
        cfg = ControllerConfig()
        horizon = horizon_for(sim_eval._CHUNK + offset, cfg)
        scene = straight_scene()
        gt = gt_plan(scene, run_config)[2]
        want = reference_closed_loop(scene, gt, cfg, horizon)
        assert want.terminated == "horizon"
        assert len(want.trajectory) == sim_eval._CHUNK + offset
        assert_same_report(run_closed_loop(scene, gt, cfg, horizon), want)

    @pytest.mark.parametrize("kind", ["completed", "deviation", "red-light",
                                      "two-boxes-one-step"])
    def test_chunk_boundary_around_events_and_termination(self, run_config, monkeypatch,
                                                          kind):
        """Chunks that end one step before, at and one step after the step
        that logs an event or ends the episode."""
        cfg = ControllerConfig()
        (scene, path, horizon), = [e[1:] for e in chunk_episodes(run_config) if e[0] == kind]
        want = reference_closed_loop(scene, path, cfg, horizon)
        assert want.terminated == ("deviation" if kind == "deviation" else "completed")
        marks = {steps_of(want)} | {round(ev.time / cfg.dt) for ev in want.infractions}
        for chunk in sorted({1, 7} | {m + k for m in marks for k in (-1, 0, 1)}):
            monkeypatch.setattr(sim_eval, "_CHUNK", chunk)
            assert_same_report(run_closed_loop(scene, path, cfg, horizon), want)

    @pytest.mark.parametrize("kind", ["red-light", "two-boxes-one-step", "deviation"])
    def test_horizon_around_event_step(self, run_config, kind):
        """The horizon ends one step before, at and one step after the step
        that logs an event: the steps past the horizon must log nothing."""
        cfg = ControllerConfig()
        (scene, path, horizon), = [e[1:] for e in chunk_episodes(run_config) if e[0] == kind]
        events = reference_closed_loop(scene, path, cfg, horizon).infractions
        mark = round(events[0].time / cfg.dt)
        for steps in (mark - 1, mark, mark + 1):
            want = reference_closed_loop(scene, path, cfg, horizon_for(steps, cfg))
            assert len(want.infractions) == (steps >= mark) * len(events)
            got = run_closed_loop(scene, path, cfg, horizon_for(steps, cfg))
            assert_same_report(got, want)

    def test_reference_suite_matches_per_step_loop(self, run_config):
        for seed in (run_config.seed_scene, 7331):
            cfg = dataclasses.replace(run_config, seed_scene=seed)
            for spec in cfg.suite_specs():
                scene = generate_scene(spec, n_p=cfg.n_p)
                gt = gt_plan(scene, cfg)[2]
                want = reference_closed_loop(scene, gt, cfg.controller, 20.0, cfg.eval_config)
                got = run_closed_loop(scene, gt, cfg.controller, 20.0, cfg.eval_config)
                assert_same_report(got, want)

    @pytest.mark.parametrize("chunk", [sim_eval._CHUNK, 1, 7])
    def test_rest_matches_per_step_loop(self, run_config, monkeypatch, chunk):
        monkeypatch.setattr(sim_eval, "_CHUNK", chunk)
        cfg = ControllerConfig()
        for name, scene, path, horizon, eval_cfg in rest_episodes(run_config):
            want = reference_closed_loop(scene, path, cfg, horizon, eval_cfg)
            got = run_closed_loop(scene, path, cfg, horizon, eval_cfg)
            assert_same_report(got, want)
            if name == "off-route":
                assert want.terminated == "deviation" and steps_of(want) > 64
            elif name == "in-clutter-box":
                assert [ev.kind for ev in want.infractions] == ["collision_static"]
            else:
                assert want.terminated == "horizon"

    @pytest.mark.parametrize("name, steps", [("red-1200", 1), ("empty-path", 1),
                                             ("off-route", 1), ("minus-zero-x", 2),
                                             ("minus-zero-y-heading", 3)])
    def test_controller_stops_at_rest(self, run_config, monkeypatch, name, steps):
        """The controller runs up to the first step that returns its own
        input state, bit for bit; a -0.0 that steps to +0.0 is a move."""
        calls = []

        def counting(*args):
            calls.append(args)
            return follow_path(*args)

        monkeypatch.setattr(sim_eval, "follow_path", counting)
        (scene, path, horizon, eval_cfg), = [e[1:] for e in rest_episodes(run_config)
                                             if e[0] == name]
        run_closed_loop(scene, path, ControllerConfig(), horizon, eval_cfg)
        assert len(calls) == steps


@pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_horizon_rejected(horizon):
    with pytest.raises(ValueError, match="horizon must be finite and > 0"):
        run_closed_loop(straight_scene(), PlannedPath((), 1.0),
                        ControllerConfig(), horizon)
