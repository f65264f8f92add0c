import dataclasses
import math

import numpy as np
import pytest

from lanefuse.double_edge import PlannedPath, interpret_path
from lanefuse.geometry import OrientedBox, PolylineProjector, project_point_to_polyline
from lanefuse.pipeline import make_gt_planner
from lanefuse.scene_synth import SceneSpec, generate_scene
from lanefuse.sim_eval import (
    ControllerConfig,
    EgoState,
    InfractionEvent,
    InfractionLog,
    follow_path,
    infraction_score,
    route_completion,
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
        state = EgoState(x=0.0, y=0.0, heading=0.0, speed=1.0)
        out = step_ego(state, steer=0.0, accel=0.0, cfg=cfg)
        assert out.x == pytest.approx(0.05)
        assert out.y == 0.0
        assert out.heading == 0.0
        assert out.speed == 1.0

    def test_stationary_state_unchanged(self):
        cfg = ControllerConfig()
        state = EgoState(x=3.0, y=-2.0, heading=0.7, speed=0.0)
        out = step_ego(state, steer=0.2, accel=0.0, cfg=cfg)
        assert (out.x, out.y, out.heading, out.speed) == (3.0, -2.0, 0.7, 0.0)

    def test_constant_steer_traces_circle_of_expected_radius(self):
        cfg = ControllerConfig(dt=0.01, wheelbase=2.5, max_steer=0.6)
        steer = 0.3
        expected_r = cfg.wheelbase / math.tan(steer)
        state = EgoState(x=0.0, y=0.0, heading=0.0, speed=1.0)
        pts = []
        for _ in range(int(2 * math.pi * expected_r / 1.0 / cfg.dt)):
            state = step_ego(state, steer=steer, accel=0.0, cfg=cfg)
            pts.append((state.x, state.y))
        fitted = fit_circle_radius(np.array(pts))
        assert abs(fitted - expected_r) / expected_r < 0.01

    def test_speed_clamped_at_zero(self):
        cfg = ControllerConfig()
        state = EgoState(x=0.0, y=0.0, heading=0.0, speed=0.05)
        out = step_ego(state, steer=0.0, accel=-3.0, cfg=cfg)
        assert out.speed == 0.0

    def test_limits_enforced(self):
        cfg = ControllerConfig()
        state = EgoState(x=0.0, y=0.0, heading=0.0, speed=1.0)
        with pytest.raises(ValueError):
            step_ego(state, steer=1.0, accel=0.0, cfg=cfg)
        with pytest.raises(ValueError):
            step_ego(state, steer=0.0, accel=10.0, cfg=cfg)


class TestFollowPath:
    def test_aligned_straight_path_zero_steer(self):
        cfg = ControllerConfig()
        path = PlannedPath(waypoints=tuple((float(x), 0.0, 0.0) for x in range(1, 20)),
                           target_speed=5.0)
        steer, _ = follow_path(EgoState(x=0.0, y=0.0, heading=0.0, speed=3.0), path, cfg)
        assert abs(steer) < 1e-9

    def test_at_target_speed_zero_accel(self):
        cfg = ControllerConfig()
        path = PlannedPath(waypoints=((10.0, 0.0, 0.0),), target_speed=5.0)
        _, accel = follow_path(EgoState(x=0.0, y=0.0, heading=0.0, speed=5.0), path, cfg)
        assert accel == 0.0

    def test_waypoint_left_gives_positive_steer_closed_form(self):
        cfg = ControllerConfig(lookahead=3.0, wheelbase=2.5, max_steer=1.5)
        path = PlannedPath(waypoints=((0.0, 3.0, 0.0),), target_speed=2.0)
        steer, _ = follow_path(EgoState(x=0.0, y=0.0, heading=0.0, speed=1.0), path, cfg)
        eta = math.pi / 2.0
        expected = math.atan(2.0 * cfg.wheelbase * math.sin(eta) / cfg.lookahead)
        assert steer == pytest.approx(expected)
        assert steer > 0.0

    def test_empty_path_zero_controls(self):
        cfg = ControllerConfig()
        steer, accel = follow_path(EgoState(x=0.0, y=0.0, heading=0.0, speed=2.0),
                                   PlannedPath(waypoints=(), target_speed=0.0), cfg)
        assert (steer, accel) == (0.0, 0.0)

    def test_steer_clamped(self):
        cfg = ControllerConfig(max_steer=0.1)
        path = PlannedPath(waypoints=((0.0, 3.0, 0.0),), target_speed=2.0)
        steer, _ = follow_path(EgoState(x=0.0, y=0.0, heading=0.0, speed=1.0), path, cfg)
        assert steer == 0.1


class TestRouteCompletion:
    def test_full_route(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        assert route_completion(route, route[:, :2], lane_width=3.5) == 1.0

    def test_empty_trajectory(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        assert route_completion(route, np.zeros((0, 2)), lane_width=3.5) == 0.0

    def test_half_route(self):
        route = np.column_stack([np.linspace(0, 100, 201), np.zeros(201), np.zeros(201)])
        traj = np.column_stack([np.linspace(0, 50, 120), np.zeros(120)])
        assert route_completion(route, traj, lane_width=3.5) == pytest.approx(0.5, abs=0.01)

    def test_off_corridor_passes_do_not_count(self):
        route = np.column_stack([np.linspace(0, 100, 101), np.zeros(101), np.zeros(101)])
        traj = np.column_stack([np.linspace(0, 100, 50), np.full(50, 5.0)])
        assert route_completion(route, traj, lane_width=3.5) == 0.0

    def test_monotone_over_prefixes(self):
        rng = np.random.default_rng(0)
        route = np.column_stack([np.linspace(0, 80, 161), np.zeros(161), np.zeros(161)])
        traj = np.column_stack([np.linspace(0, 80, 200),
                                rng.uniform(-1.0, 1.0, 200)])
        prev = 0.0
        for n in range(0, 201, 20):
            rc = route_completion(route, traj[:n], lane_width=3.5)
            assert rc >= prev
            prev = rc


class TestInfractionScore:
    def test_empty_log(self):
        assert infraction_score(InfractionLog(events=())) == 1.0

    def test_product_of_penalties(self):
        log = InfractionLog(events=(
            InfractionEvent(time=1.0, kind="collision_vehicle", penalty=0.60),
            InfractionEvent(time=2.0, kind="red_light", penalty=0.70),
        ))
        assert infraction_score(log) == pytest.approx(0.42, rel=1e-12)

    def test_order_independent(self):
        evs = [InfractionEvent(time=float(i), kind="collision_static", penalty=p)
               for i, p in enumerate((0.65, 0.7, 0.6))]
        a = infraction_score(InfractionLog(events=tuple(evs)))
        b = infraction_score(InfractionLog(events=tuple(reversed(evs))))
        assert a == b

    def test_non_increasing_as_events_append(self):
        evs = []
        prev = 1.0
        for i in range(5):
            evs.append(InfractionEvent(time=float(i), kind="red_light", penalty=0.7))
            score = infraction_score(InfractionLog(events=tuple(evs)))
            assert score <= prev
            prev = score


def straight_scene(seed=42, length=100.0, **kwargs):
    return generate_scene(SceneSpec(seed=seed, lane_count=1, geometry="straight",
                                    route_length=length, **kwargs), n_p=20)


class FixedPlanner:
    def __init__(self, path):
        self.path = path

    def __call__(self, scene):
        return self.path


class TestClosedLoop:
    def test_straight_route_with_gt_injection(self, run_config):
        scene = straight_scene()
        report = run_closed_loop(scene, make_gt_planner(run_config),
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
        report = run_closed_loop(blocked, make_gt_planner(run_config),
                                 ControllerConfig(), horizon=60.0)
        kinds = {ev.kind for ev in report.infractions.events}
        assert "collision_vehicle" in kinds
        assert report.is_score < 1.0

    def test_tiny_horizon_near_zero_completion(self, run_config):
        scene = straight_scene()
        report = run_closed_loop(scene, make_gt_planner(run_config),
                                 ControllerConfig(), horizon=0.05)
        assert report.rc == pytest.approx(0.0, abs=0.01)
        assert len(report.infractions) == 0

    def test_deterministic_reports(self, run_config):
        scene = straight_scene(seed=7, agent_count=0)
        a = run_closed_loop(scene, make_gt_planner(run_config), ControllerConfig(), 30.0)
        b = run_closed_loop(scene, make_gt_planner(run_config), ControllerConfig(), 30.0)
        assert a.ds == b.ds and a.rc == b.rc and a.is_score == b.is_score
        assert np.array_equal(a.trajectory, b.trajectory)

    def test_deviating_planner_terminates_episode(self, run_config):
        scene = straight_scene()
        sideways = PlannedPath(waypoints=tuple((0.0, float(y), 0.0) for y in range(2, 80, 2)),
                               target_speed=8.0)
        report = run_closed_loop(scene, FixedPlanner(sideways), ControllerConfig(),
                                 horizon=60.0)
        assert report.terminated == "deviation"
        assert any(ev.kind == "route_deviation" for ev in report.infractions.events)

    def test_red_light_crossing_logged(self):
        scene = straight_scene(seed=5, traffic_signal="red")
        fast = PlannedPath(waypoints=tuple(interpret_path(scene.ground_truth, 0.0).waypoints),
                           target_speed=8.0)
        report = run_closed_loop(scene, FixedPlanner(fast), ControllerConfig(), 60.0)
        kinds = [ev.kind for ev in report.infractions.events]
        assert kinds.count("red_light") == 1
        assert report.is_score == pytest.approx(0.70)

    def test_red_light_respected_when_holding(self, run_config):
        scene = straight_scene(seed=5, traffic_signal="red")
        report = run_closed_loop(scene, make_gt_planner(run_config),
                                 ControllerConfig(), horizon=10.0)
        # gt speed is zero on red: ego holds, no infraction, no progress
        assert len(report.infractions) == 0
        assert report.rc == pytest.approx(0.0, abs=0.01)

    def test_planner_failure_marks_report(self, run_config):
        scene = straight_scene()

        def broken(sc):
            raise RuntimeError("sensor dropout")

        report = run_closed_loop(scene, broken, ControllerConfig(), 10.0)
        assert report.terminated == "failure"
        assert report.ds == pytest.approx(100.0 * report.rc * report.is_score, abs=1e-9)

    def test_ds_identity_holds_on_suite(self, run_config):
        for spec in run_config.suite_specs()[:4]:
            scene = generate_scene(spec, n_p=run_config.n_p)
            report = run_closed_loop(scene, make_gt_planner(run_config),
                                     run_config.controller, horizon=20.0)
            assert report.ds == pytest.approx(100.0 * report.rc * report.is_score, abs=1e-9)


    def test_planner_called_once_per_episode(self, run_config):
        scene = straight_scene()
        gt = make_gt_planner(run_config)
        calls = []

        def counting(sc):
            calls.append(sc)
            return gt(sc)

        report = run_closed_loop(scene, counting, ControllerConfig(), horizon=60.0)
        assert report.terminated == "completed"
        assert len(report.trajectory) > 100
        assert calls == [scene]

    def test_boxes_entered_on_one_step_logged_once_vehicle_first(self, run_config):
        scene = straight_scene()
        box = OrientedBox(center=(50.0, 0.0, 0.9), yaw=0.3, extent=(4.0, 12.0, 1.8))
        both = dataclasses.replace(scene, agents=(box,), clutter=(box,))
        report = run_closed_loop(both, make_gt_planner(run_config),
                                 ControllerConfig(), horizon=60.0)
        events = report.infractions.events
        assert [ev.kind for ev in events] == ["collision_vehicle", "collision_static"]
        assert events[0].time == events[1].time
        assert report.is_score == pytest.approx(0.60 * 0.65)

    def test_raising_planner_trajectory_is_start_row(self):
        scene = straight_scene()

        def broken(sc):
            raise RuntimeError("sensor dropout")

        report = run_closed_loop(scene, broken, ControllerConfig(), 10.0)
        x, y, _ = scene.route_start
        assert np.array_equal(report.trajectory, np.array([[0.0, x, y, 0.0]]))

    def test_rc_matches_route_completion_of_trajectory(self, run_config):
        for spec in run_config.suite_specs()[:4]:
            scene = generate_scene(spec, n_p=run_config.n_p)
            report = run_closed_loop(scene, make_gt_planner(run_config),
                                     run_config.controller, horizon=20.0)
            assert report.rc == route_completion(
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


def test_polyline_projector_matches_reference_bit_for_bit():
    rng = np.random.default_rng(3)
    for n in (2, 5, 40):
        poly = np.cumsum(rng.normal(size=(n, 3)), axis=0)
        poly[n // 2] = poly[n // 2 - 1]  # a zero-length segment
        project = PolylineProjector(poly)
        for point in rng.uniform(-10.0, 10.0, (200, 2)):
            expected = reference_projection(point, poly)
            assert project(point) == expected
            assert project_point_to_polyline(point, poly) == expected


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(dt=0.2)
    with pytest.raises(ValueError):
        ControllerConfig(lookahead=0.0)
