import json

import numpy as np
import pytest

from lanefuse.double_edge import (
    DoubleEdgeSet,
    ParseError,
    PlannedPath,
    StructuralError,
    ValidationError,
    deserialize,
    interpret_path,
    serialize,
    validate,
)

from conftest import random_lane_set

FIELDS = ("points", "occ", "plan", "intersection", "direction")


def brute_force_midpoints(lanes: DoubleEdgeSet) -> list[tuple[float, float, float]]:
    """Independent oracle: filter plan-flagged pairs, midpoint each in
    Python floats."""
    out = []
    half = lanes.n_p // 2
    for i in range(lanes.n_d):
        for j in range(half):
            if lanes.plan[i, j] == 1 and lanes.plan[i, half + j] == 1:
                left, right = lanes.points[i, j].tolist(), lanes.points[i, half + j].tolist()
                out.append(tuple((a + b) / 2.0 for a, b in zip(left, right)))
    return out


def one_lane(left, right, occ=None, plan=None) -> DoubleEdgeSet:
    """A one-lane set from its left and right edge points; ``occ`` and
    ``plan`` list the flags of both edges, left edge first (default 0)."""
    n = len(left) + len(right)
    return DoubleEdgeSet(np.array([list(left) + list(right)], dtype=float),
                         [occ or [0] * n], [plan or [0] * n], [0], [1])


def select_lanes(lanes: DoubleEdgeSet, idx) -> DoubleEdgeSet:
    return DoubleEdgeSet(*(getattr(lanes, name)[idx] for name in FIELDS))


class TestInterpretPath:
    def test_single_pair_midpoint(self):
        lanes = one_lane([(0, 0, 0)], [(2, 0, 0)], plan=[1, 1])
        path = interpret_path(lanes, target_speed=5.0)
        assert path.waypoints == ((1.0, 0.0, 0.0),)
        assert path.target_speed == 5.0

    def test_all_plan_zero_gives_empty_path(self):
        lanes = one_lane([(0, 0, 0), (1, 0, 0)], [(0, 2, 0), (1, 2, 0)])
        path = interpret_path(lanes, target_speed=3.0)
        assert path.waypoints == ()

    def test_matches_brute_force_on_mixed_flags(self):
        rng = np.random.default_rng(7)
        lanes = random_lane_set(rng, 2, 20)
        path = interpret_path(lanes, 4.0)
        assert list(path.waypoints) == brute_force_midpoints(lanes)

    def test_waypoint_count_equals_pair_count(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lanes = random_lane_set(rng, int(rng.integers(1, 5)), 2 * int(rng.integers(1, 8)))
            half = lanes.n_p // 2
            expected = int(np.sum((lanes.plan[:, :half] == 1) & (lanes.plan[:, half:] == 1)))
            assert len(interpret_path(lanes, 1.0)) == expected

    def test_lane_permutation_permutes_waypoint_blocks(self):
        rng = np.random.default_rng(3)
        lanes = random_lane_set(rng, 4, 10)
        perm = [2, 0, 3, 1]
        permuted = select_lanes(lanes, perm)
        blocks = [brute_force_midpoints(select_lanes(lanes, [i])) for i in range(lanes.n_d)]
        expected = [wp for i in perm for wp in blocks[i]]
        assert list(interpret_path(permuted, 0.0).waypoints) == expected


class TestConstruction:
    def test_equality_is_array_wise(self):
        lanes = random_lane_set(np.random.default_rng(5), 4, 12)
        copy = DoubleEdgeSet(*(getattr(lanes, name).copy() for name in FIELDS))
        assert copy == lanes
        copy.plan[1, 3] = 1 - copy.plan[1, 3]
        assert copy != lanes
        assert lanes != "not a lane set"

    def test_odd_n_p_rejected(self):
        with pytest.raises(StructuralError):
            DoubleEdgeSet(np.zeros((1, 3, 3)), np.zeros((1, 3)), np.zeros((1, 3)), [0], [0])

    @pytest.mark.parametrize("name, value", [
        pytest.param("points", np.zeros((1, 4, 2)), id="points"),
        pytest.param("occ", np.zeros((1, 2)), id="occ"),
        pytest.param("plan", np.zeros((2, 4)), id="plan"),
        pytest.param("intersection", [0, 0], id="intersection"),
        pytest.param("direction", 0, id="direction"),
    ])
    def test_mismatched_shapes_rejected(self, name, value):
        fields = {"points": np.zeros((1, 4, 3)), "occ": np.zeros((1, 4)),
                  "plan": np.zeros((1, 4)), "intersection": [0], "direction": [0]}
        fields[name] = value
        with pytest.raises(StructuralError):
            DoubleEdgeSet(**fields)


class TestValidate:
    def test_well_formed_set_has_no_diagnostics(self):
        lanes = random_lane_set(np.random.default_rng(0), 3, 8)
        assert validate(lanes) == []

    def test_length_mismatch_reported_once(self):
        data = serialize(random_lane_set(np.random.default_rng(1), 1, 20))
        obj = json.loads(data)
        del obj["lanes"][0]["left"][-1]
        with pytest.raises(ValidationError) as exc:
            deserialize(json.dumps(obj).encode())
        assert exc.value.diagnostics == ["lane 0: left/right length mismatch (9 vs 10)"]

    def test_flag_out_of_domain_reported(self):
        lanes = one_lane([(0, 0, 0)], [(0, 2, 0)], occ=[2, 0])
        assert validate(lanes) == ["lane 0 left[0]: occ flag 2 not in {0,1}"]

    @staticmethod
    def with_flags(occ: np.ndarray) -> DoubleEdgeSet:
        return DoubleEdgeSet(np.zeros((1, 2, 3)), occ, np.zeros((1, 2), dtype=occ.dtype),
                             [0], [1])

    @pytest.mark.parametrize("flag", [True, False, 1.0, 0.0, np.float64(1.0), np.bool_(True)])
    def test_flag_equal_to_0_or_1_but_not_int_reported(self, flag):
        lanes = self.with_flags(np.array([[flag, 0]], dtype=object))
        assert validate(lanes) == [f"lane 0 left[0]: occ flag {flag!r} not in {{0,1}}"]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, object])
    def test_integer_flags_pass(self, dtype):
        assert validate(self.with_flags(np.array([[1, 0]], dtype=dtype))) == []

    def test_non_finite_position_reported(self):
        lanes = one_lane([(float("nan"), 0, 0)], [(0, 2, 0)])
        assert any("position" in d for d in validate(lanes))

    def test_diagnostics_in_lane_then_slot_order(self):
        lanes = random_lane_set(np.random.default_rng(4), 2, 4)
        points = lanes.points.copy()
        points[1, 3, 2] = np.inf
        occ, plan = lanes.occ.copy(), lanes.plan.copy()
        occ[1, 3], plan[1, 3], plan[0, 0] = 5, -1, 3
        bad = DoubleEdgeSet(points, occ, plan, [0, 2], [1, 7])
        assert validate(bad, expected_n_d=3, expected_n_p=6) == [
            "set has 2 lanes, expected 3",
            "lane 0 left[0]: plan flag 3 not in {0,1}",
            "lane 1: intersection flag 2 not in {0,1}",
            "lane 1: direction flag 7 not in {0,1}",
            "lane 1 right[1]: occ flag 5 not in {0,1}",
            "lane 1 right[1]: plan flag -1 not in {0,1}",
            "lane 1 right[1]: non-finite or malformed position",
            "edges have 2 points, expected 3",
        ]


class TestSerialization:
    def test_round_trip_is_identity(self):
        lanes = random_lane_set(np.random.default_rng(42), 6, 20)
        assert deserialize(serialize(lanes)) == lanes

    def test_round_trip_property_randomized(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            lanes = random_lane_set(rng, int(rng.integers(1, 6)), 2 * int(rng.integers(1, 10)))
            assert deserialize(serialize(lanes)) == lanes

    def test_serialized_bytes(self):
        lanes = one_lane([(0.5, 0, 0)], [(2, -1.25, 0)], occ=[1, 0], plan=[1, 1])
        assert serialize(lanes) == (
            b'{"lanes":[{"dir":1,"int":0,'
            b'"left":[{"occ":1,"p":[0.5,0.0,0.0],"plan":1}],'
            b'"right":[{"occ":0,"p":[2.0,-1.25,0.0],"plan":1}]}],"n_d":1,"n_p":2}')

    def test_loaded_flags_are_int64(self):
        lanes = deserialize(serialize(random_lane_set(np.random.default_rng(3), 2, 4)))
        assert {getattr(lanes, name).dtype for name in FIELDS[1:]} == {np.dtype(np.int64)}

    def test_truncated_stream_raises_parse_error(self):
        data = serialize(random_lane_set(np.random.default_rng(1), 2, 4))
        with pytest.raises(ParseError):
            deserialize(data[: len(data) // 2])

    def test_flag_out_of_domain_raises_validation_error_on_load(self):
        data = serialize(random_lane_set(np.random.default_rng(2), 1, 4))
        obj = json.loads(data)
        obj["lanes"][0]["left"][0]["occ"] = 2
        with pytest.raises(ValidationError) as exc:
            deserialize(json.dumps(obj).encode())
        assert any("occ" in d for d in exc.value.diagnostics)

    @pytest.mark.parametrize("value", ["1", None, [1], {"k": 1}, 0.5])
    def test_flag_of_another_type_reported_on_load(self, value):
        obj = json.loads(serialize(random_lane_set(np.random.default_rng(2), 2, 4)))
        obj["lanes"][1]["int"] = value
        with pytest.raises(ValidationError) as exc:
            deserialize(json.dumps(obj).encode())
        assert exc.value.diagnostics == [f"lane 1: intersection flag {value!r} not in {{0,1}}"]

    def test_unequal_lane_lengths_rejected_on_load(self):
        obj = json.loads(serialize(random_lane_set(np.random.default_rng(6), 2, 6)))
        for side in ("left", "right"):
            del obj["lanes"][1][side][-1]
        with pytest.raises(ValidationError) as exc:
            deserialize(json.dumps(obj).encode())
        assert exc.value.diagnostics == ["lane 1: edge length 2 differs from lane 0 (3)"]

    def test_serialize_rejects_invalid_set(self):
        with pytest.raises(ValidationError):
            serialize(one_lane([(0, 0, 0)], [(0, 2, 0)], plan=[0, 2]))

    def test_parse_error_names_location(self):
        with pytest.raises(ParseError) as exc:
            deserialize(b'{"n_d":1,"n_p":2,"lanes":[{"int":0,"dir":0,"left":[{"p":[0,0]}],"right":[]}]}')
        assert "lanes[0].left" in str(exc.value)


def test_planned_path_len():
    path = PlannedPath(waypoints=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), target_speed=2.0)
    assert len(path) == 2
