import dataclasses
import math

import numpy as np
import pytest

from lanefuse import heads_losses
from lanefuse.double_edge import DoubleEdgeSet, StructuralError
from lanefuse.heads_losses import (
    LOSS_NAMES,
    LossConfig,
    LossWeights,
    compute_losses,
    cross_entropy,
    focal_loss,
    grad_check,
    heads_forward,
    inject_ground_truth,
    loss_edge,
    loss_plan,
    loss_roi,
    predictions_to_double_edge,
    smooth_l1,
    total_loss,
)

from lanefuse.pipeline import run_pipeline, scene_losses
from lanefuse.scene_synth import generate_scene

from conftest import random_lane_set


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def single_pair_set(left, right, plan_l=1, plan_r=1) -> DoubleEdgeSet:
    points = np.array([[left, right]], dtype=float)
    plan = np.array([[plan_l, plan_r]])
    occ = np.zeros((1, 2), dtype=int)
    return DoubleEdgeSet(points, occ, plan, [0], [1])


class TestHeadsForward:
    def test_shape_contracts(self, param_store):
        f = np.random.default_rng(0).normal(size=(6, 20, 32))
        pred = heads_forward(f, param_store)
        assert pred.points.shape == (6, 20, 3)
        assert pred.int_logits.shape == (6,)
        assert pred.dir_logits.shape == (6,)
        assert pred.occ_logits.shape == (6, 20)
        assert pred.plan_logits.shape == (6, 20)
        assert isinstance(pred.speed, float)
        assert pred.signal_logits.shape == (3,)

    def test_zero_features_yield_biases(self, param_store):
        pred = heads_forward(np.zeros((6, 20, 32)), param_store)
        assert np.allclose(pred.points, param_store["head_pts.b"])
        assert np.allclose(pred.occ_logits, param_store["head_occ.b"][0])
        assert np.allclose(pred.int_logits, param_store["head_int.b"][0])
        assert pred.speed == pytest.approx(param_store["head_spd.b"][0])
        assert np.allclose(pred.signal_logits, param_store["head_sig.b"])

    def test_planted_parameters(self, param_store):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(1, 32))
        store = param_store.replaced({"head_spd.w": w, "head_spd.b": np.array([2.0])})
        f = rng.normal(size=(6, 20, 32))
        pred = heads_forward(f, store)
        assert pred.speed == pytest.approx(float((w @ f.mean(axis=(0, 1)))[0] + 2.0))

    def test_non_finite_output_names_its_head(self, param_store):
        f = np.zeros((6, 20, 32))
        store = param_store.replaced({"head_sig.b": np.array([0.0, np.inf, 0.0])})
        with pytest.raises(ValueError, match="^head_sig output is non-finite$"):
            heads_forward(f, store)
        f[2, 3, 4] = np.nan
        with pytest.raises(ValueError, match="^head_pts output is non-finite$"):
            heads_forward(f, param_store)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_pipeline_raises_from_the_heads_check(self, run_config, param_store):
        """An image-branch norm gain of 1e308 overflows the image features;
        no stage before the heads checks them, and the heads refuse."""
        gain = param_store["img_dec_final.g"]
        store = param_store.replaced({"img_dec_final.g": np.full(gain.shape, 1e308)})
        scene = generate_scene(run_config.suite_specs()[0], n_p=run_config.n_p)
        with pytest.raises(ValueError, match="^head_pts output is non-finite$"):
            run_pipeline(scene, run_config, store)


class TestLossRoi:
    def test_perfect_prediction_zero(self):
        lanes = random_lane_set(np.random.default_rng(0), 3, 8)
        pts = lanes.points
        assert loss_roi(pts, lanes) == 0.0

    def test_hand_case_single_pair(self):
        gt = single_pair_set([0.0, 0.0, 0.0], [2.0, 0.0, 0.0])
        pred = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])  # left off by (1,0,0)
        assert loss_roi(pred, gt) == 1.0

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(2)
        gt = random_lane_set(rng, 2, 6)
        base = gt.points
        delta = rng.normal(size=base.shape)
        assert loss_roi(base + 2 * delta, gt) == pytest.approx(
            2 * loss_roi(base + delta, gt), rel=1e-12)

    def test_lane_pair_permutation_invariance(self):
        rng = np.random.default_rng(3)
        gt = random_lane_set(rng, 4, 6)
        pred = gt.points + rng.normal(size=(4, 6, 3))
        perm = [2, 0, 3, 1]
        gt_perm = DoubleEdgeSet(gt.points[perm], gt.occ[perm], gt.plan[perm],
                                gt.intersection[perm], gt.direction[perm])
        assert loss_roi(pred[perm], gt_perm) == pytest.approx(loss_roi(pred, gt), rel=1e-12)

    def test_too_few_prediction_slots_rejected(self):
        gt = random_lane_set(np.random.default_rng(4), 3, 6)
        with pytest.raises(StructuralError):
            loss_roi(np.zeros((2, 6, 3)), gt)


class TestLossEdge:
    def test_perfect_zero(self):
        lanes = random_lane_set(np.random.default_rng(0), 2, 8)
        assert loss_edge(lanes.points, lanes) == 0.0

    def test_manhattan_sum_before_averaging(self):
        gt = single_pair_set([0.0, 0.0, 0.0], [5.0, 0.0, 0.0])
        pred = np.array([[[1.0, 2.0, 3.0], [5.0, 0.0, 0.0]]])
        # one point off by (1, 2, 3): summed Manhattan distance 6.0, then / (1*2)
        assert loss_edge(pred, gt) * 1 * 2 == 6.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        gt = random_lane_set(rng, 3, 10)
        gt_pts = gt.points
        pred = np.zeros((5, 10, 3))
        pred[:3] = gt_pts + rng.normal(size=gt_pts.shape)
        pred[3:] = rng.normal(size=(2, 10, 3))
        total = 0.0
        for i in range(3):
            for j in range(10):
                for k in range(3):
                    total += abs(pred[i, j, k] - gt_pts[i, j, k])
        assert loss_edge(pred, gt) == pytest.approx(total / (3 * 10), rel=1e-12)


class TestFocalLoss:
    def test_confident_correct_goes_to_zero(self):
        cfg = LossConfig()
        vals = [focal_loss(np.array([logit(p)]), np.array([1]), cfg)
                for p in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]
        assert focal_loss(np.array([1e3]), np.array([1]), cfg) == 0.0

    def test_hand_case(self):
        cfg = LossConfig(focal_gamma=2.0, focal_alpha=0.25)
        value = focal_loss(np.array([logit(0.9)]), np.array([1]), cfg)
        expected = 0.25 * 0.1 ** 2 * (-math.log(0.9))
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(2.634e-4, rel=1e-3)

    def test_gamma_zero_alpha_half_is_half_bce(self):
        cfg = LossConfig(focal_gamma=0.0, focal_alpha=0.5)
        rng = np.random.default_rng(0)
        z = rng.normal(size=20)
        y = rng.integers(0, 2, 20)
        bce = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
        assert focal_loss(z, y, cfg) == pytest.approx(0.5 * bce.mean(), rel=1e-12)


class TestSmoothL1:
    def test_branches(self):
        assert smooth_l1(3.0, 3.0) == 0.0
        assert smooth_l1(3.5, 3.0) == 0.125
        assert smooth_l1(5.0, 3.0) == 1.5
        assert smooth_l1(1.0, 3.0) == 1.5


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(np.zeros(3), 0) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_saturated_limit(self):
        z = np.array([-1e3, 1e3, -1e3])
        assert cross_entropy(z, 1) == 0.0

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(scale=3.0, size=4)
            k = int(rng.integers(0, 4))
            direct = -math.log(np.exp(z)[k] / np.exp(z).sum())
            assert cross_entropy(z, k) == pytest.approx(direct, rel=1e-10)

    def test_class_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.zeros(3), 3)


class TestLossPlan:
    def test_perfect_prediction_zero(self):
        gt = single_pair_set([0.0, 2.0, 0.0], [0.0, -2.0, 0.0], plan_l=1, plan_r=0)
        logits = np.array([[1e3, -1e3]])
        cfg = LossConfig()
        assert loss_plan(logits, gt, np.array([10.0, 0.0, 0.0]), cfg) == 0.0

    def test_hand_case_ce_one_distance_two(self):
        # both edge points 2 m from the target, both with CE = 1 nat
        gt = single_pair_set([0.0, 2.0, 0.0], [0.0, -2.0, 0.0])
        z = logit(math.exp(-1.0))  # positive target: CE = -ln p = 1
        logits = np.array([[z, z]])
        cfg = LossConfig(rho=0.25)
        value = loss_plan(logits, gt, np.array([0.0, 0.0, 0.0]), cfg)
        expected = (0.25 * (1.0 - math.exp(-1.0))) ** 2 * 1.0 / 2.0
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(1.2487e-2, rel=1e-4)

    def test_halving_distance_doubles_contribution(self):
        cfg = LossConfig(rho=0.25)
        z = logit(0.3)
        near = single_pair_set([0.0, 1.0, 0.0], [0.0, -1.0, 0.0])
        far = single_pair_set([0.0, 2.0, 0.0], [0.0, -2.0, 0.0])
        logits = np.array([[z, z]])
        target = np.array([0.0, 0.0, 0.0])
        assert loss_plan(logits, near, target, cfg) == pytest.approx(
            2.0 * loss_plan(logits, far, target, cfg), rel=1e-12)

    def test_distance_floor_applies(self):
        cfg = LossConfig(rho=0.25, d_p2t_floor=0.1)
        gt = single_pair_set([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        z = logit(0.4)
        logits = np.array([[z, z]])
        at_target = loss_plan(logits, gt, np.array([0.0, 0.0, 0.0]), cfg)
        ce = -math.log(0.4)
        expected = (0.25 * (1 - math.exp(-ce))) ** 2 * ce / 0.1
        assert at_target == pytest.approx(expected, rel=1e-12)


class TestTotalLoss:
    def test_unit_components_combine_to_ratio_sum(self):
        ones = {name: 1.0 for name in LOSS_NAMES}
        bd = total_loss(ones, LossWeights())
        assert bd.total == 3.0 * 1.0 + 2.0 * 1.0 + 1.0 * 1.0 + 3.0 * 1.0 + 4.0 * 1.0 \
            + 5.0 * 1.0 + 1.0 * 1.0 + 0.1 * 1.0
        assert bd.total == pytest.approx(19.1, abs=1e-12)

    def test_zero_components_zero_total(self):
        bd = total_loss({name: 0.0 for name in LOSS_NAMES}, LossWeights())
        assert bd.total == 0.0

    def test_linearity_in_components(self):
        rng = np.random.default_rng(0)
        comps = {name: float(rng.uniform(0, 3)) for name in LOSS_NAMES}
        w = LossWeights()
        base = total_loss(comps, w).total
        scaled = total_loss({k: 2.5 * v for k, v in comps.items()}, w).total
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_missing_component_rejected(self):
        with pytest.raises(KeyError):
            total_loss({"roi": 1.0}, LossWeights())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_scene_loss_names_roi(self, run_config, param_store):
        """A 1e308 coarse-prior bias leaves the predictions finite but puts
        the ROI at 1e308, whose squared distances overflow the ROI loss."""
        bias = param_store["coarse.b2"]
        store = param_store.replaced({"coarse.b2": np.full(bias.shape, 1e308)})
        scene = generate_scene(run_config.suite_specs()[0], n_p=run_config.n_p)
        result = run_pipeline(scene, run_config, store)
        with pytest.raises(ValueError, match="^roi must be finite, got inf$"):
            scene_losses(result.predictions, result.prior.roi, scene, run_config)


class TestInjection:
    def test_injected_predictions_have_zero_total_loss(self):
        rng = np.random.default_rng(7)
        gt = random_lane_set(rng, 4, 20)
        pred, roi = inject_ground_truth(gt, gt_speed=8.0, gt_signal_class=1, n_d=6)
        bd = compute_losses(pred, roi, gt, np.array([50.0, 0.0, 0.0]), 8.0, 1,
                            LossConfig(), LossWeights())
        assert bd.total == 0.0
        for name in LOSS_NAMES:
            assert getattr(bd, {"edg": "edg"}.get(name, name)) == 0.0

    def test_injected_predictions_reconstruct_ground_truth(self):
        rng = np.random.default_rng(8)
        gt = random_lane_set(rng, 3, 10)
        pred, _ = inject_ground_truth(gt, 5.0, 0, n_d=5)
        rebuilt = predictions_to_double_edge(pred)
        assert DoubleEdgeSet(rebuilt.points[:3], rebuilt.occ[:3], rebuilt.plan[:3],
                             rebuilt.intersection[:3], rebuilt.direction[:3]) == gt
        assert np.all(rebuilt.plan[3:] == 0)

    def test_too_many_gt_lanes_rejected(self):
        gt = random_lane_set(np.random.default_rng(9), 4, 6)
        with pytest.raises(StructuralError):
            inject_ground_truth(gt, 1.0, 0, n_d=3)


class TestPerfectPredictionsProperty:
    def test_all_losses_nonnegative_and_zero_at_truth(self):
        rng = np.random.default_rng(11)
        cfg = LossConfig()
        weights = LossWeights()
        for _ in range(20):
            gt = random_lane_set(rng, int(rng.integers(1, 5)), 2 * int(rng.integers(2, 6)))
            n_d = gt.n_d + int(rng.integers(0, 3))
            pred, roi = inject_ground_truth(gt, 6.0, 2, n_d=n_d)
            bd = compute_losses(pred, roi, gt, rng.uniform(-30, 30, 3), 6.0, 2,
                                cfg, weights)
            assert bd.total == 0.0
            # and randomized (imperfect) predictions stay non-negative
            noisy = compute_losses(
                pred, roi + rng.normal(size=roi.shape),
                gt, rng.uniform(-30, 30, 3), rng.uniform(0, 10), 1, cfg, weights)
            for name in LOSS_NAMES:
                assert getattr(noisy, name) >= 0.0


class TestGradCheck:
    @pytest.mark.parametrize("loss_name", LOSS_NAMES)
    def test_analytic_matches_finite_differences(self, loss_name):
        res = grad_check(loss_name, seed=0, points=25)
        assert res.max_rel_err < 1e-4, f"{loss_name}: {res.max_rel_err:.3e}"

    def test_corrupted_gradient_detected(self, monkeypatch):
        core = heads_losses._smooth_l1_core

        def skewed(pred, gt):
            value, grad = core(pred, gt)
            return value, grad * 1.5 + 1e-3
        monkeypatch.setattr(heads_losses, "_smooth_l1_core", skewed)
        res = grad_check("spd", seed=0, points=10)
        assert res.max_rel_err >= 1e-4

    def test_smooth_l1_near_kink_resampled(self):
        res = grad_check("spd", seed=3, points=50)
        assert res.max_rel_err < 1e-6

    def test_unknown_loss_rejected(self):
        with pytest.raises(KeyError):
            grad_check("nope")

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            grad_check("spd", step=0.0)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(gamma=-1.0)
    with pytest.raises(ValueError):
        LossConfig(d_p2t_floor=0.0)
    for cls in (LossWeights, LossConfig):
        for field in dataclasses.fields(cls):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"^{field.name} must be finite, got"):
                    cls(**{field.name: value})
