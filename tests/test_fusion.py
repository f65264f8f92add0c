import math
import struct

import numpy as np
import pytest

from lanefuse.fusion import (
    COARSE_HIDDEN,
    LAYER_NORM_EPS,
    AttentionInvariantError,
    AttentionLayerParams,
    AttentionParams,
    BlockConfig,
    _ffn,
    _layer_norm,
    attention_layer,
    build_params,
    coarse_lane_detect,
    enhance_features,
    image_transformer,
    init_lidar_queries,
    integrate_queries,
    lidar_transformer,
    load_params,
    multi_head_attention,
    positional_encode,
    save_params,
    scaled_dot_attention,
    sinusoidal_encoding_2d,
)
from lanefuse.pillar import LaneWeights


def mha_reference(q_in, k_in, v_in, p: AttentionParams):
    """Independent multi-head attention: explicit loops, no shared code path."""
    e = p.wq.shape[0]
    dh = e // p.heads
    lq, lk = q_in.shape[0], k_in.shape[0]
    q = np.array([[sum(p.wq[r][c] * q_in[i][c] for c in range(e)) + p.bq[r]
                   for r in range(e)] for i in range(lq)])
    k = np.array([[sum(p.wk[r][c] * k_in[i][c] for c in range(e)) + p.bk[r]
                   for r in range(e)] for i in range(lk)])
    v = np.array([[sum(p.wv[r][c] * v_in[i][c] for c in range(e)) + p.bv[r]
                   for r in range(e)] for i in range(lk)])
    heads_out = []
    for h in range(p.heads):
        sl = slice(h * dh, (h + 1) * dh)
        out_h = np.zeros((lq, dh))
        for i in range(lq):
            scores = [sum(q[i, sl][d] * k[j, sl][d] for d in range(dh)) / math.sqrt(dh)
                      for j in range(lk)]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            weights = [x / z for x in exps]
            for d in range(dh):
                out_h[i, d] = sum(weights[j] * v[j, sl][d] for j in range(lk))
        heads_out.append(out_h)
    concat = np.concatenate(heads_out, axis=1)
    return np.array([[sum(p.wo[r][c] * concat[i][c] for c in range(e)) + p.bo[r]
                      for r in range(e)] for i in range(lq)])


def random_attention_params(rng, e, heads):
    return AttentionParams(
        wq=rng.normal(size=(e, e)), wk=rng.normal(size=(e, e)),
        wv=rng.normal(size=(e, e)), wo=rng.normal(size=(e, e)),
        bq=rng.normal(size=e), bk=rng.normal(size=e),
        bv=rng.normal(size=e), bo=rng.normal(size=e), heads=heads,
    )


def image_transformer_unfolded(tokens, store):
    """``image_transformer`` with every decoder self-attention run in the
    pass and every layer read from the store by block name."""
    cfg = store.cfg

    def attn(ln, prefix):
        names = ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")
        return AttentionLayerParams(store[f"{ln}.g"], store[f"{ln}.b"], AttentionParams(
            *(store[f"{prefix}.{n}"] for n in names), heads=cfg.heads))

    def ffn(ln, prefix):
        return (store[f"{ln}.g"], store[f"{ln}.b"],
                *(store[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2")))

    x = tokens.T
    for i in range(cfg.layers):
        x = attention_layer(x, x, x, attn(f"img_enc{i}.ln1", f"img_enc{i}.attn"))
        x = _ffn(x, ffn(f"img_enc{i}.ln2", f"img_enc{i}.ffn"))
    memory = _layer_norm(x, store["img_enc_final.g"], store["img_enc_final.b"])
    x = store["q_image"].reshape(cfg.n_d * cfg.n_p, cfg.embed)
    for i in range(cfg.layers):
        x = attention_layer(x, x, x, attn(f"img_dec{i}.ln1", f"img_dec{i}.self"))
        x = attention_layer(x, memory, memory, attn(f"img_dec{i}.ln2", f"img_dec{i}.cross"))
        x = _ffn(x, ffn(f"img_dec{i}.ln3", f"img_dec{i}.ffn"))
    x = _layer_norm(x, store["img_dec_final.g"], store["img_dec_final.b"])
    return x.reshape(store["q_image"].shape)


def held_arrays(obj):
    """Every array reachable from ``obj`` through attributes, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from held_arrays(item)
    elif isinstance(obj, dict):
        yield from held_arrays(list(obj.values()))
    elif hasattr(obj, "__dict__"):
        yield from held_arrays(vars(obj))


class TestSinusoidalEncoding:
    def test_origin_token_sin_zero_cos_one(self):
        enc = sinusoidal_encoding_2d(4, 4, 16)
        origin = enc[:, 0]
        assert np.all(origin[0::2] == 0.0)  # sin channels
        assert np.all(origin[1::2] == 1.0)  # cos channels

    def test_requires_multiple_of_four(self):
        with pytest.raises(ValueError):
            sinusoidal_encoding_2d(2, 2, 10)

    def test_distinct_positions_distinct_encodings(self):
        enc = sinusoidal_encoding_2d(8, 8, 32)
        assert np.unique(enc, axis=1).shape[1] == 64


class TestPositionalEncode:
    def test_zero_grid_gives_encoding_alone(self, param_store, run_config):
        tokens = positional_encode(np.zeros((4, 16, 8, 8)), param_store)
        enc = sinusoidal_encoding_2d(8, 8, 32)
        assert np.array_equal(tokens, np.tile(enc, (1, 4)))

    def test_identical_content_differs_by_encoding_difference(self, param_store):
        views = np.zeros((4, 16, 8, 8))
        views[0, :, 1, 2] = 3.0
        views[0, :, 5, 7] = 3.0  # same content at a different position
        tokens = positional_encode(views, param_store)
        enc = sinusoidal_encoding_2d(8, 8, 32)
        i, j = 1 * 8 + 2, 5 * 8 + 7
        delta = tokens[:, i] - tokens[:, j]
        assert np.allclose(delta, enc[:, i] - enc[:, j], atol=1e-12)

    def test_store_holds_the_encoding_of_its_view_grid(self):
        store = build_params(BlockConfig(embed=16, heads=2, view_h=3, view_w=5))
        assert np.array_equal(store.pos_enc, sinusoidal_encoding_2d(3, 5, 16))
        tokens = positional_encode(np.zeros((2, 16, 3, 5)), store)
        assert np.array_equal(tokens, np.tile(store.pos_enc, (1, 2)))

    @pytest.mark.parametrize("h, w", [(8, 4), (4, 8), (16, 16)])
    def test_grid_other_than_the_stores_rejected(self, param_store, h, w):
        with pytest.raises(ValueError, match=f"view grid {h}x{w} differs from the store's 8x8"):
            positional_encode(np.zeros((4, 16, h, w)), param_store)


class TestCoarseLaneDetect:
    def test_weights_within_unit_interval(self, param_store):
        rng = np.random.default_rng(0)
        for _ in range(10):
            tokens = rng.normal(scale=5.0, size=(32, 64))
            prior = coarse_lane_detect(tokens, param_store)
            assert np.all(prior.weights.weights >= 0.0)
            assert np.all(prior.weights.weights <= 1.0)
            assert prior.roi.shape == (6, 20, 3)

    def test_deterministic(self, param_store):
        tokens = np.random.default_rng(1).normal(size=(32, 48))
        a = coarse_lane_detect(tokens, param_store)
        b = coarse_lane_detect(tokens, param_store)
        assert np.array_equal(a.roi, b.roi)
        assert np.array_equal(a.weights.weights, b.weights.weights)

    def test_planted_parameters_match_hand_computation(self):
        bc = BlockConfig(layers=1, heads=2, embed=8, seed=0, n_d=2, n_p=4, c_channels=3)
        store = build_params(bc)
        rng = np.random.default_rng(5)
        w2 = rng.normal(size=(2 * 4 * 3 + 2, 8))
        b2 = rng.normal(size=2 * 4 * 3 + 2)
        # the first 8 hidden units copy the pooled tokens, the others stay 0
        store = store.replaced({
            "coarse.w1": np.eye(COARSE_HIDDEN, 8),
            "coarse.b1": np.zeros(COARSE_HIDDEN),
            "coarse.w2": np.pad(w2, ((0, 0), (0, COARSE_HIDDEN - 8))),
            "coarse.b2": b2,
        })
        toks = np.abs(rng.normal(size=(8, 10))) + 0.1  # positive: ReLU passes pooled through
        prior = coarse_lane_detect(toks, store)
        pooled = toks.mean(axis=1)
        expected = w2 @ pooled + b2
        assert np.allclose(prior.roi.ravel(), expected[:24], atol=1e-12)
        assert np.allclose(prior.weights.weights,
                           1.0 / (1.0 + np.exp(-expected[24:])), atol=1e-12)


def softmax_row_sum_oracle(q, k):
    """The full row-sum check: the softmax in scaled_dot_attention's order,
    then every divided row summed again. Returns (weights, err), where the
    check fails unless err <= 1e-9 (a NaN err fails it)."""
    w = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    w /= math.sqrt(q.shape[-1])
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w, np.abs(w.sum(axis=-1) - 1.0).max()


class TestAttentionCore:
    def test_single_key_value_passes_through(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(3, 4))
        k = rng.normal(size=(1, 4))
        v = rng.normal(size=(1, 4))
        out, w = scaled_dot_attention(q, k, v)
        assert np.all(w == 1.0)
        assert np.array_equal(out, np.repeat(v, 3, axis=0))

    def test_uniform_keys_uniform_weights(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(2, 4))
        k = np.ones((5, 4))
        v = rng.normal(size=(5, 4))
        _, w = scaled_dot_attention(q, k, v)
        assert np.allclose(w, 0.2, atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.normal(scale=3.0, size=(6, 8))
            k = rng.normal(scale=3.0, size=(9, 8))
            v = rng.normal(size=(9, 8))
            _, w = scaled_dot_attention(q, k, v)
            assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_query_raises(self):
        rng = np.random.default_rng(2)
        q, k, v = rng.normal(size=(3, 6, 8))
        q[1, 2] = np.inf  # its score row is inf - inf = NaN after the max shift
        with pytest.raises(AttentionInvariantError, match="nan"):
            scaled_dot_attention(q, k, v)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("lk", [1, 20, 120, 256])
    def test_normaliser_check_agrees_with_row_sum_oracle(self, lk):
        """The check on the softmax normaliser raises exactly when the full
        row-sum check would, with its message; seeded scores, some with a
        NaN, +inf or -inf in a random row of q or k, or a row scaled until
        its scores overflow."""
        rng = np.random.default_rng(lk)
        outcomes = []
        for case in range(60):
            q = rng.normal(scale=(0.1, 1.0, 4.0)[case % 3], size=(2, 9, 8))
            k = rng.normal(size=(2, lk, 8))
            v = rng.normal(size=(2, lk, 8))
            if case % 5:
                arr = (q, k)[int(rng.integers(2))]
                b, row = int(rng.integers(2)), int(rng.integers(arr.shape[1]))
                if case % 5 == 4:
                    arr[b, row] *= 1e300
                else:
                    arr[b, row, int(rng.integers(8))] = (np.nan, np.inf, -np.inf)[case % 5 - 1]
            want, err = softmax_row_sum_oracle(q, k)
            if err <= 1e-9:
                _, w = scaled_dot_attention(q, k, v)
                assert w.tobytes() == want.tobytes()
            else:
                with pytest.raises(AttentionInvariantError) as exc:
                    scaled_dot_attention(q, k, v)
                assert str(exc.value) == f"attention row sums off by {err:.3e}"
            outcomes.append(err <= 1e-9)
        assert any(outcomes) and not all(outcomes)

    def test_single_head_matches_reference(self):
        rng = np.random.default_rng(3)
        p = random_attention_params(rng, 4, 1)
        q_in = rng.normal(size=(3, 4))
        out = multi_head_attention(q_in, q_in, q_in, p)
        ref = mha_reference(q_in, q_in, q_in, p)
        assert np.allclose(out, ref, atol=1e-12)

    def test_multi_head_cross_matches_reference(self):
        rng = np.random.default_rng(4)
        p = random_attention_params(rng, 8, 2)
        q_in = rng.normal(size=(5, 8))
        kv_in = rng.normal(size=(7, 8))
        out = multi_head_attention(q_in, kv_in, kv_in, p)
        ref = mha_reference(q_in, kv_in, kv_in, p)
        assert np.allclose(out, ref, atol=1e-12)

    def test_layer_adds_residual(self, param_store):
        rng = np.random.default_rng(5)
        p = param_store.img_enc[0][0]
        x = rng.normal(size=(6, 32))
        out = attention_layer(x, x, x, p)
        assert out.shape == x.shape
        assert not np.allclose(out, x)


class TestAttentionBytes:
    """The attention primitives give the same bytes whatever the memory
    layout of their inputs, and with lanes stacked as a batch dimension."""

    def test_stacked_lanes_equal_per_lane_calls(self, param_store):
        rng = np.random.default_rng(6)
        p = param_store.lid[0][0].attn
        q_in = rng.normal(size=(6, 20, 32))
        kv_in = rng.normal(size=(6, 20, 32))
        stacked = multi_head_attention(q_in, kv_in, kv_in, p)
        for lane in range(6):
            one = multi_head_attention(q_in[lane], kv_in[lane], kv_in[lane], p)
            assert np.array_equal(stacked[lane], one)

    @pytest.mark.parametrize("lq,lk", [(20, 20), (120, 256), (256, 256)])
    def test_strided_views_equal_contiguous_copies(self, lq, lk):
        rng = np.random.default_rng(lq + lk)
        q, k, v = rng.normal(size=(lq, 32)), rng.normal(size=(lk, 32)), rng.normal(size=(lk, 32))
        for hh in range(4):
            sl = slice(hh * 8, (hh + 1) * 8)
            out_v, w_v = scaled_dot_attention(q[:, sl], k[:, sl], v[:, sl])
            out_c, w_c = scaled_dot_attention(q[:, sl].copy(), k[:, sl].copy(), v[:, sl].copy())
            assert np.array_equal(out_v, out_c) and np.array_equal(w_v, w_c)

    def test_layer_norm_equals_mean_var_formula(self):
        rng = np.random.default_rng(7)
        x = rng.normal(scale=3.0, size=(2, 9, 32))
        x[0, 4] = 1.25  # a constant row: zero variance
        g, b = rng.normal(size=32), rng.normal(size=32)
        for arr in (x, x[1].T.copy().T, x[0, :, ::2]):
            gg, bb = g[:arr.shape[-1]], b[:arr.shape[-1]]
            mean = arr.mean(axis=-1, keepdims=True)
            var = arr.var(axis=-1, keepdims=True)
            want = (arr - mean) / np.sqrt(var + LAYER_NORM_EPS) * gg + bb
            assert np.array_equal(_layer_norm(arr, gg, bb), want)
        assert np.array_equal(_layer_norm(x, g, b)[0, 4], b)

    def test_return_weights_gives_head_stack(self):
        rng = np.random.default_rng(8)
        p = random_attention_params(rng, 8, 2)
        q_in, kv_in = rng.normal(size=(5, 8)), rng.normal(size=(7, 8))
        out, w = multi_head_attention(q_in, kv_in, kv_in, p, return_weights=True)
        assert w.shape == (2, 5, 7)
        assert np.array_equal(out, multi_head_attention(q_in, kv_in, kv_in, p))
        assert np.abs(w.sum(axis=-1) - 1.0).max() <= 1e-9


class TestImageTransformer:
    def test_output_shape_contract(self, param_store):
        rng = np.random.default_rng(0)
        tokens = rng.normal(size=(32, 100))
        out = image_transformer(tokens, param_store)
        assert out.shape == (6, 20, 32)

    def test_token_permutation_invariance(self, param_store):
        rng = np.random.default_rng(1)
        toks = rng.normal(size=(32, 40))
        base = image_transformer(toks, param_store)
        perm = rng.permutation(40)
        permuted = image_transformer(toks[:, perm], param_store)
        assert np.allclose(base, permuted, rtol=1e-9, atol=1e-9)

    def test_bit_identical_reruns(self, param_store):
        rng = np.random.default_rng(2)
        tokens = rng.normal(size=(32, 64))
        a = image_transformer(tokens, param_store)
        b = image_transformer(tokens, param_store)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", ["img_dec0.self.wq", "img_dec0.ln1.g"])
    def test_folded_self_attention_follows_replaced_blocks(self, param_store, name):
        rng = np.random.default_rng(11)
        tokens = rng.normal(size=(32, 64))
        base = image_transformer(tokens, param_store)
        assert np.array_equal(base, image_transformer_unfolded(tokens, param_store))
        old = param_store[name]
        store = param_store.replaced({name: old + rng.normal(scale=0.1, size=old.shape)})
        got = image_transformer(tokens, store)
        assert np.array_equal(got, image_transformer_unfolded(tokens, store))
        assert not np.allclose(got, base)


class TestLidarPath:
    def test_init_queries_zero_features_give_bias(self, param_store):
        f_lane = np.zeros((6, 20, 16))
        q = init_lidar_queries(f_lane, param_store)
        assert q.shape == (6, 20, 32)
        assert np.array_equal(q, np.broadcast_to(param_store["q_lift.b"], (6, 20, 32)))

    def test_init_queries_planted_identity_lift(self):
        bc = BlockConfig(layers=1, heads=2, embed=8, seed=1, n_d=2, n_p=4, c_channels=8)
        store = build_params(bc).replaced({
            "q_lift.w": np.eye(8), "q_lift.b": np.zeros(8),
        })
        f_lane = np.random.default_rng(0).normal(size=(2, 4, 8))
        q = init_lidar_queries(f_lane, store)
        assert np.array_equal(q, f_lane)

    def test_lidar_transformer_shape_and_determinism(self, param_store):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(6, 20, 32))
        f_lane = rng.normal(size=(6, 20, 16))
        a = lidar_transformer(q, f_lane, param_store)
        b = lidar_transformer(q, f_lane, param_store)
        assert a.shape == (6, 20, 32)
        assert np.array_equal(a, b)

    def test_lane_permutation_permutes_outputs_exactly(self, param_store):
        rng = np.random.default_rng(4)
        q = rng.normal(size=(6, 20, 32))
        f_lane = rng.normal(size=(6, 20, 16))
        base = lidar_transformer(q, f_lane, param_store)
        perm = np.array([3, 1, 5, 0, 2, 4])
        permuted = lidar_transformer(q[perm], f_lane[perm], param_store)
        assert np.array_equal(permuted, base[perm])


class TestBlending:
    def test_integrate_boundaries_exact(self):
        rng = np.random.default_rng(0)
        qi = rng.normal(size=(3, 4, 8))
        ql = rng.normal(size=(3, 4, 8))
        w = LaneWeights(weights=np.array([1.0, 0.0, 0.5]))
        out = integrate_queries(qi, ql, w)
        assert np.array_equal(out[0], qi[0])  # alpha = 0
        assert np.array_equal(out[1], ql[1])  # alpha = 1

    def test_integrate_hand_case(self):
        qi = np.full((1, 1, 1), 4.0)
        ql = np.full((1, 1, 1), 8.0)
        w = LaneWeights(weights=np.array([0.25]))
        out = integrate_queries(qi, ql, w)
        assert out[0, 0, 0] == pytest.approx(7.0, abs=1e-15)

    def test_integrate_interior_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            qi = rng.normal(size=(4, 5, 6))
            ql = rng.normal(size=(4, 5, 6))
            w = rng.uniform(0, 1, 4)
            out = integrate_queries(qi, ql, LaneWeights(weights=w))
            alpha = (1.0 - w)[:, None, None]
            assert np.allclose(out, (1 - alpha) * qi + alpha * ql, atol=1e-12)

    def test_enhance_boundaries_and_midpoint(self):
        rng = np.random.default_rng(2)
        fi = rng.normal(size=(3, 4, 8))
        fl = rng.normal(size=(3, 4, 8))
        out = enhance_features(fi, fl, LaneWeights(weights=np.array([1.0, 0.0, 0.5])))
        assert np.array_equal(out[0], fi[0])  # beta = 1
        assert np.array_equal(out[1], fl[1])  # beta = 0
        mid = enhance_features(
            np.full((1, 1, 1), 2.0),
            np.full((1, 1, 1), 6.0),
            LaneWeights(weights=np.array([0.5])),
        )
        assert mid[0, 0, 0] == 4.0

    def test_shape_mismatch_rejected(self):
        qi = np.zeros((2, 3, 4))
        ql = np.zeros((2, 3, 5))
        with pytest.raises(ValueError):
            integrate_queries(qi, ql, LaneWeights(weights=np.array([0.5, 0.5])))


class TestParamStore:
    def test_build_deterministic(self, run_config):
        a = build_params(run_config.block_config())
        b = build_params(run_config.block_config())
        assert a.names() == b.names()
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_save_load_round_trip(self, param_store, tmp_path, run_config):
        path = tmp_path / "weights.lfpw"
        save_params(param_store, path)
        loaded = load_params(build_params(run_config.block_config()), path)
        for name in param_store.names():
            assert np.array_equal(loaded[name], param_store[name])

    def test_load_overwrites_named_block(self, param_store, tmp_path, run_config):
        modified = param_store.replaced(
            {"head_spd.b": np.array([123.0])})
        path = tmp_path / "weights.lfpw"
        save_params(modified, path)
        loaded = load_params(build_params(run_config.block_config()), path)
        assert loaded["head_spd.b"][0] == 123.0

    @pytest.mark.parametrize("body, match", [
        (b"\x01", "truncated block header"),
        (struct.pack("<H", 10) + b"head", "truncated block name"),
        (struct.pack("<H", 4) + b"name" + b"\x01\x00", "truncated block name or count"),
        (struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<Q", 0), "not UTF-8"),
        (struct.pack("<H", 10) + b"head_spd.b" + struct.pack("<Q", 2)
         + struct.pack("<d", 1.0), "declares 2 values"),
        (struct.pack("<H", 10) + b"head_spd.b" + struct.pack("<Q", 2 ** 63), "declares"),
        (struct.pack("<H", 10) + b"head_spd.b" + struct.pack("<Q", 1)
         + struct.pack("<d", math.nan), "non-finite"),
        (struct.pack("<H", 10) + b"head_spd.b" + struct.pack("<Q", 1)
         + struct.pack("<d", -math.inf), "non-finite"),
    ])
    def test_malformed_weight_file_rejected(self, param_store, tmp_path, body, match):
        path = tmp_path / "bad.lfpw"
        path.write_bytes(b"LFPW" + body)
        with pytest.raises(ValueError, match=match):
            load_params(param_store, path)

    def test_unknown_block_rejected(self, param_store):
        with pytest.raises(KeyError):
            param_store.replaced({"nope.w": np.zeros(3)})

    def test_size_mismatch_rejected(self, param_store):
        with pytest.raises(ValueError):
            param_store.replaced({"head_spd.b": np.zeros(7)})

    def test_blocks_frozen(self, param_store):
        with pytest.raises(ValueError):
            param_store["q_image"][0, 0, 0] = 1.0

    def test_every_held_array_read_only(self, param_store, tmp_path):
        path = tmp_path / "weights.lfpw"
        save_params(param_store.replaced({"q_image": np.ones(6 * 20 * 32)}), path)
        stores = {
            "build_params": param_store,
            "replaced": param_store.replaced({"img_dec0.self.wq": np.ones((32, 32))}),
            "load_params": load_params(param_store, path),
        }
        for how, store in stores.items():
            arrays = list(held_arrays(store))
            # each block once by name and once in its group, plus the folded
            # block and the positional encoding
            assert len(arrays) == 2 * len(store.names()) + 2, how
            assert any(a is store.img_dec0_self for a in arrays), how
            assert any(a is store.pos_enc for a in arrays), how
            writable = [a.shape for a in arrays if a.flags.writeable]
            assert not writable, f"{how}: writable arrays of shapes {writable}"


def test_shape_contracts_across_random_configs():
    rng = np.random.default_rng(9)
    for _ in range(6):
        heads = int(rng.choice([1, 2, 4]))
        e = int(heads * 4 * rng.integers(1, 3))  # divisible by heads and by 4
        bc = BlockConfig(layers=int(rng.integers(1, 3)), heads=heads, embed=e,
                         seed=int(rng.integers(0, 100)), n_d=int(rng.integers(1, 4)),
                         n_p=2 * int(rng.integers(1, 5)), c_channels=int(rng.integers(2, 6)))
        store = build_params(bc)
        tokens = rng.normal(size=(e, 30))
        q = store["q_image"]
        f_img = image_transformer(tokens, store)
        assert f_img.shape == (bc.n_d, bc.n_p, e)
        f_lane = rng.normal(size=(bc.n_d, bc.n_p, bc.c_channels))
        q_lidar = init_lidar_queries(f_lane, store)
        prior_w = LaneWeights(weights=rng.uniform(0, 1, bc.n_d))
        q_int = integrate_queries(q, q_lidar, prior_w)
        f_lid = lidar_transformer(q_int, f_lane, store)
        assert f_lid.shape == (bc.n_d, bc.n_p, e)
        out = enhance_features(f_img, f_lid, prior_w)
        assert out.shape == (bc.n_d, bc.n_p, e)


def test_invalid_block_configs_rejected():
    with pytest.raises(ValueError):
        BlockConfig(layers=0)
    with pytest.raises(ValueError):
        BlockConfig(embed=30, heads=4)
    with pytest.raises(ValueError):
        BlockConfig(embed=6, heads=2)  # not divisible by 4
    with pytest.raises(ValueError, match="view_h must be >= 1, got 0"):
        BlockConfig(view_h=0)
    with pytest.raises(ValueError, match="view_w must be >= 1, got -1"):
        BlockConfig(view_w=-1)
