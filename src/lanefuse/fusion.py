"""Forward-only fusion stack: sinusoidal token encoding, coarse lane prior
head, from-scratch multi-head attention blocks for the image and LiDAR
branches, confidence-weighted query integration and feature enhancement.

All parameters live in a named :class:`ParamStore`, are initialized from a
seeded uniform distribution scaled by 1/sqrt(E), and can be overwritten from
a binary weight file ("LFPW"). Every forward computation is a pure function
of its inputs and the store, bit-identical across runs and thread counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pillar import LaneROI, LaneWeights
from .scene_synth import ViewFeatureGrid

__all__ = [
    "TokenSequence",
    "QuerySet",
    "FeatureSet",
    "CoarseLanePrior",
    "BlockConfig",
    "ParamStore",
    "AttentionInvariantError",
    "build_params",
    "save_params",
    "load_params",
    "sinusoidal_encoding_2d",
    "positional_encode",
    "coarse_lane_detect",
    "scaled_dot_attention",
    "multi_head_attention",
    "attention_layer",
    "image_transformer",
    "init_lidar_queries",
    "integrate_queries",
    "lidar_transformer",
    "enhance_features",
]

LAYER_NORM_EPS = 1e-5
ROW_SUM_TOL = 1e-9
_FFN_MULT = 4


class AttentionInvariantError(RuntimeError):
    """An attention weight row failed to sum to 1 within tolerance."""


@dataclass(frozen=True)
class TokenSequence:
    """Flattened view tokens, shape (E, L) with L = views * H * W."""

    tokens: np.ndarray

    def __post_init__(self):
        if not np.all(np.isfinite(self.tokens)):
            raise ValueError("token sequence contains non-finite entries")


@dataclass(frozen=True)
class QuerySet:
    """Lane-level queries, shape (n_d, n_p, E)."""

    queries: np.ndarray

    def __post_init__(self):
        if self.queries.ndim != 3 or not np.all(np.isfinite(self.queries)):
            raise ValueError("query set must be a finite (n_d, n_p, E) array")


@dataclass(frozen=True)
class FeatureSet:
    """Lane-level features, shape (n_d, n_p, E)."""

    features: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 3 or not np.all(np.isfinite(self.features)):
            raise ValueError("feature set must be a finite (n_d, n_p, E) array")


@dataclass(frozen=True)
class CoarseLanePrior:
    roi: LaneROI
    weights: LaneWeights


@dataclass(frozen=True)
class BlockConfig:
    """Transformer stack shape: K layers, head count, embedding width, seed,
    plus the head dimensions the coarse prior and prediction heads need."""

    layers: int = 2
    heads: int = 4
    embed: int = 32
    seed: int = 7
    n_d: int = 6
    n_p: int = 20
    c_channels: int = 16
    coarse_hidden: int = 64
    n_signal_classes: int = 3

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.embed % self.heads != 0:
            raise ValueError(f"embed {self.embed} not divisible by heads {self.heads}")
        if self.embed % 4 != 0:
            raise ValueError(f"embed must be divisible by 4 for 2D encoding, got {self.embed}")


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


class ParamStore:
    """Ordered mapping of block name -> float64 array, frozen after build."""

    def __init__(self, blocks: dict[str, np.ndarray]):
        for arr in blocks.values():
            arr.setflags(write=False)
        self._blocks = dict(blocks)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name]

    def __contains__(self, name: str) -> bool:
        return name in self._blocks

    def names(self) -> list[str]:
        return list(self._blocks)

    def replaced(self, updates: dict[str, np.ndarray]) -> "ParamStore":
        merged = dict(self._blocks)
        for name, arr in updates.items():
            if name not in merged:
                raise KeyError(f"unknown parameter block {name!r}")
            if arr.size != merged[name].size:
                raise ValueError(
                    f"block {name!r}: expected {merged[name].size} elements, got {arr.size}"
                )
            merged[name] = arr.reshape(merged[name].shape).astype(float)
        return ParamStore(merged)


def _attn_block_names(prefix: str) -> list[tuple[str, str]]:
    return [(f"{prefix}.{p}", p) for p in
            ("wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo")]


def build_params(cfg: BlockConfig) -> ParamStore:
    """Create every parameter block in a fixed order from the config seed.

    Affine weights and biases draw from U(-1, 1)/sqrt(E); layer norm gains
    and biases start at identity.
    """
    rng = np.random.default_rng([cfg.seed])
    e = cfg.embed
    scale = 1.0 / math.sqrt(e)
    blocks: dict[str, np.ndarray] = {}

    def add(name: str, *shape: int) -> None:
        blocks[name] = rng.uniform(-1.0, 1.0, shape) * scale

    def add_ln(prefix: str) -> None:
        blocks[f"{prefix}.g"] = np.ones(e)
        blocks[f"{prefix}.b"] = np.zeros(e)

    def add_attn(prefix: str) -> None:
        for w in ("wq", "wk", "wv", "wo"):
            add(f"{prefix}.{w}", e, e)
        for b in ("bq", "bk", "bv", "bo"):
            add(f"{prefix}.{b}", e)

    def add_ffn(prefix: str) -> None:
        add(f"{prefix}.w1", _FFN_MULT * e, e)
        add(f"{prefix}.b1", _FFN_MULT * e)
        add(f"{prefix}.w2", e, _FFN_MULT * e)
        add(f"{prefix}.b2", e)

    add("tok_proj.w", e, cfg.c_channels)
    coarse_out = cfg.n_d * cfg.n_p * 3 + cfg.n_d
    add("coarse.w1", cfg.coarse_hidden, e)
    add("coarse.b1", cfg.coarse_hidden)
    add("coarse.w2", coarse_out, cfg.coarse_hidden)
    add("coarse.b2", coarse_out)
    add("q_image", cfg.n_d, cfg.n_p, e)
    for i in range(cfg.layers):
        add_ln(f"img_enc{i}.ln1")
        add_attn(f"img_enc{i}.attn")
        add_ln(f"img_enc{i}.ln2")
        add_ffn(f"img_enc{i}.ffn")
    add_ln("img_enc_final")
    for i in range(cfg.layers):
        add_ln(f"img_dec{i}.ln1")
        add_attn(f"img_dec{i}.self")
        add_ln(f"img_dec{i}.ln2")
        add_attn(f"img_dec{i}.cross")
        add_ln(f"img_dec{i}.ln3")
        add_ffn(f"img_dec{i}.ffn")
    add_ln("img_dec_final")
    add("pillar_enc.w", cfg.c_channels, 9)
    add("pillar_enc.b", cfg.c_channels)
    add("q_lift.w", e, cfg.c_channels)
    add("q_lift.b", e)
    add("kv_lift.w", e, cfg.c_channels)
    add("kv_lift.b", e)
    for i in range(cfg.layers):
        add_ln(f"lid{i}.ln1")
        add_attn(f"lid{i}.attn")
        add_ln(f"lid{i}.ln2")
        add_ffn(f"lid{i}.ffn")
    add_ln("lid_final")
    add("head_pts.w", 3, e)
    add("head_pts.b", 3)
    for name in ("head_occ", "head_plan", "head_int", "head_dir", "head_spd"):
        add(f"{name}.w", 1, e)
        add(f"{name}.b", 1)
    add("head_sig.w", cfg.n_signal_classes, e)
    add("head_sig.b", cfg.n_signal_classes)
    return ParamStore(blocks)


_PW_MAGIC = b"LFPW"


def save_params(store: ParamStore, path: str | Path) -> None:
    """Binary dump: magic 'LFPW', then per block u16 name length, name bytes,
    u64 element count, float64 little-endian payload."""
    with open(path, "wb") as fh:
        fh.write(_PW_MAGIC)
        for name in store.names():
            arr = np.ascontiguousarray(store[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<Q", arr.size))
            fh.write(arr.tobytes())


def load_params(store: ParamStore, path: str | Path) -> ParamStore:
    """Return a copy of ``store`` with blocks overwritten from the file.

    Raises ValueError on a malformed file: bad magic, a block header or name
    cut short, a count larger than the payload left, or non-finite values.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != _PW_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:4]!r}")
    pos = 4
    updates: dict[str, np.ndarray] = {}
    while pos < len(raw):
        if len(raw) - pos < 2:
            raise ValueError(f"{path}: truncated block header at byte {pos}")
        (nlen,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        if len(raw) - pos < nlen + 8:
            raise ValueError(f"{path}: truncated block name or count at byte {pos}")
        try:
            name = raw[pos:pos + nlen].decode("utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: block name at byte {pos} is not UTF-8") from None
        pos += nlen
        (count,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if count * 8 > len(raw) - pos:
            raise ValueError(f"{path}: block {name!r} declares {count} values, "
                             f"but only {len(raw) - pos} payload bytes remain")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=pos).copy()
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: block {name!r} holds non-finite values")
        pos += count * 8
        updates[name] = arr
    return store.replaced(updates)


# ---------------------------------------------------------------------------
# positional encoding and coarse lane prior
# ---------------------------------------------------------------------------


def sinusoidal_encoding_2d(h: int, w: int, e: int) -> np.ndarray:
    """Fixed 2D sin/cos encoding, shape (e, h*w), tokens flattened row-major.

    Half the channels encode the x (column) coordinate, half the y (row)
    coordinate; within each half sin/cos pairs interleave over geometric
    frequencies. At (0, 0) every sin term is 0 and every cos term is 1.
    """
    if e % 4 != 0:
        raise ValueError(f"embedding width must be divisible by 4, got {e}")
    d = e // 2
    ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    pos = {"x": xs.ravel().astype(float), "y": ys.ravel().astype(float)}
    enc = np.zeros((e, h * w))
    for axis_i, axis in enumerate(("x", "y")):
        base = axis_i * d
        for k in range(d // 2):
            div = 10000.0 ** (2.0 * k / d)
            enc[base + 2 * k] = np.sin(pos[axis] / div)
            enc[base + 2 * k + 1] = np.cos(pos[axis] / div)
    return enc


def positional_encode(grid: ViewFeatureGrid, store: ParamStore) -> TokenSequence:
    """1x1-project C channels to E, flatten each view to a token sequence and
    add the fixed sinusoidal encoding per view."""
    views = np.asarray(grid.views, dtype=float)
    n_views, c, h, w = views.shape
    proj = store["tok_proj.w"]
    enc = sinusoidal_encoding_2d(h, w, proj.shape[0])
    per_view = [proj @ views[v].reshape(c, h * w) + enc for v in range(n_views)]
    return TokenSequence(tokens=np.concatenate(per_view, axis=1))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def coarse_lane_detect(tokens: TokenSequence, store: ParamStore,
                       cfg: BlockConfig) -> CoarseLanePrior:
    """Mean-pool the tokens and run the two-layer ReLU head producing the
    (n_d, n_p, 3) lane ROI and logistic-squashed per-lane weights."""
    pooled = tokens.tokens.mean(axis=1)
    h1 = np.maximum(store["coarse.w1"] @ pooled + store["coarse.b1"], 0.0)
    out = store["coarse.w2"] @ h1 + store["coarse.b2"]
    split = cfg.n_d * cfg.n_p * 3
    roi = out[:split].reshape(cfg.n_d, cfg.n_p, 3)
    weights = _sigmoid(out[split:])
    return CoarseLanePrior(roi=LaneROI(points=roi), weights=LaneWeights(weights=weights))


# ---------------------------------------------------------------------------
# attention primitives
# ---------------------------------------------------------------------------


def scaled_dot_attention(q: np.ndarray, k: np.ndarray,
                         v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product attention.

    q: (..., Lq, d), k: (..., Lk, d), v: (..., Lk, dv); leading dimensions
    are batch dimensions. Returns (output, weights); each weight row sums to
    1 (checked, tolerance 1e-9). The softmax runs in place in the one score
    array, in the order /sqrt(d), -max, exp, /sum.
    """
    weights = q @ np.ascontiguousarray(np.swapaxes(k, -1, -2))
    weights /= math.sqrt(q.shape[-1])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    err = np.abs(weights.sum(axis=-1) - 1.0).max()
    if not err <= ROW_SUM_TOL:  # also catches NaN
        raise AttentionInvariantError(f"attention row sums off by {err:.3e}")
    return weights @ v, weights


@dataclass(frozen=True)
class AttentionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    bq: np.ndarray
    bk: np.ndarray
    bv: np.ndarray
    bo: np.ndarray
    heads: int

    @classmethod
    def from_store(cls, store: ParamStore, prefix: str, heads: int) -> "AttentionParams":
        return cls(*(store[name] for name, _ in _attn_block_names(prefix)), heads=heads)


def multi_head_attention(q_in: np.ndarray, k_in: np.ndarray, v_in: np.ndarray,
                         params: AttentionParams,
                         return_weights: bool = False):
    """Projected multi-head attention over (..., L, E) inputs; leading
    dimensions are batch dimensions. Heads run one at a time on contiguous
    slices and write into one (..., Lq, E) array."""
    e = params.wq.shape[0]
    if e % params.heads != 0:
        raise ValueError(f"embed {e} not divisible by heads {params.heads}")
    dh = e // params.heads
    q = q_in @ params.wq.T + params.bq
    k = k_in @ params.wk.T + params.bk
    v = v_in @ params.wv.T + params.bv
    heads = np.empty(q.shape)
    all_w = []
    for hh in range(params.heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        heads[..., sl], w_h = scaled_dot_attention(
            np.ascontiguousarray(q[..., sl]), k[..., sl], np.ascontiguousarray(v[..., sl]))
        if return_weights:
            all_w.append(w_h)
    out = heads @ params.wo.T + params.bo
    if return_weights:
        return out, np.stack(all_w)
    return out


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    return xc / np.sqrt(var + LAYER_NORM_EPS) * g + b


@dataclass(frozen=True)
class AttentionLayerParams:
    ln_g: np.ndarray
    ln_b: np.ndarray
    attn: AttentionParams

    @classmethod
    def from_store(cls, store: ParamStore, ln_prefix: str, attn_prefix: str,
                   heads: int) -> "AttentionLayerParams":
        return cls(ln_g=store[f"{ln_prefix}.g"], ln_b=store[f"{ln_prefix}.b"],
                   attn=AttentionParams.from_store(store, attn_prefix, heads))


def attention_layer(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
                    params: AttentionLayerParams) -> np.ndarray:
    """Pre-norm residual attention block: all three inputs are normalized
    with the layer's norm, attended, and added back onto the queries."""
    qn = _layer_norm(queries, params.ln_g, params.ln_b)
    kn = qn if keys is queries else _layer_norm(keys, params.ln_g, params.ln_b)
    vn = kn if values is keys else _layer_norm(values, params.ln_g, params.ln_b)
    return queries + multi_head_attention(qn, kn, vn, params.attn)


def _ffn(x: np.ndarray, store: ParamStore, ln_prefix: str, ffn_prefix: str) -> np.ndarray:
    xn = _layer_norm(x, store[f"{ln_prefix}.g"], store[f"{ln_prefix}.b"])
    h = np.maximum(xn @ store[f"{ffn_prefix}.w1"].T + store[f"{ffn_prefix}.b1"], 0.0)
    return x + h @ store[f"{ffn_prefix}.w2"].T + store[f"{ffn_prefix}.b2"]


# ---------------------------------------------------------------------------
# image and LiDAR transformer blocks
# ---------------------------------------------------------------------------


def _encode_tokens(tokens: TokenSequence, store: ParamStore, cfg: BlockConfig) -> np.ndarray:
    x = tokens.tokens.T
    for i in range(cfg.layers):
        p = AttentionLayerParams.from_store(store, f"img_enc{i}.ln1", f"img_enc{i}.attn", cfg.heads)
        x = attention_layer(x, x, x, p)
        x = _ffn(x, store, f"img_enc{i}.ln2", f"img_enc{i}.ffn")
    return _layer_norm(x, store["img_enc_final.g"], store["img_enc_final.b"])


def image_transformer(tokens: TokenSequence, q_image: QuerySet, store: ParamStore,
                      cfg: BlockConfig) -> FeatureSet:
    """K encoder layers over the tokens, then K decoder layers in which the
    lane-level image queries cross-attend to the encoded memory."""
    memory = _encode_tokens(tokens, store, cfg)
    n_d, n_p, e = q_image.queries.shape
    x = q_image.queries.reshape(n_d * n_p, e)
    for i in range(cfg.layers):
        p_self = AttentionLayerParams.from_store(store, f"img_dec{i}.ln1", f"img_dec{i}.self", cfg.heads)
        x = attention_layer(x, x, x, p_self)
        p_cross = AttentionLayerParams.from_store(store, f"img_dec{i}.ln2", f"img_dec{i}.cross", cfg.heads)
        x = attention_layer(x, memory, memory, p_cross)
        x = _ffn(x, store, f"img_dec{i}.ln3", f"img_dec{i}.ffn")
    x = _layer_norm(x, store["img_dec_final.g"], store["img_dec_final.b"])
    return FeatureSet(features=x.reshape(n_d, n_p, e))


def init_lidar_queries(f_lane: np.ndarray, store: ParamStore) -> QuerySet:
    """Affine lift of encoded lane pillar features (n_d, n_p, C) to E."""
    q = f_lane @ store["q_lift.w"].T + store["q_lift.b"]
    return QuerySet(queries=q)


def integrate_queries(q_image: QuerySet, q_lidar: QuerySet, w: LaneWeights) -> QuerySet:
    """Confidence-weighted query blend: with alpha_i = 1 - w_i per lane,
    q_integrated[i] = (1 - alpha_i) * q_image[i] + alpha_i * q_lidar[i]."""
    if q_image.queries.shape != q_lidar.queries.shape:
        raise ValueError("query shapes differ")
    wl = np.asarray(w.weights, dtype=float)
    if wl.shape[0] != q_image.queries.shape[0]:
        raise ValueError("lane weight count does not match query lanes")
    alpha = (1.0 - wl)[:, None, None]
    return QuerySet(queries=(1.0 - alpha) * q_image.queries + alpha * q_lidar.queries)


def lidar_transformer(q_integrated: QuerySet, f_lane: np.ndarray, store: ParamStore,
                      cfg: BlockConfig) -> FeatureSet:
    """K attention blocks with lanes as a leading batch dimension, so lanes
    stay independent: queries start from the integrated queries, keys and
    values come from the lifted lane features of the same lane."""
    kv = f_lane @ store["kv_lift.w"].T + store["kv_lift.b"]
    x = q_integrated.queries
    for i in range(cfg.layers):
        p = AttentionLayerParams.from_store(store, f"lid{i}.ln1", f"lid{i}.attn", cfg.heads)
        x = attention_layer(x, kv, kv, p)
        x = _ffn(x, store, f"lid{i}.ln2", f"lid{i}.ffn")
    return FeatureSet(features=_layer_norm(x, store["lid_final.g"], store["lid_final.b"]))


def enhance_features(f_image: FeatureSet, f_lidar: FeatureSet, w: LaneWeights) -> FeatureSet:
    """Confidence-weighted feature blend: with beta_i = w_i per lane,
    f_enhanced[i] = beta_i * f_image[i] + (1 - beta_i) * f_lidar[i]."""
    if f_image.features.shape != f_lidar.features.shape:
        raise ValueError("feature shapes differ")
    wl = np.asarray(w.weights, dtype=float)
    beta = wl[:, None, None]
    return FeatureSet(features=beta * f_image.features + (1.0 - beta) * f_lidar.features)
