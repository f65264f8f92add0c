"""Forward-only fusion stack: sinusoidal token encoding, coarse lane prior
head, from-scratch multi-head attention blocks for the image and LiDAR
branches, confidence-weighted query integration and feature enhancement.
The stages pass bare arrays: the tokens are one (E, L) array, and the lane
queries and features are (n_d, n_p, E) arrays. No stage scans them for
non-finite values; the heads check the pass's output once.

All parameters live in a :class:`ParamStore`, which is the model: it keeps
every block by name (``store["img_dec0.ln2.g"]``) in one fixed layout order,
and its constructor, the only place block names and shapes are spelled,
groups them into what the forward pass reads: ``AttentionLayerParams`` per
attention block, ``(g, b)`` layer norm tuples, ``(g, b, w1, b1, w2, b2)``
feed-forward tuples, ``(w, b)`` lifts and heads, plus ``img_dec0_self``,
the first decoder self-attention over the parameter ``q_image``, which runs
once per store. Blocks are initialized from a seeded uniform distribution
scaled by 1/sqrt(E) and can be overwritten from a binary weight file
("LFPW"); ``replaced`` and ``load_params`` build a new store. Every forward
computation is a pure function of its inputs and the store, bit-identical
across runs and thread counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .pillar import RAW_FEATURE_DIM, LaneWeights
from .scene_synth import N_VIEWS, SIGNAL_CLASSES

__all__ = [
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
_FFN_MULT = 4
COARSE_HIDDEN = 64  # width of the coarse prior head's hidden layer

# Most tokens one attention may span, the image tokens (N_VIEWS * view_h *
# view_w) or the lane queries (n_d * n_p); its (L, L) float64 score array
# is the model's largest. A `run` at 4096 image tokens (view 32 x 32) took
# 1.35 s at 316 MB peak RSS, and at 4080 lane queries (n_d 204) 1.44 s at
# 322 MB; 8100 image tokens took 4.17 s at 1082 MB (Python 3.11, numpy,
# 2-CPU x86-64 host; the defaults are 256 and 120).
MAX_ATTENTION_TOKENS = 4096

# Most parameter values (float64) one model may hold, counted block by block
# before each is drawn. The default model holds 116,857. A `run` at e_dim
# 512 (21.2M values) took 0.48 s at 212 MB peak RSS, and at k_layers 300
# (12.8M) 1.70 s at 144 MB; so a refused model fills at most 256 MB first.
MAX_PARAM_VALUES = 32_000_000


class AttentionInvariantError(RuntimeError):
    """An attention weight row failed to sum to 1 within tolerance."""


@dataclass(frozen=True)
class CoarseLanePrior:
    roi: np.ndarray
    weights: LaneWeights


@dataclass(frozen=True)
class BlockConfig:
    """Transformer stack shape: K layers, head count, embedding width, seed,
    plus the lane-query grid (n_d, n_p), the view feature channels and the
    view grid (view_h, view_w) the positional encoding covers. The fields
    are :class:`~lanefuse.config.RunConfig`'s, which builds one with
    ``block_config()``; the model-shape checks live here."""

    k_layers: int
    heads: int
    e_dim: int
    seed_params: int
    n_d: int
    n_p: int
    c_channels: int
    view_h: int
    view_w: int

    def __post_init__(self):
        for name in ("n_d", "n_p", "e_dim", "k_layers", "c_channels", "view_h", "view_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if self.heads < 1 or self.e_dim % self.heads != 0:
            raise ValueError(f"e_dim {self.e_dim} not divisible by heads {self.heads}")
        if self.e_dim % 4 != 0:
            raise ValueError(f"e_dim must be divisible by 4 for 2D encoding, got {self.e_dim}")
        image = N_VIEWS * self.view_h * self.view_w
        if image > MAX_ATTENTION_TOKENS:
            raise ValueError(f"view_h {self.view_h} x view_w {self.view_w} makes {image} image "
                             f"tokens, more than the {MAX_ATTENTION_TOKENS} one attention may span")
        if self.n_d * self.n_p > MAX_ATTENTION_TOKENS:
            raise ValueError(f"n_d {self.n_d} x n_p {self.n_p} makes {self.n_d * self.n_p} lane "
                             f"queries, more than the {MAX_ATTENTION_TOKENS} one attention may span")


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------


class ParamStore:
    """The model: every parameter block by name, in layout order, plus the
    per-layer groups the forward pass reads and the fixed positional
    encoding of the view grid, for the :class:`BlockConfig` in ``cfg``.
    Every array it holds is read-only."""

    def __init__(self, cfg: BlockConfig,
                 source: Callable[[str, tuple[int, ...], float | None], np.ndarray]):
        """Lay the blocks out in their fixed order, taking each array from
        ``source(name, shape, fill)``; ``fill`` is a layer norm block's
        starting constant, None for a drawn block. This is the only place
        block names and shapes are spelled; a block that would take the
        model past ``MAX_PARAM_VALUES`` values is refused before it is
        drawn."""
        self.cfg = cfg
        self._blocks: dict[str, np.ndarray] = {}
        e = cfg.e_dim
        values = 0

        def block(name: str, *shape: int, fill: float | None = None) -> np.ndarray:
            nonlocal values
            values += math.prod(shape)
            if values > MAX_PARAM_VALUES:
                raise ValueError(
                    f"parameter block {name!r} {shape} takes the model past {MAX_PARAM_VALUES} "
                    f"values (k_layers {cfg.k_layers}, e_dim {e}, n_d {cfg.n_d}, n_p {cfg.n_p}, "
                    f"c_channels {cfg.c_channels})")
            arr = source(name, shape, fill)
            arr.setflags(write=False)
            self._blocks[name] = arr
            return arr

        def affine(prefix: str, n_out: int, n_in: int) -> tuple:
            return block(f"{prefix}.w", n_out, n_in), block(f"{prefix}.b", n_out)

        def mlp(prefix: str, n_in: int, n_hidden: int, n_out: int) -> tuple:
            return (block(f"{prefix}.w1", n_hidden, n_in), block(f"{prefix}.b1", n_hidden),
                    block(f"{prefix}.w2", n_out, n_hidden), block(f"{prefix}.b2", n_out))

        def norm(prefix: str) -> tuple:
            return block(f"{prefix}.g", e, fill=1.0), block(f"{prefix}.b", e, fill=0.0)

        def attn(ln: str, prefix: str) -> AttentionLayerParams:
            g, b = norm(ln)
            w = [block(f"{prefix}.{n}", e, e) for n in ("wq", "wk", "wv", "wo")]
            bias = [block(f"{prefix}.{n}", e) for n in ("bq", "bk", "bv", "bo")]
            return AttentionLayerParams(g, b, AttentionParams(*w, *bias, heads=cfg.heads))

        def ffn(ln: str, prefix: str) -> tuple:
            return norm(ln) + mlp(prefix, e, _FFN_MULT * e, e)

        layers = range(cfg.k_layers)
        self.tok_proj = block("tok_proj.w", e, cfg.c_channels)
        self.coarse = mlp("coarse", e, COARSE_HIDDEN, cfg.n_d * cfg.n_p * 3 + cfg.n_d)
        self.q_image = block("q_image", cfg.n_d, cfg.n_p, e)
        self.img_enc = tuple((attn(f"img_enc{i}.ln1", f"img_enc{i}.attn"),
                              ffn(f"img_enc{i}.ln2", f"img_enc{i}.ffn")) for i in layers)
        self.img_enc_final = norm("img_enc_final")
        self.img_dec = tuple((attn(f"img_dec{i}.ln1", f"img_dec{i}.self"),
                              attn(f"img_dec{i}.ln2", f"img_dec{i}.cross"),
                              ffn(f"img_dec{i}.ln3", f"img_dec{i}.ffn")) for i in layers)
        self.img_dec_final = norm("img_dec_final")
        self.pillar_enc = affine("pillar_enc", cfg.c_channels, RAW_FEATURE_DIM)
        self.q_lift = affine("q_lift", e, cfg.c_channels)
        self.kv_lift = affine("kv_lift", e, cfg.c_channels)
        self.lid = tuple((attn(f"lid{i}.ln1", f"lid{i}.attn"),
                          ffn(f"lid{i}.ln2", f"lid{i}.ffn")) for i in layers)
        self.lid_final = norm("lid_final")
        self.head_pts = affine("head_pts", 3, e)
        self.head_occ = affine("head_occ", 1, e)
        self.head_plan = affine("head_plan", 1, e)
        self.head_int = affine("head_int", 1, e)
        self.head_dir = affine("head_dir", 1, e)
        self.head_spd = affine("head_spd", 1, e)
        self.head_sig = affine("head_sig", len(SIGNAL_CLASSES), e)

        # fixed, not a parameter block: no name, so never saved or loaded;
        # built once every block has passed the size cap
        self.pos_enc = sinusoidal_encoding_2d(cfg.view_h, cfg.view_w, e)
        self.pos_enc.setflags(write=False)

        # img_dec0's self-attention reads only the parameter q_image, so it
        # runs here, once per store, and the first decoder layer starts from it
        q = self.q_image.reshape(cfg.n_d * cfg.n_p, e)
        self.img_dec0_self = attention_layer(q, q, q, self.img_dec[0][0])
        self.img_dec0_self.setflags(write=False)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._blocks[name]

    def names(self) -> list[str]:
        return list(self._blocks)

    def replaced(self, updates: dict[str, np.ndarray]) -> "ParamStore":
        merged = dict(self._blocks)
        for name, arr in updates.items():
            if name not in merged:
                raise ValueError(f"unknown parameter block {name!r}")
            if arr.size != merged[name].size:
                raise ValueError(
                    f"block {name!r}: expected {merged[name].size} elements, got {arr.size}"
                )
            merged[name] = arr.reshape(merged[name].shape).astype(float)
        return ParamStore(self.cfg, lambda name, shape, fill: merged[name])


def build_params(cfg: BlockConfig) -> ParamStore:
    """Create every parameter block in layout order from the config seed.

    Affine weights and biases draw from U(-1, 1)/sqrt(E); layer norm gains
    and biases start at identity.
    """
    rng = np.random.default_rng([cfg.seed_params])
    scale = 1.0 / math.sqrt(cfg.e_dim)

    def draw(name: str, shape: tuple[int, ...], fill: float | None) -> np.ndarray:
        if fill is not None:
            return np.full(shape, fill)
        return rng.uniform(-1.0, 1.0, shape) * scale

    return ParamStore(cfg, draw)


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


def positional_encode(views: np.ndarray, store: ParamStore) -> np.ndarray:
    """1x1-project C channels of the (4, C, H, W) view stack to E, flatten
    each view to a token sequence and add the store's fixed sinusoidal
    encoding per view: the (E, L) tokens, L = views * H * W."""
    views = np.asarray(views, dtype=float)
    n_views, c, h, w = views.shape
    if (h, w) != (store.cfg.view_h, store.cfg.view_w):
        raise ValueError(f"view grid {h}x{w} differs from the store's "
                         f"{store.cfg.view_h}x{store.cfg.view_w}")
    proj, enc = store.tok_proj, store.pos_enc
    per_view = [proj @ views[v].reshape(c, h * w) + enc for v in range(n_views)]
    return np.concatenate(per_view, axis=1)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def coarse_lane_detect(tokens: np.ndarray, store: ParamStore) -> CoarseLanePrior:
    """Mean-pool the tokens and run the two-layer ReLU head producing the
    (n_d, n_p, 3) lane ROI and logistic-squashed per-lane weights."""
    w1, b1, w2, b2 = store.coarse
    pooled = tokens.mean(axis=1)
    h1 = np.maximum(w1 @ pooled + b1, 0.0)
    out = w2 @ h1 + b2
    n_d, n_p = store.cfg.n_d, store.cfg.n_p
    split = n_d * n_p * 3
    roi = out[:split].reshape(n_d, n_p, 3)
    weights = _sigmoid(out[split:])
    return CoarseLanePrior(roi=roi, weights=LaneWeights(weights=weights))


# ---------------------------------------------------------------------------
# attention primitives
# ---------------------------------------------------------------------------


def _softmax_scores(q: np.ndarray, kT: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``q @ kT / sqrt(d)``, run in place in
    the one score array in the order /sqrt(d), -max, exp, /sum.

    The row-sum check reads the normaliser ``s``: after the max shift each
    finite row holds an exact 0, whose ``exp`` is exactly 1, and every other
    term lies in [0, 1], so a finite ``s`` lies in [1, Lk]. ``s`` is NaN
    exactly when a score row holds NaN or +-inf, the rows whose divided sums
    are NaN. For a finite ``s`` the divided row sums differ from 1 by at most
    about (log2(Lk) + 2) * 2**-53, far under the 1e-9 the check promises.
    """
    weights = q @ kT
    weights /= math.sqrt(q.shape[-1])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    s = weights.sum(axis=-1, keepdims=True)
    weights /= s
    if not (s >= 1.0).all():  # also catches NaN
        err = np.abs(weights.sum(axis=-1) - 1.0).max()
        raise AttentionInvariantError(f"attention row sums off by {err:.3e}")
    return weights


def scaled_dot_attention(q: np.ndarray, k: np.ndarray,
                         v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-head scaled dot-product attention.

    q: (..., Lq, d), k: (..., Lk, d), v: (..., Lk, dv); leading dimensions
    are batch dimensions. Returns (output, weights); each weight row sums to
    1 within 1e-9, checked through the softmax normaliser, which bounds the
    error by about (log2(Lk) + 2) * 2**-53 for finite scores and is NaN for
    any other (see ``_softmax_scores``).
    """
    weights = _softmax_scores(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))
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
    q = q_in @ params.wq.T
    q += params.bq
    k = k_in @ params.wk.T
    k += params.bk
    v = v_in @ params.wv.T
    v += params.bv
    # one K transpose per call; each head's row slice of it is C-contiguous
    kT = np.ascontiguousarray(np.swapaxes(k, -1, -2))
    heads = np.empty(q.shape)
    all_w = []
    for hh in range(params.heads):
        sl = slice(hh * dh, (hh + 1) * dh)
        w_h = _softmax_scores(np.ascontiguousarray(q[..., sl]), kT[..., sl, :])
        heads[..., sl] = w_h @ np.ascontiguousarray(v[..., sl])
        if return_weights:
            all_w.append(w_h)
    out = heads @ params.wo.T
    out += params.bo
    if return_weights:
        return out, np.stack(all_w)
    return out


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    xc /= np.sqrt(var + LAYER_NORM_EPS)
    xc *= g
    xc += b
    return xc


@dataclass(frozen=True)
class AttentionLayerParams:
    ln_g: np.ndarray
    ln_b: np.ndarray
    attn: AttentionParams


def attention_layer(queries: np.ndarray, keys: np.ndarray, values: np.ndarray,
                    params: AttentionLayerParams) -> np.ndarray:
    """Pre-norm residual attention block: all three inputs are normalized
    with the layer's norm, attended, and added back onto the queries."""
    qn = _layer_norm(queries, params.ln_g, params.ln_b)
    kn = qn if keys is queries else _layer_norm(keys, params.ln_g, params.ln_b)
    vn = kn if values is keys else _layer_norm(values, params.ln_g, params.ln_b)
    out = multi_head_attention(qn, kn, vn, params.attn)
    out += queries
    return out


def _affine(x: np.ndarray, p: tuple) -> np.ndarray:
    """``x @ w.T + b`` for a lift or head ``p = (w, b)``."""
    w, b = p
    return x @ w.T + b


def _ffn(x: np.ndarray, p: tuple) -> np.ndarray:
    """Pre-norm residual feed-forward block; ``p`` is (g, b, w1, b1, w2, b2)."""
    g, b, w1, b1, w2, b2 = p
    h = _layer_norm(x, g, b) @ w1.T
    h += b1
    np.maximum(h, 0.0, out=h)
    out = h @ w2.T
    out += x  # (h @ w2.T + x) + b2 rounds as (x + h @ w2.T) + b2
    out += b2
    return out


# ---------------------------------------------------------------------------
# image and LiDAR transformer blocks
# ---------------------------------------------------------------------------


def image_transformer(tokens: np.ndarray, store: ParamStore) -> np.ndarray:
    """K encoder layers over the tokens, then K decoder layers in which the
    lane-level image queries ``store.q_image`` cross-attend to the encoded
    memory. The first decoder layer's self-attention is the store's
    ``img_dec0_self``."""
    x = tokens.T
    for p_attn, p_ffn in store.img_enc:
        x = _ffn(attention_layer(x, x, x, p_attn), p_ffn)
    memory = _layer_norm(x, *store.img_enc_final)
    x = store.img_dec0_self
    for i, (p_self, p_cross, p_ffn) in enumerate(store.img_dec):
        if i > 0:
            x = attention_layer(x, x, x, p_self)
        x = attention_layer(x, memory, memory, p_cross)
        x = _ffn(x, p_ffn)
    x = _layer_norm(x, *store.img_dec_final)
    return x.reshape(store.q_image.shape)


def init_lidar_queries(f_lane: np.ndarray, store: ParamStore) -> np.ndarray:
    """Affine lift of encoded lane pillar features (n_d, n_p, C) to E."""
    return _affine(f_lane, store.q_lift)


def integrate_queries(q_image: np.ndarray, q_lidar: np.ndarray, w: LaneWeights) -> np.ndarray:
    """Confidence-weighted query blend: with alpha_i = 1 - w_i per lane,
    q_integrated[i] = (1 - alpha_i) * q_image[i] + alpha_i * q_lidar[i]."""
    if q_image.shape != q_lidar.shape:
        raise ValueError("query shapes differ")
    wl = np.asarray(w.weights, dtype=float)
    if wl.shape[0] != q_image.shape[0]:
        raise ValueError("lane weight count does not match query lanes")
    alpha = (1.0 - wl)[:, None, None]
    return (1.0 - alpha) * q_image + alpha * q_lidar


def lidar_transformer(q_integrated: np.ndarray, f_lane: np.ndarray,
                      store: ParamStore) -> np.ndarray:
    """K attention blocks with lanes as a leading batch dimension, so lanes
    stay independent: queries start from the integrated queries, keys and
    values come from the lifted lane features of the same lane."""
    kv = _affine(f_lane, store.kv_lift)
    x = q_integrated
    for p_attn, p_ffn in store.lid:
        x = _ffn(attention_layer(x, kv, kv, p_attn), p_ffn)
    return _layer_norm(x, *store.lid_final)


def enhance_features(f_image: np.ndarray, f_lidar: np.ndarray, w: LaneWeights) -> np.ndarray:
    """Confidence-weighted feature blend: with beta_i = w_i per lane,
    f_enhanced[i] = beta_i * f_image[i] + (1 - beta_i) * f_lidar[i]."""
    if f_image.shape != f_lidar.shape:
        raise ValueError("feature shapes differ")
    wl = np.asarray(w.weights, dtype=float)
    beta = wl[:, None, None]
    return beta * f_image + (1.0 - beta) * f_lidar
