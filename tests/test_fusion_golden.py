"""Golden SHA-256 digests of the attention stack on the reference suite.

At scene seed 42 (parameter seed 7, default config), every scene pins:

* ``image``: the ``image_transformer`` features;
* ``lidar``: the ``lidar_transformer`` features;
* ``fusion``: the enhanced features the ``fusion`` stage returns.

The inputs are taken from the forward pass itself, through the ``keep``
dict of ``run_pipeline``: the ``image_transformer``, ``encode``,
``coarse_prior`` and ``fusion`` stage outputs. Rewrites of the attention
primitives, the layer norm or the LiDAR transformer's lane handling must
leave every digest unchanged.
"""

import hashlib

import numpy as np
import pytest

from lanefuse.config import RunConfig
from lanefuse.fusion import (
    QuerySet,
    build_params,
    init_lidar_queries,
    integrate_queries,
    lidar_transformer,
)
from lanefuse.pipeline import run_pipeline
from lanefuse.scene_synth import generate_scene

KINDS = ("image", "lidar", "fusion")

GOLDEN: dict[str, tuple[str, ...]] = {
    "image": (
        "e661a57da7ffe933d9846ae3b1937c46d65064bd5f2369e51abd222c30642417",
        "2892431d0d4a4e8daf7841982bdfb4d2979a603ffd556eea34baf8722ac6e2ca",
        "cebcc8bccc394f81dfefc7f09cbc8cce3ba1da2a42730e93822cb8172d940bd0",
        "5f102f3da376a069fc90bdc177bf76c46bafd34ccde14197b64d8d297ca73615",
        "5ef8a4ed1859873b401035d0f14b81946a3bd4d98a2ac79bc4a163793cb55ffe",
        "6f6fdf1c112222786ff45da36ab967518923ad399dddebcea19fb5a0a1725cf4",
        "3257e6cb6142150790a333f272f0950ea69b2e7a608000c9c70b2b16d3c337c7",
        "3e169421065f44bb8eb96ae95c0132457db9eee08fdd4392dc58aaa310b21b69",
        "f1b287650db1180079395395bd20c5a93d9c71f1534f2ad3dd79ba9b1fccda0b",
        "1cc0768e9dfbc4eb9dc8527ca7e27e68a8005ee7ac59f3d33e4854608026a8e8",
    ),
    "lidar": (
        "2188c56e8f7412b1144b7dff70a5e9a02af6769bfaae9dff521d3e02c61139b3",
        "a060fcf1999e4cdda5504619b0ab899ce57fde136679c7cb3892b606f6e2c49e",
        "0b80c6f56ff66cb6c9bc2b1c212002e9a6b19024f01722fac4b15125ea1fdfcf",
        "baee93edadc20da597066ca3be907b44c52952e4dbe4fba428713d6680aba690",
        "788430039079a4ab444c12553c688b7f87cfd1d80838f376d33df254e8d74732",
        "c9346ecbb305731a57a6f75740ff46254d17b805a8fd1fc4f24d16a69cad68cc",
        "fbf54cf47a2b987585a6e7cd534deebd75dd7952e6a9499e81637e132361ad22",
        "f511d57ba35bb02b2924347bfdb11a554b24d1c5e9c39792c7988c72974af50c",
        "fb161ecfe904228403cbe77f683453236a8307ce07d83a2895282b886e40614f",
        "f2412f7af9cbd20e6830f2a21f3eaf21b3b60fcaf5bfbbafc37bc7953ee3d2f3",
    ),
    "fusion": (
        "d0d6a3e21905c74d6e569644cce039d0101cfd57613b6935cdbac15220914a34",
        "747031471f6047c831b275b24bca2a1babca3c012c683dd17829550da6a02e2f",
        "85a5238606ab547b57626a2397fb54387d2aaf9b905d45fcac2fabb5ae7cb26f",
        "adf7bf25a8e333d75dd0a6d64fd74412e5bd3fe5e8eaf904b258a5ce311f63fa",
        "a6da11d53a0544f0534b9f29b41790e0b98024e0e615daeb209954c82dbd5ec8",
        "2bc2be0bfea9a7dece0246d965f98ff813a1f9ea141fe2f18bb80785410f0460",
        "981f34b625d01f45640e5cfc9af3fa7bc133923e5af8580b31ea6b5b4dd3eb57",
        "f8853c16f4dd8c16aaedf7872e37a882f624cff6a8401f0962bd1fc5f05bdf4c",
        "15cfe62873c7884909bb47d9921aaa15e44af2b5a25ecdc9f30f9aaaac139740",
        "9353485a38d694115c4133416d3e195ba89fd82e89d0e6205d0b4d5e2a0180f7",
    ),
}


def digest(arr: np.ndarray) -> str:
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()


def stack_digests() -> dict[str, list[str]]:
    cfg = RunConfig(seed_scene=42, suite="reference")
    store = build_params(cfg.block_config())
    got: dict[str, list[str]] = {k: [] for k in KINDS}
    for spec in cfg.suite_specs():
        kept = {}
        run_pipeline(generate_scene(spec, n_p=cfg.n_p), cfg, store, kept)
        f_lane = kept["encode"]
        q_integrated = integrate_queries(QuerySet(queries=store.q_image),
                                         init_lidar_queries(f_lane, store),
                                         kept["coarse_prior"].weights)
        got["image"].append(digest(kept["image_transformer"].features))
        got["lidar"].append(digest(lidar_transformer(q_integrated, f_lane, store).features))
        got["fusion"].append(digest(kept["fusion"].features))
    return got


@pytest.fixture(scope="module")
def digests():
    return stack_digests()


@pytest.mark.parametrize("kind", KINDS)
def test_attention_stack_matches_golden(digests, kind):
    want = GOLDEN[kind]
    bad = [i for i, (g, w) in enumerate(zip(digests[kind], want)) if g != w]
    assert len(digests[kind]) == len(want) and not bad, f"{kind} differs on scenes {bad}"
