"""Golden SHA-256 digests of the LiDAR branch on the reference suite.

At scene seed 42 (parameter seed 7) and at 3 and 12 pts/m^2, every scene
pins:

* ``cloud``: the rendered point cloud;
* ``pillars``: the full-cloud pillar content in key order (cell keys,
  feature rows, member point indices per cell);
* ``seeded`` / ``gt``: ``lane_sample`` features, ``empty`` and
  ``source_cells`` for the seeded coarse-prior ROI and for the
  ground-truth-injected ROI.

Refactors of ``render_lidar``, ``pillarize`` or ``lane_sample`` must leave
every digest unchanged. The pillar content is read through ``cells`` plus
one feature row per key, which any pillar container layout provides.
"""

import hashlib

import numpy as np
import pytest

from lanefuse.config import RunConfig
from lanefuse.fusion import build_params, coarse_lane_detect, positional_encode
from lanefuse.heads_losses import inject_ground_truth
from lanefuse.pillar import lane_sample, pillarize
from lanefuse.scene_synth import SIGNAL_CLASSES, generate_scene, render_lidar, synth_view_features

KINDS = ("cloud", "pillars", "seeded", "gt")

GOLDEN: dict[tuple[str, float], tuple[str, ...]] = {
    ("cloud", 3.0): (
        "2fe005981cff368d002c455cf4fec70f1381306377c722228f11878321f579b8",
        "f6b786ce8fc0a980fe8b81c7ec82fec30c8e848669ab234115fdd6da46d3bc05",
        "d7905df40944a6c3f284e190f62b12aaf406753e2b598001975085f3c4709300",
        "17ffa223adc3d904dcd5d17c9e803f088e5a5ecc743fd6b27f2c538360bbcd69",
        "ea153b08c8c2f27bc27f9061803f981e8d649c236b09dd7162197ee0a0573372",
        "1ccfe69d710f244f0a38945e2af7402d3bc9d8e8bfaa9eea381dfef15d0fe166",
        "53ef741e06b101e828016d0db3a7df57dbdecb88ea74db391693d763e6dbab48",
        "906787c3574fb2f3d236024b704f9f4cb5ebce1860499a07d5d1499e8437949e",
        "79901f16831351846b983c43f97ce169729995bb81943e5a5e89a3870c91ed21",
        "93aeaf759594ca9c290783445ea83dc0b0975e7ffeb915198b234eae4ee59e70",
    ),
    ("pillars", 3.0): (
        "9655e6261eb4150e337cc931bbfc21f35fdc0c11532c75d71adf6181bf83ba6f",
        "e94da603d8c5a97dae987bc728e979820b5dff204e6e2dc1cf9e46957803c6e5",
        "107ccec8f1eae393ae5dff3472dad5f747743e4c22a59b0e1b88029ef60df0ac",
        "f3cd99eac978d8fd264a95ba931db4766f87143a45e3bc98938b7119232cd788",
        "d885d8038c65bc7dfa5491a89cde046c605beaa6dcf2f9b4af224085b9cc5390",
        "23624d9166da1cafba15ccbac1ed1577704a9fc6b22996a501b3deec6a41ba03",
        "71daa1b3b9daa34c5398a69bd2a1ee480a808b0ecf3b9ac3c53f9672084dbd92",
        "d950e9c63d28c6e23c70a37d2c33ac59e2a0ae255615dfd28ebd480fd3669ba1",
        "8af3370ccaf73b563d7808ef6374c92da4ab94a99c5fcdd636716caae8fb3400",
        "e1cc1f580520a903513d84339879b34d9867bc615bbb753a06efa40bc4717de1",
    ),
    ("seeded", 3.0): (
        "c54fff00bfa65d95613631b1e5481495fbb243ebbfb6004b4146a9df9758920a",
        "8516255440f68c896ed2518514b11aa81c064e2dd43fd5944123ee1a73d0bb81",
        "08394d12410599f7da511ab872a12c27beed13eb79b9af62c95ed9ba8013d8f7",
        "5138bce3cc0c4481fb097bcabd9b15c318ce8d1516e4164e65a06f179099e87c",
        "6ce8c232f5cbdbdcd6fa5c42793941009376ca670ee40b3b1838190de5d69368",
        "5b1d3586eb7c86a5255f6dbf19413afc914a2b7f3d75e11cd4f88528909dd42a",
        "151b74d4ad2807dd5ad09fc26182a3de58b634dd7775518d60592854fa1ace60",
        "edafcb4c0b96f57f4b3f6c1a182d8eb81fe1b52850b7e67dc72f3ab78608d461",
        "2420029df23d935af5302d08b9e64895fe83ad731550a1868bc5a9638f2340c6",
        "f612b0f5c0bd96686fa252a70bfe3ad8428a57310cddf8b7e5070c36f2a55265",
    ),
    ("gt", 3.0): (
        "174c5ca10a928db9c288179e6685d9435202883a7d5311377c4bb4baae9a63a9",
        "d5c7b024773683df580dfcb207c005605443403c59b97e058ac9c56cd6d899bf",
        "4c58e77c4fa4ceb4b00a865c539cab6ebd077f81dbbfef1cf29c7124c94ff8b6",
        "ec62eacd82f869aa35a8bf68395b258dc9c1c48a7d98b9f11cde0eb3679b6c99",
        "7489372930780ac4e8ac9e6a3644cd957cd2473e78e5217e7a42967b7b131e47",
        "9e363e93acd6092a53ba83013a624f50f8684a2801371bc39165dcbf95e0e0d3",
        "de60068738e1bbaed78ec9b6a7360d0d36d7185b99336cb952e3280cc836c566",
        "89b5dd4c6efe4c64043900d8adab8257613e4f0b77927090d5efc952177869d8",
        "14f73612771f05962c1d45ffbeca4b142e9183d6048b9ffe5d294aec3bff7e3d",
        "749b29a4a27ee430f02dcb4b61ad13616dd879a491f6ae1517f488a71c134682",
    ),
    ("cloud", 12.0): (
        "03b6c0bc305f493e9ac5a24c64e1fd0521554e54e5076f62335085509873868e",
        "66c66c37dbef91a6364b22e0764162ff7fd7d4ff5d266fe69c6123eb79d994b7",
        "be5bca4e680d81bd75a8e85093aec9acc76d6471a960bfd63294a233857b3ec2",
        "f7f0a53d42db8214c33b78ced01989355f1a2e0308985a1331109eeef89d270f",
        "602b235365bafc0d764584560f8c3c3ef62f688043afd9f5efe62fad2664d1ae",
        "5c80f788d2c0469629dd6ec595794d2d3367a070cacfcf66a301fea26df797df",
        "9f4539ad6210afb5827589f5ac7a4d1588fa05194b12ff60861dd6a6784d4809",
        "22a5886e15b3b3f784d4c18577e587400f4cf567dba43379887e5e0614d72d92",
        "0480330a14f7746cf63beef26afb16a211192bf4183d91305b9206488d7498e7",
        "f7258cad07d235ac1d606604097e8d8e73788b91d37e32453f2f01c653c5af68",
    ),
    ("pillars", 12.0): (
        "ac78296a53a4df064d234cf8fb99344037d89152e9cac90894bf6ac8e69a74e4",
        "f02fdba15a9195ce61f4c801760682a8f4c9e1fc9b7ad61031a2b3dd62b6bfda",
        "8a8be9edd340459f92ee94d403519efc08ff18fc592297a0ae0ab4188b8a5ea8",
        "f077768b6e83df03dbfa07ac4a9bb22f015c094f99152a33a4a6a5131cd4a34b",
        "1cc97556ddabd3e47ff4d7f6dcfa8ac1234081b9d919666825ab4f312c8ef7e6",
        "fb1fbf67e5d84f83630ae23b5028fd7b4f57ec73f788d20e1a400adb9be60307",
        "08bb8ee3aeb41a6b71bee1e2484e8bece0b61012bbcdc6c2433e8948006df088",
        "f689c18faa0a6998432960b981d9bc773a7fe5d70345c7276d4bfde686fa4a64",
        "b2e9da03eb5350366f94d6fedc9887eb38f4ebff37802dc2ef6b8efd6ea8567f",
        "259ac2800382ef5d77067387210d8ab760eb5f8fd1964f3e2fe1fbadff856ea3",
    ),
    ("seeded", 12.0): (
        "08348d90dab4cabaa928f2f12be69263f5fec2893c1bd6680a7bb90fdec32c66",
        "77ede6f131d88fef9d7548a3a5c6eba1506c43ddea1773318d2c26c895304660",
        "95bc0201e52fe75f35b9f766ca5574877cd84646178decf8eb3b2657baca22a9",
        "ea4fd701c0b7f0cabdf93a1cd523a866061aa24acc23a9f2061ebd047dcc7ed0",
        "935b9a3c66ea3ad99b545d8bc4fb800d3fe420cde8216c26e2baf653b3e962c8",
        "204f05b7b19505eb7e2c12f1118f94dc96f832c609f78405a85d2623c07078f7",
        "2c3db713c92dd975bff0c8bc99c976049eafbb9a4c22d837849f11c3e310034d",
        "a09026b843c03d4db1380664383572f8f18561be7d2751a994bee22875b8fd3c",
        "df5ec857ed34ce20dfa0213fc5a6fa58682bbb92f3d80567b3f55b81c7e91437",
        "8506a4f378ffea41506e76ef9c5bea8ce58e8525a44a00d8fd2c506188540895",
    ),
    ("gt", 12.0): (
        "8f0ea3d6903969a25e7b3c14d25d04fd00151f6d98487862177d38b6e13f66af",
        "c28c38f5cd1b7b1528f665c1b039812790ec6ea4df9d9c482e62ef1e83dfb303",
        "001efb593b4502c0535200aca4170573b2cf73eb242dcff386fc63a94f7264fa",
        "298fd682030dac2eff4dd796122b8df2f7c610bfa1a6c22243963adf56601bd6",
        "c606ef33b4ec7d221cf76eb900a7a77811adc7181039827743530e8942263fc5",
        "2be6eae4b9d4d71cd9a0bed7d88c70fb1f2f33d3ac6ab828ba96d55afb78b078",
        "423f538e18191d2d6171f778a69c4fffd17a6678f3179132c5c1d3b923754028",
        "f64446277d3807129086c0c26f78648988d649aafa75406dafcf4d5972fd880a",
        "6b33f5f5abc2f772fbadb7c350e09d3138c59692e7d81504e8cefd71dd41f0c0",
        "51a312d10e1888fca2cae00e746d4a633b8ad053c005682b9f181bebcbcee312",
    ),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def pillar_digest(pillars) -> str:
    cells = pillars.cells
    keys = sorted(cells)
    feats = pillars.features
    if isinstance(feats, dict):
        feats = [feats[k] for k in keys]
    members = [np.asarray(cells[k], dtype=np.int64) for k in keys]
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    return digest(np.array(keys, dtype=np.int64).reshape(-1, 2),
                  np.asarray(feats, dtype=float).reshape(-1, 9),
                  np.concatenate(members) if members else np.zeros(0, np.int64),
                  np.concatenate([[0], np.cumsum(sizes)]))


def lane_digest(lane) -> str:
    return digest(lane.features, lane.empty, lane.source_cells)


@pytest.fixture(scope="module")
def suite():
    cfg = RunConfig(seed_scene=42, suite="reference")
    store = build_params(cfg.block_config())
    out = []
    for spec in cfg.suite_specs():
        scene = generate_scene(spec, n_p=cfg.n_p)
        grid = synth_view_features(scene, cfg.c_channels, cfg.view_h, cfg.view_w,
                                   cfg.seed_params)
        seeded = coarse_lane_detect(positional_encode(grid, store), store).roi
        _, gt = inject_ground_truth(scene.ground_truth, scene.gt_speed,
                                    SIGNAL_CLASSES.index(scene.signal_state), cfg.n_d)
        out.append((scene, seeded, gt))
    return cfg, out


@pytest.fixture(scope="module", params=(3.0, 12.0), ids=("3pts", "12pts"))
def digests(request, suite):
    cfg, scenes = suite
    density = request.param
    got: dict[str, list[str]] = {k: [] for k in KINDS}
    for scene, seeded, gt in scenes:
        cloud = render_lidar(scene, density, cfg.lidar_noise_sigma, scene.spec.seed)
        pillars = pillarize(cloud, cfg.pillar_spec())
        got["cloud"].append(digest(cloud))
        got["pillars"].append(pillar_digest(pillars))
        got["seeded"].append(lane_digest(lane_sample(pillars, seeded, cfg.r_max)))
        got["gt"].append(lane_digest(lane_sample(pillars, gt, cfg.r_max)))
    return density, got


@pytest.mark.parametrize("kind", KINDS)
def test_lidar_branch_matches_golden(digests, kind):
    density, got = digests
    want = GOLDEN[(kind, density)]
    bad = [i for i, (g, w) in enumerate(zip(got[kind], want)) if g != w]
    assert len(got[kind]) == len(want) and not bad, \
        f"{kind} at {density} pts/m^2 differs on scenes {bad}"
