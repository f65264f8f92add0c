"""Golden SHA-256 digests of ``run`` and ``gradcheck`` outputs.

Three reference scenes at scene seeds 42 and 7331 (a straight road, an arc
and an intersection) are run through ``lanefuse run --dump-cloud`` twice:
with the seeded parameters and with ``--inject-gt``. The prediction dump
``run_*.json``, the loss table ``run_*_losses.csv`` and the point cloud
``*.lfpc`` of each run, and ``gradcheck.csv`` of the default config, must
keep every byte; these digests pin the heads, decoding, the path
interpreter, the loss suite and the cloud file. The seeded run saves the
cloud its forward pass rendered, the ``--inject-gt`` run renders its own, so
the two must agree.
"""

import hashlib

import pytest

from lanefuse.cli import main

RUN_GOLDEN = {
    (42, "scene_00", "seeded"): {
        "run_scene_00.json": (
            "12ddad8267dba91c51a63a38240c715824a13669ff098e339649ca20e3b1858e"),
        "run_scene_00_losses.csv": (
            "7bc31bb092c4fd5d51c3ee1a72acd3f09c08ecaf1acfeead923d51be64ab12d9"),
        "scene_00.lfpc": (
            "6f9d1280a06a71da506ae58a576f683ddcd9d27251212af832af8bcce34f4c13"),
    },
    (42, "scene_03", "seeded"): {
        "run_scene_03.json": (
            "c9eb5c24cbe82dd632f19397beb8a00e3abcd2a524c885735cc16b1520e421b1"),
        "run_scene_03_losses.csv": (
            "174e01e41b2d1b4dad8cef9d54937bd80427e68de431b2795a45bc14d0b2c6f1"),
        "scene_03.lfpc": (
            "058007c331d03dfb505a160c21def4325a30beb2c242d3d03846edc7ca9bef7a"),
    },
    (42, "scene_08", "seeded"): {
        "run_scene_08.json": (
            "3e9ce698ffd87cd277c5d4b6cf9443830c18d7192904a30197dfe2ade187c2d5"),
        "run_scene_08_losses.csv": (
            "dcece6f4e560268154217f546e4e311e46682d1f61f0144b1523901ffa136239"),
        "scene_08.lfpc": (
            "2334ab050407bc8d00a795bc45ecfb60c5de1bf3d2227ff951ad0cc2916f7ced"),
    },
    (42, "scene_00", "inject_gt"): {
        "run_scene_00.json": (
            "f64d30b091ca6586d741718463acb099407dd797292abad2756ec93770ff9909"),
        "run_scene_00_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_00.lfpc": (
            "6f9d1280a06a71da506ae58a576f683ddcd9d27251212af832af8bcce34f4c13"),
    },
    (42, "scene_03", "inject_gt"): {
        "run_scene_03.json": (
            "c5e32bb6bbb007a0552ca4ab39760053e30678d1c365a51fda96b6a611b1016a"),
        "run_scene_03_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_03.lfpc": (
            "058007c331d03dfb505a160c21def4325a30beb2c242d3d03846edc7ca9bef7a"),
    },
    (42, "scene_08", "inject_gt"): {
        "run_scene_08.json": (
            "139da945e40a4c122596f11217af94039e38eb717e2d2f6398c68580a1bd314a"),
        "run_scene_08_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_08.lfpc": (
            "2334ab050407bc8d00a795bc45ecfb60c5de1bf3d2227ff951ad0cc2916f7ced"),
    },
    (7331, "scene_00", "seeded"): {
        "run_scene_00.json": (
            "01071bde80c8c554c17769f1f7bac83ca099ad1e82581f1868aa4ca652783609"),
        "run_scene_00_losses.csv": (
            "c71aed6c3e879f42c1f01186c32789d4c5b2790c237102394a3a9596288d727c"),
        "scene_00.lfpc": (
            "700de834842f77682dc73837f710570f91d6afc4cb338774573829b629666c87"),
    },
    (7331, "scene_03", "seeded"): {
        "run_scene_03.json": (
            "5144cc76e2df1861e108684d90313b3a6d2ce4c45b48115cc297d149d3921697"),
        "run_scene_03_losses.csv": (
            "5a3c65aa05740cd8346947feea6cd9f6183192c10b77b68b93c73c82812f217c"),
        "scene_03.lfpc": (
            "67a58b89cca8275e03b4ebc707e760c81f006d4cff7efcf21cdb563dd51befac"),
    },
    (7331, "scene_08", "seeded"): {
        "run_scene_08.json": (
            "e1628d4b3fcfc4db51dc13f07c040e5c2cfee0779766333e6665d107c627b7c7"),
        "run_scene_08_losses.csv": (
            "3a561574c35d7dc88ed33455b09d35001405c2d0976c528ebd4cf21109f21c9e"),
        "scene_08.lfpc": (
            "a4460a9650af20b374b14fd881ce76d908b98c5f5c881798981ce832ca3bd133"),
    },
    (7331, "scene_00", "inject_gt"): {
        "run_scene_00.json": (
            "f64d30b091ca6586d741718463acb099407dd797292abad2756ec93770ff9909"),
        "run_scene_00_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_00.lfpc": (
            "700de834842f77682dc73837f710570f91d6afc4cb338774573829b629666c87"),
    },
    (7331, "scene_03", "inject_gt"): {
        "run_scene_03.json": (
            "c5e32bb6bbb007a0552ca4ab39760053e30678d1c365a51fda96b6a611b1016a"),
        "run_scene_03_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_03.lfpc": (
            "67a58b89cca8275e03b4ebc707e760c81f006d4cff7efcf21cdb563dd51befac"),
    },
    (7331, "scene_08", "inject_gt"): {
        "run_scene_08.json": (
            "139da945e40a4c122596f11217af94039e38eb717e2d2f6398c68580a1bd314a"),
        "run_scene_08_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
        "scene_08.lfpc": (
            "a4460a9650af20b374b14fd881ce76d908b98c5f5c881798981ce832ca3bd133"),
    },
}
GRADCHECK_SHA256 = "f8cfcb097b4857df74c988fd9d8dd53e689fc2ff17a9b299dead8832396bb862"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_id(key) -> str:
    seed, scene, mode = key
    return f"{scene}-{mode}" if seed == 42 else f"{scene}-{mode}-seed{seed}"


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """Reference scene directory per scene seed."""
    dirs = {}
    for seed in sorted({seed for seed, _, _ in RUN_GOLDEN}):
        dirs[seed] = tmp_path_factory.mktemp(f"scenes{seed}")
        assert main(["gen-scenes", "--suite", "reference", "--seed-scene", str(seed),
                     "--out", str(dirs[seed])]) == 0
    return dirs


@pytest.mark.parametrize("key", sorted(RUN_GOLDEN), ids=golden_id)
def test_run_outputs_digests(scenes, tmp_path, key):
    seed, scene, mode = key
    argv = ["run", "--scene", str(scenes[seed] / f"{scene}.json"), "--out", str(tmp_path),
            "--dump-cloud"]
    if mode == "inject_gt":
        argv.append("--inject-gt")
    assert main(argv) == 0
    digests = {name: sha256(tmp_path / name) for name in RUN_GOLDEN[key]}
    assert digests == RUN_GOLDEN[key]


def test_gradcheck_csv_digest(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "gradcheck.csv") == GRADCHECK_SHA256
