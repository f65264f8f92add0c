"""Golden SHA-256 digests of ``run`` and ``gradcheck`` outputs.

Three reference scenes at scene seed 42 (a straight road, an arc and an
intersection) are run through ``lanefuse run`` twice: with the seeded
parameters and with ``--inject-gt``. The prediction dump ``run_*.json`` and
the loss table ``run_*_losses.csv`` of each run, and ``gradcheck.csv`` of
the default config, must keep every byte; these digests pin the heads,
decoding, the path interpreter and the loss suite.
"""

import hashlib

import pytest

from lanefuse.cli import main

RUN_GOLDEN = {
    ("scene_00", "seeded"): {
        "run_scene_00.json": (
            "12ddad8267dba91c51a63a38240c715824a13669ff098e339649ca20e3b1858e"),
        "run_scene_00_losses.csv": (
            "7bc31bb092c4fd5d51c3ee1a72acd3f09c08ecaf1acfeead923d51be64ab12d9"),
    },
    ("scene_03", "seeded"): {
        "run_scene_03.json": (
            "c9eb5c24cbe82dd632f19397beb8a00e3abcd2a524c885735cc16b1520e421b1"),
        "run_scene_03_losses.csv": (
            "174e01e41b2d1b4dad8cef9d54937bd80427e68de431b2795a45bc14d0b2c6f1"),
    },
    ("scene_08", "seeded"): {
        "run_scene_08.json": (
            "3e9ce698ffd87cd277c5d4b6cf9443830c18d7192904a30197dfe2ade187c2d5"),
        "run_scene_08_losses.csv": (
            "dcece6f4e560268154217f546e4e311e46682d1f61f0144b1523901ffa136239"),
    },
    ("scene_00", "inject_gt"): {
        "run_scene_00.json": (
            "f64d30b091ca6586d741718463acb099407dd797292abad2756ec93770ff9909"),
        "run_scene_00_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
    },
    ("scene_03", "inject_gt"): {
        "run_scene_03.json": (
            "c5e32bb6bbb007a0552ca4ab39760053e30678d1c365a51fda96b6a611b1016a"),
        "run_scene_03_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
    },
    ("scene_08", "inject_gt"): {
        "run_scene_08.json": (
            "139da945e40a4c122596f11217af94039e38eb717e2d2f6398c68580a1bd314a"),
        "run_scene_08_losses.csv": (
            "ff33feecd9b64af0b73a21d4d3ee67dc26a60aecf8d340d7144494f0e1e66a55"),
    },
}
GRADCHECK_SHA256 = "f8cfcb097b4857df74c988fd9d8dd53e689fc2ff17a9b299dead8832396bb862"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenes")
    assert main(["gen-scenes", "--suite", "reference", "--seed-scene", "42",
                 "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("scene,mode", sorted(RUN_GOLDEN))
def test_run_outputs_digests(scenes, tmp_path, scene, mode):
    argv = ["run", "--scene", str(scenes / f"{scene}.json"), "--out", str(tmp_path)]
    if mode == "inject_gt":
        argv.append("--inject-gt")
    assert main(argv) == 0
    digests = {name: sha256(tmp_path / name) for name in RUN_GOLDEN[scene, mode]}
    assert digests == RUN_GOLDEN[scene, mode]


def test_gradcheck_csv_digest(tmp_path):
    assert main(["gradcheck", "--out", str(tmp_path)]) == 0
    assert sha256(tmp_path / "gradcheck.csv") == GRADCHECK_SHA256
