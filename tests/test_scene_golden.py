"""Golden SHA-256 digests of ``gen-scenes`` outputs.

The reference suite at scene seeds 42 and 7331 with the default config
writes ten scene JSON files and ``manifest.json`` each. Any change to scene
generation, to the scene or config JSON schema, or to the canonical JSON
writer must leave every byte of them unchanged; these digests pin that.
"""

import hashlib

from lanefuse.cli import main

GOLDEN = {
    "manifest.json": "77dfc632ce3bb13c8fe24d298e7a6a6c2f8cb5146915e42a63c4e674ecb220fd",
    "scene_00.json": "b1a3613636ad24b12a8ace9e9e59f148f27626ea630fca8e01986b64b7b03c1f",
    "scene_01.json": "a9e576fcc32c7f8dc1da909215d937e86c603930561c7bb1582afee756da5ea6",
    "scene_02.json": "d6a1661a937ffd1c16aac5477d4632a84110ffdb0690f90878f2524af2e8e15e",
    "scene_03.json": "09f8045f17dd1ae5c561fe66fa821bd05dd0321f7b59d097c76107ffe6fe0282",
    "scene_04.json": "80f89f714d280d4afe4ad49d2677be9d5eb3a976292f05eb1e6bdc03accf6ee6",
    "scene_05.json": "f20cf5b17c214a60e833ef3761d08ced99a07117301a5aea9fb19f236d217f14",
    "scene_06.json": "bb1c64b7fb588ea95755787ecded60795c3156f2e2746c02bb517a0224e946c5",
    "scene_07.json": "47a481b62d96f89f51eb65d28f9674707f4c997db45f1642948657b86bc30bc6",
    "scene_08.json": "c7a8daa2a9a4e6a4caabdf30b824b3eaafafaedefee698d1e1fc51ca54435a18",
    "scene_09.json": "eb162303465d294dbf08e37f2a88bf39ebba3bf8e0ac3ad0fda729fb9c35dca1",
}

GOLDEN_7331 = {
    "manifest.json": "6c83537cd298a66d95b34530346a880d0d7d45e260397b0ae4004e11281cd9a9",
    "scene_00.json": "2d17a4e385f60beb9067208ed251997ede428826366c7c68fa6a21bd7526c27b",
    "scene_01.json": "b7c3bd70865b24e746429395195c6d815db448662ea4dc604ac2f95505fc03ea",
    "scene_02.json": "ee306e27a85ff25e9e424fc22ce652051a574bc9b130cd761c6040bb24ce42af",
    "scene_03.json": "35fee368bc29bd46687340d9363657aeab9c2bde02064d1c21008a0cbc8858de",
    "scene_04.json": "4bc483b79abb8487aa0db52d7006c406c5c059a9b985801937b172282da6c711",
    "scene_05.json": "e2f4c54a7ccc3ba52831a0a61d54d5561908638c02119f0066e8cc205e8282e6",
    "scene_06.json": "f73f92dc57e4c4dab6fba5de532c80ccea4e1a0810c654304ea430b3162746f9",
    "scene_07.json": "8bc43c51f2ceaa5505050629db3f8d1e8c2fb30c6ec6ed624d2f735efce61d5a",
    "scene_08.json": "5065881d628e71f144af4ef09af9846521836f2c5d98f73a4d734cc5ff803319",
    "scene_09.json": "426e974a77c2daa1c117e0dad4f51b3273af5f2b13e286ed43bcfbadb4c27be3",
}


def gen_scenes_digests(tmp_path, seed: int) -> dict[str, str]:
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--suite", "reference", "--seed-scene", str(seed),
                 "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def test_reference_suite_gen_scenes_digests(tmp_path):
    assert gen_scenes_digests(tmp_path, 42) == GOLDEN


def test_reference_suite_gen_scenes_digests_seed_7331(tmp_path):
    assert gen_scenes_digests(tmp_path, 7331) == GOLDEN_7331
