"""Golden SHA-256 digests of ``gen-scenes`` outputs.

The reference suite at scene seed 42 with the default config writes ten
scene JSON files and ``manifest.json``. Any change to scene generation, to
the scene or config JSON schema, or to the canonical JSON writer must leave
every byte of them unchanged; these digests pin that.
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


def test_reference_suite_gen_scenes_digests(tmp_path):
    out = tmp_path / "scenes"
    assert main(["gen-scenes", "--suite", "reference", "--seed-scene", "42",
                 "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir()) if p.is_file()}
    assert digests == GOLDEN
