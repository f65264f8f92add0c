"""Seeded property tests over hostile config, scene and weight files.

Each JSON case takes a valid file, replaces the value at one random path
with a value of another JSON type, and runs it through ``main``:
``gen-scenes --suite trivial`` (then ``run`` on one of its scenes) for a
config, ``run --scene`` for a scene. Scene cases also flip one bit outside
``ground_truth``, of a number or of the file's text. Each weight case
truncates a valid LFPW file or flips one of its bits and passes it to
``run --params``; a deterministic sweep also fills each block's payload
with 1e308 in turn.
Every case must end in exit 0 with every JSON file it wrote free of NaN and
Infinity, or in exit 2 with one ERROR line; an exception escaping ``main``
or any other exit code fails.
"""

import copy
import json
import logging
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanefuse.cli import main
from lanefuse.config import RunConfig
from lanefuse.fusion import build_params, save_params
from lanefuse.io_utils import dumps
from lanefuse.scene_synth import generate_scene, scene_to_json

REPLACEMENTS = (None, True, 0, -1, 2.5, "", "x", [], [1.0], {}, {"k": 1})

PROPERTY = settings(derandomize=True, max_examples=50, deadline=None, database=None)


@st.composite
def retyped(draw, obj):
    """(path, copy of ``obj`` whose value at ``path`` has another JSON type).
    The walk descends from the top level, stopping early at a container one
    time in four."""
    obj = copy.deepcopy(obj)
    node, path = obj, []
    while True:
        keys = list(range(len(node))) if isinstance(node, list) else sorted(node)
        key = draw(st.sampled_from(keys))
        path.append(key)
        child = node[key]
        if not isinstance(child, (list, dict)) or not child or draw(st.integers(0, 3)) == 0:
            break
        node = child
    node[key] = draw(st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(child)]))
    return path, obj


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record):
        self.records.append(record)


def _no_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def run_main(argv: list[str]) -> int:
    """``main(argv)``, checking that exit 2 comes with one ERROR line and
    that after exit 0 every JSON file under ``--out`` parses without NaN or
    Infinity."""
    handler = _Records()
    logger = logging.getLogger("lanefuse")
    logger.addHandler(handler)
    try:
        code = main(argv)
    finally:
        logger.removeHandler(handler)
    assert code in (0, 2), code
    if code == 2:
        errors = [r for r in handler.records if r.levelno == logging.ERROR]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "\n" not in errors[0].getMessage()
    else:
        for path in Path(argv[argv.index("--out") + 1]).glob("*.json"):
            json.loads(path.read_text("utf-8"), parse_constant=_no_constant)
    return code


FAST = json.loads(dumps(RunConfig(bench_repeats=2, lidar_density=2.0)))


@PROPERTY
@given(retyped(FAST))
def test_retyped_config_exits_0_or_2(case):
    path, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        out = str(Path(tmp) / "o")
        if run_main(["gen-scenes", "--config", str(config), "--suite", "trivial",
                     "--out", out]) == 0:
            run_main(["run", "--config", str(config), "--scene", f"{out}/scene_00.json",
                      "--out", out])


@pytest.fixture(scope="module")
def scene_obj():
    cfg = RunConfig()
    spec = cfg.suite_specs()[1]  # two lanes, one agent, clutter, a green signal
    return json.loads(scene_to_json(generate_scene(spec, n_p=cfg.n_p)))


def test_retyped_scene_exits_0_or_2(scene_obj):
    @PROPERTY
    @given(retyped(scene_obj))
    def check(case):
        path, obj = case
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_text(json.dumps(obj))
            run_main(["run", "--scene", str(scene), "--out", str(Path(tmp) / "o")])

    check()


def flip_bit(value: int | float, bit: int) -> int | float:
    """``value`` with one bit of its binary form inverted: of the IEEE 754
    double for a float, of the first 63 bits for an int."""
    if isinstance(value, float):
        (raw,) = struct.unpack("<Q", struct.pack("<d", value))
        return struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))[0]
    return value ^ (1 << (bit % 63))


def value_paths(node, path: list) -> list[list]:
    """Every path under ``node``, its own included, containers before
    their children."""
    keys = (range(len(node)) if isinstance(node, list) else sorted(node)
            if isinstance(node, dict) else ())
    return [path] + [sub for k in keys for sub in value_paths(node[k], path + [k])]


@st.composite
def hostile_ground_truth(draw, obj):
    """(path, copy of ``obj`` with one value under ``ground_truth`` re-typed
    or, for a number, bit-flipped). The path is drawn from all leaves, so
    most cases hit a point's coordinate or flag, and one time in eight from
    the containers."""
    obj = copy.deepcopy(obj)
    paths = value_paths(obj["ground_truth"], ["ground_truth"])
    leaves = [p for p in paths if not isinstance(_at(obj, p), (list, dict))]
    containers = [p for p in paths if isinstance(_at(obj, p), (list, dict))]
    path = draw(st.sampled_from(containers if draw(st.integers(0, 7)) == 0 else leaves))
    node, key = _at(obj, path[:-1]), path[-1]
    old = node[key]
    if type(old) in (int, float) and draw(st.booleans()):
        node[key] = flip_bit(old, draw(st.integers(0, 63)))
    else:
        node[key] = draw(st.sampled_from([v for v in REPLACEMENTS if type(v) is not type(old)]))
    return path, obj


def _at(obj, path: list):
    for key in path:
        obj = obj[key]
    return obj


def test_hostile_ground_truth_exits_0_or_2(scene_obj):
    @PROPERTY
    @given(hostile_ground_truth(scene_obj), st.booleans())
    def check(case, inject_gt):
        path, obj = case
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_text(json.dumps(obj))
            run_main(["run", "--scene", str(scene), "--out", str(Path(tmp) / "o")]
                     + ["--inject-gt"] * inject_gt)

    check()


@st.composite
def flipped_outside_ground_truth(draw, obj):
    """(where, scene file bytes) with one bit flipped outside
    ``ground_truth``: half the time in the binary form of a number at a leaf
    path, half the time in one byte of the file's text at that offset."""
    if draw(st.booleans()):
        obj = copy.deepcopy(obj)
        paths = [p for p in value_paths(obj, []) if p[:1] != ["ground_truth"]
                 and type(_at(obj, p)) in (int, float)]
        path = draw(st.sampled_from(paths))
        node = _at(obj, path[:-1])
        node[path[-1]] = flip_bit(node[path[-1]], draw(st.integers(0, 63)))
        return path, json.dumps(obj).encode()
    mark = json.dumps("ground truth goes here").encode()
    head, tail = json.dumps({**obj, "ground_truth": "ground truth goes here"}).encode().split(mark)
    text = bytearray(head + tail)
    pos = draw(st.integers(0, len(text) - 1))
    text[pos] ^= 1 << draw(st.integers(0, 7))
    return pos, bytes(text[:len(head)]) + json.dumps(obj["ground_truth"]).encode() + \
        bytes(text[len(head):])


def test_bit_flipped_scene_outside_ground_truth_exits_0_or_2(scene_obj):
    @settings(PROPERTY, max_examples=400)
    @given(flipped_outside_ground_truth(scene_obj))
    def check(case):
        where, data = case
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_bytes(data)
            run_main(["run", "--scene", str(scene), "--out", str(Path(tmp) / "o")])

    check()


@pytest.fixture(scope="module")
def weight_run(tmp_path_factory):
    """(valid LFPW bytes, byte offsets of its block headers, ``run`` argv
    without ``--params``)."""
    tmp = tmp_path_factory.mktemp("weights")
    cfg = RunConfig(lidar_density=2.0)
    (tmp / "config.json").write_bytes(dumps(cfg))
    spec = cfg.with_overrides(suite="trivial").suite_specs()[0]
    (tmp / "scene.json").write_bytes(scene_to_json(generate_scene(spec, n_p=cfg.n_p)))
    store = build_params(cfg.block_config())
    save_params(store, tmp / "w.lfpw")
    header, pos = [], 4  # each block: u16 name length, name, u64 count, payload
    for name in store.names():
        end = pos + 2 + len(name.encode("utf-8")) + 8
        header += range(pos, end)
        pos = end + 8 * store[name].size
    argv = ["run", "--config", str(tmp / "config.json"), "--scene", str(tmp / "scene.json"),
            "--out", str(tmp / "o")]
    return (tmp / "w.lfpw").read_bytes(), header, argv


@st.composite
def hostile_weights(draw, raw: bytes, header: list[int]):
    """``raw`` cut short, or with one bit flipped: in the magic or a block
    header half the time, anywhere the other half."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw) - 1))]
    pos = draw(st.sampled_from([0, 1, 2, 3, *header]) if draw(st.booleans())
               else st.integers(0, len(raw) - 1))
    out = bytearray(raw)
    out[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def test_hostile_weight_file_exits_0_or_2(weight_run):
    raw, header, argv = weight_run

    @PROPERTY
    @given(hostile_weights(raw, header))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            weights = Path(tmp) / "w.lfpw"
            weights.write_bytes(data)
            run_main([*argv, "--params", str(weights)])

    check()


def test_overflowing_block_exits_2_or_writes_finite_json(weight_run, caplog):
    """Each block's whole payload set to 1e308 in turn: the pass overflows
    somewhere for many blocks, and each one must end in the one-line exit 2
    or in finite output files. An overflowing loss is refused where it is
    made, naming its component, not by the JSON writer."""
    raw, header, argv = weight_run
    # a payload is each gap after a header byte, up to the next header byte
    payloads = [(pos + 1, nxt) for pos, nxt in zip(header, header[1:] + [len(raw)])
                if nxt != pos + 1]
    assert len(payloads) == 148
    with tempfile.TemporaryDirectory() as tmp:
        weights = Path(tmp) / "w.lfpw"
        for start, end in payloads:
            weights.write_bytes(raw[:start] + struct.pack("<d", 1e308) * ((end - start) // 8)
                                + raw[end:])
            run_main([*argv, "--params", str(weights)])
    errors = {r.getMessage() for r in caplog.records if r.levelno == logging.ERROR}
    assert "roi must be finite, got inf" in errors
    assert not [m for m in errors if "JSON compliant" in m]
