"""The allocator policy that importing lanefuse sets: glibc's mmap and trim
thresholds are pinned, so a warm forward pass or gt eval faults in (almost)
no fresh pages. Without it, every warm ``run_pipeline`` call faulted its
attention scores and LiDAR temporaries back in (~900 minor faults per call,
~3,700 per reference suite)."""

import ctypes
import resource
from types import SimpleNamespace

import pytest

import lanefuse
from lanefuse.cli import main
from lanefuse.config import RunConfig
from lanefuse.fusion import build_params
from lanefuse.pipeline import run_pipeline
from lanefuse.scene_synth import generate_scene


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def test_pins_mmap_then_trim_threshold():
    calls = []
    lanefuse._pin_malloc_thresholds(SimpleNamespace(mallopt=lambda *args: calls.append(args)))
    assert calls == [(-3, lanefuse._MMAP_THRESHOLD), (-1, lanefuse._TRIM_THRESHOLD)]


def test_no_mallopt_is_a_silent_no_op():
    lanefuse._pin_malloc_thresholds(object())


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_warm_passes_fault_in_no_fresh_pages(tmp_path):
    cfg = RunConfig(seed_scene=42, suite="reference")
    store = build_params(cfg.block_config())
    scenes = [generate_scene(spec, n_p=cfg.n_p) for spec in cfg.suite_specs()]
    argv = ["eval", "--planner", "gt", "--suite", "reference", "--seed-scene", "42",
            "--out", str(tmp_path)]
    for scene in scenes:  # warm-up
        run_pipeline(scene, cfg, store)
    assert main(argv) == 0

    before = minor_faults()
    for i in range(10):
        run_pipeline(scenes[i % len(scenes)], cfg, store)
    assert minor_faults() - before <= 10 * 10
    before = minor_faults()
    assert main(argv) == 0
    assert minor_faults() - before <= 100
