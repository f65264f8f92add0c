"""Run configuration: model dimensions, seeds, grids, loss and controller
settings, and the named scene suites. One JSON file plus flag overrides is
the whole reproducibility surface; all randomness flows from the two seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .fusion import BlockConfig
from .heads_losses import LossConfig, LossWeights
from .io_utils import from_json
from .pillar import GridSpec
from .scene_synth import SceneSpec
from .sim_eval import ControllerConfig, EvalConfig

__all__ = ["RunConfig", "derive_seed", "SUITE_NAMES"]

SUITE_NAMES = ("reference", "trivial")

# Most controller steps one episode may take, ceil(horizon / controller.dt).
# Every step keeps a trajectory row until the episode ends: a parked ego on a
# red-signal reference scene at the cap raised peak RSS by 177 MB (~186 B a
# step) and took 0.84 s (Python 3.11, numpy, 2-CPU x86-64 host).
MAX_EPISODE_STEPS = 1_000_000


def derive_seed(base: int, index: int) -> int:
    """Stable per-scene seed derived from a master seed."""
    return int(np.random.SeedSequence([base, index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class RunConfig:
    n_d: int = 6
    n_p: int = 20
    e_dim: int = 32
    k_layers: int = 2
    heads: int = 4
    c_channels: int = 16
    view_h: int = 8
    view_w: int = 8
    seed_scene: int = 42
    seed_params: int = 7
    lidar_density: float = 3.0
    lidar_noise_sigma: float = 0.02
    r_max: float = 2.0
    voxel_resolution: tuple[float, float, float] = (0.5, 0.5, 0.5)
    pillar_resolution: tuple[float, float, float] = (0.5, 0.5, 8.0)
    bounds_min: tuple[float, float, float] = (-20.0, -60.0, 0.0)
    bounds_max: tuple[float, float, float] = (170.0, 130.0, 8.0)
    horizon: float = 60.0
    bench_repeats: int = 10
    suite: str = "reference"
    loss_weights: LossWeights = field(default_factory=LossWeights)
    loss_config: LossConfig = field(default_factory=LossConfig)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    eval_config: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        for name in ("n_d", "e_dim", "k_layers", "c_channels", "view_h", "view_w"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        for name in ("r_max", "lidar_density", "horizon"):
            if not getattr(self, name) > 0.0:  # NaN fails too
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if not self.lidar_noise_sigma >= 0.0:
            raise ValueError(f"lidar_noise_sigma must be >= 0, got {self.lidar_noise_sigma!r}")
        for name in ("voxel_resolution", "pillar_resolution"):
            if not all(r > 0.0 for r in getattr(self, name)):
                raise ValueError(f"{name} must be > 0 on every axis, got {getattr(self, name)!r}")
        if not all(lo < hi for lo, hi in zip(self.bounds_min, self.bounds_max)):
            raise ValueError(f"bounds_min must be below bounds_max on every axis, got "
                             f"{self.bounds_min!r} and {self.bounds_max!r}")
        if self.horizon / self.controller.dt > MAX_EPISODE_STEPS:
            raise ValueError(f"horizon {self.horizon!r} s at controller.dt {self.controller.dt!r} s "
                             f"takes more than {MAX_EPISODE_STEPS} steps")
        if self.n_p % 2 != 0 or self.n_p < 4:  # generate_scene's bound
            raise ValueError(f"n_p must be even and >= 4, got {self.n_p}")
        if self.heads < 1 or self.e_dim % self.heads != 0:
            raise ValueError(f"e_dim {self.e_dim} not divisible by heads {self.heads}")
        if self.e_dim % 4 != 0:
            raise ValueError(f"e_dim must be divisible by 4 for 2D encoding, got {self.e_dim}")
        if not isinstance(self.bench_repeats, int) or self.bench_repeats < 1:
            raise ValueError(f"bench_repeats must be an int >= 1, got {self.bench_repeats!r}")
        if self.suite not in SUITE_NAMES:
            raise ValueError(f"suite must be one of {SUITE_NAMES}, got {self.suite!r}")
        span = self.bounds_max[2] - self.bounds_min[2]
        if abs(self.pillar_resolution[2] - span) > 1e-9:
            raise ValueError(
                f"pillar_resolution dz {self.pillar_resolution[2]} must equal "
                f"the z span {span} (single z bin)"
            )

    def block_config(self) -> BlockConfig:
        return BlockConfig(layers=self.k_layers, heads=self.heads, embed=self.e_dim,
                           seed=self.seed_params, n_d=self.n_d, n_p=self.n_p,
                           c_channels=self.c_channels, view_h=self.view_h, view_w=self.view_w)

    def voxel_spec(self) -> GridSpec:
        return GridSpec(resolution=self.voxel_resolution,
                        bounds_min=self.bounds_min, bounds_max=self.bounds_max)

    def pillar_spec(self) -> GridSpec:
        return GridSpec(resolution=self.pillar_resolution,
                        bounds_min=self.bounds_min, bounds_max=self.bounds_max)

    def suite_specs(self) -> list[SceneSpec]:
        rows = _SUITES[self.suite]
        return [
            SceneSpec(seed=derive_seed(self.seed_scene, i),
                      lane_count=lanes, geometry=geom, radius=radius,
                      lane_width=3.5, route_length=length, agent_count=agents,
                      clutter_density=clutter, traffic_signal=signal)
            for i, (geom, radius, lanes, agents, clutter, signal, length) in enumerate(rows)
        ]

    # -- JSON round trip -----------------------------------------------------

    @classmethod
    def from_obj(cls, obj) -> "RunConfig":
        return from_json(cls, obj, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        return cls.from_obj(json.loads(Path(path).read_text("utf-8")))

    def with_overrides(self, **kwargs) -> "RunConfig":
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **kwargs) if kwargs else self


# (geometry, radius, lane_count, agent_count, clutter_density, signal, route_length)
_SUITES: dict[str, list[tuple]] = {
    "reference": [
        ("straight", None, 1, 0, 0.0, "none", 100.0),
        ("straight", None, 2, 1, 0.5, "green", 100.0),
        ("straight", None, 3, 2, 1.0, "none", 120.0),
        ("arc", 60.0, 1, 0, 0.5, "none", 90.0),
        ("arc", 80.0, 2, 1, 1.0, "none", 110.0),
        ("arc", 70.0, 3, 2, 0.0, "green", 100.0),
        ("intersection", None, 2, 1, 0.5, "red", 100.0),
        ("intersection", None, 3, 2, 1.0, "green", 120.0),
        ("intersection", None, 4, 3, 0.5, "none", 100.0),
        ("straight", None, 4, 4, 1.5, "red", 120.0),
    ],
    "trivial": [
        ("straight", None, 1, 0, 0.0, "none", 100.0),
        ("straight", None, 1, 0, 0.0, "none", 100.0),
        ("straight", None, 1, 0, 0.0, "none", 100.0),
    ],
}
