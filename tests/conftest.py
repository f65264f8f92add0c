import numpy as np
import pytest

from lanefuse.config import RunConfig
from lanefuse.double_edge import DoubleEdgeSet
from lanefuse.fusion import build_params


def random_lane_set(rng: np.random.Generator, n_d: int, n_p: int) -> DoubleEdgeSet:
    points = rng.uniform(-50.0, 50.0, (n_d, n_p, 3))
    occ = rng.integers(0, 2, (n_d, n_p))
    plan = rng.integers(0, 2, (n_d, n_p))
    intr = rng.integers(0, 2, n_d)
    dire = rng.integers(0, 2, n_d)
    return DoubleEdgeSet(points, occ, plan, intr, dire)


@pytest.fixture(scope="session")
def run_config() -> RunConfig:
    return RunConfig()


@pytest.fixture(scope="session")
def param_store(run_config):
    return build_params(run_config.block_config())
