import math
import random

import pytest

from qwalk import closedform_pure, direct
from qwalk.core import CoinParams, PureState


@pytest.fixture(autouse=True)
def forget_kept_walks():
    # the adaptive closed form keeps the last walk's sweeps, and the mixed
    # oracle the last basis pair's site sums; a test starts without them,
    # so work kept from an earlier test cannot stand in for the code a
    # test patches or counts
    closedform_pure._walk.cache_clear()
    direct._pair_sums.cache_clear()


@pytest.fixture
def hadamard() -> CoinParams:
    return CoinParams.hadamard()


@pytest.fixture
def plus_i() -> PureState:
    return PureState.plus_i()


def random_params(rng: random.Random) -> CoinParams:
    # Stay away from theta in {0, pi} where the coin degenerates to the
    # trivial/antidiagonal cases; those get dedicated tests.
    return CoinParams.make(
        rng.uniform(0.05, math.pi - 0.05),
        rng.uniform(0.0, 2.0 * math.pi),
        rng.uniform(0.0, 2.0 * math.pi),
    )


def random_state(rng: random.Random, radius: int = 3) -> PureState:
    sites = {}
    for x in range(-radius, radius + 1):
        if rng.random() < 0.5:
            sites[x] = (
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
                complex(rng.gauss(0, 1), rng.gauss(0, 1)),
            )
    if not sites:
        sites[rng.randint(-radius, radius)] = (1.0 + 0j, 0j)
    norm = math.sqrt(sum(abs(a) ** 2 + abs(b) ** 2 for a, b in sites.values()))
    return PureState({x: (a / norm, b / norm) for x, (a, b) in sites.items()})


def random_bloch(rng: random.Random) -> tuple[float, float, float, float]:
    u, v, w = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
    norm = math.sqrt(u * u + v * v + w * w) or 1.0
    radius = rng.uniform(0.0, 0.5)
    return (0.5, u / norm * radius, v / norm * radius, w / norm * radius)
