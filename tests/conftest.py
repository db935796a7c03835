"""Shared fixtures: seeding, certified optima, hypothesis profile."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pdeabcd import analysis, oracle
from pdeabcd.presets import make_instance

SEED = int(os.environ.get("PDEABCD_SEED", "0"))

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def seed() -> int:
    return SEED


@pytest.fixture()
def rng():
    # fresh generator per test so ordering cannot leak between tests
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def sine2():
    return make_instance("sine", 2)


@pytest.fixture(scope="session")
def shifted2():
    return make_instance("shifted", 2)


@pytest.fixture(scope="session")
def zero2():
    return make_instance("zero", 2)


@pytest.fixture(scope="session")
def certified_sine2(sine2):
    return sine2, oracle.certified_optimum(sine2)


@pytest.fixture(scope="session")
def certified_shifted2(shifted2):
    return shifted2, oracle.certified_optimum(shifted2)


@pytest.fixture(scope="session")
def golden():
    path = os.path.join(os.path.dirname(analysis.__file__), "data",
                        "golden.json")
    with open(path) as fh:
        return json.load(fh)
