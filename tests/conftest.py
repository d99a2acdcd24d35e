import concurrent.futures
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.special import expit

from pbrdr import Dataset, simulation

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def random_dataset(seed, n=120, p=5, signal=0.6):
    """Well-behaved logistic/linear dataset for solver and estimator tests."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    coefs = signal / np.sqrt(np.arange(1, p + 1))
    pi = expit(0.2 + x @ coefs)
    a = (rng.random(n) < pi).astype(float)
    y = 1.0 + x @ coefs[::-1] + rng.standard_normal(n)
    return Dataset(y, a, x)


def write_csv(data, path):
    """Write ``data`` as a ``y,a,x1..xp`` CSV with round-trip-exact floats."""
    header = ",".join(["y", "a"] + [f"x{j}" for j in range(1, data.p + 1)])
    table = np.column_stack([data.y, data.a, data.x])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="")


@pytest.fixture
def dataset():
    return random_dataset(0)


@pytest.fixture
def recorded_pools(monkeypatch):
    """Replace ``concurrent.futures.ProcessPoolExecutor`` by a stand-in that
    records the ``max_workers`` of every pool made and maps in this process,
    so no worker process starts; ``os.cpu_count`` reports 64 unless a test
    patches it again. The runner's kept pool is emptied for the test, so a
    pool kept by an earlier test neither serves its calls nor sees its
    stand-ins. Returns the list of recorded ``max_workers``."""
    made = []

    class Pool:
        def __init__(self, max_workers=None, **kwargs):
            made.append(max_workers)

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(simulation, "_pool", None)
    return made
