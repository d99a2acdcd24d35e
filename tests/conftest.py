import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from scipy.special import expit

from pbrdr import Dataset

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
