import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from shiftflex import (
    VertexShift,
    bernoulli_measure,
    full_shift,
    golden_mean_shift,
    parry_measure,
)

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

PHI = (1 + 5**0.5) / 2


@pytest.fixture
def full2():
    return full_shift(2)


@pytest.fixture
def full3():
    return full_shift(3)


@pytest.fixture
def golden():
    return golden_mean_shift()


@pytest.fixture
def golden_parry(golden):
    return parry_measure(golden)


@pytest.fixture
def uniform2(full2):
    return bernoulli_measure(full2, [0.5, 0.5])


def random_irreducible_shift(rng, max_states=6):
    """Rejection-sample an irreducible 0/1 matrix."""
    from shiftflex import is_irreducible

    while True:
        n = int(rng.integers(1, max_states + 1))
        m = (rng.random((n, n)) < 0.55).astype(int)
        shift = VertexShift(m)
        if is_irreducible(shift):
            return shift


def dense_perron(shift):
    """(spectral radius, right vector summing to 1, left vector with
    left @ right = 1) of the shift's matrix from numpy's dense `eig`."""
    dense = shift.dense().astype(np.float64)
    values, vectors = np.linalg.eig(dense)
    top = np.argmax(values.real)
    right = np.abs(vectors[:, top].real)
    right /= right.sum()
    values_t, vectors_t = np.linalg.eig(dense.T)
    left = np.abs(vectors_t[:, np.argmax(values_t.real)].real)
    return float(values[top].real), right, left / (left * right).sum()
