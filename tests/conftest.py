import numpy as np
import pytest

from chancompat.validation import random_channel  # noqa: F401 - re-exported for the tests


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
