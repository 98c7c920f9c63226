import json
import math

import numpy as np
import pytest

from chancompat.channels import Channel, Povm
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


def isometry_channel(v):
    # the Choi matrix of rho -> v rho v^+ is |vec v><vec v|, vec v = sum_i |i> (x) v|i>
    vec = v.T.reshape(-1).astype(complex)
    return Channel(v.shape[1], v.shape[0], np.outer(vec, vec.conj()))


def channel_json(ch):
    """The --choi file of a channel, in the schema that channel_from_json reads."""
    return json.dumps({"din": ch.din, "dout": ch.dout, "choi_re": ch.choi.real.tolist(),
                       "choi_im": ch.choi.imag.tolist()})


def assert_same_solve(s1, s2):
    """Bit for bit the same solve: every reported number and the last iterate."""
    fields = ("status", "iterations", "objective_value", "dual_objective", "bracket", "scalar_values")
    assert [getattr(s1, f) for f in fields] == [getattr(s2, f) for f in fields]
    assert s1.block_values.keys() == s2.block_values.keys()
    assert all(np.array_equal(s1.block_values[k], s2.block_values[k]) for k in s1.block_values)
    assert all(np.array_equal(a, b) for a, b in zip(s1.iterate[1:], s2.iterate[1:]))


def trine_povm():
    """Qubit trine: effects (2/3)|psi(theta)><psi(theta)| with
    |psi(theta)> = (cos theta/2, sin theta/2), theta in {0, 2pi/3, 4pi/3}."""
    kets = [np.array([math.cos(th / 2), math.sin(th / 2)]) for th in (0, 2 * math.pi / 3, 4 * math.pi / 3)]
    return Povm(tuple(2 / 3 * np.outer(k, k) for k in kets), 2)
