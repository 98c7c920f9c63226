import numpy as np
import pytest

from chancompat.linalg import (
    HERMITIAN_TOL,
    is_hermitian,
    partial_trace,
    trace_distance,
    trace_norm,
)
from conftest import random_density, random_hermitian


class TestPartialTrace:
    def test_product_state_factorizes(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        out = partial_trace(np.kron(a, b), [2, 2], keep={0})
        assert np.allclose(out, np.trace(b) * a)

    def test_singlet_marginal_is_maximally_mixed(self):
        psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rho = np.outer(psi, psi)
        assert np.allclose(partial_trace(rho, [2, 2], keep={1}), np.eye(2) / 2)

    def test_random_three_qubit_vs_loop_oracle(self, rng):
        # every nonempty keep, also on unequal dims, where swapped axes
        # change the shape or the values
        for dims in ((2, 2, 2), (2, 3, 2)):
            m = random_hermitian(rng, int(np.prod(dims)))
            m = m @ m.conj().T  # PSD
            t = m.reshape(dims + dims)
            for keep in ({0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}):
                kept = [dims[s] for s in sorted(keep)]
                want = np.zeros((int(np.prod(kept)),) * 2, dtype=complex)
                for row in np.ndindex(*dims):
                    for col in np.ndindex(*dims):
                        if all(row[s] == col[s] for s in range(3) if s not in keep):
                            i = np.ravel_multi_index([row[s] for s in sorted(keep)], kept)
                            j = np.ravel_multi_index([col[s] for s in sorted(keep)], kept)
                            want[i, j] += t[row + col]
                got = partial_trace(m, dims, keep=keep)
                assert got.shape == want.shape
                assert np.allclose(got, want), (dims, keep)

    def test_trace_preserved_and_full_trace(self, rng):
        m = random_hermitian(rng, 8)
        out = partial_trace(m, [2, 4], keep={1})
        assert abs(np.trace(out) - np.trace(m)) < 1e-12
        total = partial_trace(m, [8], keep={0})
        assert np.allclose(total, m)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), [2, 2], keep={0})
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 2], keep=set())
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), [2, 2], keep={2})


@pytest.mark.parametrize(
    "call, phrase",
    [
        (lambda: partial_trace(np.ones((2, 4)), [2, 2], keep={0}), "square"),
        (lambda: partial_trace(np.eye(4), [-2, -2], keep={0}), "positive"),
        (lambda: trace_distance(np.array([[0.5, 1.0], [0.0, 0.5]]), np.eye(2) / 2), "Hermitian"),
    ],
    ids=["non-square", "non-positive-dims", "non-hermitian"],
)
def test_rejects_malformed_input(call, phrase):
    with pytest.raises(ValueError, match=phrase):
        call()


class TestTraceNorm:
    def test_negative_diagonal(self):
        w = 0.37
        assert abs(trace_norm(np.diag([-w, -w, -w])) - 3 * w) < 1e-12

    def test_identity(self):
        assert abs(trace_norm(np.eye(5)) - 5) < 1e-12

    def test_matches_spectral_oracle(self, rng):
        s = rng.normal(size=(3, 3))
        w = np.linalg.eigh(s.T @ s)[0]
        assert abs(trace_norm(s) - np.sum(np.sqrt(np.maximum(w, 0)))) < 1e-9

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            trace_norm(np.ones((2, 3)))


class TestTraceDistance:
    def test_orthogonal_states(self):
        assert abs(trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) - 1) < 1e-12

    def test_equal_states(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) < 1e-12

    def test_depolarizing_closed_form(self):
        for w in (0.2, 0.55, 0.9):
            rho = np.diag([(1 + w) / 2, (1 - w) / 2])
            sigma = np.diag([(1 - w) / 2, (1 + w) / 2])
            assert abs(trace_distance(rho, sigma) - w) < 1e-12

    def test_symmetric_and_bounded(self, rng):
        for _ in range(20):
            rho, sigma = random_density(rng, 4), random_density(rng, 4)
            d1 = trace_distance(rho, sigma)
            d2 = trace_distance(sigma, rho)
            assert abs(d1 - d2) < 1e-12
            assert -1e-12 <= d1 <= 1 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2), np.eye(3))


def test_is_hermitian_tolerance():
    h = np.array([[1.0, 1e-13j], [-1e-13j, 2.0]])
    assert is_hermitian(h)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def _skewed(d):
    """|0><0| with d added above the diagonal: it differs from its adjoint by d."""
    return np.array([[1.0, d], [0.0, 0.0]])


class TestHermiticityBoundaries:
    """Each hermiticity check rejects a matrix just past its tolerance and accepts one just inside it."""

    def test_default_tolerance(self):
        assert not is_hermitian(_skewed(1.5e-12)) and is_hermitian(_skewed(0.5e-12))

    def test_trace_distance_tolerance(self):
        past, inside = 1.5 * HERMITIAN_TOL, 0.5 * HERMITIAN_TOL
        with pytest.raises(ValueError, match="Hermitian"):
            trace_distance(_skewed(past), np.eye(2) / 2)
        with pytest.raises(ValueError, match="Hermitian"):
            trace_distance(np.eye(2) / 2, _skewed(past))
        assert abs(trace_distance(_skewed(inside), np.eye(2) / 2) - 0.5) <= 1e-12
        assert abs(trace_distance(np.eye(2) / 2, _skewed(inside)) - 0.5) <= 1e-12
