import numpy as np
import pytest

from chancompat import sdp
from chancompat.linalg import partial_trace
from conftest import random_hermitian


class TestCoordinates:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_hermitian_roundtrip(self, rng, d):
        h = random_hermitian(rng, d)
        v = sdp.pack(h)
        assert v.shape == (d * d,)
        assert np.max(np.abs(sdp.unpack(v, d) - h)) < 1e-14

    def test_isometry(self, rng):
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        inner = np.trace(a @ b).real
        assert abs(sdp.pack(a) @ sdp.pack(b) - inner) < 1e-12

    def test_real_symmetric_roundtrip(self, rng):
        s = rng.normal(size=(4, 4))
        s = s + s.T
        v = sdp.pack(s, real=True)
        assert v.shape == (10,)
        assert np.max(np.abs(sdp.unpack(v, 4, real=True) - s)) < 1e-14

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_linear_map_matrix_of_identity_is_exact(self, d, real):
        op = sdp.linear_map_matrix(lambda x: x, d, d, real)
        assert np.array_equal(op, np.eye(sdp.vec_size(d, real)))

    def test_linear_map_matrix_partial_trace(self, rng):
        op = sdp.linear_map_matrix(lambda x: partial_trace(x, (2, 2), {0}), 4, 2)
        h = random_hermitian(rng, 4)
        got = sdp.unpack(op @ sdp.pack(h), 2)
        assert np.max(np.abs(got - partial_trace(h, (2, 2), {0}))) < 1e-12


def eigenvalue_lp(h):
    """max t s.t. X >= 0, X + t*I = h; optimum is the smallest eigenvalue."""
    prob = sdp.SdpProblem()
    prob.add_psd_block("x", h.shape[0], real=bool(np.max(np.abs(h.imag)) == 0))
    prob.add_scalar("t")
    prob.set_objective("max", scalar_coeffs={"t": 1.0})
    prob.add_matrix_equality({"x": 1.0}, scalar_mats={"t": np.eye(h.shape[0])}, rhs=h)
    return prob


class TestSolve:
    def test_eigenvalue_lp_diag(self):
        sol = sdp.solve(eigenvalue_lp(np.diag([1.0, 2.0]).astype(complex)))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-7
        assert sol.primal_residual < 1e-7 and sol.dual_residual < 1e-7

    def test_eigenvalue_lp_random(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4)
            h /= np.linalg.norm(h)
            sol = sdp.solve(eigenvalue_lp(h))
            assert sol.status == "optimal"
            assert abs(sol.objective_value - np.linalg.eigvalsh(h)[0]) < 1e-7

    def test_solution_blocks_are_psd(self, rng):
        sol = sdp.solve(eigenvalue_lp(random_hermitian(rng, 4)))
        w = np.linalg.eigvalsh(sol.block_values["x"])
        assert w[0] >= -1e-8

    def test_planted_flat_objective(self, rng):
        d, m = 3, 4
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x_star = g @ g.conj().T
        mats = [random_hermitian(rng, d) for _ in range(m)]
        y = rng.normal(size=m)
        c = sum(yj * aj for yj, aj in zip(y, mats))
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", d)
        prob.set_objective("max", block_mats={"x": c})
        target = 0.0
        for yj, aj in zip(y, mats):
            bj = np.trace(aj @ x_star).real
            prob.add_scalar_equality(block_mats={"x": aj}, rhs=bj)
            target += yj * bj
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - target) < 1e-6

    def test_infeasible_program_runs_out_of_iterations(self):
        # there is no infeasibility exit: a program without a feasible point
        # ends at max_iters or at a non-finite step, never reported optimal,
        # and returns its last finite iterate
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2, real=True)
        prob.set_objective("min", block_mats={"x": np.eye(2)})
        prob.add_matrix_equality({"x": 1.0}, rhs=-np.eye(2))
        sol = sdp.solve(prob, max_iters=2000)
        assert sol.status == "max_iterations"
        assert np.all(np.isfinite(sol.block_values["x"]))
        assert np.isfinite(sol.objective_value) and np.isfinite(sol.dual_objective)

    def test_deterministic_replay(self, rng):
        h = random_hermitian(rng, 4)
        s1 = sdp.solve(eigenvalue_lp(h))
        s2 = sdp.solve(eigenvalue_lp(h))
        assert s1.iterations == s2.iterations
        assert s1.objective_value == s2.objective_value
        assert np.array_equal(s1.block_values["x"], s2.block_values["x"])

    def test_max_iters_env_override(self, rng, monkeypatch):
        monkeypatch.setenv("SOLVER_MAX_ITERS", "3")
        sol = sdp.solve(eigenvalue_lp(random_hermitian(rng, 4)))
        assert sol.status == "max_iterations"
        assert sol.iterations == 3

    def test_dim_guard(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("big", 40)
        prob.set_objective("min", block_mats={"big": np.eye(40)})
        with pytest.raises(sdp.SdpBuildError):
            sdp.solve(prob)


class TestProblemValidation:
    def test_matrix_equality_row_count(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 3)
        prob.add_matrix_equality({"x": 1.0}, rhs=np.eye(3).astype(complex))
        # 3 diagonal + 3 real upper + 3 imaginary upper
        assert prob.n_constraints == 9

    def test_real_block_row_count(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 3, real=True)
        prob.add_matrix_equality({"x": 1.0}, rhs=np.eye(3))
        assert prob.n_constraints == 6

    def test_rejects_non_hermitian_coefficient(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2)
        with pytest.raises(sdp.SdpBuildError):
            prob.add_scalar_equality(block_mats={"x": np.array([[0, 1], [0, 0]])}, rhs=0.0)

    def test_rejects_unknown_names(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2)
        with pytest.raises(sdp.SdpBuildError):
            prob.add_scalar_equality(block_mats={"y": np.eye(2)}, rhs=1.0)
        with pytest.raises(sdp.SdpBuildError):
            prob.set_objective("max", scalar_coeffs={"q": 1.0})

    def test_rejects_duplicates_and_late_variables(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2)
        with pytest.raises(sdp.SdpBuildError):
            prob.add_psd_block("x", 3)
        prob.add_scalar_equality(block_mats={"x": np.eye(2)}, rhs=1.0)
        with pytest.raises(sdp.SdpBuildError):
            prob.add_scalar("late")

    def test_rejects_dimension_mismatch(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2)
        with pytest.raises(sdp.SdpBuildError):
            prob.add_matrix_equality({"x": 1.0}, rhs=np.eye(3).astype(complex))

    def test_rejects_bad_sense(self):
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 2)
        with pytest.raises(sdp.SdpBuildError):
            prob.set_objective("maximize")
