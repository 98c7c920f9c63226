from dataclasses import replace

import numpy as np
import pytest

from chancompat import sdp
from chancompat.linalg import partial_trace
from chancompat.validation import _eigenvalue_lp
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


class TestSolve:
    def test_eigenvalue_lp_diag(self):
        sol = sdp.solve(_eigenvalue_lp(np.diag([1.0, 2.0]), real=True))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-7
        assert sol.primal_residual < 1e-7 and sol.dual_residual < 1e-7

    def test_eigenvalue_lp_random(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4)
            h /= np.linalg.norm(h)
            sol = sdp.solve(_eigenvalue_lp(h, real=False))
            assert sol.status == "optimal"
            assert abs(sol.objective_value - np.linalg.eigvalsh(h)[0]) < 1e-7

    def test_solution_blocks_are_psd(self, rng):
        sol = sdp.solve(_eigenvalue_lp(random_hermitian(rng, 4), real=False))
        w = np.linalg.eigvalsh(sol.block_values["x"])
        assert w[0] >= -1e-8

    def test_planted_flat_objective(self, rng):
        d, m = 3, 4
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x_star = g @ g.conj().T
        mats = [random_hermitian(rng, d) for _ in range(m)]
        y = rng.normal(size=m)
        c = sum(yj * aj for yj, aj in zip(y, mats))
        b = np.array([np.trace(aj @ x_star).real for aj in mats])
        prob = sdp.SdpProblem(
            blocks={"x": (d, False)},
            scalars=(),
            a=np.array([sdp.pack(aj) for aj in mats]),
            b=b,
            c=sdp.pack(c),
            sense="max",
        )
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - y @ b) < 1e-6

    def test_infeasible_program_runs_out_of_iterations(self):
        # there is no infeasibility exit: a program without a feasible point
        # ends at max_iters or at a non-finite step, never reported optimal,
        # and returns its last finite iterate
        prob = sdp.SdpProblem(
            blocks={"x": (2, True)},
            scalars=(),
            a=np.eye(3),
            b=sdp.pack(-np.eye(2), real=True),
            c=sdp.pack(np.eye(2), real=True),
            sense="min",
        )
        sol = sdp.solve(prob, max_iters=2000)
        assert sol.status == "max_iterations"
        assert np.all(np.isfinite(sol.block_values["x"]))
        assert np.isfinite(sol.objective_value) and np.isfinite(sol.dual_objective)

    def test_deterministic_replay(self, rng):
        h = random_hermitian(rng, 4)
        s1 = sdp.solve(_eigenvalue_lp(h, real=False))
        s2 = sdp.solve(_eigenvalue_lp(h, real=False))
        assert s1.iterations == s2.iterations
        assert s1.objective_value == s2.objective_value
        assert np.array_equal(s1.block_values["x"], s2.block_values["x"])

    def test_default_max_iters_caps_solve(self, rng, monkeypatch):
        # the cap is read when solve is called, and max_iters=0 returns the start
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        sol = sdp.solve(problem)
        assert sol.status == "max_iterations"
        assert sol.iterations == 3
        assert sdp.solve(problem, max_iters=0).iterations == 0

    def test_dim_guard(self):
        prob = sdp.SdpProblem(
            blocks={"big": (40, False)},
            scalars=(),
            a=np.zeros((0, 1600)),
            b=np.zeros(0),
            c=sdp.pack(np.eye(40)),
            sense="min",
        )
        with pytest.raises(sdp.SdpBuildError):
            sdp.solve(prob)


class TestProblemValidation:
    def test_matrix_equality_row_count(self):
        # a 3 x 3 equality: 3 diagonal + 3 real upper + 3 imaginary upper rows
        assert _eigenvalue_lp(np.eye(3), real=False).a.shape == (9, 10)

    def test_real_block_row_count(self):
        assert _eigenvalue_lp(np.eye(3), real=True).a.shape == (6, 7)

    def test_rejects_dimension_mismatch(self):
        prob = _eigenvalue_lp(np.eye(2), real=False)
        with pytest.raises(sdp.SdpBuildError):
            replace(prob, b=np.zeros(3))
        with pytest.raises(sdp.SdpBuildError):
            replace(prob, c=np.zeros(4))
        with pytest.raises(sdp.SdpBuildError):
            replace(prob, blocks={"x": (3, False)})

    def test_rejects_bad_sense(self):
        with pytest.raises(sdp.SdpBuildError):
            replace(_eigenvalue_lp(np.eye(2), real=False), sense="maximize")
