import sys
from dataclasses import replace

import numpy as np
import pytest

import chancompat.cli
from chancompat import sdp
from chancompat.linalg import partial_trace
from chancompat.robustness import NoiseClass, channel_feasibility_problem
from chancompat.validation import _eigenvalue_lp
from conftest import assert_same_solve, isometry_channel, random_channel, random_hermitian


class TestCoordinates:
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_hermitian_roundtrip(self, rng, d):
        h = random_hermitian(rng, d)
        v = sdp.pack(h)
        assert v.shape == (d * d,)
        assert np.max(np.abs((sdp._coord_map(d, False) @ v).reshape(d, d) - h)) < 1e-14

    def test_isometry(self, rng):
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        inner = np.trace(a @ b).real
        assert abs(sdp.pack(a) @ sdp.pack(b) - inner) < 1e-12

    def test_real_symmetric_roundtrip(self, rng):
        s = rng.normal(size=(4, 4))
        s = s + s.T
        v = sdp.pack(s, real=True)
        assert v.shape == (10,)
        assert np.max(np.abs((sdp._coord_map(4, True) @ v).reshape(4, 4) - s)) < 1e-14

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_coord_map_matches_loop_reference(self, d, real):
        # one basis matrix per pack coordinate, in pack's order
        dtype, s = (float if real else complex), np.sqrt(2.0)
        pairs = list(zip(*np.triu_indices(d, 1)))
        units = [((k, k, 1.0),) for k in range(d)]
        units += [((i, j, 1 / s), (j, i, 1 / s)) for i, j in pairs]
        units += [] if real else [((i, j, 1j / s), (j, i, -1j / s)) for i, j in pairs]
        want = np.zeros((d * d, len(units)), dtype)
        for a, entries in enumerate(units):
            for i, j, value in entries:
                want[i * d + j, a] = value
        got = sdp._coord_map(d, real)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_linear_map_matrix_of_identity_is_exact(self, d, real):
        op = sdp.linear_map_matrix(lambda x: x, d, d, real)
        assert np.array_equal(op, np.eye(sdp.vec_size(d, real)))

    def test_linear_map_matrix_partial_trace(self, rng):
        op = sdp.linear_map_matrix(lambda x: partial_trace(x, (2, 2), {0}), 4, 2)
        h = random_hermitian(rng, 4)
        got = (sdp._coord_map(2, False) @ (op @ sdp.pack(h))).reshape(2, 2)
        assert np.max(np.abs(got - partial_trace(h, (2, 2), {0}))) < 1e-12


class TestSolve:
    def test_eigenvalue_lp_diag(self):
        # the program is min -t: its optimum is minus the smallest eigenvalue
        sol = sdp.solve(_eigenvalue_lp(np.diag([1.0, 2.0]), real=True))
        assert sol.status == "optimal"
        assert abs(-sol.objective_value - 1.0) < 1e-7
        assert sol.primal_residual < 1e-7 and sol.dual_residual < 1e-7

    def test_eigenvalue_lp_random(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4)
            h /= np.linalg.norm(h)
            sol = sdp.solve(_eigenvalue_lp(h, real=False))
            assert sol.status == "optimal"
            assert abs(-sol.objective_value - np.linalg.eigvalsh(h)[0]) < 1e-7

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
            c=-sdp.pack(c),
        )
        sol = sdp.solve(prob)
        assert sol.status == "optimal"
        assert abs(-sol.objective_value - y @ b) < 1e-6

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
        )
        sol = sdp.solve(prob, max_iters=2000)
        assert sol.status == "max_iterations"
        assert np.all(np.isfinite(sol.block_values["x"]))
        assert np.isfinite(sol.objective_value) and np.isfinite(sol.dual_objective)

    def test_inconsistent_equalities_are_not_optimal(self):
        # a repeated row with another right-hand side: the reduced program
        # converges, but b lies outside the row space of a
        prob = _eigenvalue_lp(np.diag([1.0, 2.0]), real=True)
        prob = replace(prob, a=np.vstack([prob.a, prob.a[:1]]), b=np.append(prob.b, prob.b[0] + 0.5))
        sol = sdp.solve(prob)
        assert sol.status == "max_iterations"
        assert sol.primal_residual > 0.2

    @pytest.mark.parametrize("column", ["absent", "twin"])
    def test_undetermined_free_scalar_is_rejected(self, column):
        # a second scalar in no row, or only ever beside t as t + s: the
        # equalities cannot fix it, so the program is refused before iterating
        prob = _eigenvalue_lp(np.diag([1.0, 2.0]), real=True)
        extra = np.zeros((3, 1)) if column == "absent" else prob.a[:, -1:]
        prob = replace(prob, scalars=("t", "s"), a=np.hstack([prob.a, extra]), c=np.append(prob.c, 0.0))
        with pytest.raises(sdp.SdpBuildError, match="leave a free scalar undetermined"):
            sdp.solve(prob)

    def test_deterministic_replay(self, rng):
        h = random_hermitian(rng, 4)
        s1 = sdp.solve(_eigenvalue_lp(h, real=False))
        s2 = sdp.solve(_eigenvalue_lp(h, real=False))
        assert s1.iterations == s2.iterations
        assert s1.objective_value == s2.objective_value
        assert np.array_equal(s1.block_values["x"], s2.block_values["x"])
        # the wall time stays out of equality
        assert s1.seconds > 0 and replace(s1, seconds=s1.seconds + 1.0) == s1

    def test_default_max_iters_caps_solve(self, rng, monkeypatch):
        # the cap is read when solve is called, and max_iters=0 returns the start
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        sol = sdp.solve(problem)
        assert sol.status == "max_iterations"
        assert sol.iterations == 3
        assert sdp.solve(problem, max_iters=0).iterations == 0

    def test_negative_max_iters_is_rejected(self, rng):
        # iterations == max_iters never holds below 0, so -1 would lift the cap
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        with pytest.raises(ValueError, match="max_iters must be nonnegative, got -1"):
            sdp.solve(problem, max_iters=-1)

    def test_failed_factorization_returns_the_last_iterate(self, rng, monkeypatch):
        # a LinAlgError inside a step ends the solve, like a non-finite step
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        calls, cholesky = [], np.linalg.cholesky

        def failing(a):
            calls.append(a)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        sol = sdp.solve(problem)
        assert sol.status == "max_iterations"
        assert sol.iterations == 2
        assert all(np.isfinite(v).all() for v in sol.block_values.values())

    def test_dim_guard(self):
        prob = sdp.SdpProblem(
            blocks={"big": (40, False)},
            scalars=(),
            a=np.zeros((0, 1600)),
            b=np.zeros(0),
            c=sdp.pack(np.eye(40)),
        )
        with pytest.raises(sdp.SdpBuildError):
            sdp.solve(prob)


def _shared_eigenvalue_lp(hs: dict) -> sdp.SdpProblem:
    """min -t s.t. X_k + t * 1 = H_k, X_k >= 0 for each named (H_k, real):
    the optimum is minus the smallest eigenvalue of all the H_k."""
    t_col = np.concatenate([sdp.pack(np.eye(h.shape[0]), real) for h, real in hs.values()])
    return sdp.SdpProblem(
        blocks={name: (h.shape[0], real) for name, (h, real) in hs.items()},
        scalars=("t",),
        a=np.hstack([np.eye(t_col.size), t_col[:, None]]),
        b=np.concatenate([sdp.pack(h, real) for h, real in hs.values()]),
        c=-np.eye(t_col.size + 1)[-1],
    )


def _four_blocks(rng) -> dict:
    """Four blocks of three kinds: two complex 3 x 3, a real 3 x 3 and a real 2 x 2."""
    sym = rng.normal(size=(3, 3))
    return {
        "p": (random_hermitian(rng, 3), False),
        "q": (sym + sym.T, True),
        "r": (random_hermitian(rng, 3), False),
        "s": (np.diag([2.0, 5.0]), True),
    }


class TestBlockDiagonalIterate:
    def test_block_order_does_not_change_the_optimum(self, rng):
        # the blocks are diagonal slices of one complex iterate, in the order
        # given; the real ones come back as real matrices
        hs = _four_blocks(rng)
        twin_order = ("p", "r", "s", "q")
        s1 = sdp.solve(_shared_eigenvalue_lp(hs))
        s2 = sdp.solve(_shared_eigenvalue_lp({name: hs[name] for name in twin_order}))
        assert s1.status == s2.status == "optimal"
        lam_min = min(np.linalg.eigvalsh(h)[0] for h, _ in hs.values())
        assert abs(-s1.objective_value - lam_min) < 1e-7
        assert abs(s1.objective_value - s2.objective_value) <= 1e-9
        for name, (h, real) in hs.items():
            assert s1.block_values[name].dtype == (float if real else complex)
            assert np.max(np.abs(s1.block_values[name] - s2.block_values[name])) <= 1e-9

    def test_one_factorization_and_two_eigh_per_iteration(self, rng, monkeypatch):
        # however many blocks and kinds, an iteration factors the stacked
        # [X; Z] once and takes one eigh per step length
        calls = {"cholesky": 0, "eigh": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if sys._getframe(1).f_globals["__name__"] == sdp.__name__:
                    calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        for hs in ({"x": (random_hermitian(rng, 4), False)}, _four_blocks(rng)):
            calls.update(cholesky=0, eigh=0)
            sol = sdp.solve(_shared_eigenvalue_lp(hs))
            assert sol.status == "optimal" and sol.iterations > 0
            assert calls == {"cholesky": sol.iterations, "eigh": 2 * sol.iterations}

    def test_sweep_factors_each_shape_once(self, monkeypatch, tmp_path):
        svd, solve, factored, solves = np.linalg.svd, sdp.solve, [], []

        def counting_svd(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == sdp.__name__:
                factored.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_solve(problem, *args, **kwargs):
            solves.append(problem.a.shape)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(sdp, "solve", counting_solve)
        sdp._reduce.cache_clear()
        out = tmp_path / "f.csv"
        assert chancompat.cli.main(["figure", "--id", "1", "--t-step", "0.1", "-o", str(out)]) == 0
        # 11 points, one program shape per noise class
        assert len(solves) == 22
        assert sorted(factored) == sorted(set(solves)) and len(factored) == 2

    def test_mutated_rows_give_the_new_program(self):
        # the shape cache keys on the content of a, not on the array
        prob = _eigenvalue_lp(np.diag([1.0, 3.0]), real=True)
        assert abs(-sdp.solve(prob).objective_value - 1.0) < 1e-7
        prob.a[:, -1] *= 2.0    # X + 2 t 1 = h: the optimum halves
        sol = sdp.solve(prob)
        assert abs(-sol.objective_value - 0.5) < 1e-7
        assert sol.objective_value == sdp.solve(replace(prob, a=prob.a.copy())).objective_value


class TestWarmStart:
    def test_nearby_program_converges_in_fewer_iterations(self, rng):
        # the eigenvalue LP keeps a and c; only b = pack(h) moves
        h = random_hermitian(rng, 4)
        old = sdp.solve(_eigenvalue_lp(h, real=False))
        problem = _eigenvalue_lp(h + 1e-3 * random_hermitian(rng, 4), real=False)
        cold, warm = sdp.solve(problem), sdp.solve(problem, warm=old)
        assert cold.status == warm.status == "optimal"
        assert abs(warm.objective_value - cold.objective_value) <= 1e-8
        assert warm.iterations < cold.iterations
        # its own converged iterate is already optimal
        assert sdp.solve(problem, warm=cold).iterations == 0

    @pytest.mark.parametrize("other", ["cd-generic", "real-complex", "eigenvalue-lp"])
    def test_start_from_another_shape_replays_the_cold_solve(self, other, rng):
        ch1, ch2 = random_channel(rng), random_channel(rng)
        ident = isometry_channel(np.eye(2))
        problem, donor = {
            "cd-generic": (
                channel_feasibility_problem(ident, ident, None, NoiseClass.COMPLETELY_DEPOLARIZING),
                channel_feasibility_problem(ident, ident, None, NoiseClass.GENERIC),
            ),
            "real-complex": (
                channel_feasibility_problem(ident, ident, None, NoiseClass.GENERIC),
                channel_feasibility_problem(ch1, ch2, None, NoiseClass.GENERIC),
            ),
            "eigenvalue-lp": (
                channel_feasibility_problem(ch1, ch2, None, NoiseClass.GENERIC),
                _eigenvalue_lp(random_hermitian(rng, 4), real=False),
            ),
        }[other]
        cold = sdp.solve(problem)
        assert_same_solve(sdp.solve(problem, warm=sdp.solve(donor)), cold)
        assert_same_solve(sdp.solve(donor, warm=cold), sdp.solve(donor))

    def test_start_from_an_evicted_shape_replays_the_cold_solve(self, rng):
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        old = sdp.solve(problem)
        assert sdp.solve(problem, warm=old).iterations == 0
        sdp._reduce.cache_clear()    # the shape is factored anew
        cold = sdp.solve(problem)
        assert cold.iterations > 0
        assert_same_solve(sdp.solve(problem, warm=old), cold)

    def test_start_is_moved_toward_the_identity_by_the_missed_share_of_b(self):
        # theta = |b - A x_old| / (1 + |b|) in the PSD-only rows, b = N^T b
        # once the free scalars are eliminated, and X and Z both move theta
        # of the way to 1
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        old = sdp.solve(_eigenvalue_lp(h, real=True), max_iters=3)
        problem = _eigenvalue_lp(2 * h, real=True)
        start = sdp.solve(problem, warm=old, max_iters=0)
        reduced, x_old, z_old, _ = old.iterate
        norms, (u, s), _, _, flat, _, (_, null, _) = reduced
        b = null.T @ (u.T @ (problem.b / norms) / s)
        theta = np.linalg.norm(b - flat @ sdp._vec(x_old)) / (1 + np.linalg.norm(b))
        assert 0 < theta < 1
        eye = np.eye(len(x_old))
        assert np.allclose(start.iterate[1], (1 - theta) * x_old + theta * eye, rtol=0, atol=1e-14)
        assert np.allclose(start.iterate[2], (1 - theta) * z_old + theta * eye, rtol=0, atol=1e-14)
        # a residual as large as 1 + |b| caps theta at 1: the cold start
        far = sdp.solve(_eigenvalue_lp(-h, real=True), warm=old, max_iters=0)
        assert np.array_equal(far.iterate[1], eye) and np.array_equal(far.iterate[2], eye)


def _random_pd_blocks(rng, problem, layout, dtype):
    """A block-diagonal positive definite matrix on the program's blocks,
    real on its real ones."""
    n = layout[-1][1].stop
    out = np.zeros((n, n), dtype)
    for (d, real), (_, diag, _) in zip(problem.blocks.values(), layout):
        g = rng.normal(size=(d, d)) + (0 if real else 1j * rng.normal(size=(d, d)))
        out[diag, diag] = g @ g.conj().T + np.eye(d)
    return out


class TestSchurComplement:
    @pytest.mark.parametrize("program", ["four_blocks", "complex_d28", "real_d48"])
    def test_block_by_block_matches_the_dense_product(self, program, rng):
        # the dense reference forms Re tr(A_i X A_j W) over the whole D x D
        # iterate, zero off-diagonal blocks included
        problem = {
            "four_blocks": lambda: _shared_eigenvalue_lp(_four_blocks(rng)),
            "complex_d28": lambda: channel_feasibility_problem(
                random_channel(rng, 2, 2), random_channel(rng, 2, 4), None, NoiseClass.GENERIC),
            "real_d48": lambda: channel_feasibility_problem(
                *(isometry_channel(np.linalg.qr(rng.normal(size=(4, 2)))[0]) for _ in range(2)),
                None, NoiseClass.GENERIC),
        }[program]()
        a = np.ascontiguousarray(problem.a)
        _, _, layout, mats, flat, schur, _ = sdp._reduce(
            a.tobytes(), a.shape, tuple(problem.blocks.values()), len(problem.scalars))
        assert mats.shape[1] == {"four_blocks": 11, "complex_d28": 28, "real_d48": 48}[program]
        x, z = (_random_pd_blocks(rng, problem, layout, mats.dtype) for _ in range(2))
        w = np.linalg.inv(z)
        assert not w[x == 0].any()   # Z^-1 keeps the zero off-diagonal blocks
        dense = flat @ sdp._vec(x @ mats @ w).T
        got = sdp._schur(x, w, *schur)
        assert got.shape == dense.shape == (mats.shape[0],) * 2
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


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
