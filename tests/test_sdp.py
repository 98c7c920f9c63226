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
        # unpack inverts pack exactly on pack's coordinates, and maps them
        # back to the matrix up to one rounding, exactly on the diagonal
        h = random_hermitian(rng, d)
        v = sdp.pack(h)
        assert v.shape == (d * d,)
        back = sdp.unpack(v, d)
        assert back.shape == (d, d) and back.dtype == complex
        assert np.array_equal(np.diag(back), np.diag(h)) and np.array_equal(back, back.conj().T)
        assert np.max(np.abs(back - h)) <= 4 * np.finfo(float).eps * np.max(np.abs(h))
        assert np.array_equal(sdp.pack(back), v)

    def test_isometry(self, rng):
        a, b = random_hermitian(rng, 4), random_hermitian(rng, 4)
        inner = np.trace(a @ b).real
        assert abs(sdp.pack(a) @ sdp.pack(b) - inner) < 1e-12

    def test_real_symmetric_roundtrip(self, rng):
        s = rng.normal(size=(4, 4))
        s = s + s.T
        v = sdp.pack(s, real=True)
        assert v.shape == (10,)
        back = sdp.unpack(v, 4, real=True)
        assert back.dtype == float and np.array_equal(back, back.T) and np.array_equal(np.diag(back), np.diag(s))
        assert np.max(np.abs(back - s)) <= 4 * np.finfo(float).eps * np.max(np.abs(s))
        assert np.array_equal(sdp.pack(back, real=True), v)
        # a stack unpacks matrix by matrix
        stack = sdp.unpack(np.array([v, 2 * v]), 4, real=True)
        assert np.array_equal(stack[0], back) and np.array_equal(stack[1], sdp.unpack(2 * v, 4, real=True))

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_coord_map_matches_loop_reference(self, d, real):
        # the coordinate map unpacks the unit vectors: one basis matrix per
        # pack coordinate, in pack's order
        dtype, s = (float if real else complex), np.sqrt(2.0)
        pairs = list(zip(*np.triu_indices(d, 1)))
        units = [((k, k, 1.0),) for k in range(d)]
        units += [((i, j, 1 / s), (j, i, 1 / s)) for i, j in pairs]
        units += [] if real else [((i, j, 1j / s), (j, i, -1j / s)) for i, j in pairs]
        want = np.zeros((d * d, len(units)), dtype)
        for a, entries in enumerate(units):
            for i, j, value in entries:
                want[i * d + j, a] = value
        got = sdp.unpack(np.eye(len(units)), d, real)
        assert got.dtype == want.dtype and np.array_equal(got.reshape(len(units), d * d).T, want)
        # every zero is +0.0, so that products with the basis carry no signed zeros
        assert not np.signbit(got.view(float)[got.view(float) == 0]).any()

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
        program = sdp.SdpProgram(
            blocks={"x": (d, False)},
            scalars=(),
            a=np.array([sdp.pack(aj) for aj in mats]),
            c=-sdp.pack(c),
        )
        sol = sdp.solve(sdp.SdpProblem(program, b))
        assert sol.status == "optimal"
        assert abs(-sol.objective_value - y @ b) < 1e-6

    def test_infeasible_program_runs_out_of_iterations(self):
        # there is no infeasibility exit: a program without a feasible point
        # ends at max_iters or at a non-finite step, never reported optimal,
        # and returns its last finite iterate
        program = sdp.SdpProgram(
            blocks={"x": (2, True)},
            scalars=(),
            a=np.eye(3),
            c=sdp.pack(np.eye(2), real=True),
        )
        sol = sdp.solve(sdp.SdpProblem(program, sdp.pack(-np.eye(2), real=True)), max_iters=2000)
        assert sol.status == "max_iterations"
        assert np.all(np.isfinite(sol.block_values["x"]))
        assert np.isfinite(sol.objective_value) and np.isfinite(sol.dual_objective)

    def test_inconsistent_equalities_are_not_optimal(self):
        # a repeated row with another right-hand side: the reduced program
        # converges, but b lies outside the row space of a
        prob = _eigenvalue_lp(np.diag([1.0, 2.0]), real=True)
        program = replace(prob.program, a=np.vstack([prob.program.a, prob.program.a[:1]]))
        sol = sdp.solve(sdp.SdpProblem(program, np.append(prob.b, prob.b[0] + 0.5)))
        assert sol.status == "max_iterations"
        assert sol.primal_residual > 0.2

    def test_slightly_inconsistent_equalities_get_no_bracket(self):
        # a repeated row whose right-hand side differs by delta: b leaves the
        # row space by |delta| / (sqrt(2) |row|) after row normalization, here
        # 1e-7 relative to 1 + |b|, 100 times DEFAULT_EPS. The reduced program
        # still converges, but to no feasible point: no status "optimal", and
        # no bracket, which only feasible programs have
        ident = isometry_channel(np.eye(2))
        prob = channel_feasibility_problem(ident, ident, None, NoiseClass.GENERIC)
        assert sdp.solve(prob).status == "optimal" and sdp.solve(prob).bracket is not None
        a = np.vstack([prob.program.a, prob.program.a[:1]])
        norms = np.linalg.norm(a, axis=1)
        delta = 1e-7 * np.sqrt(2) * norms[0] * (1 + np.linalg.norm(np.append(prob.b, prob.b[0]) / norms))
        sol = sdp.solve(sdp.SdpProblem(replace(prob.program, a=a), np.append(prob.b, prob.b[0] + delta)))
        assert sol.status == "max_iterations" and sol.bracket is None
        assert sol.iterations < sdp.DEFAULT_MAX_ITERS

    @pytest.mark.parametrize("column", ["absent", "twin"])
    def test_undetermined_free_scalar_is_rejected(self, column):
        # a second scalar in no row, or only ever beside t as t + s: the
        # equalities cannot fix it, so the program is refused when it is built
        program = _eigenvalue_lp(np.diag([1.0, 2.0]), real=True).program
        extra = np.zeros((3, 1)) if column == "absent" else program.a[:, -1:]
        with pytest.raises(sdp.SdpBuildError, match="leave a free scalar undetermined"):
            replace(program, scalars=("t", "s"), a=np.hstack([program.a, extra]), c=np.append(program.c, 0.0))

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
        # iterations == max_iters never holds below 0 or between integers,
        # so -1 or 1.5 would lift the cap; numpy integers are integral
        problem = _eigenvalue_lp(random_hermitian(rng, 4), real=False)
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match=f"max_iters must be a nonnegative integer, got {bad}"):
                sdp.solve(problem, max_iters=bad)
        assert sdp.solve(problem, max_iters=np.int64(1)).iterations == 1

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
        with pytest.raises(sdp.SdpBuildError, match="exceeds guard"):
            sdp.SdpProgram(blocks={"big": (40, False)}, scalars=(), a=np.zeros((0, 1600)), c=sdp.pack(np.eye(40)))


def _shared_eigenvalue_lp(hs: dict) -> sdp.SdpProblem:
    """min -t s.t. X_k + t * 1 = H_k, X_k >= 0 for each named (H_k, real):
    the optimum is minus the smallest eigenvalue of all the H_k."""
    t_col = np.concatenate([sdp.pack(np.eye(h.shape[0]), real) for h, real in hs.values()])
    program = sdp.SdpProgram(
        blocks={name: (h.shape[0], real) for name, (h, real) in hs.items()},
        scalars=("t",),
        a=np.hstack([np.eye(t_col.size), t_col[:, None]]),
        c=-np.eye(t_col.size + 1)[-1],
    )
    return sdp.SdpProblem(program, np.concatenate([sdp.pack(h, real) for h, real in hs.values()]))


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
        # [X; Z] once and makes one Schur solve and one eigh per direction;
        # only the last step may end at its predictor point (h = 1), and
        # skip the corrector's solve and eigh
        calls = {"cholesky": 0, "eigh": 0, "solve": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                if sys._getframe(1).f_globals["__name__"] == sdp.__name__:
                    calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        steps, step = [], sdp._step

        def recording(x, z, y, *args):
            steps.append([(x, z, y)])
            for direction in step(x, z, y, *args):
                steps[-1].append(direction)
                yield direction

        monkeypatch.setattr(sdp, "_step", recording)
        ends = []
        for hs, cap in [({"x": (random_hermitian(rng, 4), False)}, None), (_four_blocks(rng), None),
                        (_four_blocks(rng), 3)]:
            problem = _shared_eigenvalue_lp(hs)    # the program is factored before counting
            calls.update(cholesky=0, eigh=0, solve=0)
            steps.clear()
            sol = sdp.solve(problem, max_iters=cap)
            assert sol.status == ("optimal" if cap is None else "max_iterations")
            assert sol.iterations == len(steps) == (cap or sol.iterations) > 0
            h = 2 * sol.iterations - calls["eigh"]
            assert calls == {"cholesky": sol.iterations, "eigh": 2 * sol.iterations - h,
                             "solve": 2 * sol.iterations - h}
            assert [len(s) - 1 for s in steps] == [2] * (sol.iterations - 1) + [2 - h]
            # the solve returns the point of the last direction it took: a
            # predictor's at its edge lengths, a corrector's at its step lengths
            (x, z, y), *_, (*full, dx, dz, dy, edge) = steps[-1]
            ap, ad = edge if h else full
            assert np.array_equal(sol.iterate[1], x + ap * dx)
            assert np.array_equal(sol.iterate[2], z + ad * dz)
            assert np.array_equal(sol.iterate[3], y + ad * dy)
            # the edge lengths come from the step's own eigenvalues: they reach
            # EDGE_FRACTION of the way to the boundary where the step goes
            # BOUNDARY_FRACTION, and leave X and Z that margin inside the cone
            for length, taken, old, new in zip(edge, full, (x, z), sol.iterate[1:3]):
                assert taken <= length <= 1.0
                assert length == 1.0 or abs(length / taken - sdp.EDGE_FRACTION / sdp.BOUNDARY_FRACTION) <= 1e-12
                l_inv = np.linalg.inv(np.linalg.cholesky(old))
                assert np.linalg.eigvalsh(l_inv @ new @ l_inv.conj().T)[0] >= (1 - sdp.EDGE_FRACTION) * (1 - 1e-4)
            ends.append(h)
        # converged solves end at a predictor point, a capped one after a corrector
        assert ends == [1, 1, 0]

    def test_sweep_factors_each_shape_once(self, monkeypatch, tmp_path):
        svd, solve, factored, solves = np.linalg.svd, sdp.solve, [], []

        def counting_svd(a, *args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == sdp.__name__:
                factored.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_solve(problem, *args, **kwargs):
            solves.append(problem.program.a.shape)
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(sdp, "solve", counting_solve)
        sys.modules["chancompat.robustness"]._program.cache_clear()
        out = tmp_path / "f.csv"
        assert chancompat.cli.main(["figure", "--id", "1", "--t-step", "0.1", "-o", str(out)]) == 0
        # 11 points, one program shape per noise class
        assert len(solves) == 22
        assert sorted(factored) == sorted(set(solves)) and len(factored) == 2

    def test_repeat_solves_factor_nothing(self, rng, monkeypatch):
        # a program is factored when it is built: no solve of its problems,
        # cold, repeated or warm, makes an SVD or a QR call
        problem = channel_feasibility_problem(random_channel(rng), random_channel(rng), None, NoiseClass.GENERIC)
        calls = []
        for name in ("svd", "qr"):
            def counting(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
        first = sdp.solve(problem)
        assert_same_solve(sdp.solve(problem), first)
        assert sdp.solve(problem, warm=first).iterations == 0
        assert calls == []
        replace(problem.program)    # a new build factors anew
        assert calls == ["svd", "qr"]

    def test_mutated_rows_give_the_new_program(self):
        # a program keeps read-only copies of its rows and objective: changing
        # the caller's array changes nothing, and only a program built from
        # the changed rows has the new optimum
        h = np.diag([1.0, 3.0])
        rows, c = (v.copy() for v in (_eigenvalue_lp(h, real=True).program.a, -np.eye(4)[-1]))
        program = sdp.SdpProgram({"x": (2, True)}, ("t",), rows, c)
        prob = sdp.SdpProblem(program, sdp.pack(h, real=True))
        before = sdp.solve(prob)
        assert abs(-before.objective_value - 1.0) < 1e-7
        rows[:, -1] *= 2.0    # X + 2 t 1 = h: the optimum halves
        c[-1] = 0.0
        after = sdp.solve(prob)
        assert_same_solve(after, before)
        assert after.primal_residual == before.primal_residual
        for name in ("a", "c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(program, name)[-1] *= 2.0
        with pytest.raises(TypeError):
            program.blocks["x"] = (3, True)
        sol = sdp.solve(sdp.SdpProblem(replace(program, a=rows), prob.b))
        assert abs(-sol.objective_value - 0.5) < 1e-7


class TestWarmStart:
    def test_nearby_program_converges_in_fewer_iterations(self, rng):
        # the eigenvalue LP keeps its program; only b = pack(h) moves
        h = random_hermitian(rng, 4)
        first = _eigenvalue_lp(h, real=False)
        old = sdp.solve(first)
        problem = replace(first, b=sdp.pack(h + 1e-3 * random_hermitian(rng, 4)))
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

    def test_start_from_a_twin_program_replays_the_cold_solve(self, rng):
        # a warm start needs the very program object that made the iterate;
        # a program built separately from the same rows starts cold
        h = random_hermitian(rng, 4)
        problem = _eigenvalue_lp(h, real=False)
        old = sdp.solve(problem)
        assert sdp.solve(problem, warm=old).iterations == 0
        twin = _eigenvalue_lp(h, real=False)
        assert np.array_equal(twin.program.a, problem.program.a) and np.array_equal(twin.b, problem.b)
        cold = sdp.solve(twin)
        assert cold.iterations > 0
        assert_same_solve(sdp.solve(twin, warm=old), cold)

    def test_start_is_moved_toward_the_identity_by_the_missed_share_of_b(self):
        # theta = |b - A x_old| / (1 + |b|) in the PSD-only rows, b = N^T b
        # once the free scalars are eliminated, and X and Z both move theta
        # of the way to 1
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        first = _eigenvalue_lp(h, real=True)
        old = sdp.solve(first, max_iters=3)
        problem = replace(first, b=sdp.pack(2 * h, real=True))
        start = sdp.solve(problem, warm=old, max_iters=0)
        program, x_old, z_old, _ = old.iterate
        f = program.factored
        b = f.null.T @ (f.u.T @ (problem.b / f.norms) / f.s)
        theta = np.linalg.norm(b - f.flat @ sdp._vec(x_old)) / (1 + np.linalg.norm(b))
        assert 0 < theta < 1
        eye = np.eye(len(x_old))
        assert np.allclose(start.iterate[1], (1 - theta) * x_old + theta * eye, rtol=0, atol=1e-14)
        assert np.allclose(start.iterate[2], (1 - theta) * z_old + theta * eye, rtol=0, atol=1e-14)
        # a residual as large as 1 + |b| caps theta at 1: the cold start
        far = sdp.solve(replace(first, b=sdp.pack(-h, real=True)), warm=old, max_iters=0)
        assert np.array_equal(far.iterate[1], eye) and np.array_equal(far.iterate[2], eye)


def _random_pd_blocks(rng, problem, layout, dtype):
    """A block-diagonal positive definite matrix on the program's blocks,
    real on its real ones."""
    n = layout[-1][1].stop
    out = np.zeros((n, n), dtype)
    for (d, real), (_, diag, _) in zip(problem.program.blocks.values(), layout):
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
        f = problem.program.factored
        # the rows as the (m, D, D) block-diagonal stack whose real buffers flat holds
        mats = f.flat.view(f.obj.dtype).reshape(-1, *f.obj.shape)
        assert mats.shape[1] == {"four_blocks": 11, "complex_d28": 28, "real_d48": 48}[program]
        x, z = (_random_pd_blocks(rng, problem, f.layout, mats.dtype) for _ in range(2))
        w = np.linalg.inv(z)
        assert not w[x == 0].any()   # Z^-1 keeps the zero off-diagonal blocks
        dense = f.flat @ sdp._vec(x @ mats @ w).T
        got = sdp._schur(x, w, f.sides, f.packed)
        assert got.shape == dense.shape == (mats.shape[0],) * 2
        assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestProblemValidation:
    def test_matrix_equality_row_count(self):
        # a 3 x 3 equality: 3 diagonal + 3 real upper + 3 imaginary upper rows
        assert _eigenvalue_lp(np.eye(3), real=False).program.a.shape == (9, 10)

    def test_real_block_row_count(self):
        assert _eigenvalue_lp(np.eye(3), real=True).program.a.shape == (6, 7)

    def test_rejects_dimension_mismatch(self):
        prob = _eigenvalue_lp(np.eye(2), real=False)
        with pytest.raises(sdp.SdpBuildError):
            replace(prob, b=np.zeros(3))
        with pytest.raises(sdp.SdpBuildError):
            replace(prob.program, c=np.zeros(4))
        with pytest.raises(sdp.SdpBuildError):
            replace(prob.program, blocks={"x": (3, False)})
