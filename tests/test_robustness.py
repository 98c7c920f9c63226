import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chancompat import sdp
from chancompat.channels import (
    Channel,
    Povm,
    channel_from_json,
    compose,
    constant_map,
    depolarizing_choi,
    depolarizing_map,
    eternal_choi,
    eternal_map,
    identity_channel,
    identity_map,
    measurement_channel,
    projective_povm,
)
from chancompat.linalg import HERMITIAN_TOL, partial_trace
from chancompat.figures import FIGURES, LAM, OMEGA, default_t_grid
from chancompat.robustness import (
    DR,
    R_TOL,
    _grid,
    _program,
    NoiseClass,
    RobustnessResult,
    SweepRecord,
    channel_feasibility_problem,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from chancompat.validation import _figure_records, random_basis
from chancompat.witness import indivisibility_from_curve
from conftest import assert_same_solve, divisible_on, isometry_channel, random_channel, trine_povm
from refine_tail import MAX_ITERATIONS, draw_pairs

CD = NoiseClass.COMPLETELY_DEPOLARIZING
GEN = NoiseClass.GENERIC

IDENT = identity_channel(2)
CD_CHANNEL = Channel(2, 2, np.eye(4) / 2)   # rho -> 1/2, Choi 1 (x) 1/2


class TestNoiseClass:
    def test_accepts_members_and_cli_names(self):
        for nc in NoiseClass:
            assert NoiseClass(nc) is nc
        assert NoiseClass("generic") is GEN
        assert NoiseClass("cd") is CD

    def test_rejects_other_spellings_before_compiling(self, monkeypatch):
        def build(*args):
            raise AssertionError("program built for an unknown noise class")

        monkeypatch.setattr(sys.modules["chancompat.robustness"], "channel_feasibility_problem", build)
        with pytest.raises(ValueError, match="'g' is not a valid NoiseClass"):
            robustness(IDENT, IDENT, noise="g")
        with pytest.raises(ValueError, match="'completely_depolarizing' is not a valid NoiseClass"):
            feasibility_q(IDENT, IDENT, 0.1, "completely_depolarizing")


class TestFeasibilityQ:
    def test_cd_pair_compatible_at_zero(self):
        assert feasibility_q(CD_CHANNEL, CD_CHANNEL, 0.0, GEN) >= -1e-8

    def test_identity_pair_incompatible_at_zero(self):
        assert feasibility_q(IDENT, IDENT, 0.0, GEN) < -1e-3
        assert feasibility_q(IDENT, IDENT, 0.0, CD) < -1e-3

    def test_any_pair_compatible_at_one(self, rng):
        for noise in (GEN, CD):
            assert feasibility_q(IDENT, IDENT, 1.0, noise) >= -1e-8
        ch1, ch2 = random_channel(rng), random_channel(rng)
        assert feasibility_q(ch1, ch2, 1.0, GEN) >= -1e-8

    def test_monotone_in_r(self):
        qs = [feasibility_q(IDENT, IDENT, r, CD) for r in (0.0, 0.2, 0.4, 0.5, 0.8)]
        assert all(b >= a - 1e-9 for a, b in zip(qs, qs[1:]))

    @pytest.mark.parametrize("r", [0.2, 0.6])
    def test_value_is_the_margin_of_a_joint_channel(self, r):
        # the pinned solve's blocks give a joint channel G of the noisy pair
        # (C_i + r N_i) / (1 + r); q is lambda_min(G), read without the dual
        sol = sdp.solve(channel_feasibility_problem(IDENT, IDENT, r, GEN))
        joint, q_scaled = sol.block_values["joint"], sol.scalar_values["q"]
        g = (joint + q_scaled * np.eye(8)) / (1 + r)
        for keep, name in (({0, 1}, "noise1"), ({0, 2}, "noise2")):
            noise = sol.block_values[name] / r
            assert np.linalg.eigvalsh(noise)[0] >= -1e-9
            assert np.max(np.abs(partial_trace(noise, (2, 2), {0}) - np.eye(2))) <= 1e-9
            marginal = partial_trace(g, (2, 2, 2), keep)
            assert np.max(np.abs(marginal - (IDENT.choi + r * noise) / (1 + r))) <= 1e-9
        q = feasibility_q(IDENT, IDENT, r, GEN)
        assert abs(q - np.linalg.eigvalsh(g)[0]) <= 1e-8
        assert (q > 0) == (r > 1 / 3)   # r* = 1/3

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            feasibility_q(IDENT, IDENT, -0.1, GEN)

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        with pytest.raises(RuntimeError, match="did not converge"):
            feasibility_q(IDENT, IDENT, 0.3, GEN)

    def test_rejects_input_dim_mismatch(self):
        wide = Channel(3, 2, np.eye(6) / 2)
        with pytest.raises(ValueError):
            feasibility_q(IDENT, wide, 0.0, GEN)


def test_solution_satisfies_compatibility_equations(rng):
    # the blocks read back by name solve the program the module docstring states
    pairs = [
        (IDENT, depolarizing_choi(0.7)),
        (random_channel(rng), random_channel(rng)),
        (measurement_channel(trine_povm()), measurement_channel(projective_povm(np.eye(2)))),
        # two real 2 -> 4 isometries: a 32 x 32 joint block, the largest that passes DIM_GUARD
        tuple(isometry_channel(np.linalg.qr(rng.normal(size=(4, 2)))[0]) for _ in range(2)),
    ]
    for ch1, ch2 in pairs:
        din, d1, d2 = ch1.din, ch1.dout, ch2.dout
        for noise in (GEN, CD):
            sol = sdp.solve(channel_feasibility_problem(ch1, ch2, None, noise))
            assert sol.status == "optimal"
            r = sol.scalar_values["r"]
            joint, n1, n2 = (sol.block_values[k] for k in ("joint", "noise1", "noise2"))
            n_in = n1.shape[0] // d1
            embed = np.eye(din // n_in)
            for keep, noise_block, ch in (({0, 1}, n1, ch1), ({0, 2}, n2, ch2)):
                marginal = partial_trace(joint, (din, d1, d2), keep) - np.kron(embed, noise_block)
                assert np.max(np.abs(marginal - ch.choi)) <= 1e-7
                tr_out = partial_trace(noise_block, (n_in, ch.dout), {0})
                assert np.max(np.abs(tr_out - r * np.eye(n_in))) <= 1e-7
            for block in (joint, n1, n2):
                assert np.linalg.eigvalsh(block)[0] >= -1e-8
    p1 = channel_feasibility_problem(IDENT, depolarizing_choi(0.7), None, GEN)
    p2 = channel_feasibility_problem(depolarizing_choi(0.5), depolarizing_choi(0.9), None, GEN)
    assert p1.program is p2.program and not p1.program.a.flags.writeable


def _near_unitary(rng, dout=2):
    # a random qubit -> dout isometry channel mixed with random_channel at weight 0.85-1:
    # pairs of random_channel alone are almost always compatible
    p = rng.uniform(0.85, 1.0)
    v = random_basis(rng, dout)[:, :2]
    return Channel(2, dout, p * isometry_channel(v).choi + (1 - p) * random_channel(rng, 2, dout).choi)


class TestDataProcessing:
    """The paper's theorem: if G is a joint channel of (F1, F2), then
    (V1 (x) V2) o G o E is one of (V1 o F1 o E, V2 o F2 o E), and V o noise
    and noise o E are noise of the same class. So local post-processing and
    common pre-processing never raise the robustness, and along a
    CP-divisible map it never rises. This checks the theorem, not the
    program's equations, which test_solution_satisfies_compatibility_equations
    checks."""

    def test_processing_never_raises_robustness(self):
        rng = np.random.default_rng(2023)
        values = []
        for k in range(16):
            f1, f2, v2, e = (_near_unitary(rng) for _ in range(4))
            v1 = _near_unitary(rng, 3 if k % 4 == 0 else 2)   # qubit -> qutrit: the d1 = 3, d2 = 2 program
            processed = [(compose(v1, f1), compose(v2, f2)), (compose(f1, e), compose(f2, e))]
            for noise in (GEN, CD):
                before = robustness(f1, f2, noise, refine=True)
                for g1, g2 in processed:
                    after = robustness(g1, g2, noise, refine=True)
                    assert not (before.indeterminate or after.indeterminate)
                    assert after.r_star <= before.r_star + 1e-7
                    values.append(after.r_star)
        assert len(values) == 64 and sum(r > 0 for r in values) >= 48

    def test_cp_divisible_chain_never_rises(self):
        # r(1, L_k) along L_k = V_k o ... o V_1, the measure's identity reference
        rng = np.random.default_rng(2024)
        positive = 0
        for noise in (GEN, CD):
            for _ in range(3):
                chain, curve = IDENT, []
                for _ in range(11):
                    res = robustness(IDENT, chain, noise, refine=True)
                    assert not res.indeterminate
                    curve.append(res.r_star)
                    chain = compose(_near_unitary(rng), chain)
                assert all(b <= a + 1e-7 for a, b in zip(curve, curve[1:]))
                assert indivisibility_from_curve(range(11), curve).n_raw == 0
                positive += sum(r > 0 for r in curve)
        assert positive >= 50


class TestIntermediateMapOracle:
    """The paper: r can rise only where the pair's maps are CP-indivisible.
    The intermediate-map test marks those intervals of the default grid
    directly, and each rise of a refined r (by more than 1e-7, per interval
    and noise class) must fall in one. Figures 4 and 5 rise on every
    indivisible interval, in both classes; the eternal map of figure 6 is
    indivisible on all but one and never rises, so the converse fails."""

    @pytest.mark.parametrize("fig, indivisible, rises", [(1, 0, 0), (4, 50, 100), (5, 50, 100), (6, 99, 0)])
    def test_rises_lie_on_indivisible_intervals(self, fig, indivisible, rises):
        spec, grid = FIGURES[fig], default_t_grid()
        marked = {
            k for k, (t0, t1) in enumerate(zip(grid, grid[1:]))
            if not (divisible_on(spec.map1, t0, t1) and divisible_on(spec.map2, t0, t1))
        }
        records = sweep(spec.map1, spec.map2, grid, refine=True)
        assert not any(rec.indeterminate for rec in records)
        rising = {
            (k, nc) for k, (a, b) in enumerate(zip(records, records[1:])) for nc in NoiseClass
            if b.r(nc) - a.r(nc) > 1e-7
        }
        assert {k for k, _ in rising} <= marked
        assert len(marked) >= indivisible and len(rising) >= rises
        if fig in (1, 6):
            assert len(marked) == indivisible and not rising
        else:    # the two-way match, class by class
            assert all({k for k, n in rising if n is nc} == marked for nc in NoiseClass)


def test_size_guard_runs_before_compiling(monkeypatch):
    # real 2 -> 4 and 2 -> 8 isometries: embedded dimension 64 + 8 + 16 = 88 > DIM_GUARD
    def compile_op(*args):
        raise AssertionError("program compiled before the size guard")

    monkeypatch.setattr(sdp, "linear_map_matrix", compile_op)
    ch1, ch2 = isometry_channel(np.eye(4)[:, :2]), isometry_channel(np.eye(8)[:, :2])
    for noise in (GEN, CD):
        with pytest.raises(sdp.SdpBuildError, match="exceeds guard"):
            robustness(ch1, ch2, noise)


def _block_assembly(din, d1, d2, n_in, real, min_r):
    """a as six single-output operators placed by hand in a zero-padded
    block layout, with the scalar's column last: the reference for the
    compile from the four equalities."""
    def op(fn, d_in):
        return sdp.linear_map_matrix(lambda x: [fn(x)], d_in, real)

    def embed(d):
        return op(lambda e: np.kron(np.eye(din // n_in), e), n_in * d)

    def tp(d):
        return op(lambda x: partial_trace(x, (n_in, d), {0}), n_in * d)

    dims = (din, d1, d2)
    t1 = op(lambda x: partial_trace(x, dims, {0, 1}), din * d1 * d2)
    t2 = op(lambda x: partial_trace(x, dims, {0, 2}), din * d1 * d2)
    e1, e2, tp1, tp2 = embed(d1), embed(d2), tp(d1), tp(d2)
    nj, n1, n2, m1, m2, k = t1.shape[1], e1.shape[1], e2.shape[1], t1.shape[0], t2.shape[0], tp1.shape[0]
    z = np.zeros
    if min_r:
        scalar = np.concatenate([z(m1 + m2), np.tile(sdp.pack(-np.eye(n_in), real), 2)])
    else:
        scalar = np.concatenate([sdp.pack(d2 * np.eye(din * d1), real),
                                 sdp.pack(d1 * np.eye(din * d2), real), z(2 * k)])
    return np.column_stack([np.block([
        [t1, -e1, z((m1, n2))],
        [t2, z((m2, n1)), -e2],
        [z((k, nj)), tp1, z((k, n2))],
        [z((k, nj)), z((k, n1)), tp2],
    ]), scalar])


class TestCompiledProgram:
    @pytest.mark.parametrize("min_r", [True, False], ids=["robustness", "margin"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    @pytest.mark.parametrize("din", [2, 3])
    def test_a_is_the_block_assembly_bit_for_bit(self, din, noise, real, min_r):
        # every shape up to output dimension 4 that DIM_GUARD admits, signed zeros included
        n_in, compared = (1 if noise is CD else din), 0
        for d1 in (2, 3, 4):
            for d2 in (2, 3, 4):
                if (din * d1 * d2 + n_in * (d1 + d2)) * (1 if real else 2) > sdp.DIM_GUARD:
                    with pytest.raises(sdp.SdpBuildError, match="exceeds guard"):
                        _program(din, d1, d2, n_in, real, min_r)
                    continue
                got, want = _program(din, d1, d2, n_in, real, min_r)[0].a, _block_assembly(din, d1, d2, n_in, real, min_r)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
                assert np.array_equal(np.signbit(got), np.signbit(want))
                compared += 1
        assert compared >= 1

    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    @pytest.mark.parametrize("shape", ["real", "complex"])
    def test_each_program_holds_only_its_unknown(self, shape, noise, rng):
        ch1, ch2 = (IDENT, depolarizing_choi(0.7)) if shape == "real" else (random_channel(rng), random_channel(rng))
        for r, scalars in ((None, ("r",)), (0.4, ("q",))):
            problem = channel_feasibility_problem(ch1, ch2, r, noise)
            assert problem.program.scalars == scalars
            # no row pins a scalar: each one reaches a PSD block
            assert np.all(np.any(problem.program.a[:, : -len(scalars)] != 0, axis=1))

    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    def test_pairs_of_one_shape_share_the_compiled_program(self, noise, rng):
        pairs = [(random_channel(rng), random_channel(rng)) for _ in range(2)]
        for r in (None, 0.4):
            first, second = (channel_feasibility_problem(*pair, r, noise) for pair in pairs)
            assert first.program is second.program
            # the certificate is the instance's; only the robustness problem has one
            assert first.certificate == second.certificate and (first.certificate is None) == (r is not None)
            assert not np.array_equal(first.b, second.b)
            with pytest.raises(TypeError):
                first.program.blocks["joint"] = (1, True)
        n_in = 2 if noise is GEN else 1
        trace = 0.4 * sdp.pack(np.eye(n_in), False)
        assert np.array_equal(second.b[-2 * trace.size :], np.concatenate([trace, trace]))

    @pytest.mark.parametrize("shape", ["real", "complex"])
    def test_the_certificate_only_brackets_the_solve(self, shape, rng):
        # a refined solve without its problem's certificate is the same solve, with no bracket
        ch1, ch2 = (IDENT, depolarizing_choi(0.7)) if shape == "real" else (random_channel(rng), random_channel(rng))
        problem = channel_feasibility_problem(ch1, ch2, None, GEN)
        assert problem.program.blocks["joint"][1] is (shape == "real")
        with_cert, without = sdp.solve(problem), sdp.solve(replace(problem, certificate=None))
        assert with_cert.status == "optimal" and with_cert.bracket is not None and without.bracket is None
        assert_same_solve(replace(with_cert, bracket=None), without)

    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    @pytest.mark.parametrize("r", [None, 0.3])
    def test_b_is_the_pack_of_both_choi_matrices_and_r(self, r, noise, rng):
        # b comes from one cached gather; it is the pack, bit for bit, for pairs
        # of different output dimensions and for a Choi matrix stored as floats
        v = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        pairs = [(Channel(2, 2, depolarizing_choi(0.7).choi.real.copy()), IDENT),
                 (random_channel(rng), random_channel(rng, 2, 3)),
                 (compose(isometry_channel(v), depolarizing_choi(0.6)), IDENT)]
        for ch1, ch2 in pairs:
            real = not (ch1.choi.imag.any() or ch2.choi.imag.any())
            one = (r or 0.0) * sdp.pack(np.eye(2 if noise is GEN else 1), real)
            want = np.concatenate([sdp.pack(ch1.choi, real), sdp.pack(ch2.choi, real), one, one])
            assert channel_feasibility_problem(ch1, ch2, r, noise).b.tobytes() == want.tobytes()


class TestChannelRobustness:
    def test_self_compatibility_threshold(self):
        ch = depolarizing_choi(2 / 3)
        assert robustness(ch, ch, CD).r_star == 0.0

    def test_depolarizing_self_pair_analytic(self):
        # CD noise: r* = 3w/2 - 1; generic noise: r* = w - 2/3
        ch = depolarizing_choi(0.8)
        assert abs(robustness(ch, ch, CD, refine=True).r_star - 0.2) < 2e-5
        assert abs(robustness(ch, ch, GEN, refine=True).r_star - (0.8 - 2 / 3)) < 2e-5

    def test_identity_pair_cd(self):
        res = robustness(IDENT, IDENT, CD, refine=True)
        assert abs(res.r_star - 0.5) <= 0.005

    def test_identity_pair_generic(self):
        res = robustness(IDENT, IDENT, GEN, refine=True)
        assert abs(res.r_star - 1 / 3) <= 1e-4

    def test_cd_channel_compatible_with_anything(self, rng):
        res = robustness(CD_CHANNEL, random_channel(rng), GEN)
        assert res.r_star == 0.0

    @pytest.mark.parametrize(
        "ch, expect",
        # CD robustness 1.5 w - 1: 0.5 sits on the grid, 0.3125 halfway between two points
        [(IDENT, 0.5), (depolarizing_choi(0.875), 63 * DR)],
        ids=["identity", "depolarizing"],
    )
    def test_grid_bracketing_probe(self, ch, expect):
        # the grid value is the first multiple of DR at which the pair is compatible
        r_star = robustness(ch, ch, CD).r_star
        assert r_star == expect
        assert feasibility_q(ch, ch, r_star, CD) >= 0 > feasibility_q(ch, ch, r_star - DR, CD)

    def test_symmetry(self, rng):
        ch1, ch2 = random_channel(rng), random_channel(rng)
        r12 = robustness(ch1, ch2, GEN, refine=True).r_star
        r21 = robustness(ch2, ch1, GEN, refine=True).r_star
        assert abs(r12 - r21) < 1e-4

    def test_upward_closure(self, rng):
        for _ in range(3):
            ch1, ch2 = random_channel(rng), random_channel(rng)
            r_star = robustness(ch1, ch2, GEN, refine=True).r_star
            for bump in (0.05, 0.5):
                assert feasibility_q(ch1, ch2, r_star + bump, GEN) >= 0


Z = projective_povm(np.eye(2))
X = projective_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
Y = projective_povm(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2))


def _accepts(build) -> bool:
    """Whether build() passes, where the only refusal allowed is one for Hermiticity."""
    try:
        build()
    except ValueError as exc:
        assert "Hermitian" in str(exc)
        return False
    return True


class TestMeasurementRobustness:
    def test_self_compatible(self):
        m = projective_povm(np.eye(2))
        assert measurement_robustness(m, m).r_star == 0.0

    def test_trivial_povm_compatible(self):
        m = projective_povm(np.eye(2))
        trivial = Povm((np.eye(2, dtype=complex),), 2)
        assert measurement_robustness(m, trivial).r_star == 0.0

    @pytest.mark.parametrize(
        "m1, m2, expect, tol",
        [
            (Z, X, 3 - 2 * math.sqrt(2), 2e-4),
            (trine_povm(), Y, 0.171572894, 1e-6),
            (Povm(tuple(0.8 * e + 0.1 * np.eye(2) for e in X.effects), 2), Z, 0.116718445, 1e-6),
            (trine_povm(), trine_povm(), 0.0, 1e-6),
        ],
        ids=["z-x", "trine-y", "noisy_x-z", "trine-trine"],
    )
    def test_mub_pair_value(self, m1, m2, expect, tol):
        res = measurement_robustness(m1, m2)
        assert not res.indeterminate
        assert abs(res.r_star - expect) < tol

    def test_dimension_mismatch(self):
        m2 = projective_povm(np.eye(2))
        m3 = projective_povm(np.eye(3))
        with pytest.raises(ValueError, match="share the input dimension"):
            measurement_robustness(m2, m3)

    def test_every_accepted_povm_is_an_accepted_channel(self):
        # Povm and the Channel of its measurement_channel accept the same
        # skews, and an accepted Povm then has a robustness
        accepted = []
        for skew in np.geomspace(0.1, 10, 9) * HERMITIAN_TOL:
            off = np.array([[0.0, skew], [0.0, 0.0]])
            effects = (np.diag([1.0, 0.0]) + off, np.diag([0.0, 1.0]) - off)
            unchecked = object.__new__(Povm)   # the same fields, without Povm's checks
            object.__setattr__(unchecked, "effects", tuple(e.astype(complex) for e in effects))
            object.__setattr__(unchecked, "dimension", 2)
            ok = _accepts(lambda: Povm(effects, 2))
            assert _accepts(lambda: measurement_channel(unchecked)) == ok, skew
            if ok:
                res = measurement_robustness(Povm(effects, 2), X)
                assert not res.indeterminate and abs(res.r_star - (3 - 2 * math.sqrt(2))) < 2e-4
            accepted.append(ok)
        assert True in accepted and False in accepted


class TestSweep:
    def test_constant_identity_pair(self):
        grid = [0.0, 0.5, 1.0]
        recs = sweep(identity_map(), identity_map(), grid, noise="both")
        assert [r.t for r in recs] == grid
        assert len({r.r_cd for r in recs}) == 1
        assert len({r.r_generic for r in recs}) == 1
        assert all(r.trace_distance == 1.0 for r in recs)

    def test_both_solves_cd_then_generic(self, monkeypatch):
        module = sys.modules["chancompat.robustness"]
        calls = []

        def traced(ch1, ch2, noise, **kwargs):
            calls.append(noise)
            return robustness(ch1, ch2, noise, **kwargs)

        monkeypatch.setattr(module, "robustness", traced)
        recs = sweep(identity_map(), identity_map(), [0.0, 0.5], noise="both")
        assert calls == [CD, GEN, CD, GEN]
        # the identity pair: generic 1/3 and CD 1/2, each in its own column
        assert [(r.r_generic, r.r_cd) for r in recs] == [pytest.approx((0.335, 0.5))] * 2

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("hi, solved", [(R_TOL, False), (2 * R_TOL, True)], ids=["at-r-tol", "above-r-tol"])
    def test_only_a_cd_bracket_ending_within_r_tol_skips_the_generic_solve(self, hi, solved, refine, monkeypatch):
        # figure 2 at t = 0.1 is a certified CD zero; its bracket is moved to
        # end at hi, so that r_star stays 0 either way
        module, spec, calls = sys.modules["chancompat.robustness"], FIGURES[2], []

        def moved(ch1, ch2, noise, **kwargs):
            calls.append(noise)
            res = robustness(ch1, ch2, noise, **kwargs)
            return replace(res, bracket=(0.0, hi)) if noise is CD else res

        monkeypatch.setattr(module, "robustness", moved)
        (rec,) = sweep(spec.map1, spec.map2, [0.1], refine=refine)
        assert calls == ([CD, GEN] if solved else [CD])
        assert (rec.r_generic, rec.r_cd, rec.indeterminate) == (0.0, 0.0, False)

    @pytest.mark.parametrize("noise", [GEN, CD], ids=lambda nc: nc.name.lower())
    def test_a_single_class_sweep_solves_every_point(self, noise, monkeypatch):
        # figure 2's default grid has 80 certified CD zeros; one class alone skips none
        module, spec, calls = sys.modules["chancompat.robustness"], FIGURES[2], []

        def traced(ch1, ch2, nc, **kwargs):
            calls.append(nc)
            return robustness(ch1, ch2, nc, **kwargs)

        monkeypatch.setattr(module, "robustness", traced)
        recs = sweep(spec.map1, spec.map2, default_t_grid(), noise=noise)
        assert calls == [noise] * len(default_t_grid())
        assert sum(rec.r(noise) == 0 for rec in recs) == 80

    def test_single_noise_class_leaves_other_none(self):
        recs = sweep(identity_map(), depolarizing_map(0.5), [0.0, 0.4], noise="cd")
        assert recs[0].r_generic is None and recs[0].r_cd is not None

    def test_dominance_on_small_grid(self):
        recs = sweep(depolarizing_map(0.5), depolarizing_map(0.5), [0.0, 0.3, 0.6], noise="both")
        for rec in recs:
            assert 0 <= rec.r_generic <= rec.r_cd <= 1 + 1e-6

    def test_unconverged_solve_is_flagged(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        assert robustness(IDENT, IDENT, CD).indeterminate
        (rec,) = sweep(identity_map(), identity_map(), [0.0], noise="both")
        assert rec.indeterminate

    def test_one_dimensional_input_is_rejected_before_solving(self, monkeypatch):
        from chancompat.channels import constant_map

        # the trace-distance column needs two basis states of map2's input
        monkeypatch.setattr(sys.modules["chancompat.robustness"], "robustness", None)
        one = constant_map(Channel(1, 2, np.diag([0.5, 0.5]).astype(complex)))
        with pytest.raises(ValueError, match="din=1"):
            sweep(one, one, [0.0], noise="cd")

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [], noise="cd")
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [0.3, 0.2], noise="cd")
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [-0.1, 0.2], noise="cd")
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(identity_map(), identity_map(), [0.2, 0.2], noise="cd")


def test_default_t_grid_count_slack():
    # a span short of 10 steps by half the 1e-9 slack counts 10 steps, one short by 1.5 times it 9
    assert len(default_t_grid(0.0, 10 - 0.5e-9, 1.0)) == 11
    assert len(default_t_grid(0.0, 10 - 1.5e-9, 1.0)) == 10


@pytest.mark.parametrize(
    "call, phrase",
    [
        (lambda: default_t_grid(math.nan), "t_min must be finite"),
        (lambda: default_t_grid(0.0, math.inf), "t_max must be finite"),
        (lambda: default_t_grid(0.0, 1.0, math.nan), "t_step must be finite"),
        (lambda: sweep(identity_map(), identity_map(), [0.0, math.nan]), "strictly increasing"),
        (lambda: sweep(identity_map(), identity_map(), [math.nan]), "nonnegative"),
        (lambda: identity_map().evaluate(math.nan), "nonnegative"),
        (lambda: eternal_choi(math.nan), "nonnegative"),
        (lambda: feasibility_q(IDENT, IDENT, math.nan, GEN), "nonnegative and finite"),
        (lambda: sweep(identity_map(), depolarizing_map(0.5), [0.0, math.inf], noise="cd"), "finite"),
        (lambda: sweep(identity_map(), eternal_map(), [math.inf]), "finite"),
        (lambda: depolarizing_map(LAM, OMEGA).evaluate(math.inf), "nonnegative and finite"),
        (lambda: eternal_choi(math.inf), "nonnegative and finite"),
    ],
    ids=["t-min-nan", "t-max-inf", "t-step-nan", "grid-nan", "grid-start-nan", "evaluate-nan",
         "eternal-nan", "pinned-r-nan", "grid-inf", "grid-start-inf", "evaluate-inf", "eternal-inf"],
)
def test_non_finite_input_is_rejected_before_building(call, phrase, monkeypatch):
    # NaN fails every comparison, so each check is written to fail on it
    def build(*args, **kwargs):
        raise AssertionError("program built or solved for non-finite input")

    monkeypatch.setattr(sys.modules["chancompat.robustness"], "_program", build)
    monkeypatch.setattr(sdp, "solve", build)
    with pytest.raises(ValueError, match=phrase):
        call()


class TestDynamicalMapRobustness:
    def test_unconverged_solve_is_flagged(self, monkeypatch):
        # robustness along a dynamical map's grid: unconverged points stay flagged
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        recs = sweep(identity_map(), depolarizing_map(0.5, 15.708), [0, 0.1, 0.2], noise=GEN)
        assert any(rec.indeterminate for rec in recs)


class TestRecords:
    def test_sweep_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=0.4, r_cd=0.2, trace_distance=0.5)
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=None, r_cd=1.5, trace_distance=0.5)
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=None, r_cd=1.5, trace_distance=0.5, indeterminate=True)
        # generic <= CD holds within 1e-4: 2e-4 above is refused, 5e-5 above passes
        with pytest.raises(ValueError, match="exceeds CD robustness"):
            SweepRecord(t=0.0, r_generic=0.3 + 2e-4, r_cd=0.3, trace_distance=0.5)
        assert SweepRecord(t=0.0, r_generic=0.3 + 5e-5, r_cd=0.3, trace_distance=0.5).r_generic == 0.3 + 5e-5
        # an unconverged point comes back flagged instead of failing dominance
        rec = SweepRecord(t=0.0, r_generic=0.005, r_cd=0.0, trace_distance=0.5, indeterminate=True)
        assert rec.indeterminate

    @pytest.mark.parametrize("end, past", [(0.0, -math.inf), (1.0, math.inf)], ids=["lower", "upper"])
    def test_sweep_record_range_ends(self, end, past):
        # each end of RobustnessResult's [0, 1] passes, and the next float beyond it is refused
        assert SweepRecord(t=0.0, r_generic=None, r_cd=end, trace_distance=0.5)
        with pytest.raises(ValueError, match="outside"):
            SweepRecord(t=0.0, r_generic=None, r_cd=math.nextafter(end, past), trace_distance=0.5)

    def test_sweep_record_column_by_noise_class(self):
        rec = SweepRecord(t=0.0, r_generic=0.25, r_cd=0.5, trace_distance=0.5)
        for noise in (GEN, "generic"):
            assert rec.r(noise) == rec.r_generic
        for noise in (CD, "cd"):
            assert rec.r(noise) == rec.r_cd
        with pytest.raises(ValueError):
            rec.r("completely_depolarizing")

    def test_robustness_result_validation(self):
        with pytest.raises(ValueError):
            RobustnessResult(r_star=-0.1)
        with pytest.raises(ValueError):
            RobustnessResult(r_star=1.5)


def _w_div(t):
    return math.exp(-LAM * t)


def _w_osc(t):
    return math.exp(-LAM * t) * math.cos(OMEGA * t) ** 2


# shrink factors (w1, w2) of the two depolarizing maps of figures 1-4
FIGURE_WEIGHTS = {
    1: lambda t: (_w_div(t), _w_div(t)),
    2: lambda t: (_w_osc(t), _w_osc(t)),
    3: lambda t: (_w_div(t), _w_osc(t)),
    4: lambda t: (1.0, _w_osc(t)),
}


def closed_form_r_cd(w1, w2):
    # asymmetric cloning region: compatible iff w1^2 + w2^2 + w1 w2 <= w1 + w2
    return max(0.0, (w1 * w1 + w2 * w2 + w1 * w2) / (w1 + w2) - 1.0)


def closed_form_r_generic(w1, w2):
    # the optimal noise is the universal-NOT map; the noisy shrink factors
    # (w_i - r/3) / (1 + r) must then reach the cloning region
    s, q = w1 + w2, w1 * w1 + w2 * w2 + w1 * w2
    if q <= s:
        return 0.0
    return (s - 1 / 3) - math.sqrt((s - 1 / 3) ** 2 - (q - s))


@pytest.mark.parametrize("fig", sorted(FIGURE_WEIGHTS))
def test_depolarizing_figures_match_closed_form(fig):
    for rec in _figure_records(fig):
        w1, w2 = FIGURE_WEIGHTS[fig](rec.t)
        for got, r_cf in ((rec.r_cd, closed_form_r_cd(w1, w2)), (rec.r_generic, closed_form_r_generic(w1, w2))):
            expect = min(math.ceil((r_cf - 1e-6) / DR) * DR, 1.0)
            assert abs(got - expect) <= 1e-9, (rec.t, got, expect)


@pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
@pytest.mark.parametrize("fig", sorted(FIGURE_WEIGHTS))
def test_refined_values_match_closed_form(fig, noise):
    # solver-independent evidence that the stopping rule bounds the error in r
    spec = FIGURES[fig]
    closed_form = closed_form_r_cd if noise is CD else closed_form_r_generic
    for k in range(11):
        t = k / 10
        res = robustness(spec.map1.evaluate(t), spec.map2.evaluate(t), noise, refine=True)
        assert not res.indeterminate
        r_cf = closed_form(*FIGURE_WEIGHTS[fig](t))
        assert abs(res.r_star - (0.0 if r_cf <= 1e-6 else r_cf)) <= 1e-8, (t, res.r_star, r_cf)


def _interior_point(ch1, ch2, noise):
    """The certificate's strictly feasible point: its blocks and its r."""
    din, d1, d2 = ch1.din, ch1.dout, ch2.dout
    n_in = din if noise is GEN else 1
    # 1/d_1 (x) C_2 with the identity on the middle factor, out1
    mid = np.einsum("ibjd,ac->iabjcd", ch2.choi.reshape(din, d2, din, d2), np.eye(d1) / d1)
    joint = np.kron(ch1.choi, np.eye(d2) / d2) + mid.reshape(din * d1 * d2, -1) + np.eye(din * d1 * d2)
    return (joint, (1 / d1 + d2) * np.eye(n_in * d1), (1 / d2 + d1) * np.eye(n_in * d2)), 1 + d1 * d2


class TestBracket:
    @pytest.mark.parametrize("shape", ["real", "complex", "qubit-qutrit"])
    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    def test_interior_point_is_strictly_feasible(self, shape, noise, rng):
        v = np.linalg.qr(rng.normal(size=(3, 2)))[0]
        ch1, ch2 = {
            "real": (IDENT, depolarizing_choi(0.7)),
            "complex": (random_channel(rng), random_channel(rng)),
            "qubit-qutrit": (compose(isometry_channel(v), depolarizing_choi(0.6)), IDENT),
        }[shape]
        problem = channel_feasibility_problem(ch1, ch2, None, noise)
        blocks, r0 = _interior_point(ch1, ch2, noise)
        real = problem.program.blocks["joint"][1]
        x0 = np.concatenate([sdp.pack(blk, real) for blk in blocks] + [[r0]])
        assert np.max(np.abs(problem.program.a @ x0 - problem.b)) <= 1e-12
        assert min(np.linalg.eigvalsh(blk)[0] for blk in blocks) >= 1 - 1e-12
        cert = problem.certificate
        n_in = ch1.din if noise is GEN else 1
        assert (cert.trace_bound, cert.interior_value, cert.interior_margin) == (2.0 * (ch1.din + n_in), r0, 1.0)
        # the trace bound holds at the optimum, which lies at r <= 1
        sol = sdp.solve(problem)
        lo, hi = sol.bracket
        assert sol.status == "optimal" and lo <= sol.scalar_values["r"] <= hi <= lo + 1e-7
        assert sum(np.trace(blk).real for blk in sol.block_values.values()) <= cert.trace_bound
        assert channel_feasibility_problem(ch1, ch2, 0.5, noise).certificate is None

    def test_settled_bracket_ends_the_solve(self):
        problem = channel_feasibility_problem(IDENT, IDENT, None, GEN)   # r* = 1/3
        full = sdp.solve(problem)
        sol = sdp.solve(problem, settled=lambda lo, hi: hi - lo <= 0.01)
        assert sol.status == "bracketed" and sol.iterations < full.iterations
        assert sol.bracket[0] <= 1 / 3 <= sol.bracket[1] <= sol.bracket[0] + 0.01
        # without a certificate there is no bracket, and the predicate is never asked
        pinned = channel_feasibility_problem(IDENT, IDENT, 0.5, GEN)
        sol = sdp.solve(pinned, settled=lambda lo, hi: True)
        assert sol.status == "optimal" and sol.bracket is None

    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    @pytest.mark.parametrize("fig", sorted(FIGURE_WEIGHTS))
    def test_grid_brackets_contain_closed_form(self, fig, noise):
        # the brackets of solves stopped at their grid cell still contain r*
        spec = FIGURES[fig]
        closed_form = closed_form_r_cd if noise is CD else closed_form_r_generic
        # and the figure's sweep, whose solves start warm, reports these cold values
        for t, rec in zip(default_t_grid(), _figure_records(fig), strict=True):
            res = robustness(spec.map1.evaluate(t), spec.map2.evaluate(t), noise)
            r_cf = closed_form(*FIGURE_WEIGHTS[fig](t))
            lo, hi = res.bracket
            assert not res.indeterminate and lo <= r_cf <= hi, (t, res.bracket, r_cf)
            assert rec.r(noise) == res.r_star and rec.t == t

    def test_refined_values_lie_in_their_brackets(self, rng):
        # a refined value is the iterate's r, not an end of the bracket: it
        # must still lie inside [lo, hi], however its convergence tail moves
        results = [
            robustness(make(rng), make(rng), noise, refine=True)
            for make in (_near_unitary, random_channel) for _ in range(3) for noise in (GEN, CD)
        ]
        results += [
            measurement_robustness(projective_povm(random_basis(rng)), projective_povm(random_basis(rng)))
            for _ in range(4)
        ]
        spec = FIGURES[6]
        results += [
            robustness(spec.map1.evaluate(t), spec.map2.evaluate(t), noise, refine=True)
            for t in default_t_grid(t_step=0.05) for noise in (GEN, CD)
        ]
        assert sum(res.r_star > 0 for res in results) >= 30
        for res in results:
            lo, hi = res.bracket
            assert not res.indeterminate and lo <= res.r_star <= hi, res

    @pytest.mark.parametrize("refine", [False, True])
    def test_truncated_solve_has_wide_bracket(self, refine, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 2)
        res = robustness(IDENT, IDENT, GEN, refine=refine)   # r* = 1/3
        lo, hi = res.bracket
        assert res.indeterminate and hi - lo > DR and lo <= 1 / 3 <= hi

    @pytest.mark.parametrize("half_width, indeterminate", [(1.5, True), (0.4, False)])
    def test_refined_value_is_indeterminate_past_r_tol(self, half_width, indeterminate, monkeypatch):
        # a refined value rests on its bracket alone: one wider than R_TOL
        # leaves it indeterminate, however close the iterate's r lies to r*
        solve = sdp.solve

        def widened(problem, **kwargs):
            sol = solve(problem, **kwargs)
            r = sol.scalar_values["r"]
            return replace(sol, bracket=(r - half_width * R_TOL, r + half_width * R_TOL))

        monkeypatch.setattr(sdp, "solve", widened)
        res = robustness(IDENT, IDENT, GEN, refine=True)   # r* = 1/3
        assert res.indeterminate is indeterminate and abs(res.r_star - 1 / 3) <= 1e-8

    def test_refined_rules_include_r_tol_itself(self, monkeypatch):
        # a refined solve is settled once r_hi <= R_TOL, an r of R_TOL is
        # reported as 0, and a bracket exactly R_TOL wide settles its value
        solve, asked = sdp.solve, []

        def at_r_tol(problem, settled, **kwargs):
            asked.append((settled(0.0, R_TOL), settled(0.0, math.nextafter(R_TOL, 1.0))))
            return replace(solve(problem, **kwargs), scalar_values={"r": R_TOL}, bracket=(0.0, R_TOL))

        monkeypatch.setattr(sdp, "solve", at_r_tol)
        res = robustness(IDENT, IDENT, GEN, refine=True)
        assert asked == [(True, False)]
        assert res.r_star == 0.0 and not res.indeterminate

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    def test_near_zero_point_is_certified(self, noise, refine):
        # at t = 0.099, next to a zero of cos(5 pi t), r* is positive but below
        # R_TOL; the solver does not reach its tolerance there, the bracket does
        # the pinned program cross-checks the certified 0: the pair is compatible at R_TOL
        spec = FIGURES[4]
        ch1, ch2 = spec.map1.evaluate(0.099), spec.map2.evaluate(0.099)
        res = robustness(ch1, ch2, noise, refine=refine)
        assert res.r_star == 0.0 and not res.indeterminate
        assert 0.0 <= res.bracket[0] <= res.bracket[1] <= R_TOL
        assert feasibility_q(ch1, ch2, R_TOL, noise) >= 0


def _phase_gate_pair():
    """The complex custom pair of the CLI: the noisy phase gate, held
    constant, against the CP-indivisible depolarizing map."""
    choi = (Path(__file__).parent / "data" / "phase_gate_noisy.json").read_text()
    return constant_map(channel_from_json(choi)), depolarizing_map(LAM, OMEGA)


def _cold_records(map1, map2, grid, refine=False):
    """A sweep's records from one cold robustness call per point and class."""
    return [sweep(map1, map2, [t], refine=refine)[0] for t in grid]


class TestWarmStart:
    """A grid value of a sweep starts from the previous point's iterate; the
    value it reports is the grid cell of r*, whatever the start."""

    @pytest.mark.parametrize("fig", sorted(FIGURES))
    def test_sweep_records_are_the_cold_values(self, fig):
        # on the default grid, test_grid_brackets_contain_closed_form compares
        # figures 1-4 with their cold values, and figure 7 is figure 4's pair
        spec, fine = FIGURES[fig], default_t_grid(t_step=0.05)
        records = sweep(spec.map1, spec.map2, fine)
        assert records == _cold_records(spec.map1, spec.map2, fine)
        if fig in (5, 6):
            assert list(_figure_records(fig)) == _cold_records(spec.map1, spec.map2, default_t_grid())
        if fig == 7:
            assert [rec.r(nc) for rec in _figure_records(7) for nc in NoiseClass] == [
                rec.r(nc) for rec in _figure_records(4) for nc in NoiseClass]
        assert not any(rec.indeterminate for rec in records + list(_figure_records(fig)))

    def test_sweep_takes_at_most_seven_tenths_of_the_cold_iterations(self, monkeypatch):
        spec, solve, iterations = FIGURES[1], sdp.solve, []

        def counting(problem, **kwargs):
            sol = solve(problem, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(sdp, "solve", counting)
        warm = sweep(spec.map1, spec.map2, default_t_grid())
        warm_sum, iterations[:] = sum(iterations), []
        cold = _cold_records(spec.map1, spec.map2, default_t_grid())
        assert warm == cold and len(iterations) == 183
        assert warm_sum <= 0.7 * sum(iterations), (warm_sum, sum(iterations))

    def test_indeterminate_result_gives_no_start(self, monkeypatch):
        spec = FIGURES[4]
        ch1, ch2 = spec.map2.evaluate(0.2), spec.map2.evaluate(0.21)
        with monkeypatch.context() as patch:
            patch.setattr(sdp, "DEFAULT_MAX_ITERS", 2)
            stalled = robustness(ch1, ch1, GEN)
        assert stalled.indeterminate
        cold = robustness(ch2, ch2, GEN)
        warm = robustness(ch2, ch2, GEN, warm=stalled)
        assert (warm.r_star, warm.bracket) == (cold.r_star, cold.bracket)
        assert_same_solve(warm.solution, cold.solution)
        # a settled result of the same shape does give the start
        settled = robustness(ch1, ch1, GEN)
        assert robustness(ch2, ch2, GEN, warm=settled).solution.iterations < cold.solution.iterations

    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    def test_warm_value_can_end_at_its_correctors_edge_point(self, noise):
        # figure 7 at t = 0.31 from t = 0.30: the predictor's edge point does
        # not settle the value, the corrector's does, so one step ends it (a
        # test of the predictor's point alone takes two)
        spec = FIGURES[7]
        ch1, ch2 = spec.map1.evaluate(0.31), spec.map2.evaluate(0.31)
        start = robustness(spec.map1.evaluate(0.30), spec.map2.evaluate(0.30), noise)
        warm, cold = robustness(ch1, ch2, noise, warm=start), robustness(ch1, ch2, noise)
        assert (warm.solution.status, warm.solution.iterations) == ("bracketed", 1)
        assert warm.r_star == cold.r_star == 0.005 and not warm.indeterminate
        np.linalg.cholesky(np.array(warm.solution.iterate[1:3]))

    def test_sweep_starts_from_the_previous_settled_result_of_its_class(self, monkeypatch):
        module, solve, results, starts = sys.modules["chancompat.robustness"], sdp.solve, [], []

        def marking(*args, **kwargs):
            res = robustness(*args, **kwargs)
            if len(results) == 3:    # t = 0.1 comes back unsettled in the generic column
                res = replace(res, indeterminate=True)
            results.append(res)
            return res

        def recording(problem, **kwargs):
            starts.append(kwargs["warm"])
            return solve(problem, **kwargs)

        monkeypatch.setattr(module, "robustness", marking)
        monkeypatch.setattr(sdp, "solve", recording)
        sweep(identity_map(), depolarizing_map(0.5), [0.0, 0.1, 0.2, 0.3])
        assert starts[:2] == [None, None] and starts[5] is None
        assert all(starts[k] is results[k - 2].solution for k in (2, 3, 4, 6, 7))

    def test_generic_start_after_a_skipped_point_is_the_last_solved_result(self, monkeypatch):
        # figure 2's grid sweep skips the generic solve at its 80 certified CD
        # zeros: each generic solve starts from the last generic result that
        # was solved, not from an inferred 0
        module, spec, calls = sys.modules["chancompat.robustness"], FIGURES[2], []

        def recording(ch1, ch2, noise, **kwargs):
            calls.append((noise, kwargs["warm"], robustness(ch1, ch2, noise, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(module, "robustness", recording)
        sweep(spec.map1, spec.map2, default_t_grid())
        generic = [(warm, res) for noise, warm, res in calls if noise is GEN]
        assert len(generic) == len(default_t_grid()) - 80 and generic[0][0] is None
        assert all(warm is last for (_, last), (warm, _) in zip(generic, generic[1:]))

    @pytest.mark.parametrize("pair", ["fig4", "fig6", "phase-gate"])
    def test_split_sweep_gives_the_whole_sweep(self, pair):
        map1, map2 = _phase_gate_pair() if pair == "phase-gate" else (
            FIGURES[int(pair[3:])].map1, FIGURES[int(pair[3:])].map2)
        grid = default_t_grid(t_step=0.1)
        whole = sweep(map1, map2, grid)
        # the first part of a split is the whole sweep's own start, replayed
        # bit for bit; the second part starts cold at grid[k]
        assert sweep(map1, map2, grid[:5]) == whole[:5]
        for k in range(1, len(grid) - 1):
            assert sweep(map1, map2, grid[k:]) == whole[k:], grid[k]

    @pytest.mark.parametrize("pair, solves", [("fig4", 17), ("phase-gate", 16)], ids=["fig4", "phase-gate"])
    def test_refined_sweep_is_the_cold_one(self, pair, solves, monkeypatch):
        map1, map2 = _phase_gate_pair() if pair == "phase-gate" else (FIGURES[4].map1, FIGURES[4].map2)
        grid = default_t_grid(t_step=0.1)
        solve, starts = sdp.solve, []

        def recording(problem, **kwargs):
            starts.append(kwargs.get("warm"))
            return solve(problem, **kwargs)

        monkeypatch.setattr(sdp, "solve", recording)
        refined = sweep(map1, map2, grid, refine=True)
        # two solves at each of 11 points, less the generic solves that certified CD zeros skip
        assert starts == [None] * solves
        assert refined == _cold_records(map1, map2, grid, refine=True)


@functools.cache
def _figure_results(fig: int, refine: bool) -> tuple[dict, list[SweepRecord], int]:
    """The robustness results of a figure's sweep on the default grid, keyed
    by (t, noise class), its records, and the eigh calls that its solves
    made. A generic value that the sweep took from a certified CD zero, with
    no solve, is keyed as that zero: no solution, bracket (0, r_hi of CD)."""
    module, eigh, solved, calls = sys.modules["chancompat.robustness"], np.linalg.eigh, [], [0]

    def recording(ch1, ch2, noise, **kwargs):
        solved.append((noise, robustness(ch1, ch2, noise, **kwargs)))
        return solved[-1][1]

    def counting(*args, **kwargs):
        calls[0] += sys._getframe(1).f_globals["__name__"] == sdp.__name__
        return eigh(*args, **kwargs)

    grid = default_t_grid()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "robustness", recording)
        patch.setattr(np.linalg, "eigh", counting)
        records = sweep(FIGURES[fig].map1, FIGURES[fig].map2, grid, refine=refine)
    # CD is solved first at each point, so each CD solve starts the next t
    points = np.cumsum([noise is CD for noise, _ in solved]) - 1
    results = {(grid[k], noise): res for k, (noise, res) in zip(points, solved)}
    for rec in records:
        cd_hi = results[rec.t, CD].bracket[1]
        results.setdefault((rec.t, GEN), RobustnessResult(rec.r_generic, bracket=(0.0, cd_hi)))
    return results, records, calls[0]


class TestFigureSolves:
    """The solves of the grid and refined sweeps of figures 1-7, each taken once."""

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("fig", sorted(FIGURES))
    def test_every_returned_iterate_is_strictly_inside_the_cone(self, fig, refine):
        # a solve may end at an edge point tested near the cone boundary:
        # X and Z must still have a Cholesky factor, as the next warm start needs
        for res in _figure_results(fig, refine)[0].values():
            if res.solution is not None:
                np.linalg.cholesky(np.array(res.solution.iterate[1:3]))

    @pytest.mark.parametrize("fig", sorted(FIGURES))
    def test_grid_brackets_contain_the_refined_values(self, fig):
        # the grid value's certified bracket and the refined value's both hold
        # r*, so they meet, and the refined r* lies in the grid bracket
        (grid, *_), (refined, *_) = _figure_results(fig, False), _figure_results(fig, True)
        assert grid.keys() == refined.keys() and len(grid) == 2 * len(default_t_grid())
        for key, coarse in grid.items():
            (lo, hi), fine = coarse.bracket, refined[key]
            fine_lo, fine_hi = fine.bracket
            assert not (coarse.indeterminate or fine.indeterminate) and max(lo, fine_lo) <= min(hi, fine_hi)
            assert lo <= fine.r_star <= hi and _grid(fine.r_star) == coarse.r_star, (key, coarse, fine.r_star)

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("fig, zeros", [(1, 19), (2, 80), (3, 66), (4, 5), (5, 5), (6, 0), (7, 5)])
    def test_a_certified_cd_zero_gives_the_generic_value_unsolved(self, fig, zeros, refine):
        # CD noise is generic noise, so r_generic <= r_cd: where CD's bracket
        # ends at or below R_TOL no generic solve runs, and the generic column
        # reads what a generic sweep solves for; at every other point it is solved
        results, records, _ = _figure_results(fig, refine)
        skipped = [rec.t for rec in records if results[rec.t, CD].bracket[1] <= R_TOL]
        assert len(skipped) == zeros
        assert [rec.t for rec in records if results[rec.t, GEN].solution is None] == skipped
        if skipped:
            spec = FIGURES[fig]
            generic = sweep(spec.map1, spec.map2, default_t_grid(), noise="generic", refine=refine)
            assert [rec.r_generic for rec in records] == [rec.r_generic for rec in generic]

    def test_figures_1_and_7_take_few_iterations(self):
        # most warm grid values settle at an edge point of their first step
        # (see sdp.solve): together the two sweeps take at most 590 steps and
        # 840 eigh calls, where a test at the iterate's own lengths
        # (EDGE_FRACTION = 0.98) takes 706 and 1060
        runs = [_figure_results(fig, False) for fig in (1, 7)]
        solved = [res for results, *_ in runs for res in results.values() if res.solution is not None]
        assert len(solved) == 380
        assert sum(res.solution.iterations for res in solved) <= 590
        assert sum(calls for *_, calls in runs) <= 840


class TestRefinedConvergence:
    @pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.name.lower())
    def test_slow_pair_of_the_random_draw_converges(self, noise):
        # pair 213 of tests/refine_tail.py's draw (qutrit outputs): with a fixed
        # corrector exponent of 3 its generic solve stopped at the 100-step cap
        # with a bracket 5.2e-8 wide; the step-dependent exponent ends it in 13
        ch1, ch2 = draw_pairs(214)[213]
        assert (ch1.dout, ch2.dout) == (3, 3)
        res = robustness(ch1, ch2, noise, refine=True)
        assert res.solution.status == "optimal" and res.solution.iterations <= MAX_ITERATIONS
        lo, hi = res.bracket
        assert lo <= res.r_star <= hi <= lo + R_TOL and not res.indeterminate
        if noise is GEN:
            assert abs(res.r_star - 0.003370372) <= 1e-9
