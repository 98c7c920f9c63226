import math
import sys

import numpy as np
import pytest

from chancompat import sdp
from chancompat.channels import (
    Channel,
    Povm,
    choi_from_map,
    completely_depolarizing,
    depolarizing_choi,
    depolarizing_map,
    identity_channel,
    identity_map,
    measurement_channel,
    projective_povm,
)
from chancompat.linalg import partial_trace
from chancompat.figures import DR, FIGURES, LAM, OMEGA
from chancompat.robustness import (
    NoiseClass,
    RobustnessResult,
    SweepRecord,
    channel_feasibility_problem,
    dynamical_map_robustness,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from chancompat.validation import _figure_records
from conftest import random_channel, trine_povm

CD = NoiseClass.COMPLETELY_DEPOLARIZING
GEN = NoiseClass.GENERIC

IDENT = identity_channel(2)
CD_CHANNEL = completely_depolarizing(np.eye(2) / 2)


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

    def test_rejects_negative_r(self):
        with pytest.raises(ValueError):
            feasibility_q(IDENT, IDENT, -0.1, GEN)

    def test_rejects_input_dim_mismatch(self):
        wide = completely_depolarizing(np.eye(2) / 2, din=3)
        with pytest.raises(ValueError):
            feasibility_q(IDENT, wide, 0.0, GEN)


def _isometry_channel(v):
    return Channel(v.shape[1], v.shape[0], choi_from_map(lambda rho: v @ rho @ v.T, v.shape[1]))


def test_solution_satisfies_compatibility_equations(rng):
    # the blocks read back by name solve the program the module docstring states
    pairs = [
        (IDENT, depolarizing_choi(0.7)),
        (random_channel(rng), random_channel(rng)),
        (measurement_channel(trine_povm()), measurement_channel(projective_povm(np.eye(2)))),
        # two real 2 -> 4 isometries: a 32 x 32 joint block, the largest that passes DIM_GUARD
        tuple(_isometry_channel(np.linalg.qr(rng.normal(size=(4, 2)))[0]) for _ in range(2)),
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
    assert p1.a is p2.a and not p1.a.flags.writeable


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
        "ch, dr, expect",
        [(IDENT, 0.005, 0.5), (depolarizing_choi(0.75), 0.01, 0.13)],
        ids=["identity", "depolarizing"],
    )
    def test_grid_bracketing_probe(self, ch, dr, expect):
        # the grid value is the first multiple of dr at which the pair is compatible
        r_star = robustness(ch, ch, CD, dr=dr).r_star
        assert r_star == expect
        assert feasibility_q(ch, ch, r_star, CD) >= 0 > feasibility_q(ch, ch, r_star - dr, CD)

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

    def test_rejects_bad_dr(self, monkeypatch):
        # the step is checked before any program is built
        def build(*args):
            raise AssertionError("program built for a rejected dr")

        monkeypatch.setattr(sys.modules["chancompat.robustness"], "channel_feasibility_problem", build)
        with pytest.raises(ValueError):
            robustness(IDENT, IDENT, CD, dr=0.0)


Z = projective_povm(np.eye(2))
X = projective_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
Y = projective_povm(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2))


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
        with pytest.raises(ValueError):
            measurement_robustness(m2, m3)


class TestSweep:
    def test_constant_identity_pair(self):
        grid = [0.0, 0.5, 1.0]
        recs = sweep(identity_map(), identity_map(), grid, noise="both", dr=0.05)
        assert [r.t for r in recs] == grid
        assert len({r.r_cd for r in recs}) == 1
        assert len({r.r_generic for r in recs}) == 1
        assert all(r.trace_distance == 1.0 for r in recs)

    def test_single_noise_class_leaves_other_none(self):
        recs = sweep(identity_map(), depolarizing_map(0.5), [0.0, 0.4], noise="cd", dr=0.05)
        assert recs[0].r_generic is None and recs[0].r_cd is not None

    def test_dominance_on_small_grid(self):
        recs = sweep(depolarizing_map(0.5), depolarizing_map(0.5), [0.0, 0.3, 0.6], noise="both", dr=0.02)
        for rec in recs:
            assert 0 <= rec.r_generic <= rec.r_cd <= 1 + 1e-6

    def test_unconverged_solve_is_flagged(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        assert robustness(IDENT, IDENT, CD).indeterminate
        (rec,) = sweep(identity_map(), identity_map(), [0.0], noise="both", dr=0.05)
        assert rec.indeterminate

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [], noise="cd")
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [0.3, 0.2], noise="cd")
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [-0.1, 0.2], noise="cd")


class TestDynamicalMapRobustness:
    def test_divisible_pair_attains_max_at_zero(self):
        m = depolarizing_map(0.5)
        grid = [0.0, 0.25, 0.5]
        r_map = dynamical_map_robustness(m, m, grid, CD, dr=0.01)
        r_zero = robustness(m.evaluate(0.0), m.evaluate(0.0), CD, dr=0.01).r_star
        assert r_map.r_star == r_zero and not r_map.indeterminate

    def test_cd_constant_maps(self):
        from chancompat.channels import constant_map

        m = constant_map(CD_CHANNEL)
        assert dynamical_map_robustness(m, m, [0.0, 0.5, 1.0], GEN).r_star == 0.0

    def test_unconverged_solve_is_flagged(self, monkeypatch):
        monkeypatch.setattr(sdp, "DEFAULT_MAX_ITERS", 3)
        res = dynamical_map_robustness(identity_map(), depolarizing_map(0.5, 15.708), [0, 0.1, 0.2])
        assert res.indeterminate


class TestRecords:
    def test_sweep_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=0.4, r_cd=0.2, trace_distance=0.5)
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=None, r_cd=1.5, trace_distance=0.5)
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=None, r_cd=1.5, trace_distance=0.5, indeterminate=True)
        # an unconverged point comes back flagged instead of failing dominance
        rec = SweepRecord(t=0.0, r_generic=0.005, r_cd=0.0, trace_distance=0.5, indeterminate=True)
        assert rec.indeterminate

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


@pytest.mark.parametrize("noise", [CD, GEN], ids=lambda nc: nc.value)
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
