import math

import numpy as np
import pytest

from chancompat.channels import (
    completely_depolarizing,
    depolarizing_choi,
    depolarizing_map,
    identity_channel,
    identity_map,
    projective_povm,
)
from chancompat.figures import DR, LAM, OMEGA
from chancompat.robustness import (
    NoiseClass,
    RobustnessResult,
    SweepRecord,
    dynamical_map_robustness,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from chancompat.validation import _figure_records
from conftest import random_channel

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

    def test_rejects_bad_dr(self):
        with pytest.raises(ValueError):
            robustness(IDENT, IDENT, CD, dr=0.0)


class TestMeasurementRobustness:
    def test_self_compatible(self):
        m = projective_povm(np.eye(2))
        assert measurement_robustness(m, m).r_star == 0.0

    def test_trivial_povm_compatible(self):
        from chancompat.channels import Povm

        m = projective_povm(np.eye(2))
        trivial = Povm((np.eye(2, dtype=complex),), 2)
        assert measurement_robustness(m, trivial).r_star == 0.0

    def test_mub_pair_value(self):
        z = projective_povm(np.eye(2))
        x = projective_povm(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        res = measurement_robustness(z, x)
        assert abs(res.r_star - (3 - 2 * math.sqrt(2))) < 2e-4

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

    def test_worker_count_does_not_change_values(self):
        grid = [0.0, 0.35, 0.7]
        one = sweep(depolarizing_map(0.5), depolarizing_map(0.5), grid, noise="cd", dr=0.05)
        two = sweep(depolarizing_map(0.5), depolarizing_map(0.5), grid, noise="cd", dr=0.05, workers=2)
        assert [r.r_cd for r in one] == [r.r_cd for r in two]

    def test_unconverged_solve_is_flagged(self, monkeypatch):
        monkeypatch.setenv("SOLVER_MAX_ITERS", "25")
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
        with pytest.raises(ValueError):
            sweep(identity_map(), identity_map(), [0.0, 1.0], noise="cd", workers=0)


class TestDynamicalMapRobustness:
    def test_divisible_pair_attains_max_at_zero(self):
        m = depolarizing_map(0.5)
        grid = [0.0, 0.25, 0.5]
        r_map = dynamical_map_robustness(m, m, grid, CD, dr=0.01)
        r_zero = robustness(m.evaluate(0.0), m.evaluate(0.0), CD, dr=0.01).r_star
        assert r_map == r_zero

    def test_cd_constant_maps(self):
        from chancompat.channels import ConstantMap

        m = ConstantMap(CD_CHANNEL)
        assert dynamical_map_robustness(m, m, [0.0, 0.5, 1.0], GEN) == 0.0


class TestRecords:
    def test_sweep_record_validation(self):
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=0.4, r_cd=0.2, trace_distance=0.5)
        with pytest.raises(ValueError):
            SweepRecord(t=0.0, r_generic=None, r_cd=1.5, trace_distance=0.5)

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


@pytest.mark.parametrize("fig", sorted(FIGURE_WEIGHTS))
def test_depolarizing_figures_match_closed_form(fig):
    # asymmetric cloning region: compatible iff w1^2 + w2^2 + w1 w2 <= w1 + w2
    for rec in _figure_records(fig):
        w1, w2 = FIGURE_WEIGHTS[fig](rec.t)
        r_cf = max(0.0, (w1 * w1 + w2 * w2 + w1 * w2) / (w1 + w2) - 1.0)
        expect = min(math.ceil((r_cf - 1e-6) / DR) * DR, 1.0)
        assert abs(rec.r_cd - expect) <= 1e-9, (rec.t, rec.r_cd, expect)
