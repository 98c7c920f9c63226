import math

import numpy as np
import pytest

from chancompat.channels import (
    Channel,
    amplitude_damping_map,
    depolarizing_map,
    eternal_map,
    identity_channel,
    identity_map,
)
from chancompat.figures import ALPHA, OMEGA, default_t_grid
from chancompat.robustness import sweep
from chancompat.witness import (
    cp_indivisibility_measure,
    indivisibility_from_curve,
    rising_segments,
    teleport_fidelity,
)

class TestTraceDistanceWitness:
    # sweep's trace_distance column: |0><0| and |1><1| evolved by map2, whose
    # distance is the depolarizing shrink factor w(t)
    def test_divisible_depolarizing_closed_form(self):
        grid = [0.1 * k for k in range(11)]
        recs = sweep(identity_map(), depolarizing_map(0.5), grid, noise="cd")
        for rec in recs:
            assert abs(rec.trace_distance - math.exp(-0.5 * rec.t)) < 1e-12
        vals = [rec.trace_distance for rec in recs]
        assert all(b <= a + 1e-10 for a, b in zip(vals, vals[1:]))

    def test_oscillating_depolarizing_closed_form(self):
        grid = [0.05 * k for k in range(21)]
        recs = sweep(identity_map(), depolarizing_map(0.5, 5 * math.pi), grid, noise="cd")
        for rec in recs:
            want = math.exp(-0.5 * rec.t) * math.cos(5 * math.pi * rec.t) ** 2
            assert abs(rec.trace_distance - want) < 1e-12

    def test_amplitude_damping_closed_form(self):
        # the images of |0><0| and |1><1| differ by the surviving population 1 - w(t)
        grid = [0.05 * k for k in range(21)]
        recs = sweep(identity_map(), amplitude_damping_map(0.5, 5 * math.pi), grid, noise="cd")
        for rec in recs:
            want = math.exp(-0.5 * rec.t) * math.cos(5 * math.pi * rec.t) ** 2
            assert abs(rec.trace_distance - want) < 1e-12


def _depolarizing_n(t):
    return 3 * math.exp(-0.5 * t) * math.cos(5 * math.pi * t) ** 2


def _amplitude_damping_n(t):
    # non-unital: the Pauli correlations are sqrt(w), -sqrt(w), w with w = 1 - decay
    w = math.exp(-ALPHA * t) * math.cos(OMEGA * t) ** 2
    return 2 * math.sqrt(w) + w


def _eternal_n(t):
    # Pauli map with correlations b, -b, 2a - 1 (a, b as in eternal_choi)
    a, b = (1 + math.exp(-2 * t)) / 2, math.exp(-t) * math.cosh(t)
    return 2 * b + abs(2 * a - 1)


class TestTeleportFidelity:
    def test_initial_time_is_perfect(self):
        n, f = teleport_fidelity(identity_map().evaluate(0.0))
        assert abs(n - 3) < 1e-12 and abs(f - 1) < 1e-12

    def test_classical_boundary(self):
        # w = 1/3 makes the correlation norm exactly 1
        lam = 0.5
        t = math.log(3) / lam
        n, f = teleport_fidelity(depolarizing_map(lam).evaluate(t))
        assert abs(n - 1) < 1e-9
        assert f == 2 / 3

    def test_closed_form_along_grid(self):
        # n from the Choi matrix against the closed form of each family,
        # unital (depolarizing, eternal) and non-unital (amplitude damping)
        cases = [
            (depolarizing_map(0.5, 5 * math.pi), _depolarizing_n, 1e-10),
            (amplitude_damping_map(ALPHA, OMEGA), _amplitude_damping_n, 1e-14),
            (eternal_map(), _eternal_n, 1e-14),
        ]
        for m, closed_form, tol in cases:
            for t in default_t_grid():
                n, f = teleport_fidelity(m.evaluate(t))
                assert abs(n - closed_form(t)) < tol, (m.label, t)
                assert 2 / 3 <= f <= 1
                assert (f > 2 / 3) == (n > 1)


@pytest.mark.parametrize(
    "ch",
    [identity_channel(3), Channel(2, 3, np.eye(6) / 3)],
    ids=["qutrit-channel", "qubit-to-qutrit"],
)
def test_teleportation_rejects_non_qubit_input(ch):
    with pytest.raises(ValueError, match="expects a qubit channel"):
        teleport_fidelity(ch)


class TestRisingSegments:
    def test_monotone_decreasing_has_none(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        assert rising_segments(ts, [3.0, 2.0, 1.5, 1.0]) == []

    def test_single_ripple(self):
        ts = [0, 1, 2, 3, 4]
        vals = [0.0, 0.0, 0.5, 1.0, 0.2]
        assert rising_segments(ts, vals) == [(1, 3)]

    def test_dead_band_filters_noise(self):
        # steps of 1e-3 sit inside DEAD_BAND = 2e-3; a step of 3e-3 climbs out of it
        ts = [0, 1, 2]
        assert rising_segments(ts, [0, 1e-3, 2e-3]) == []
        assert rising_segments(ts, [0, 1e-3, 4e-3]) == [(1, 2)]

    def test_open_segment_closes_at_end(self):
        assert rising_segments([0, 1, 2], [0.0, 0.5, 1.0]) == [(0, 2)]

    def test_quantization_tread_does_not_split_segment(self):
        ts = [0, 1, 2, 3, 4]
        assert rising_segments(ts, [0.0, 0.5, 0.5, 1.0, 0.2]) == [(0, 3)]

    def test_dip_inside_dead_band_does_not_split_segment(self):
        # a fall of 1e-3 < DEAD_BAND inside a rise neither closes the segment nor ends it
        ts = [0, 1, 2, 3, 4]
        assert rising_segments(ts, [0.0, 0.5, 0.499, 1.0, 0.2]) == [(0, 3)]

    def test_fall_beyond_dead_band_closes_the_segment(self):
        # a fall of 3e-3, between DEAD_BAND and twice it, ends the first rise
        assert rising_segments([0, 1, 2, 3], [0.0, 0.5, 0.497, 1.0]) == [(0, 1), (2, 3)]

    def test_trailing_plateau_not_included(self):
        assert rising_segments([0, 1, 2, 3], [0.0, 0.5, 0.5, 0.2]) == [(0, 1)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rising_segments([0, 1], [1.0])


class TestIndivisibilityMeasure:
    def test_from_curve_flat_is_zero(self):
        ts = [0.0, 0.5, 1.0]
        rep = indivisibility_from_curve(ts, [0.3, 0.3, 0.3])
        assert rep.n_raw == 0.0
        assert rep.n_normalized == 0.0
        assert rep.rising_segments == ()

    def test_from_curve_trapezoid(self):
        ts = [0.0, 1.0, 2.0, 3.0]
        rs = [0.0, 0.2, 0.1, 0.3]
        rep = indivisibility_from_curve(ts, rs)
        want = 0.5 * (0.0 + 0.2) + 0.5 * (0.1 + 0.3)
        assert abs(rep.n_raw - want) < 1e-12
        assert abs(rep.n_normalized - want / (1 + want)) < 1e-12
        assert rep.rising_segments == ((0.0, 1.0), (2.0, 3.0))

    def test_from_curve_length_mismatch(self):
        # a short curve is rejected before the integral indexes past its end
        with pytest.raises(ValueError, match="equal length"):
            indivisibility_from_curve([0.0, 1.0, 2.0], [0.1, 0.4])
        with pytest.raises(ValueError, match="equal length"):
            indivisibility_from_curve([0.0, 1.0], [0.1, 0.4, 0.2])

    def test_divisible_map_measures_zero(self):
        grid = [0.1 * k for k in range(11)]
        rep = cp_indivisibility_measure(depolarizing_map(0.5), grid)
        assert rep.n_raw == 0.0
        # the default reference is the identity map
        assert rep == cp_indivisibility_measure(depolarizing_map(0.5), grid, reference=identity_map())
        assert len(rep.curve) == len(grid)

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            cp_indivisibility_measure(depolarizing_map(0.5), [0.0, 1.0])
        with pytest.raises(ValueError):
            cp_indivisibility_measure(
                depolarizing_map(0.5, 5 * math.pi), [0.0, 0.1, 0.2, 0.3]
            )
        # the reference's oscillation must be resolved too
        with pytest.raises(ValueError, match="need <= 0.02"):
            cp_indivisibility_measure(
                depolarizing_map(0.5), [0.0, 0.5, 1.0], reference=depolarizing_map(0.5, 5 * math.pi)
            )

    def test_negative_omega_measures_like_positive(self):
        # cos^2(omega t) is even in omega, so the period is pi / |omega|
        grid = default_t_grid()
        rep = cp_indivisibility_measure(depolarizing_map(0.5, -5 * math.pi), grid)
        assert rep == cp_indivisibility_measure(depolarizing_map(0.5, 5 * math.pi), grid)
        assert format(rep.n_raw, ".9g") == "0.046225"

    def test_normalization_identity(self):
        ts = list(np.linspace(0, 2, 9))
        rs = [0.0, 0.3, 0.1, 0.5, 0.5, 0.2, 0.8, 0.1, 0.9]
        rep = indivisibility_from_curve(ts, rs)
        assert abs(rep.n_normalized - rep.n_raw / (1 + rep.n_raw)) <= 1e-12
        assert (rep.n_raw == 0) == (rep.rising_segments == ())
