import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from chancompat.channels import (
    Channel,
    Povm,
    amplitude_damping_choi,
    amplitude_damping_map,
    apply,
    channel_from_json,
    compose,
    constant_map,
    depolarizing_choi,
    depolarizing_map,
    dual_apply,
    eternal_choi,
    eternal_map,
    identity_channel,
    identity_map,
    measurement_channel,
    projective_povm,
    pushforward_povm,
)
from chancompat.linalg import SIGMA_Z, partial_trace
from conftest import channel_json, random_density, random_hermitian, trine_povm

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)

GRID_MAPS = [
    depolarizing_map(0.5),
    depolarizing_map(0.5, 5 * math.pi),
    amplitude_damping_map(0.5, 5 * math.pi),
    eternal_map(),
    identity_map(),
]


def assert_cptp(ch):
    w = np.linalg.eigvalsh(ch.choi)
    assert w[0] >= -1e-9
    marg = partial_trace(ch.choi, [ch.din, ch.dout], keep={0})
    assert np.max(np.abs(marg - np.eye(ch.din))) <= 1e-9


class TestApply:
    def test_identity(self, rng):
        rho = random_density(rng, 2)
        assert np.allclose(apply(identity_channel(2), rho), rho)

    def test_depolarizing_on_ket0(self):
        for w in (0.0, 0.3, 1.0):
            out = apply(depolarizing_choi(w), KET0)
            assert np.allclose(out, np.diag([(1 + w) / 2, (1 - w) / 2]))

    def test_amplitude_damping_matches_kraus(self, rng):
        w = 0.42
        k0 = np.array([[1, 0], [0, math.sqrt(1 - w)]], dtype=complex)
        k1 = np.array([[0, math.sqrt(w)], [0, 0]], dtype=complex)
        ch = amplitude_damping_choi(w)
        for _ in range(10):
            rho = random_density(rng, 2)
            want = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
            assert np.max(np.abs(apply(ch, rho) - want)) < 1e-10

    def test_trace_preserving(self, rng):
        rho = random_density(rng, 2)
        out = apply(eternal_choi(0.7), rho)
        assert abs(np.trace(out) - 1) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply(identity_channel(2), np.eye(3))


class TestDualApply:
    def test_unital(self, rng):
        for ch in (depolarizing_choi(0.4), amplitude_damping_choi(0.3), eternal_choi(0.2)):
            assert np.max(np.abs(dual_apply(ch, np.eye(2)) - np.eye(2))) < 1e-10

    def test_depolarizing_shrinks_sigma_z(self):
        w = 0.6
        assert np.allclose(dual_apply(depolarizing_choi(w), SIGMA_Z), w * SIGMA_Z)

    def test_duality_identity(self, rng):
        ch = amplitude_damping_choi(0.35)
        for _ in range(10):
            rho = random_density(rng, 2)
            effect = random_hermitian(rng, 2)
            lhs = np.trace(rho @ dual_apply(ch, effect))
            rhs = np.trace(apply(ch, rho) @ effect)
            assert abs(lhs - rhs) < 1e-10


class TestCompose:
    def test_identity_neutral(self):
        ch = amplitude_damping_choi(0.5)
        assert np.allclose(compose(identity_channel(2), ch).choi, ch.choi)
        assert np.allclose(compose(ch, identity_channel(2)).choi, ch.choi)

    def test_depolarizing_shrink_factors_multiply(self):
        got = compose(depolarizing_choi(0.8), depolarizing_choi(0.5))
        assert np.allclose(got.choi, depolarizing_choi(0.4).choi)

    def test_pointwise_against_sequential_apply(self, rng):
        a = amplitude_damping_choi(0.3)
        b = depolarizing_choi(0.7)
        comp = compose(a, b)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert np.max(np.abs(apply(comp, rho) - apply(a, apply(b, rho)))) < 1e-12

    def test_dimension_mismatch(self):
        wide = Channel(2, 3, np.eye(6) / 3)
        with pytest.raises(ValueError):
            compose(wide, wide)


class TestChoiFamilies:
    def test_depolarizing_endpoints(self):
        assert np.allclose(depolarizing_choi(1.0).choi, identity_channel(2).choi)
        assert np.allclose(depolarizing_choi(0.0).choi, np.eye(4) / 2)

    def test_depolarizing_half_matrix(self):
        want = np.array(
            [
                [0.75, 0, 0, 0.5],
                [0, 0.25, 0, 0],
                [0, 0, 0.25, 0],
                [0.5, 0, 0, 0.75],
            ]
        )
        assert np.allclose(depolarizing_choi(0.5).choi, want)

    def test_depolarizing_cp_range(self):
        assert_cptp(depolarizing_choi(-1 / 3))
        for bad in (-0.5, 1.2):
            with pytest.raises(ValueError):
                depolarizing_choi(bad)

    def test_amplitude_damping_endpoints(self):
        assert np.allclose(amplitude_damping_choi(0.0).choi, identity_channel(2).choi)
        full = amplitude_damping_choi(1.0)
        assert_cptp(full)
        assert np.allclose(apply(full, KET1), KET0)

    def test_amplitude_damping_structure(self):
        ch = amplitude_damping_choi(0.36)
        assert abs(ch.choi[0, 3] - 0.8) < 1e-12
        assert np.allclose(np.diag(ch.choi).real, [1, 0, 0.36, 0.64])

    def test_amplitude_damping_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                amplitude_damping_choi(bad)

    def test_eternal_t0_is_identity(self):
        assert np.allclose(eternal_choi(0.0).choi, identity_channel(2).choi)

    def test_eternal_long_time_limit(self):
        ch = eternal_choi(20.0)
        assert abs(ch.choi[0, 0] - 0.5) < 1e-8
        assert abs(ch.choi[0, 3] - 0.5) < 1e-8

    def test_eternal_corner_matches_quadrature(self):
        integral, err = quad(lambda x: 1 - math.tanh(x), 0, 1)
        assert err < 1e-10
        want = math.exp(-integral)
        assert abs(eternal_choi(1.0).choi[0, 3].real - want) < 1e-10
        assert abs(want - math.exp(-1) * math.cosh(1)) < 1e-12

    def test_eternal_rejects_negative_time(self):
        with pytest.raises(ValueError):
            eternal_choi(-0.1)


class TestDynamicalMap:
    def test_divisible_depolarizing_weight(self):
        ch = depolarizing_map(0.5).evaluate(0.0)
        assert np.allclose(ch.choi, identity_channel(2).choi)

    def test_oscillating_depolarizing_weight(self):
        ch = depolarizing_map(0.5, 5 * math.pi).evaluate(0.2)
        want = math.exp(-0.1) * math.cos(math.pi) ** 2
        assert abs(ch.choi[0, 3].real - want) < 1e-12

    def test_amplitude_damping_weight(self):
        ch = amplitude_damping_map(0.5, 5 * math.pi).evaluate(0.1)
        # cos(pi/2) = 0, so the damping weight saturates at 1
        assert abs(ch.choi[3, 3].real - 0.0) < 1e-12
        assert np.allclose(apply(ch, KET1), KET0, atol=1e-12)

    def test_identity_family(self):
        assert np.allclose(identity_map().evaluate(3.7).choi, identity_channel(2).choi)

    def test_unknown_family_and_negative_time(self):
        with pytest.raises(ValueError):
            identity_map().evaluate(-1.0)

    @pytest.mark.parametrize("map_", GRID_MAPS, ids=lambda m: m.label)
    def test_cp_tp_along_grid(self, map_):
        for k in range(100):
            assert_cptp(map_.evaluate(k / 99))

    def test_labels_and_periods(self):
        assert depolarizing_map(0.5, 5 * math.pi).label == "depolarizing(lam=0.5,omega=15.708)"
        assert amplitude_damping_map(0.5, 5 * math.pi).period == pytest.approx(0.2)
        assert depolarizing_map(0.5).period is None
        assert amplitude_damping_map(0.5, 0.0).period is None

    def test_divisible_family_factorizes(self):
        lam, t, delta = 0.5, 0.3, 0.45
        m = depolarizing_map(lam)
        direct = m.evaluate(t + delta)
        stepped = compose(depolarizing_choi(math.exp(-lam * delta)), m.evaluate(t))
        assert np.max(np.abs(direct.choi - stepped.choi)) < 1e-10

    def test_negative_alpha_is_rejected_not_clamped(self):
        # w(0.2) = 1 - exp(0.1) < 0: an unphysical map, not the identity
        with pytest.raises(ValueError, match="outside"):
            amplitude_damping_map(-0.5, 5 * math.pi).evaluate(0.2)

    def test_choi_roundtrip_through_apply(self, rng):
        ch = eternal_choi(0.4)
        # block (i, j) of the Choi matrix is the image of |i><j|
        e = np.eye(2)
        rebuilt = np.block([[apply(ch, np.outer(e[i], e[j])) for j in range(2)] for i in range(2)])
        assert np.max(np.abs(rebuilt - ch.choi)) < 1e-12

    def test_constant_map(self):
        ch = amplitude_damping_choi(0.3)
        m = constant_map(ch)
        assert np.allclose(m.evaluate(0.9).choi, ch.choi)
        with pytest.raises(ValueError):
            m.evaluate(-1.0)


class TestChannelValidation:
    def test_rejects_non_hermitian(self):
        bad = identity_channel(2).choi.copy()
        bad[0, 1] = 1.0
        with pytest.raises(ValueError):
            Channel(2, 2, bad)

    def test_rejects_non_cp(self):
        bad = np.diag([1.0, -0.5, 0.5, 2.0]).astype(complex)
        with pytest.raises(ValueError):
            Channel(2, 2, bad)

    def test_rejects_non_tp(self):
        # the second input marginal misses 1 by 1e-6, a thousand times TP_TOL
        for first in (2.0, 1.0 + 1e-6):
            bad = np.diag([first, 0.0, 0.0, 1.0]).astype(complex)
            with pytest.raises(ValueError, match="not trace preserving"):
                Channel(2, 2, bad)


class TestPovm:
    def test_projective(self):
        m = projective_povm(np.eye(2))
        assert len(m) == 2
        assert np.allclose(m.effects[0], KET0)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2) * 0.4, np.eye(2) * 0.4), 2)

    def test_rejects_non_psd_effect(self):
        e = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            Povm((e, np.eye(2) - e), 2)

    def test_pushforward_is_povm(self):
        m = projective_povm(np.eye(2))
        out = pushforward_povm(amplitude_damping_choi(0.4), m)
        total = sum(out.effects)
        assert np.max(np.abs(total - np.eye(2))) < 1e-10

    @pytest.mark.parametrize(
        "m",
        [
            Povm((np.eye(2),), 2),
            projective_povm(np.array([[1, 1], [1j, -1j]]) / np.sqrt(2)),
            trine_povm(),
        ],
        ids=["one-outcome", "two-outcome", "three-outcome"],
    )
    def test_measurement_channel_records_outcome_probabilities(self, m, rng):
        ch = measurement_channel(m)
        assert (ch.din, ch.dout) == (m.dimension, len(m))
        rho = random_density(rng, m.dimension)
        probs = [np.trace(e @ rho) for e in m.effects]
        assert np.allclose(apply(ch, rho), np.diag(probs), atol=1e-12)


NON_HERMITIAN = np.array([[0.5, 0.1], [0.0, 0.5]])   # with 1 - itself, it sums to the identity


@pytest.mark.parametrize(
    "build, phrase",
    [
        (lambda: Channel(2, 2, np.eye(3, dtype=complex)), "choi must be 4x4"),
        (lambda: dual_apply(identity_channel(2), np.eye(3)), "effect must be 2x2"),
        (lambda: Povm((np.eye(3),), 2), "effect shape"),
        (lambda: Povm((NON_HERMITIAN, np.eye(2) - NON_HERMITIAN), 2), "Hermitian"),
        (lambda: projective_povm(np.array([[1.0, 1.0], [0.0, 1.0]])), "orthonormal"),
        (lambda: pushforward_povm(identity_channel(2), projective_povm(np.eye(3))), "dimension must match"),
    ],
    ids=["channel-shape", "dual-apply-shape", "povm-shape", "povm-hermitian", "basis", "pushforward-dim"],
)
def test_rejects_malformed_input(build, phrase):
    with pytest.raises(ValueError, match=phrase):
        build()


class TestJson:
    def test_roundtrip(self):
        ch = eternal_choi(0.3)
        again = channel_from_json(channel_json(ch))
        assert again.din == ch.din and again.dout == ch.dout
        assert np.allclose(again.choi, ch.choi)

    def test_malformed(self):
        with pytest.raises(ValueError):
            channel_from_json(json.dumps({"din": 2, "dout": 2}))

    @pytest.mark.parametrize("din", [2.7, 2.0, "2", True], ids=["fraction", "float", "string", "bool"])
    def test_dimensions_must_be_json_integers(self, din):
        data = json.loads(channel_json(identity_channel(2)))
        with pytest.raises(ValueError, match="must be integers"):
            channel_from_json(json.dumps({**data, "din": din}))
        with pytest.raises(ValueError, match="must be integers"):
            channel_from_json(json.dumps({**data, "dout": din}))


def _rejected_past_and_accepted_inside(build, tol, phrase):
    """build(1.5 * tol) must raise a ValueError matching phrase; build(0.5 * tol) must not raise."""
    with pytest.raises(ValueError, match=phrase):
        build(1.5 * tol)
    build(0.5 * tol)


class TestInputCheckBoundaries:
    """Each input check rejects an input just past its tolerance and accepts one just inside it."""

    def test_cp_eigenvalue_floor(self):
        # a Choi matrix with eigenvalue -e, trace preserving exactly
        _rejected_past_and_accepted_inside(
            lambda e: Channel(2, 2, np.diag([1 + e, -e, 0.5, 0.5]).astype(complex)), 1e-9, "not PSD")

    def test_povm_eigenvalue_floor(self):
        _rejected_past_and_accepted_inside(
            lambda e: Povm((np.diag([-e, 0.0]), np.diag([1 + e, 1.0])), 2), 1e-10, "must be PSD")

    def test_povm_sum_tolerance(self):
        _rejected_past_and_accepted_inside(
            lambda s: Povm((np.eye(2) / 2, np.diag([0.5 + s, 0.5])), 2), 1e-10, "sum to the identity")

    def test_povm_hermiticity_tolerance(self):
        # each effect differs from its adjoint by d in one corner; they still sum to 1
        def build(d):
            skew = np.array([[0.0, d], [0.0, 0.0]])
            return Povm((np.eye(2) / 2 + skew, np.eye(2) / 2 - skew), 2)

        _rejected_past_and_accepted_inside(build, 1e-10, "Hermitian")

    def test_projective_basis_orthonormality(self):
        # basis^H basis misses the identity by 2s + s^2 on one diagonal entry
        _rejected_past_and_accepted_inside(
            lambda dev: projective_povm(np.diag([1.0, 1.0 + dev / 2])), 1e-10, "orthonormal")

    def test_channel_hermiticity_tolerance(self):
        # one corner of the identity's Choi matrix differs from its adjoint by d
        def build(d):
            choi = identity_channel(2).choi.copy()
            choi[0, 1] += d
            return Channel(2, 2, choi)

        _rejected_past_and_accepted_inside(build, 1e-12, "Hermitian")

    def test_depolarizing_lower_end(self):
        _rejected_past_and_accepted_inside(lambda e: depolarizing_choi(-1 / 3 - e), 1e-12, "outside CP range")

    def test_amplitude_damping_upper_end(self):
        _rejected_past_and_accepted_inside(lambda e: amplitude_damping_choi(1 + e), 1e-12, "outside")
