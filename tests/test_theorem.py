"""The paper's theorem on random dynamical maps, judged by certified brackets.

A CP-divisible map has L(t') = V(t', t) o L(t) for a channel V at every
t' >= t. Post-processing each channel of a compatible pair keeps it
compatible, and keeps noise in its class: generic stays generic, and a
replacement (CD) channel stays one. So r(V1 o C1, V2 o C2) <= r(C1, C2) in
both classes, and r never rises along a pair of CP-divisible maps. Every
refined value carries a certified bracket [lo, hi] of r*, so "no rise" from
a value to a later one is lo(later) <= hi(earlier), with no tolerance, and
no value may be indeterminate.

The divisible draws are random qubit Lindblad semigroups exp(tG) (Gorini,
Kossakowski and Sudarshan; Lindblad), switched generators (exp(tG_a), then
exp((t - 1)G_b) exp(G_a) after t = 1), which are divisible but not
semigroups, and random post-processings of random pairs. The
CP-indivisible family exp((t + 0.4 sin 6t)G) is CP at every t but runs
time backwards in places: its pairs must rise somewhere, so that the
checks can fail, and only on intervals that the intermediate-map oracle of
Rivas, Huelga and Plenio (conftest.divisible_on) marks.

Tier-1 runs a small draw; the script runs a larger one:

    python tests/test_theorem.py    # exits 1 and names each violation
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chancompat.channels import Channel, DynamicalMap, compose  # noqa: E402
from chancompat.robustness import NoiseClass, robustness  # noqa: E402
from chancompat.validation import random_basis  # noqa: E402
from conftest import divisible_on, superoperator  # noqa: E402

SEED = 18
STEP = 0.05        # the script's grid step over [0, T_MAX]
T_MAX = 2.0


def lindblad_generator(rng: np.random.Generator) -> np.ndarray:
    """A random qubit generator -i[H, .] + sum_k L_k . L_k^+ - {L_k^+ L_k, .}/2
    as a superoperator on row-major vec, where vec(A rho B) = (A (x) B^T) vec(rho)."""
    eye, s = np.eye(2), np.zeros((4, 4), complex)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    h = (g + g.conj().T) / 2
    for _ in range(2):
        jump = 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        loss = jump.conj().T @ jump
        s += np.kron(jump, jump.conj()) - (np.kron(loss, eye) + np.kron(eye, loss.T)) / 2
    return s - 1j * (np.kron(h, eye) - np.kron(eye, h.T))


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: a Taylor series of a / 2^k, |a / 2^k| <= 1/2, squared k times."""
    k = max(0, math.ceil(math.log2(max(np.abs(a).sum(1).max(), 1e-300) / 0.5)))
    a, term = a / 2**k, np.eye(len(a), dtype=a.dtype)
    out = term.copy()
    for n in range(1, 18):
        term = term @ a / n
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def qubit_channel(s: np.ndarray) -> Channel:
    """The qubit channel of a superoperator, inverting conftest.superoperator."""
    choi = s.reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(4, 4)
    return Channel(2, 2, (choi + choi.conj().T) / 2)


def semigroup(g: np.ndarray) -> DynamicalMap:
    return DynamicalMap("semigroup", lambda t: qubit_channel(expm(t * g)))


def switched(g_a: np.ndarray, g_b: np.ndarray) -> DynamicalMap:
    first = expm(g_a)
    return DynamicalMap("switched", lambda t: qubit_channel(
        expm(t * g_a) if t <= 1 else expm((t - 1) * g_b) @ first))


def indivisible(g: np.ndarray) -> DynamicalMap:
    return DynamicalMap("indivisible", lambda t: qubit_channel(expm((t + 0.4 * math.sin(6 * t)) * g)))


def brackets(ch1: Channel, ch2: Channel) -> dict:
    """The certified bracket of each class's refined r, solved cold."""
    out = {}
    for nc in NoiseClass:
        res = robustness(ch1, ch2, nc, refine=True)
        assert not res.indeterminate, (nc, res)
        out[nc] = res.bracket
    return out


def rises(map1: DynamicalMap, map2: DynamicalMap, grid) -> list[tuple[int, NoiseClass, float]]:
    """Every certified rise (k, class, lo(t_k+1) - hi(t_k)) along the pair's refined curve."""
    curve = [brackets(map1.evaluate(t), map2.evaluate(t)) for t in grid]
    return [(k, nc, b[nc][0] - a[nc][1]) for k, (a, b) in enumerate(zip(curve, curve[1:]))
            for nc in NoiseClass if b[nc][0] > a[nc][1]]


def _kraus_channel(kraus) -> Channel:
    vecs = [k.T.reshape(-1) for k in kraus]    # input (x) output, as conftest.isometry_channel
    return Channel(kraus[0].shape[1], kraus[0].shape[0], sum(np.outer(v, v.conj()) for v in vecs))


def _near_isometry(rng: np.random.Generator, dout: int) -> Channel:
    """A qubit -> dout channel near an isometry: its first two columns of a random
    unitary, and an amplitude-damping-like jump of random strength."""
    v, p = random_basis(rng, dout)[:, :2], rng.uniform(0.0, 0.3)
    jump = np.zeros((dout, 2), complex)
    jump[:, 0] = math.sqrt(p) * v[:, 1]
    return _kraus_channel([v @ np.diag([math.sqrt(1 - p), 1.0]), jump])


def _back_to_a_qubit(rng: np.random.Generator, dout: int) -> Channel:
    """A random dout -> qubit post-processing: two rows of a random unitary
    kept and the other levels sent to a random pure state, then a damping."""
    u, psi = random_basis(rng, dout), random_basis(rng, 2)[:, 0]
    return compose(_near_isometry(rng, 2), _kraus_channel([u[:2], *(np.outer(psi, row) for row in u[2:])]))


def processing_violations(rng: np.random.Generator, pairs: int) -> tuple[list, int]:
    """Post-process random pairs back to a qubit: each (pair, class) whose
    bracket after lies wholly above the one before, and how many fall strictly."""
    bad, lower = [], 0
    for k in range(pairs):
        dout = 2 + k % 2
        c1, c2 = _near_isometry(rng, dout), _near_isometry(rng, dout)
        before = brackets(c1, c2)
        after = brackets(compose(_back_to_a_qubit(rng, dout), c1), compose(_back_to_a_qubit(rng, dout), c2))
        bad += [(k, nc) for nc in NoiseClass if after[nc][0] > before[nc][1]]
        lower += sum(after[nc][1] < before[nc][0] for nc in NoiseClass)
    return bad, lower


def divisible_rises(rng: np.random.Generator, semigroups: int, switches: int, grid) -> list:
    """Every certified rise along random semigroup pairs, then switched pairs."""
    found = []
    for k in range(semigroups):
        g1, g2 = lindblad_generator(rng), lindblad_generator(rng)
        found += [("semigroup", k, *rise) for rise in rises(semigroup(g1), semigroup(g2), grid)]
    for k in range(switches):
        g = [lindblad_generator(rng) for _ in range(4)]
        found += [("switched", k, *rise) for rise in rises(switched(*g[:2]), switched(*g[2:]), grid)]
    return found


def indivisible_rises(rng: np.random.Generator, pairs: int, grid) -> tuple[int, list]:
    """How many certified rises the indivisible pairs show, and those on unmarked intervals."""
    count, unmarked = 0, []
    for k in range(pairs):
        map1, map2 = indivisible(lindblad_generator(rng)), indivisible(lindblad_generator(rng))
        for j, nc, by in rises(map1, map2, grid):
            count += 1
            t0, t1 = grid[j], grid[j + 1]
            if divisible_on(map1, t0, t1) and divisible_on(map2, t0, t1):
                unmarked.append((k, t0, nc.value, by))
    return count, unmarked


def test_generator_exponentials_form_a_semigroup_of_channels():
    # the superoperator inverts conftest.superoperator, and exp(sG) exp(tG) = exp((s + t)G)
    g = lindblad_generator(np.random.default_rng(SEED))
    assert np.allclose(expm(0 * g), np.eye(4)) and np.allclose(expm(0.3 * g) @ expm(0.5 * g), expm(0.8 * g))
    assert np.allclose(superoperator(qubit_channel(expm(0.7 * g))), expm(0.7 * g), atol=1e-12)


def test_divisible_maps_never_rise():
    grid = np.arange(11) * 0.2
    assert divisible_rises(np.random.default_rng(SEED), semigroups=2, switches=1, grid=grid) == []


def test_post_processing_never_raises_robustness():
    bad, lower = processing_violations(np.random.default_rng(SEED), pairs=8)
    assert bad == [] and lower >= 4


def test_indivisible_family_rises_only_on_marked_intervals():
    count, unmarked = indivisible_rises(np.random.default_rng(SEED), pairs=1, grid=np.arange(21) * 0.05)
    assert count >= 1 and unmarked == []


def main() -> int:
    start, grid = time.monotonic(), np.arange(round(T_MAX / STEP) + 1) * STEP
    rng = np.random.default_rng(SEED + 1)
    divisible = divisible_rises(rng, semigroups=10, switches=5, grid=grid)
    processed, lower = processing_violations(rng, pairs=40)
    count, unmarked = indivisible_rises(rng, pairs=5, grid=grid)
    for line in [*divisible, *processed, *unmarked]:
        print(f"VIOLATION {line}", file=sys.stderr)
    print(f"divisible: 15 pairs, {len(divisible)} certified rises; post-processing: 80 values,"
          f" {len(processed)} raised, {lower} strictly lower; indivisible: {count} certified rises,"
          f" {len(unmarked)} unmarked ({time.monotonic() - start:.1f}s)")
    return 1 if divisible or processed or unmarked or not count else 0


if __name__ == "__main__":
    sys.exit(main())
