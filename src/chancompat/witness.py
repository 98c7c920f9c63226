"""Physical witnesses along dynamical maps.

The Horodecki teleportation criterion for the one-sidedly evolved singlet,
read from the channel's Choi matrix C, and the CP-indivisibility measure of a
channel-robustness curve (defined in indivisibility_from_curve). The evolved
singlet (1 (x) L)(psi-) is C/2 conjugated by i sigma_y on the input factor,
which only flips the signs of two rows of its Pauli correlation matrix. The
trace-distance (information backflow) witness is the trace_distance column of
robustness.sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .channels import Channel, DynamicalMap, identity_map
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, trace_norm
from .robustness import NoiseClass, sweep

DEAD_BAND = 2e-3
MIN_POINTS_PER_PERIOD = 10

_PAULIS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULI_PAIRS = np.einsum("iac,jbd->ijabcd", _PAULIS, _PAULIS).reshape(9, 4, 4)   # [3i + j] = s_i (x) s_j


@dataclass(frozen=True)
class IndivisibilityReport:
    n_raw: float
    n_normalized: float
    rising_segments: tuple[tuple[float, float], ...]
    curve: tuple[tuple[float, float], ...]   # the (t, r) samples
    indeterminate: tuple[float, ...] = ()   # t of indeterminate values


def teleport_fidelity(ch: Channel) -> tuple[float, float]:
    """Horodecki criterion for the singlet evolved one-sidedly by a qubit channel.

    Returns (n_value, f_max): n_value is the trace norm of the 3x3 Pauli
    correlation matrix S_ij = Re Tr[(s_i (x) s_j) C] / 2, equal up to row
    signs to that of the evolved singlet; the optimal teleportation fidelity
    is (1 + n/3)/2 when n > 1 and the classical 2/3 otherwise.
    """
    if ch.din != 2 or ch.dout != 2:
        raise ValueError(f"teleport_fidelity expects a qubit channel, got {ch.din} -> {ch.dout}")
    s = 0.5 * np.trace(ch.choi @ _PAULI_PAIRS, axis1=1, axis2=2).real.reshape(3, 3)
    n_value = trace_norm(s)
    f_max = 0.5 * (1 + n_value / 3) if n_value > 1 else 2 / 3
    return n_value, f_max


def rising_segments(ts: Sequence[float], values: Sequence[float]) -> list[tuple[float, float]]:
    """Maximal rising stretches of a sampled curve.

    A segment opens on a grid interval climbing by more than DEAD_BAND and
    closes on one falling by more than DEAD_BAND; smaller moves in between
    (the grid-search curve is a step function, so genuine rises contain flat
    treads) neither close the segment nor extend its reported end, which is
    the last climbing interval.
    """
    if len(ts) != len(values):
        raise ValueError("ts and values must have equal length")
    segments = []
    start = None
    end = None
    for k in range(len(ts) - 1):
        step = values[k + 1] - values[k]
        if step > DEAD_BAND:
            if start is None:
                start = ts[k]
            end = ts[k + 1]
        elif step < -DEAD_BAND and start is not None:
            segments.append((start, end))
            start = end = None
    if start is not None:
        segments.append((start, end))
    return segments


def indivisibility_from_curve(
    ts: Sequence[float],
    rs: Sequence[float],
) -> IndivisibilityReport:
    """The CP-indivisibility measure of a sampled robustness curve: N, the
    trapezoid integral of r over the grid intervals where r rises by more
    than DEAD_BAND (which absorbs grid quantization), and N / (1 + N)."""
    segments = tuple(rising_segments(ts, rs))   # checks the lengths first
    total = 0.0
    for k in range(len(ts) - 1):
        if rs[k + 1] - rs[k] > DEAD_BAND:
            total += 0.5 * (rs[k] + rs[k + 1]) * (ts[k + 1] - ts[k])
    return IndivisibilityReport(
        n_raw=total,
        n_normalized=total / (1 + total),
        rising_segments=segments,
        curve=tuple(zip(ts, rs)),
    )


def cp_indivisibility_measure(
    map_: DynamicalMap,
    t_grid: Sequence[float],
    reference: DynamicalMap = identity_map(),
    noise: NoiseClass = NoiseClass.GENERIC,
) -> IndivisibilityReport:
    """The measure of indivisibility_from_curve on the robustness curve
    r(t) of (reference_t, map_t).

    The reference defaults to the identity map and is a fixed choice, not
    optimized over. A grid must resolve the shorter oscillation period of the
    two maps. The times of indeterminate values are listed in the report's
    indeterminate field.
    """
    if len(t_grid) < 3:
        raise ValueError("t_grid too coarse: need at least 3 points")
    period = min((m.period for m in (map_, reference) if m.period is not None), default=None)
    if period is not None:
        max_step = max(b - a for a, b in zip(t_grid, t_grid[1:]))
        if max_step > period / MIN_POINTS_PER_PERIOD + 1e-12:
            raise ValueError(
                f"t_grid step {max_step:g} undersamples the oscillation"
                f" (need <= {period / MIN_POINTS_PER_PERIOD:g})"
            )
    records = sweep(reference, map_, t_grid, noise=NoiseClass(noise))
    report = indivisibility_from_curve([rec.t for rec in records], [rec.r(noise) for rec in records])
    return replace(report, indeterminate=tuple(rec.t for rec in records if rec.indeterminate))
