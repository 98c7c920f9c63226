"""Incompatibility robustness of channel and measurement pairs, and time sweeps.

The noisy pair (C_i + r * C_noise_i) / (1 + r) is compatible when a joint
Choi matrix has it as marginals. In the scaled variables J = (1 + r) * joint
and N_i = r * C_noise_i every constraint is linear in r:

    Tr_out2(J) + q * d_2 * 1 - 1 (x) N_1 = C_1,
    Tr_out1(J) + q * d_1 * 1 - 1 (x) N_2 = C_2,
    J >= 0,  N_i >= 0,  Tr_out(N_i) = r * 1,

where the slack q lifts the joint matrix by q * 1, and N_i comes from a noise
input of dimension n, embedded as 1_(d_in / n) (x) N_i: n = d_in for generic
noise, and n = 1 for completely depolarizing (CD) noise, which is generic
noise from a one-dimensional input. The robustness is one SDP:
minimize r with q = 0. It is always feasible, as every pair is compatible at
r = 1. feasibility_q pins r instead and maximizes q; q / (1 + r) is the
margin of the unscaled joint matrix, nonnegative exactly when the noisy pair
is compatible. A measurement pair is solved as the pair of its
quantum-classical channels under generic noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import sdp
from .channels import Channel, DynamicalMap, Povm, apply, measurement_channel
from .linalg import partial_trace, trace_distance

MAX_MIXING = 1.0          # any pair is compatible at r = 1 for both noise classes
R_TOL = 1e-6              # solver accuracy of r: a value this close above a grid
                          # point belongs to it, and a refined value below it is 0

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


class NoiseClass(Enum):
    GENERIC = "generic"
    COMPLETELY_DEPOLARIZING = "completely_depolarizing"


def parse_noise(value) -> NoiseClass:
    if isinstance(value, NoiseClass):
        return value
    if value in ("generic", "g"):
        return NoiseClass.GENERIC
    if value in ("cd", "completely_depolarizing"):
        return NoiseClass.COMPLETELY_DEPOLARIZING
    raise ValueError(f"unknown noise class {value!r}")


@dataclass(frozen=True)
class RobustnessResult:
    """r_star is trustworthy only when indeterminate is False, i.e. the
    solve reached its optimality tolerance."""

    r_star: float
    indeterminate: bool = False

    def __post_init__(self):
        if not 0 <= self.r_star <= MAX_MIXING:
            raise ValueError(f"r_star {self.r_star} outside [0, 1]")


@dataclass(frozen=True)
class SweepRecord:
    """One time point of a sweep; the CSV row unit. An indeterminate record
    skips the generic <= CD dominance check, so that an unconverged point
    comes back flagged instead of aborting the sweep."""

    t: float
    r_generic: float | None
    r_cd: float | None
    trace_distance: float
    indeterminate: bool = False

    def __post_init__(self):
        for r in (self.r_generic, self.r_cd):
            if r is not None and not -1e-12 <= r <= 1 + 1e-6:
                raise ValueError(f"robustness {r} outside [0, 1 + 1e-6]")
        if self.r_generic is not None and self.r_cd is not None and not self.indeterminate:
            if self.r_generic > self.r_cd + 1e-4:
                raise ValueError(
                    f"generic robustness {self.r_generic} exceeds CD robustness {self.r_cd}"
                )


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _program(din: int, d1: int, d2: int, n_in: int, real: bool, min_r: bool):
    """Read-only (a, c) of the compatibility program of one shape, shared by
    every pair of that shape. Columns: joint, noise1, noise2, q, r. Rows: the
    two marginal equalities, the two trace equalities, then the pin of q to 0
    (min_r) or of r to its given value."""
    def op(fn, d_in, d_out):
        return sdp.linear_map_matrix(fn, d_in, d_out, real)

    def embed(d):  # eta -> 1_(din/n_in) (x) eta; the identity when n_in = din
        return op(lambda e: np.kron(np.eye(din // n_in), e), n_in * d, din * d)

    def tp(d):
        return op(lambda x: partial_trace(x, (n_in, d), {0}), n_in * d, n_in)

    dims = (din, d1, d2)
    t1 = op(lambda x: partial_trace(x, dims, {0, 1}), din * d1 * d2, din * d1)
    t2 = op(lambda x: partial_trace(x, dims, {0, 2}), din * d1 * d2, din * d2)
    e1, e2, tp1, tp2 = embed(d1), embed(d2), tp(d1), tp(d2)
    nj, n1, n2, m1, m2, k = t1.shape[1], e1.shape[1], e2.shape[1], t1.shape[0], t2.shape[0], tp1.shape[0]
    q1 = sdp.pack(d2 * np.eye(din * d1), real)[:, None]
    q2 = sdp.pack(d1 * np.eye(din * d2), real)[:, None]
    r_col = sdp.pack(-np.eye(n_in), real)[:, None]
    z = np.zeros
    a = np.block([
        [t1, -e1, z((m1, n2)), q1, z((m1, 1))],
        [t2, z((m2, n1)), -e2, q2, z((m2, 1))],
        [z((k, nj)), tp1, z((k, n2)), z((k, 1)), r_col],
        [z((k, nj)), z((k, n1)), tp2, z((k, 1)), r_col],
        [z((1, nj + n1 + n2)), np.array([[float(min_r), float(not min_r)]])],
    ])
    c = np.zeros(a.shape[1])
    c[-1 if min_r else -2] = 1.0
    a.flags.writeable = c.flags.writeable = False
    return a, c


def _is_real(*mats: np.ndarray) -> bool:
    return all(np.max(np.abs(m.imag)) == 0 for m in mats)


def channel_feasibility_problem(
    ch1: Channel, ch2: Channel, r: float | None, noise: NoiseClass
) -> sdp.SdpProblem:
    """Compile the scaled compatibility SDP for a channel pair.

    r=None pins q = 0 and minimizes r (the robustness); a number pins r and
    maximizes q (the feasibility margin, scaled by 1 + r). Only b depends on
    the Choi matrices and on r; (a, c) are compiled once per shape.
    """
    if ch1.din != ch2.din:
        raise ValueError("channels must share the input dimension")
    if r is not None and r < 0:
        raise ValueError(f"mixing weight must be nonnegative, got {r}")
    din, d1, d2 = ch1.din, ch1.dout, ch2.dout
    real = _is_real(ch1.choi, ch2.choi)
    n_in = 1 if noise is NoiseClass.COMPLETELY_DEPOLARIZING else din
    a, c = _program(din, d1, d2, n_in, real, r is None)
    b = np.concatenate([
        sdp.pack(ch1.choi, real),
        sdp.pack(ch2.choi, real),
        np.zeros(2 * sdp.vec_size(n_in, real) + 1),
    ])
    b[-1] = 0.0 if r is None else r
    return sdp.SdpProblem(
        blocks={"joint": (din * d1 * d2, real), "noise1": (n_in * d1, real), "noise2": (n_in * d2, real)},
        scalars=("q", "r"),
        a=a,
        b=b,
        c=c,
        sense="min" if r is None else "max",
    )


def measurement_feasibility_problem(m1: Povm, m2: Povm) -> sdp.SdpProblem:
    """Robustness SDP for a measurement pair: the generic-noise channel
    program on their quantum-classical channels. Dephasing both outputs maps
    a joint channel and its noise onto a joint POVM and noise POVMs, so the
    optimum is the measurement robustness."""
    if m1.dimension != m2.dimension:
        raise ValueError("measurements must act on the same dimension")
    return channel_feasibility_problem(
        measurement_channel(m1), measurement_channel(m2), None, NoiseClass.GENERIC
    )


# ---------------------------------------------------------------------------
# Robustness values
# ---------------------------------------------------------------------------

def _robustness_value(problem: sdp.SdpProblem, dr: float | None) -> RobustnessResult:
    """Solve a direct program once and report r itself (dr=None) or its grid
    value: the smallest multiple of dr at or above r - R_TOL, capped at 1."""
    sol = sdp.solve(problem)
    r = min(max(sol.scalar_values["r"], 0.0), MAX_MIXING)
    if dr is None:
        r_star = 0.0 if r <= R_TOL else r
    else:
        r_star = min(max(math.ceil((r - R_TOL) / dr), 0) * dr, MAX_MIXING)
    return RobustnessResult(r_star=r_star, indeterminate=sol.status != "optimal")


def feasibility_q(ch1: Channel, ch2: Channel, r: float, noise: NoiseClass) -> float:
    """Compatibility margin at mixing weight r: the largest q with
    joint - q * 1 >= 0; q >= 0 iff the noisy pair is compatible.

    q is read from the solver's dual objective, which bounds q* from above,
    as robustness reads r from the primal iterate, which bounds r* from
    above. Up to the solver's residuals, both values thus sit on the
    compatible side of the optimum, the side toward which the grid rule
    resolves ties. A negative q still certifies incompatibility.
    """
    problem = channel_feasibility_problem(ch1, ch2, r, parse_noise(noise))
    sol = sdp.solve(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"solver did not converge for probe at r={r} ({sol.status})")
    return sol.dual_objective / (1 + r)


def robustness(
    ch1: Channel,
    ch2: Channel,
    noise: NoiseClass = NoiseClass.GENERIC,
    dr: float = 0.005,
    refine: bool = False,
) -> RobustnessResult:
    """Smallest grid multiple of dr at which the noisy pair turns compatible,
    or with refine=True the solver's r itself."""
    if dr <= 0:
        raise ValueError(f"grid step dr must be positive, got {dr}")
    problem = channel_feasibility_problem(ch1, ch2, None, parse_noise(noise))
    return _robustness_value(problem, None if refine else dr)


def measurement_robustness(m1: Povm, m2: Povm) -> RobustnessResult:
    """Incompatibility robustness of two measurements under generic noise:
    the solver's r of the channel program on their quantum-classical
    channels, with r <= R_TOL reported as 0 (no grid)."""
    return _robustness_value(measurement_feasibility_problem(m1, m2), None)


# ---------------------------------------------------------------------------
# Sweeps along dynamical maps
# ---------------------------------------------------------------------------

def _noise_classes(noise) -> tuple[NoiseClass, ...]:
    if noise == "both":
        return (NoiseClass.GENERIC, NoiseClass.COMPLETELY_DEPOLARIZING)
    return (parse_noise(noise),)


def sweep(
    map1: DynamicalMap,
    map2: DynamicalMap,
    t_grid: Sequence[float],
    noise="both",
    dr: float = 0.005,
    refine: bool = False,
) -> list[SweepRecord]:
    """Robustness and trace-distance witness along a pair of dynamical maps.

    The trace-distance column evolves the state pair |0><0|, |1><1|
    through map2 (the map under study). Each time point is solved cold and
    independently of the others.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must be non-empty")
    if t_grid[0] < 0 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    classes = _noise_classes(noise)
    records = []
    for t in t_grid:
        ch1, ch2 = map1.evaluate(t), map2.evaluate(t)
        results = {nc: robustness(ch1, ch2, nc, dr=dr, refine=refine) for nc in classes}
        gen = results.get(NoiseClass.GENERIC)
        cd = results.get(NoiseClass.COMPLETELY_DEPOLARIZING)
        records.append(SweepRecord(
            t=t,
            r_generic=None if gen is None else gen.r_star,
            r_cd=None if cd is None else cd.r_star,
            trace_distance=trace_distance(apply(ch2, KET0), apply(ch2, KET1)),
            indeterminate=any(res.indeterminate for res in results.values()),
        ))
    return records


def dynamical_map_robustness(
    map1: DynamicalMap,
    map2: DynamicalMap,
    t_grid: Sequence[float],
    noise: NoiseClass = NoiseClass.GENERIC,
    dr: float = 0.005,
) -> RobustnessResult:
    """Map-level robustness: the maximum per-time robustness over the grid,
    indeterminate when any solve along the grid did not converge.

    The supremum over continuous time is approximated at grid resolution.
    """
    noise = parse_noise(noise)
    records = sweep(map1, map2, t_grid, noise=noise, dr=dr)
    values = [
        rec.r_generic if noise is NoiseClass.GENERIC else rec.r_cd for rec in records
    ]
    return RobustnessResult(
        r_star=max(values), indeterminate=any(rec.indeterminate for rec in records)
    )
