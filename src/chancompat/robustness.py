"""Incompatibility robustness of channel and measurement pairs, and time sweeps.

The noisy pair (C_i + r * C_noise_i) / (1 + r) is compatible when a joint
Choi matrix has it as marginals. In the scaled variables J = (1 + r) * joint
and N_i = r * C_noise_i every constraint is linear in r:

    Tr_out2(J) + q * d_2 * 1 - N_1 = C_1,
    Tr_out1(J) + q * d_1 * 1 - N_2 = C_2,
    J >= 0,  N_i >= 0,  Tr_out(N_i) = r * 1          (generic noise), or
                        N_i = 1 (x) eta_i, Tr(eta_i) = r   (CD noise),

where the slack q lifts the joint matrix by q * 1. The robustness is one SDP:
minimize r with q = 0. It is always feasible, as every pair is compatible at
r = 1. feasibility_q pins r instead and maximizes q; q / (1 + r) is the
margin of the unscaled joint matrix, nonnegative exactly when the noisy pair
is compatible. Measurement pairs get the same program over joint POVMs.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import sdp
from .channels import Channel, DynamicalMap, Povm, apply
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
    """One time point of a sweep; the CSV row unit."""

    t: float
    r_generic: float | None
    r_cd: float | None
    trace_distance: float
    indeterminate: bool = False

    def __post_init__(self):
        for r in (self.r_generic, self.r_cd):
            if r is not None and not -1e-12 <= r <= 1 + 1e-6:
                raise ValueError(f"robustness {r} outside [0, 1 + 1e-6]")
        if self.r_generic is not None and self.r_cd is not None:
            if self.r_generic > self.r_cd + 1e-4:
                raise ValueError(
                    f"generic robustness {self.r_generic} exceeds CD robustness {self.r_cd}"
                )


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _marginal_ops(din: int, d1: int, d2: int, real: bool):
    dims = (din, d1, d2)
    t1 = sdp.linear_map_matrix(lambda x: partial_trace(x, dims, {0, 1}), din * d1 * d2, din * d1, real)
    t2 = sdp.linear_map_matrix(lambda x: partial_trace(x, dims, {0, 2}), din * d1 * d2, din * d2, real)
    return t1, t2


@lru_cache(maxsize=None)
def _tp_op(din: int, dout: int, real: bool):
    return sdp.linear_map_matrix(lambda x: partial_trace(x, (din, dout), {0}), din * dout, din, real)


@lru_cache(maxsize=None)
def _cd_embed_op(din: int, dout: int, real: bool):
    return sdp.linear_map_matrix(lambda e: np.kron(np.eye(din), e), dout, din * dout, real)


def _is_real(*mats: np.ndarray) -> bool:
    return all(np.max(np.abs(m.imag)) == 0 for m in mats)


def channel_feasibility_problem(
    ch1: Channel, ch2: Channel, r: float | None, noise: NoiseClass, real: bool | None = None
) -> sdp.SdpProblem:
    """Compile the scaled compatibility SDP for a channel pair.

    r=None pins q = 0 and minimizes r (the robustness); a number pins r and
    maximizes q (the feasibility margin, scaled by 1 + r).
    """
    if ch1.din != ch2.din:
        raise ValueError("channels must share the input dimension")
    if r is not None and r < 0:
        raise ValueError(f"mixing weight must be nonnegative, got {r}")
    din, d1, d2 = ch1.din, ch1.dout, ch2.dout
    if real is None:
        real = _is_real(ch1.choi, ch2.choi)
    cd = noise is NoiseClass.COMPLETELY_DEPOLARIZING

    p = sdp.SdpProblem()
    p.add_psd_block("joint", din * d1 * d2, real=real)
    if cd:
        p.add_psd_block("noise1", d1, real=real)
        p.add_psd_block("noise2", d2, real=real)
    else:
        p.add_psd_block("noise1", din * d1, real=real)
        p.add_psd_block("noise2", din * d2, real=real)
    p.add_scalar("q")
    p.add_scalar("r")

    t1, t2 = _marginal_ops(din, d1, d2, real)
    for which, (top, ch, dother) in enumerate([(t1, ch1, d2), (t2, ch2, d1)], start=1):
        name = f"noise{which}"
        noise_op = -_cd_embed_op(din, ch.dout, real) if cd else -1.0
        p.add_matrix_equality(
            block_ops={"joint": top, name: noise_op},
            scalar_mats={"q": dother * np.eye(din * ch.dout)},
            rhs=ch.choi.real if real else ch.choi,
        )
    if cd:
        for which, d in ((1, d1), (2, d2)):
            p.add_scalar_equality(block_mats={f"noise{which}": np.eye(d)}, scalar_coeffs={"r": -1.0})
    else:
        for which, d in ((1, d1), (2, d2)):
            p.add_matrix_equality(
                block_ops={f"noise{which}": _tp_op(din, d, real)},
                scalar_mats={"r": -np.eye(din)},
                rhs=np.zeros((din, din)),
            )
    if r is None:
        p.add_scalar_equality(scalar_coeffs={"q": 1.0}, rhs=0.0)
        p.set_objective("min", scalar_coeffs={"r": 1.0})
    else:
        p.add_scalar_equality(scalar_coeffs={"r": 1.0}, rhs=r)
        p.set_objective("max", scalar_coeffs={"q": 1.0})
    return p


def measurement_feasibility_problem(m1: Povm, m2: Povm, real: bool | None = None) -> sdp.SdpProblem:
    """Robustness SDP for a measurement pair: minimize r such that a joint
    POVM J_ij has marginals E_i + Na_i and F_j + Nb_j with noise POVMs
    summing to r * 1."""
    if m1.dimension != m2.dimension:
        raise ValueError("measurements must act on the same dimension")
    d = m1.dimension
    n1, n2 = len(m1), len(m2)
    if real is None:
        real = _is_real(*m1.effects, *m2.effects)
    eye_op = sdp.linear_map_matrix(lambda x: x, d, d, real)

    p = sdp.SdpProblem()
    for i in range(n1):
        for j in range(n2):
            p.add_psd_block(f"joint{i}{j}", d, real=real)
    for i in range(n1):
        p.add_psd_block(f"na{i}", d, real=real)
    for j in range(n2):
        p.add_psd_block(f"nb{j}", d, real=real)
    p.add_scalar("r")
    p.set_objective("min", scalar_coeffs={"r": 1.0})

    for i, effect in enumerate(m1.effects):
        ops = {f"joint{i}{j}": eye_op for j in range(n2)}
        ops[f"na{i}"] = -1.0
        p.add_matrix_equality(block_ops=ops, rhs=effect.real if real else effect)
    for j, effect in enumerate(m2.effects):
        ops = {f"joint{i}{j}": eye_op for i in range(n1)}
        ops[f"nb{j}"] = -1.0
        p.add_matrix_equality(block_ops=ops, rhs=effect.real if real else effect)
    for prefix, count in (("na", n1), ("nb", n2)):
        p.add_matrix_equality(
            block_ops={f"{prefix}{k}": eye_op for k in range(count)},
            scalar_mats={"r": -np.eye(d)},
            rhs=np.zeros((d, d)),
        )
    return p


# ---------------------------------------------------------------------------
# Robustness values
# ---------------------------------------------------------------------------

def _robustness_value(problem: sdp.SdpProblem, dr: float, refine: bool) -> RobustnessResult:
    """Solve a direct program once and report r, or its grid value: the
    smallest multiple of dr at or above r - R_TOL, capped at 1."""
    if dr <= 0:
        raise ValueError(f"grid step dr must be positive, got {dr}")
    sol = sdp.solve(problem)
    r = min(max(sol.scalar_values["r"], 0.0), MAX_MIXING)
    if refine:
        r_star = 0.0 if r <= R_TOL else r
    else:
        r_star = min(max(math.ceil((r - R_TOL) / dr), 0) * dr, MAX_MIXING)
    return RobustnessResult(r_star=r_star, indeterminate=sol.status != "optimal")


def feasibility_q(ch1: Channel, ch2: Channel, r: float, noise: NoiseClass) -> float:
    """Compatibility margin at mixing weight r: the largest q with
    joint - q * 1 >= 0; q >= 0 iff the noisy pair is compatible."""
    problem = channel_feasibility_problem(ch1, ch2, r, parse_noise(noise))
    sol = sdp.solve(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"solver did not converge for probe at r={r} ({sol.status})")
    return sol.scalar_values["q"] / (1 + r)


def robustness(
    ch1: Channel,
    ch2: Channel,
    noise: NoiseClass = NoiseClass.GENERIC,
    dr: float = 0.005,
    refine: bool = False,
) -> RobustnessResult:
    """Smallest grid multiple of dr at which the noisy pair turns compatible,
    or with refine=True the solver's r itself."""
    problem = channel_feasibility_problem(ch1, ch2, None, parse_noise(noise))
    return _robustness_value(problem, dr, refine)


def measurement_robustness(
    m1: Povm, m2: Povm, dr: float = 0.005, refine: bool = True
) -> RobustnessResult:
    """Incompatibility robustness of two measurements under generic noise."""
    return _robustness_value(measurement_feasibility_problem(m1, m2), dr, refine)


# ---------------------------------------------------------------------------
# Sweeps along dynamical maps
# ---------------------------------------------------------------------------

def _sweep_point(args) -> SweepRecord:
    map1, map2, t, classes, dr, refine, states = args
    ch1, ch2 = map1.evaluate(t), map2.evaluate(t)
    results: dict[NoiseClass, RobustnessResult] = {
        nc: robustness(ch1, ch2, nc, dr=dr, refine=refine) for nc in classes
    }
    rho1, rho2 = states
    dist = trace_distance(apply(ch2, rho1), apply(ch2, rho2))
    gen = results.get(NoiseClass.GENERIC)
    cd = results.get(NoiseClass.COMPLETELY_DEPOLARIZING)
    return SweepRecord(
        t=t,
        r_generic=None if gen is None else gen.r_star,
        r_cd=None if cd is None else cd.r_star,
        trace_distance=dist,
        indeterminate=any(res.indeterminate for res in results.values()),
    )


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
    workers: int = 1,
    states: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[SweepRecord]:
    """Robustness and trace-distance witness along a pair of dynamical maps.

    The trace-distance column evolves the default state pair |0><0|, |1><1|
    through map2 (the map under study). Each time point is solved cold and
    independently, so results do not depend on the worker count.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must be non-empty")
    if t_grid[0] < 0 or any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be nonnegative and strictly increasing")
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    classes = _noise_classes(noise)
    states = (KET0, KET1) if states is None else states
    jobs = [(map1, map2, t, classes, dr, refine, states) for t in t_grid]
    if workers == 1:
        return [_sweep_point(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_point, jobs, chunksize=1))


def dynamical_map_robustness(
    map1: DynamicalMap,
    map2: DynamicalMap,
    t_grid: Sequence[float],
    noise: NoiseClass = NoiseClass.GENERIC,
    dr: float = 0.005,
    **kwargs,
) -> float:
    """Map-level robustness: the maximum per-time robustness over the grid.

    The supremum over continuous time is approximated at grid resolution.
    """
    noise = parse_noise(noise)
    records = sweep(map1, map2, t_grid, noise=noise, dr=dr, **kwargs)
    values = [
        rec.r_generic if noise is NoiseClass.GENERIC else rec.r_cd for rec in records
    ]
    return max(values)
