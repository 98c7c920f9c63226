"""Incompatibility robustness of channel and measurement pairs, and time sweeps.

The noisy pair (C_i + r * C_noise_i) / (1 + r) is compatible when a joint
Choi matrix has it as marginals. In the scaled variables J = (1 + r) * joint
and N_i = r * C_noise_i every constraint is linear in r:

    Tr_out2(J) + q * d_2 * 1 - 1 (x) N_1 = C_1,
    Tr_out1(J) + q * d_1 * 1 - 1 (x) N_2 = C_2,
    J >= 0,  N_i >= 0,  Tr_out(N_i) = r * 1,

where N_i comes from a noise input of dimension n, embedded as
1_(d_in / n) (x) N_i: n = d_in for generic noise, and n = 1 for completely
depolarizing (CD) noise, which is generic noise from a one-dimensional
input. The robustness program has the one scalar r, leaves the q terms
out and minimizes r; it is always feasible, as every pair is compatible at
r = 1. The margin program of feasibility_q has the one scalar q, which
lifts the joint matrix by q * 1, takes r as data in b and minimizes -q;
q / (1 + r) is the margin of the unscaled joint matrix, nonnegative exactly
when the noisy pair is compatible. A measurement pair is solved as the pair
of its quantum-classical channels under generic noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import sdp
from .channels import Channel, DynamicalMap, Povm, measurement_channel
from .linalg import partial_trace, trace_distance

MAX_MIXING = 1.0          # any pair is compatible at r = 1 for both noise classes
DR = 0.005                # grid step of a reported (unrefined) robustness value
R_TOL = 1e-6              # solver accuracy of r: a value this close above a grid
                          # point belongs to it, and a refined value below it is 0


class NoiseClass(Enum):
    """Noise classes by CLI name; NoiseClass(value) takes a member or that name."""

    GENERIC = "generic"
    COMPLETELY_DEPOLARIZING = "cd"


@dataclass(frozen=True)
class RobustnessResult:
    """r_star is trustworthy only when indeterminate is False, i.e. the
    solver's certified bracket (r_lo, r_hi), which contains r*, settles it:
    both ends lie in one grid cell, or a refined bracket is at most R_TOL
    wide. solution is the solve that gave it."""

    r_star: float
    indeterminate: bool = False
    bracket: tuple[float, float] | None = field(default=None, compare=False)
    solution: sdp.SdpSolution | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.r_star <= MAX_MIXING:
            raise ValueError(f"r_star {self.r_star} outside [0, 1]")


@dataclass(frozen=True)
class SweepRecord:
    """One time point of a sweep and its CSV row, with map2's channel at t.
    An indeterminate record skips the generic <= CD dominance check, so that
    an unsettled point comes back flagged instead of aborting the sweep."""

    t: float
    r_generic: float | None
    r_cd: float | None
    trace_distance: float
    indeterminate: bool = False
    channel: Channel | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        for r in (self.r_generic, self.r_cd):
            if r is not None and not -1e-12 <= r <= 1 + 1e-6:
                raise ValueError(f"robustness {r} outside [0, 1 + 1e-6]")
        if self.r_generic is not None and self.r_cd is not None and not self.indeterminate:
            if self.r_generic > self.r_cd + 1e-4:
                raise ValueError(
                    f"generic robustness {self.r_generic} exceeds CD robustness {self.r_cd}"
                )

    def r(self, noise) -> float | None:
        """The robustness column of a noise class, given as a member or its name."""
        return getattr(self, f"r_{NoiseClass(noise).value}")


# ---------------------------------------------------------------------------
# Problem builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _program(din: int, d1: int, d2: int, n_in: int, real: bool, min_r: bool):
    """One shape, compiled once and shared by its pairs: (program, index,
    scale, ones, certificate). Each variable (joint, noise1, noise2, then
    the scalar) gives its terms in the four equalities of the module
    docstring, in order, and its columns of a are their pack. The
    robustness program (min_r) has the one scalar r and minimizes it; the
    margin program has the one scalar q and minimizes -q, with r in b. b is
    choi[index] * scale, then r * ones: the pack of both Choi matrices from
    the float view of the two, raveled and joined, then of r * 1 twice.

    A robustness problem carries the certificate of its bracket. Its
    optimum lies at r <= 1, where Tr J = din (1 + r) <= 2 din and
    Tr N_i = n_in r <= n_in. Its strictly feasible point is
    J = C_1 (x) 1/d_2 + 1/d_1 (x) C_2 + 1 (the middle factor on out1) and
    N_i = (1/d_i + d_j) 1: then r = 1 + d_1 d_2, and every block is >= 1.
    """
    blocks = {"joint": (din * d1 * d2, real), "noise1": (n_in * d1, real), "noise2": (n_in * d2, real)}
    sdp.check_dim_guard(blocks)   # before any operator is compiled
    o1, o2, o = (np.zeros((d, d)) for d in (din * d1, din * d2, n_in))   # the absent terms
    dims, pad = (din, d1, d2), np.eye(din // n_in)                       # N_i enters as pad (x) N_i

    def scalar(s):   # r or q; the other is the int 0, so that its terms pack as +0.0
        r, q = (s.real.item(), 0) if min_r else (0, s.real.item())
        return [q * d2 * np.eye(din * d1), q * d1 * np.eye(din * d2), -r * np.eye(n_in), -r * np.eye(n_in)]

    a = np.column_stack([sdp.linear_map_matrix(fn, d, real) for fn, d in (
        (lambda j: [partial_trace(j, dims, {0, 1}), partial_trace(j, dims, {0, 2}), o, o], din * d1 * d2),
        (lambda n: [-np.kron(pad, n), o2, partial_trace(n, (n_in, d1), {0}), o], n_in * d1),
        (lambda n: [o1, -np.kron(pad, n), o, partial_trace(n, (n_in, d2), {0})], n_in * d2),
        (scalar, 1),
    )])
    c = np.zeros(a.shape[1])
    c[-1] = 1.0 if min_r else -1.0
    (i1, s1), (i2, s2) = (sdp.pack_gather(din * d, [(slice(None), real)]) for d in (d1, d2))
    return (sdp.SdpProgram(blocks, ("r",) if min_r else ("q",), a, c), np.r_[i1, i2 + 2 * (din * d1) ** 2],
            np.r_[s1, s2], np.tile(sdp.pack(np.eye(n_in), real), 2),
            sdp.Certificate(2.0 * (din + n_in), 1.0 + d1 * d2, 1.0) if min_r else None)


def channel_feasibility_problem(
    ch1: Channel, ch2: Channel, r: float | None, noise: NoiseClass
) -> sdp.SdpProblem:
    """The scaled compatibility SDP for a channel pair: r=None gives the
    robustness program (minimize r), a number the margin program at that r
    (minimize -q, minus the feasibility margin scaled by 1 + r). Only b, the
    packed Choi matrices and r * 1 twice, is built per pair, by the gather
    of its shape; the rest is compiled once per shape (_program).
    """
    if ch1.din != ch2.din:
        raise ValueError("channels must share the input dimension")
    if r is not None and not 0 <= r < math.inf:
        raise ValueError(f"mixing weight must be nonnegative and finite, got {r}")
    din, real = ch1.din, not (ch1.choi.imag.any() or ch2.choi.imag.any())
    n_in = 1 if noise is NoiseClass.COMPLETELY_DEPOLARIZING else din
    program, index, scale, ones, certificate = _program(din, ch1.dout, ch2.dout, n_in, real, r is None)
    choi = np.concatenate((ch1.choi, ch2.choi), axis=None, dtype=complex).view(float)
    b = np.concatenate([choi[index] * scale, (r or 0.0) * ones])
    return sdp.SdpProblem(program, b, certificate)


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

def _grid(r: float) -> float:
    """The grid cell of r: the smallest multiple of DR at or above r - R_TOL, capped at 1."""
    return min(math.ceil((r - R_TOL) / DR) * DR, MAX_MIXING)


def _clip(r: float) -> float:
    return min(max(r, 0.0), MAX_MIXING)


def _robustness_value(
    problem: sdp.SdpProblem, refine: bool, warm: RobustnessResult | None = None
) -> RobustnessResult:
    """Solve a direct program once and report r itself (refine=True, with
    r <= R_TOL as 0) or its certified grid cell.

    The solver's bracket [r_lo, r_hi], clipped to [0, 1], contains r*. A grid
    value stops as soon as both ends lie in one cell and reports that cell; it
    is indeterminate when the last bracket straddles a cell boundary
    k * DR + R_TOL, and then reports the cell of the iterate's r. A refined
    value iterates to the solver's tolerance, stopping early only when
    r_hi <= R_TOL certifies a 0, and is indeterminate when its bracket is
    wider than R_TOL.
    """
    def settled(lo: float, hi: float) -> bool:
        return hi <= R_TOL if refine else _grid(_clip(lo)) == _grid(hi)

    start = None if warm is None or warm.indeterminate else warm.solution
    sol = sdp.solve(problem, settled=settled, warm=start)
    r = _clip(sol.scalar_values["r"])
    lo, hi = (_clip(v) for v in sol.bracket or (0.0, MAX_MIXING))
    if refine:
        r_star, indeterminate = (0.0 if r <= R_TOL else r), hi - lo > R_TOL
    else:
        indeterminate = _grid(lo) != _grid(hi)
        r_star = _grid(r if indeterminate else hi)
    return RobustnessResult(r_star, indeterminate, (lo, hi), sol)


def feasibility_q(ch1: Channel, ch2: Channel, r: float, noise: NoiseClass) -> float:
    """Compatibility margin at mixing weight r: the largest q with
    joint - q * 1 >= 0; q >= 0 iff the noisy pair is compatible.

    The margin program (see the module docstring) minimizes -q, so q is
    minus its dual objective over 1 + r, which bounds q* from above. Up to
    the solver's residuals, q thus sits on the compatible side of the
    optimum, as a grid robustness value does: that value is the upper end of
    the grid cell that holds its certified bracket. A negative q still
    certifies incompatibility.
    """
    problem = channel_feasibility_problem(ch1, ch2, r, NoiseClass(noise))
    sol = sdp.solve(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"solver did not converge on the margin program at r={r} ({sol.status})")
    return -sol.dual_objective / (1 + r)


def robustness(
    ch1: Channel,
    ch2: Channel,
    noise: NoiseClass = NoiseClass.GENERIC,
    refine: bool = False,
    warm: RobustnessResult | None = None,
) -> RobustnessResult:
    """Smallest grid multiple of DR at which the noisy pair turns compatible,
    or with refine=True the solver's r itself. The solve starts from warm's
    iterate (see sdp.solve) unless warm is indeterminate; a settled grid
    value, the cell of r*, does not depend on the start."""
    problem = channel_feasibility_problem(ch1, ch2, None, NoiseClass(noise))
    return _robustness_value(problem, refine, warm)


def measurement_robustness(m1: Povm, m2: Povm) -> RobustnessResult:
    """Incompatibility robustness of two measurements under generic noise:
    the solver's r of the channel program on their quantum-classical
    channels, with r <= R_TOL reported as 0 (no grid)."""
    return _robustness_value(measurement_feasibility_problem(m1, m2), True)


# ---------------------------------------------------------------------------
# Sweeps along dynamical maps
# ---------------------------------------------------------------------------

def sweep(
    map1: DynamicalMap,
    map2: DynamicalMap,
    t_grid: Sequence[float],
    noise="both",
    refine: bool = False,
) -> list[SweepRecord]:
    """Robustness and trace-distance witness along a pair of dynamical maps.

    The trace-distance column compares map2's images of |0><0| and |1><1|
    (map2 is the map under study), the first two diagonal blocks of its Choi
    matrix, so map2 needs din >= 2. A grid value starts from the last solved
    result of its noise class, as consecutive programs differ only a little
    in b; the first point and refined values are solved cold, so records do
    not depend on where a sweep starts. CD is solved first: CD noise is
    generic noise, so a CD bracket ending at or below R_TOL gives the generic 0.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must be non-empty")
    if not 0 <= t_grid[0] <= t_grid[-1] < math.inf or any(not b > a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be nonnegative, finite and strictly increasing")
    classes = tuple(NoiseClass)[::-1] if noise == "both" else (NoiseClass(noise),)
    records, warm = [], {}
    for t in t_grid:
        ch1, ch2 = map1.evaluate(t), map2.evaluate(t)
        if ch2.din < 2:
            raise ValueError(f"trace distance needs two input states, but map2 has din={ch2.din}")
        d, results = ch2.dout, {}
        for nc in classes:    # CD comes first, so results is nonempty only at a generic solve
            if results and (hi := results[NoiseClass.COMPLETELY_DEPOLARIZING].bracket[1]) <= R_TOL:
                results[nc] = RobustnessResult(0.0, bracket=(0.0, hi))
            else:
                results[nc] = warm[nc] = robustness(ch1, ch2, nc, refine=refine, warm=None if refine else warm.get(nc))
        gen = results.get(NoiseClass.GENERIC)
        cd = results.get(NoiseClass.COMPLETELY_DEPOLARIZING)
        records.append(SweepRecord(
            t=t,
            r_generic=None if gen is None else gen.r_star,
            r_cd=None if cd is None else cd.r_star,
            trace_distance=trace_distance(ch2.choi[:d, :d], ch2.choi[d:2 * d, d:2 * d]),
            indeterminate=any(res.indeterminate for res in results.values()),
            channel=ch2,
        ))
    return records

