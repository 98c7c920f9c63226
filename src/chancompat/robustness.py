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
r = 1. feasibility_q pins r instead and minimizes -q; q / (1 + r) is the
margin of the unscaled joint matrix, nonnegative exactly when the noisy pair
is compatible. A measurement pair is solved as the pair of its
quantum-classical channels under generic noise.
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
    """Read-only (a, c) of the compatibility program of one shape, shared by
    every pair of that shape. Columns: joint, noise1, noise2, q, r. Rows: the
    two marginal equalities, the two trace equalities, then the pin of q to 0
    (min_r, with objective r) or of r to its given value (objective -q)."""
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
    c[-1 if min_r else -2] = 1.0 if min_r else -1.0
    a.flags.writeable = c.flags.writeable = False
    return a, c


def _is_real(*mats: np.ndarray) -> bool:
    return all(np.max(np.abs(m.imag)) == 0 for m in mats)


def channel_feasibility_problem(
    ch1: Channel, ch2: Channel, r: float | None, noise: NoiseClass
) -> sdp.SdpProblem:
    """Compile the scaled compatibility SDP for a channel pair.

    r=None pins q = 0 and minimizes r (the robustness); a number pins r and
    minimizes -q, minus the feasibility margin scaled by 1 + r. Only b depends
    on the Choi matrices and on r; (a, c) are compiled once per shape.

    The robustness program carries the certificate of its bracket. Its
    optimum lies at r <= 1, where Tr J = din (1 + r) <= 2 din,
    Tr N_i = n_in r <= n_in and q = 0. Its strictly feasible point is
    J = C_1 (x) 1/d_2 + 1/d_1 (x) C_2 + 1 (the middle factor on out1),
    N_i = (1/d_i + d_j) 1 and q = 0: then r = 1 + d_1 d_2, and every block
    is >= 1.
    """
    if ch1.din != ch2.din:
        raise ValueError("channels must share the input dimension")
    if r is not None and not 0 <= r < math.inf:
        raise ValueError(f"mixing weight must be nonnegative and finite, got {r}")
    din, d1, d2 = ch1.din, ch1.dout, ch2.dout
    real = _is_real(ch1.choi, ch2.choi)
    n_in = 1 if noise is NoiseClass.COMPLETELY_DEPOLARIZING else din
    blocks = {"joint": (din * d1 * d2, real), "noise1": (n_in * d1, real), "noise2": (n_in * d2, real)}
    sdp.check_dim_guard(blocks)   # before _program compiles anything
    a, c = _program(din, d1, d2, n_in, real, r is None)
    b = np.concatenate([
        sdp.pack(ch1.choi, real),
        sdp.pack(ch2.choi, real),
        np.zeros(2 * sdp.vec_size(n_in, real) + 1),
    ])
    b[-1] = 0.0 if r is None else r
    return sdp.SdpProblem(
        blocks=blocks,
        scalars=("q", "r"),
        a=a,
        b=b,
        c=c,
        certificate=None if r is not None else sdp.Certificate(
            trace_bound=2.0 * (din + n_in),
            interior_value=1.0 + d1 * d2,
            interior_margin=1.0,
        ),
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

    The pinned program minimizes -q, so q is minus its dual objective over
    1 + r, which bounds q* from above. Up to the solver's residuals, q thus
    sits on the compatible side of the optimum, as a grid robustness value
    does: that value is the upper end of the grid cell that holds its
    certified bracket. A negative q still certifies incompatibility.
    """
    problem = channel_feasibility_problem(ch1, ch2, r, NoiseClass(noise))
    sol = sdp.solve(problem)
    if sol.status != "optimal":
        raise RuntimeError(f"solver did not converge at pinned r={r} ({sol.status})")
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
    matrix, so map2 needs din >= 2. A grid value starts from the previous
    time point's settled result of its noise class, as consecutive programs
    differ only a little in b; the first point and refined values are
    solved cold, so records do not depend on where a sweep starts.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("t_grid must be non-empty")
    if not 0 <= t_grid[0] <= t_grid[-1] < math.inf or any(not b > a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be nonnegative, finite and strictly increasing")
    classes = tuple(NoiseClass) if noise == "both" else (NoiseClass(noise),)
    records, warm = [], {}
    for t in t_grid:
        ch1, ch2 = map1.evaluate(t), map2.evaluate(t)
        if ch2.din < 2:
            raise ValueError(f"trace distance needs two input states, but map2 has din={ch2.din}")
        d = ch2.dout
        results = {nc: robustness(ch1, ch2, nc, refine=refine, warm=warm.get(nc)) for nc in classes}
        warm = {} if refine else results
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

