"""Named end-to-end checks behind the `validate` command and the acceptance
test suite. The figure criteria read only their figure's cached sweep
records: robustness by noise class and the `trace_distance` column. Each
check returns a verdict (within_bounds, detail, unconverged), where
unconverged names the values whose solves did not converge; run_check turns
it into a CheckResult that fails on any such value, whatever the bounds say,
and appends "; indeterminate: [...]". Expensive sweeps are cached so checks
sharing a figure pay for it once per process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import sdp
from .channels import Channel, identity_channel, projective_povm, pushforward_povm
from .figures import FIGURES, LAM, OMEGA, default_t_grid
from .robustness import (
    NoiseClass,
    SweepRecord,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from .witness import (
    cp_indivisibility_measure,
    indivisibility_from_curve,
    rising_segments,
    teleport_fidelity,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


Verdict = tuple[bool, str, list]   # (within_bounds, detail, unconverged)


_T_GRID = tuple(default_t_grid())
SEGMENT_TOL = 0.02   # how far a robustness segment's ends may sit from a trace-distance segment's
_SWEEP_SECONDS: dict[int, float] = {}   # wall time of each figure's cached sweep


@lru_cache(maxsize=None)
def _figure_records(figure_id: int) -> tuple[SweepRecord, ...]:
    spec, start = FIGURES[figure_id], time.monotonic()
    records = tuple(sweep(spec.map1, spec.map2, _T_GRID, noise="both"))
    _SWEEP_SECONDS[figure_id] = time.monotonic() - start
    return records


def _flagged(*figure_ids: int) -> list[tuple[int, float]]:
    """(figure, t) of every indeterminate record of the given figures."""
    return [
        (fig, rec.t) for fig in figure_ids for rec in _figure_records(fig) if rec.indeterminate
    ]


def _segments_aligned(segs: list[tuple[float, float]], ref: list[tuple[float, float]]) -> bool:
    return all(
        any(abs(a - ra) <= SEGMENT_TOL + 1e-9 and abs(b - rb) <= SEGMENT_TOL + 1e-9 for ra, rb in ref)
        for a, b in segs
    )


def random_channel(rng: np.random.Generator, din: int = 2, dout: int = 2) -> Channel:
    """Random CPTP map: random PSD Choi with the input marginal whitened."""
    d = din * dout
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = g @ g.conj().T
    marg = np.einsum("ikjk->ij", c.reshape(din, dout, din, dout))
    w, v = np.linalg.eigh(marg)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    fix = np.kron(inv_sqrt, np.eye(dout))
    return Channel(din, dout, fix @ c @ fix.conj().T)


def random_basis(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    """Random unitary: QR of a complex Gaussian matrix, phases fixed."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def check_depolarizing_zero_crossing() -> Verdict:
    recs = _figure_records(1)
    rs = [rec.r_cd for rec in recs]
    ts = [rec.t for rec in recs]
    idx = next((i for i in range(len(rs)) if all(v == 0 for v in rs[i:])), None)
    if idx is None:
        ok, detail = False, "robustness never settles at 0"
    else:
        t_zero = ts[idx]
        analytic, elapsed = 2 * math.log(1.5), _SWEEP_SECONDS[1]
        ok = 0.79 <= t_zero <= 0.83 and elapsed < 300
        detail = (
            f"first permanently-zero grid point t={t_zero:.2f} (analytic {analytic:.4f});"
            f" sweep took {elapsed:.1f}s"
        )
    return ok, detail, _flagged(1)


def check_monotonicity() -> Verdict:
    recs = _figure_records(1)
    ok = True
    worst = -math.inf
    for nc in NoiseClass:
        vals = [rec.r(nc) for rec in recs]
        jumps = [b - a for a, b in zip(vals, vals[1:])]
        worst = max(worst, max(jumps))
        ok = ok and all(j <= 2e-3 for j in jumps)
    return ok, f"largest consecutive increase {worst:.2e} (allowed 2e-3)", _flagged(1)


def _backflow_check(figure_id: int) -> Verdict:
    recs = _figure_records(figure_id)
    ts = [rec.t for rec in recs]
    ref = rising_segments(ts, [rec.trace_distance for rec in recs])
    gen, cd = (rising_segments(ts, [rec.r(nc) for rec in recs]) for nc in NoiseClass)
    return (
        all(len(segs) >= 4 and _segments_aligned(segs, ref) for segs in (gen, cd)),
        f"rising segments generic={len(gen)}, cd={len(cd)}"
        f" (need >= 4, aligned within {SEGMENT_TOL} of {len(ref)} trace-distance segments)",
        _flagged(figure_id),
    )


def check_eternal_no_backflow() -> Verdict:
    recs = _figure_records(6)
    ts = [rec.t for rec in recs]
    n_gen, n_cd = (len(rising_segments(ts, [rec.r(nc) for rec in recs])) for nc in NoiseClass)
    return (
        n_gen == 0 and n_cd == 0,
        f"rising segments generic={n_gen}, cd={n_cd} (need 0)",
        _flagged(6),
    )


def check_upward_closure() -> Verdict:
    rng = np.random.default_rng(20230817)
    violations = []    # (k, bump, q) with q < 0
    unconverged = []   # (k, 'r*') or (k, bump)
    for k in range(20):
        ch1, ch2 = random_channel(rng), random_channel(rng)
        res = robustness(ch1, ch2, NoiseClass.GENERIC, refine=True)
        if res.indeterminate:
            unconverged.append((k, "r*"))
            continue
        for bump in (0.05, 0.5):
            try:
                q = feasibility_q(ch1, ch2, res.r_star + bump, NoiseClass.GENERIC)
            except RuntimeError:
                unconverged.append((k, bump))
                continue
            if q < 0:
                violations.append((k, bump, q))
    if violations:
        return False, f"violations: {violations}", unconverged
    return True, "q >= 0 at r*+0.05 and r*+0.5 for 20 random pairs", unconverged


def check_measurement_channel_bound() -> Verdict:
    rng = np.random.default_rng(905)
    pairs = [(random_basis(rng), random_basis(rng)) for _ in range(20)]
    spec = FIGURES[3]   # the divisible and the oscillating depolarizing map
    times = (0.05, 0.25, 0.45, 0.65, 0.85)
    worst = -math.inf
    unconverged = []   # (t, 'channel') or (t, index of the measurement pair)
    for t in times:
        ch1, ch2 = spec.map1.evaluate(t), spec.map2.evaluate(t)
        r_chan = robustness(ch1, ch2, NoiseClass.GENERIC, refine=True)
        if r_chan.indeterminate:
            unconverged.append((t, "channel"))
        for k, (b1, b2) in enumerate(pairs):
            m1 = pushforward_povm(ch1, projective_povm(b1))
            m2 = pushforward_povm(ch2, projective_povm(b2))
            r_meas = measurement_robustness(m1, m2)
            if r_meas.indeterminate:
                unconverged.append((t, k))
            worst = max(worst, r_meas.r_star - r_chan.r_star)
    detail = f"max(R_M - R_C) = {worst:.2e} over 20 projective pairs x 5 times (allowed 2e-3)"
    return worst <= 2e-3, detail, unconverged


def check_noise_dominance_cap() -> Verdict:
    worst_gap = -math.inf
    highest = -math.inf
    lowest = math.inf
    for fig in range(1, 7):     # figure 7 sweeps the maps of figure 4
        for rec in _figure_records(fig):
            worst_gap = max(worst_gap, rec.r_generic - rec.r_cd)
            highest = max(highest, rec.r_cd, rec.r_generic)
            lowest = min(lowest, rec.r_cd, rec.r_generic)
    ok = worst_gap <= 1e-12 and highest <= 1 + 1e-6 and lowest >= 0
    return (
        ok,
        f"max(r_generic - r_cd) = {worst_gap:.2e}, robustness range [{lowest:.4f}, {highest:.4f}]",
        _flagged(*range(1, 7)),
    )


def check_identity_self_robustness() -> Verdict:
    ident = identity_channel(2)
    res = robustness(ident, ident, NoiseClass.COMPLETELY_DEPOLARIZING, refine=True)
    return (
        abs(res.r_star - 0.5) <= 0.005,
        f"refined r* = {res.r_star:.6f} (expect 0.500 +- 0.005)",
        ["r*"] if res.indeterminate else [],
    )


def check_teleportation_curve() -> Verdict:
    worst = 0.0
    plateau_ok = True
    for t in _T_GRID:
        w = math.exp(-LAM * t) * math.cos(OMEGA * t) ** 2   # figure 7's trace distance
        n, f = teleport_fidelity(FIGURES[7].map2.evaluate(t))
        worst = max(worst, abs(n - 3 * w))
        expected = 2 / 3 if n <= 1 else 0.5 * (1 + n / 3)
        plateau_ok = plateau_ok and f == expected
    return (
        worst <= 1e-9 and plateau_ok,
        f"max |n - 3w| = {worst:.2e} (allowed 1e-9); plateau switching {'exact' if plateau_ok else 'broken'}",
        [],
    )


def check_measure_signs() -> Verdict:
    ts = list(_T_GRID)
    rep_d1 = cp_indivisibility_measure(FIGURES[1].map1, ts)
    rep_d2, rep_ad = (indivisibility_from_curve(ts, [r.r_generic for r in _figure_records(fig)])
                      for fig in (4, 5))
    ident_ok = all(
        abs(rep.n_normalized - rep.n_raw / (1 + rep.n_raw)) <= 1e-12
        for rep in (rep_d1, rep_d2, rep_ad)
    )
    ok = rep_d1.n_raw == 0 and rep_d2.n_raw > 0 and rep_ad.n_raw > 0 and ident_ok
    return (
        ok,
        f"N(divisible)={rep_d1.n_raw:.4f}, N(oscillating)={rep_d2.n_raw:.4f},"
        f" N(damping)={rep_ad.n_raw:.4f}; normalization identity "
        + ("holds" if ident_ok else "broken"),
        [("divisible", t) for t in rep_d1.indeterminate] + _flagged(4, 5),
    )


def _eigenvalue_lp(h: np.ndarray, real: bool) -> sdp.SdpProblem:
    """min -t s.t. X >= 0, X + t * 1 = h; the optimum is minus the smallest eigenvalue."""
    size = sdp.vec_size(h.shape[0], real)
    program = sdp.SdpProgram(
        blocks={"x": (h.shape[0], real)},
        scalars=("t",),
        a=np.hstack([np.eye(size), sdp.pack(np.eye(h.shape[0]), real)[:, None]]),
        c=-np.eye(size + 1)[-1],
    )
    return sdp.SdpProblem(program, sdp.pack(h, real))


def check_solver_suite() -> Verdict:
    rng = np.random.default_rng(4242)
    worst_lp = 0.0
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        h /= np.linalg.norm(h)
        sol = sdp.solve(_eigenvalue_lp(h, real=False))
        worst_lp = max(worst_lp, abs(-sol.objective_value - np.linalg.eigvalsh(h)[0]))

    worst_planted = 0.0
    for _ in range(20):
        d, m = 4, 6
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        x_star = g @ g.conj().T
        mats = []
        for _ in range(m):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            mats.append((g + g.conj().T) / 2)
        y = rng.normal(size=m)
        c = sum(yj * aj for yj, aj in zip(y, mats))
        target = sum(yj * np.trace(aj @ x_star).real for yj, aj in zip(y, mats))
        program = sdp.SdpProgram(
            blocks={"x": (d, False)},
            scalars=(),
            a=np.array([sdp.pack(aj) for aj in mats]),
            c=-sdp.pack(c),
        )
        prob = sdp.SdpProblem(program, np.array([np.trace(aj @ x_star).real for aj in mats]))
        sol = sdp.solve(prob)
        worst_planted = max(worst_planted, abs(-sol.objective_value - target))
        if sol.primal_residual > 1e-7:
            worst_planted = math.inf

    g = rng.normal(size=(4, 4))
    h = g + g.T
    s1, s2 = sdp.solve(_eigenvalue_lp(h, real=True)), sdp.solve(_eigenvalue_lp(h, real=True))
    replay_ok = (
        s1.iterations == s2.iterations
        and s1.objective_value == s2.objective_value
        and all(np.array_equal(s1.block_values[k], s2.block_values[k]) for k in s1.block_values)
    )
    return (
        worst_lp <= 1e-7 and worst_planted <= 1e-6 and replay_ok,
        f"eigenvalue-LP max error {worst_lp:.2e} (allowed 1e-7); planted max error"
        f" {worst_planted:.2e} (allowed 1e-6); replay {'bitwise identical' if replay_ok else 'diverged'}",
        [],
    )


CHECKS: dict[str, Callable[[], Verdict]] = {
    "depolarizing_zero_crossing": check_depolarizing_zero_crossing,
    "monotonicity": check_monotonicity,
    "backflow_depolarizing": lambda: _backflow_check(4),
    "backflow_amplitude_damping": lambda: _backflow_check(5),
    "eternal_no_backflow": check_eternal_no_backflow,
    "upward_closure": check_upward_closure,
    "measurement_channel_bound": check_measurement_channel_bound,
    "noise_dominance_cap": check_noise_dominance_cap,
    "identity_self_robustness": check_identity_self_robustness,
    "teleportation_curve": check_teleportation_curve,
    "measure_signs": check_measure_signs,
    "solver_suite": check_solver_suite,
}


def run_check(name: str) -> CheckResult:
    """Run one criterion. It fails on any unconverged value, whatever its
    bounds say, and its detail names each one."""
    ok, detail, unconverged = CHECKS[name]()
    if unconverged:
        detail += f"; indeterminate: {unconverged}"
    return CheckResult(name, ok and not unconverged, detail)


def run_checks(only: str | None = None) -> list[CheckResult]:
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no check matches {only!r}; available: {', '.join(CHECKS)}")
    return [run_check(n) for n in names]
