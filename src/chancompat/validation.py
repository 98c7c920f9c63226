"""Named end-to-end checks behind the `validate` command and the acceptance
test suite. Each check returns a CheckResult; expensive sweeps are cached so
checks sharing a figure pay for it once per process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import sdp
from .channels import (
    Channel,
    depolarizing_map,
    identity_channel,
    projective_povm,
    pushforward_povm,
)
from .figures import DR, FIGURES, LAM, OMEGA, default_t_grid
from .robustness import (
    NoiseClass,
    SweepRecord,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from .witness import DEAD_BAND, indivisibility_from_curve, rising_segments, teleport_fidelity


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_T_GRID = tuple(default_t_grid())


@lru_cache(maxsize=None)
def _figure_records(figure_id: int) -> tuple[SweepRecord, ...]:
    spec = FIGURES[figure_id]
    if figure_id == 7:
        return _figure_records(4)
    return tuple(sweep(spec.map1, spec.map2, _T_GRID, noise="both", dr=DR))


def _closed_form_distance() -> list[float]:
    return [math.exp(-LAM * t) * math.cos(OMEGA * t) ** 2 for t in _T_GRID]


def _segments_aligned(
    segs: list[tuple[float, float]], ref: list[tuple[float, float]], tol: float = 0.02
) -> bool:
    return all(
        any(abs(a - ra) <= tol + 1e-9 and abs(b - rb) <= tol + 1e-9 for ra, rb in ref)
        for a, b in segs
    )


def _random_channel(rng: np.random.Generator, din: int = 2, dout: int = 2) -> Channel:
    d = din * dout
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    c = g @ g.conj().T
    marg = np.einsum("ikjk->ij", c.reshape(din, dout, din, dout))
    w, v = np.linalg.eigh(marg)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    fix = np.kron(inv_sqrt, np.eye(dout))
    return Channel(din, dout, fix @ c @ fix.conj().T)


def _random_basis(rng: np.random.Generator, d: int = 2) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def check_depolarizing_zero_crossing() -> CheckResult:
    t0 = time.monotonic()
    recs = _figure_records(1)
    elapsed = time.monotonic() - t0
    rs = [rec.r_cd for rec in recs]
    ts = [rec.t for rec in recs]
    idx = next((i for i in range(len(rs)) if all(v == 0 for v in rs[i:])), None)
    if idx is None:
        return CheckResult("depolarizing_zero_crossing", False, "robustness never settles at 0")
    t_zero = ts[idx]
    analytic = 2 * math.log(1.5)
    ok = 0.79 <= t_zero <= 0.83 and elapsed < 300
    return CheckResult(
        "depolarizing_zero_crossing",
        ok,
        f"first permanently-zero grid point t={t_zero:.2f} (analytic {analytic:.4f});"
        f" sweep took {elapsed:.1f}s",
    )


def check_monotonicity() -> CheckResult:
    recs = _figure_records(1)
    ok = True
    worst = -math.inf
    for column in ("r_generic", "r_cd"):
        vals = [getattr(rec, column) for rec in recs]
        jumps = [b - a for a, b in zip(vals, vals[1:])]
        worst = max(worst, max(jumps))
        ok = ok and all(j <= 2e-3 for j in jumps)
    return CheckResult(
        "monotonicity", ok, f"largest consecutive increase {worst:.2e} (allowed 2e-3)"
    )


def _backflow_check(name: str, figure_id: int) -> CheckResult:
    recs = _figure_records(figure_id)
    ts = [rec.t for rec in recs]
    ref = rising_segments(ts, _closed_form_distance(), DEAD_BAND)
    ok = True
    counts = {}
    for column in ("r_generic", "r_cd"):
        segs = rising_segments(ts, [getattr(rec, column) for rec in recs], DEAD_BAND)
        counts[column] = len(segs)
        ok = ok and len(segs) >= 4 and _segments_aligned(segs, ref)
    return CheckResult(
        name,
        ok,
        f"rising segments generic={counts['r_generic']}, cd={counts['r_cd']}"
        f" (need >= 4, aligned within 0.02 of {len(ref)} trace-distance segments)",
    )


def check_backflow_depolarizing() -> CheckResult:
    return _backflow_check("backflow_depolarizing", 4)


def check_backflow_amplitude_damping() -> CheckResult:
    return _backflow_check("backflow_amplitude_damping", 5)


def check_eternal_no_backflow() -> CheckResult:
    recs = _figure_records(6)
    ts = [rec.t for rec in recs]
    n_gen = len(rising_segments(ts, [rec.r_generic for rec in recs], DEAD_BAND))
    n_cd = len(rising_segments(ts, [rec.r_cd for rec in recs], DEAD_BAND))
    return CheckResult(
        "eternal_no_backflow",
        n_gen == 0 and n_cd == 0,
        f"rising segments generic={n_gen}, cd={n_cd} (need 0)",
    )


def check_upward_closure() -> CheckResult:
    rng = np.random.default_rng(20230817)
    failures = []
    for k in range(20):
        ch1, ch2 = _random_channel(rng), _random_channel(rng)
        res = robustness(ch1, ch2, NoiseClass.GENERIC, refine=True)
        for bump in (0.05, 0.5):
            q = feasibility_q(ch1, ch2, res.r_star + bump, NoiseClass.GENERIC)
            if q < 0:
                failures.append((k, bump, q))
    return CheckResult(
        "upward_closure",
        not failures,
        "q >= 0 at r*+0.05 and r*+0.5 for 20 random pairs"
        if not failures
        else f"violations: {failures}",
    )


def check_measurement_channel_bound() -> CheckResult:
    rng = np.random.default_rng(905)
    pairs = [(_random_basis(rng), _random_basis(rng)) for _ in range(20)]
    d1 = depolarizing_map(LAM)
    d2 = depolarizing_map(LAM, OMEGA)
    times = (0.05, 0.25, 0.45, 0.65, 0.85)
    worst = -math.inf
    for t in times:
        ch1, ch2 = d1.evaluate(t), d2.evaluate(t)
        r_chan = robustness(ch1, ch2, NoiseClass.GENERIC, refine=True).r_star
        for b1, b2 in pairs:
            m1 = pushforward_povm(ch1, projective_povm(b1))
            m2 = pushforward_povm(ch2, projective_povm(b2))
            r_meas = measurement_robustness(m1, m2).r_star
            worst = max(worst, r_meas - r_chan)
    return CheckResult(
        "measurement_channel_bound",
        worst <= 2e-3,
        f"max(R_M - R_C) = {worst:.2e} over 20 projective pairs x 5 times (allowed 2e-3)",
    )


def check_noise_dominance_cap() -> CheckResult:
    worst_gap = -math.inf
    highest = -math.inf
    lowest = math.inf
    flagged = []
    for fig in range(1, 8):
        for rec in _figure_records(fig):
            if rec.indeterminate:
                flagged.append((fig, rec.t))
            worst_gap = max(worst_gap, rec.r_generic - rec.r_cd)
            highest = max(highest, rec.r_cd, rec.r_generic)
            lowest = min(lowest, rec.r_cd, rec.r_generic)
    ok = worst_gap <= 1e-12 and highest <= 1 + 1e-6 and lowest >= 0 and not flagged
    return CheckResult(
        "noise_dominance_cap",
        ok,
        f"max(r_generic - r_cd) = {worst_gap:.2e}, robustness range [{lowest:.4f}, {highest:.4f}];"
        f" indeterminate (figure, t): {flagged or 'none'}",
    )


def check_identity_self_robustness() -> CheckResult:
    ident = identity_channel(2)
    res = robustness(ident, ident, NoiseClass.COMPLETELY_DEPOLARIZING, refine=True)
    ok = abs(res.r_star - 0.5) <= 0.005
    return CheckResult(
        "identity_self_robustness", ok, f"refined r* = {res.r_star:.6f} (expect 0.500 +- 0.005)"
    )


def check_teleportation_curve() -> CheckResult:
    d2 = depolarizing_map(LAM, OMEGA)
    worst = 0.0
    plateau_ok = True
    for t in _T_GRID:
        n, f = teleport_fidelity(d2, t)
        w = math.exp(-LAM * t) * math.cos(OMEGA * t) ** 2
        worst = max(worst, abs(n - 3 * w))
        expected = 2 / 3 if n <= 1 else 0.5 * (1 + n / 3)
        plateau_ok = plateau_ok and f == expected
    ok = worst <= 1e-9 and plateau_ok
    return CheckResult(
        "teleportation_curve",
        ok,
        f"max |n - 3w| = {worst:.2e} (allowed 1e-9); plateau switching {'exact' if plateau_ok else 'broken'}",
    )


def check_measure_signs() -> CheckResult:
    ts = list(_T_GRID)
    ident = FIGURES[4].map1
    curve_d1 = sweep(ident, depolarizing_map(LAM), ts, noise=NoiseClass.GENERIC, dr=DR)
    rep_d1 = indivisibility_from_curve(ts, [r.r_generic for r in curve_d1], ident)
    rep_d2 = indivisibility_from_curve(
        ts, [r.r_generic for r in _figure_records(4)], ident
    )
    rep_ad = indivisibility_from_curve(
        ts, [r.r_generic for r in _figure_records(5)], ident
    )
    ident_ok = all(
        abs(rep.n_normalized - rep.n_raw / (1 + rep.n_raw)) <= 1e-12
        for rep in (rep_d1, rep_d2, rep_ad)
    )
    ok = rep_d1.n_raw == 0 and rep_d2.n_raw > 0 and rep_ad.n_raw > 0 and ident_ok
    return CheckResult(
        "measure_signs",
        ok,
        f"N(divisible)={rep_d1.n_raw:.4f}, N(oscillating)={rep_d2.n_raw:.4f},"
        f" N(damping)={rep_ad.n_raw:.4f}; normalization identity "
        + ("holds" if ident_ok else "broken"),
    )


def check_solver_suite() -> CheckResult:
    rng = np.random.default_rng(4242)
    worst_lp = 0.0
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        h /= np.linalg.norm(h)
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 4)
        prob.add_scalar("t")
        prob.set_objective("max", scalar_coeffs={"t": 1.0})
        prob.add_matrix_equality({"x": 1.0}, scalar_mats={"t": np.eye(4)}, rhs=h)
        sol = sdp.solve(prob)
        worst_lp = max(worst_lp, abs(sol.objective_value - np.linalg.eigvalsh(h)[0]))

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
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", d)
        prob.set_objective("max", block_mats={"x": c})
        for aj in mats:
            prob.add_scalar_equality(
                block_mats={"x": aj}, rhs=np.trace(aj @ x_star).real
            )
        sol = sdp.solve(prob)
        worst_planted = max(worst_planted, abs(sol.objective_value - target))
        if sol.primal_residual > 1e-7:
            worst_planted = math.inf

    g = rng.normal(size=(4, 4))
    h = g + g.T
    def build():
        prob = sdp.SdpProblem()
        prob.add_psd_block("x", 4, real=True)
        prob.add_scalar("t")
        prob.set_objective("max", scalar_coeffs={"t": 1.0})
        prob.add_matrix_equality({"x": 1.0}, scalar_mats={"t": np.eye(4)}, rhs=h)
        return prob
    s1, s2 = sdp.solve(build()), sdp.solve(build())
    replay_ok = (
        s1.iterations == s2.iterations
        and s1.objective_value == s2.objective_value
        and all(np.array_equal(s1.block_values[k], s2.block_values[k]) for k in s1.block_values)
    )
    ok = worst_lp <= 1e-7 and worst_planted <= 1e-6 and replay_ok
    return CheckResult(
        "solver_suite",
        ok,
        f"eigenvalue-LP max error {worst_lp:.2e} (allowed 1e-7); planted max error"
        f" {worst_planted:.2e} (allowed 1e-6); replay {'bitwise identical' if replay_ok else 'diverged'}",
    )


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "depolarizing_zero_crossing": check_depolarizing_zero_crossing,
    "monotonicity": check_monotonicity,
    "backflow_depolarizing": check_backflow_depolarizing,
    "backflow_amplitude_damping": check_backflow_amplitude_damping,
    "eternal_no_backflow": check_eternal_no_backflow,
    "upward_closure": check_upward_closure,
    "measurement_channel_bound": check_measurement_channel_bound,
    "noise_dominance_cap": check_noise_dominance_cap,
    "identity_self_robustness": check_identity_self_robustness,
    "teleportation_curve": check_teleportation_curve,
    "measure_signs": check_measure_signs,
    "solver_suite": check_solver_suite,
}


def run_checks(only: str | None = None) -> list[CheckResult]:
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no check matches {only!r}; available: {', '.join(CHECKS)}")
    return [CHECKS[n]() for n in names]
