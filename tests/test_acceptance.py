"""End-to-end acceptance suite.

Each case runs one named check from chancompat.validation at its stated
tolerance and prints a PASS/FAIL line with the measured numbers. Figure
sweeps are cached inside the validation module, so related criteria share
them. Expect a few minutes of runtime for the full module.
"""

from dataclasses import replace

import pytest

from chancompat import sdp, validation
from chancompat.robustness import RobustnessResult, SweepRecord
from chancompat.validation import CHECKS

CRITERIA = [
    "depolarizing_zero_crossing",
    "monotonicity",
    "backflow_depolarizing",
    "backflow_amplitude_damping",
    "eternal_no_backflow",
    "upward_closure",
    "measurement_channel_bound",
    "noise_dominance_cap",
    "identity_self_robustness",
    "teleportation_curve",
    "measure_signs",
    "solver_suite",
]


def test_criteria_registry_is_complete():
    assert CRITERIA == list(CHECKS)


@pytest.mark.parametrize("name", CRITERIA)
def test_acceptance(name):
    result = validation.run_check(name)
    print(f"[{'PASS' if result.passed else 'FAIL'}] {name}: {result.detail}")
    assert result.passed, result.detail


def test_zero_crossing_reports_the_cached_sweeps_time():
    # the time is recorded where the sweep runs, so a cached sweep still reports it
    validation.run_check("monotonicity")
    result = validation.run_check("depolarizing_zero_crossing")
    seconds = validation._SWEEP_SECONDS[1]
    assert seconds > 0.0
    assert result.detail.endswith(f"; sweep took {seconds:.1f}s")
    assert "sweep took 0.0s" not in result.detail


@pytest.mark.parametrize("t_zero, passed", [(0.75, False), (0.81, True), (0.87, False)])
def test_zero_crossing_must_fall_in_its_window(t_zero, passed, monkeypatch):
    # r_cd settles at 0 from t_zero on a step-0.01 grid; only 0.79-0.83 passes
    def settling(figure_id):
        return tuple(
            SweepRecord(t=k / 100, r_generic=0.0, r_cd=0.0 if k >= round(100 * t_zero) else 0.3,
                        trace_distance=0.5)
            for k in range(101)
        ) if figure_id == 1 else ()

    monkeypatch.setattr(validation, "_figure_records", settling)
    monkeypatch.setattr(validation, "_SWEEP_SECONDS", {1: 1.0})
    result = validation.run_check("depolarizing_zero_crossing")
    assert result.passed == passed
    assert result.detail.startswith(f"first permanently-zero grid point t={t_zero:.2f}")


def test_noise_dominance_cap_names_indeterminate_records(monkeypatch):
    flagged = SweepRecord(t=0.7, r_generic=0.1, r_cd=0.2, trace_distance=0.5, indeterminate=True)
    monkeypatch.setattr(validation, "_figure_records", lambda fig: (flagged,) if fig == 6 else ())
    result = validation.run_check("noise_dominance_cap")
    assert not result.passed
    assert "(6, 0.7)" in result.detail


@pytest.mark.parametrize(
    "name, fig",
    [
        ("depolarizing_zero_crossing", 1),
        ("monotonicity", 1),
        ("backflow_depolarizing", 4),
        ("backflow_amplitude_damping", 5),
        ("eternal_no_backflow", 6),
        ("measure_signs", 5),
    ],
)
def test_figure_checks_fail_on_one_indeterminate_record(name, fig, monkeypatch):
    # the cached records with only the flag of t = 0.5 set: values that pass
    cached = validation._figure_records

    def one_flagged(figure_id):
        recs = cached(figure_id)
        if figure_id != fig:
            return recs
        return recs[:50] + (replace(recs[50], indeterminate=True),) + recs[51:]

    monkeypatch.setattr(validation, "_figure_records", one_flagged)
    result = validation.run_check(name)
    assert not result.passed
    assert f"; indeterminate: [({fig}, 0.5)]" in result.detail


@pytest.mark.parametrize(
    "name, fig", [("backflow_depolarizing", 4), ("backflow_amplitude_damping", 5)], ids=["4", "5"]
)
def test_backflow_reference_is_the_records_trace_distance(name, fig, monkeypatch):
    # the figure's records with a flat trace distance: no reference segment is left
    cached = validation._figure_records

    def flat_distance(figure_id):
        recs = cached(figure_id)
        return tuple(replace(rec, trace_distance=0.5) for rec in recs) if figure_id == fig else recs

    monkeypatch.setattr(validation, "_figure_records", flat_distance)
    result = validation.run_check(name)
    assert not result.passed
    assert "of 0 trace-distance segments" in result.detail


@pytest.mark.parametrize("shift, passed", [(0, True), (5, False)])
def test_backflow_segments_must_align_within_segment_tol(shift, passed, monkeypatch):
    # five sawtooth rises of r on a step-0.01 grid; the trace distance rises
    # on the same teeth moved by shift steps: 0.05 is beyond SEGMENT_TOL = 0.02
    def sawtooth(figure_id):
        return tuple(
            SweepRecord(t=k / 100, r_generic=0.005 * (k % 20), r_cd=0.005 * (k % 20),
                        trace_distance=0.005 * ((k - shift) % 20))
            for k in range(101)
        ) if figure_id == 4 else ()

    monkeypatch.setattr(validation, "_figure_records", sawtooth)
    result = validation.run_check("backflow_depolarizing")
    assert result.passed == passed
    assert result.detail.startswith("rising segments generic=5, cd=5")


def test_upward_closure_records_unconverged_probe(monkeypatch):
    def unconverged(ch1, ch2, r, noise):
        raise RuntimeError(f"solver did not converge for probe at r={r} (max_iterations)")

    monkeypatch.setattr(validation, "feasibility_q", unconverged)
    result = validation.run_check("upward_closure")
    assert not result.passed
    assert "(0, 0.05)" in result.detail


@pytest.mark.parametrize(
    "name, phrase",
    [
        ("identity_self_robustness", "; indeterminate"),
        ("measurement_channel_bound", "; indeterminate: [(0.05, 'channel')"),
        ("upward_closure", "(19, 'r*')"),
    ],
)
def test_checks_fail_on_indeterminate_values_within_bounds(name, phrase, monkeypatch):
    # channel values that would pass, flagged as unconverged
    monkeypatch.setattr(validation, "robustness", lambda *a, **k: RobustnessResult(0.5, True))
    monkeypatch.setattr(validation, "measurement_robustness", lambda *a, **k: RobustnessResult(0.0))
    result = validation.run_check(name)
    assert not result.passed
    assert phrase in result.detail
    if name == "measurement_channel_bound":
        # each value is named: the channel value at t, or measurement pair k at t
        assert "(0.05, 'channel')" in result.detail


# failing verdicts: each check is driven to False through its inputs


def test_zero_crossing_fails_when_the_curve_never_settles(monkeypatch):
    recs = tuple(SweepRecord(t=0.1 * k, r_generic=0.1, r_cd=0.2, trace_distance=0.5) for k in range(5))
    monkeypatch.setattr(validation, "_figure_records", lambda fig: recs)
    result = validation.run_check("depolarizing_zero_crossing")
    assert not result.passed
    assert result.detail == "robustness never settles at 0"


def test_upward_closure_lists_its_violations(monkeypatch):
    monkeypatch.setattr(validation, "robustness", lambda *a, **k: RobustnessResult(0.25))
    monkeypatch.setattr(validation, "feasibility_q", lambda *a: -0.01)
    result = validation.run_check("upward_closure")
    assert not result.passed
    assert result.detail.startswith("violations: [(0, 0.05, -0.01), (0, 0.5, -0.01), (1, 0.05, -0.01)")
    assert result.detail.count("-0.01") == 40


def test_solver_suite_fails_on_a_planted_residual(monkeypatch):
    solve = sdp.solve
    monkeypatch.setattr(sdp, "solve", lambda problem: replace(solve(problem), primal_residual=2e-7))
    result = validation.run_check("solver_suite")
    assert not result.passed
    assert "planted max error inf (allowed 1e-6)" in result.detail
