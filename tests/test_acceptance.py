"""End-to-end acceptance suite.

Each case runs one named check from chancompat.validation at its stated
tolerance and prints a PASS/FAIL line with the measured numbers. Figure
sweeps are cached inside the validation module, so related criteria share
them. Expect a few minutes of runtime for the full module.
"""

import pytest

from chancompat import validation
from chancompat.robustness import SweepRecord
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
    result = CHECKS[name]()
    print(f"[{'PASS' if result.passed else 'FAIL'}] {name}: {result.detail}")
    assert result.passed, result.detail


def test_noise_dominance_cap_names_indeterminate_records(monkeypatch):
    flagged = SweepRecord(t=0.7, r_generic=0.1, r_cd=0.2, trace_distance=0.5, indeterminate=True)
    monkeypatch.setattr(validation, "_figure_records", lambda fig: (flagged,) if fig == 6 else ())
    result = validation.check_noise_dominance_cap()
    assert not result.passed
    assert "(6, 0.7)" in result.detail
