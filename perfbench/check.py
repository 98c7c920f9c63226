"""Correctness of the values a cycle produced.

Three kinds of evidence, applied to every value:

- closed form: for two depolarizing qubit maps with shrink factors w1, w2
  the CD-noise robustness is r = max(0, (w1^2 + w2^2 + w1 w2)/(w1 + w2) - 1),
  and the grid search must return the smallest multiple of dr >= r - 1e-6;
- reference: the values the seed program produced, stored in
  `reference.json`; grid values must agree within one dr step, refined
  values within 1e-5, other CSV columns within 1e-7;
- invariants: 0 <= r <= 1, r_generic <= r_cd for the same input, and
  q(r* + 0.05) >= 0 where the workload probed it.

Run this file to test the checker itself: `python3 perfbench/check.py`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DR, Value

REFERENCE = Path(__file__).with_name("reference.json")
REFINE_TOL = 1e-5
AUX_TOL = 1e-7
EXACT_TOL = 1e-9
FEAS_TOL = 1e-7


def closed_form_r_cd(w1: float, w2: float, dr: float = DR) -> float:
    r = max(0.0, (w1 * w1 + w2 * w2 + w1 * w2) / (w1 + w2) - 1.0)
    return min(math.ceil((r - 1e-6) / dr) * dr, 1.0)


def load_reference() -> dict[str, dict]:
    return json.loads(REFERENCE.read_text())["values"]


@dataclass
class Tally:
    attempted: int = 0
    errors: int = 0      # the call raised or returned no value
    flagged: int = 0     # a value returned, but resting on an indeterminate probe
    wrong: int = 0
    unreferenced: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed_frac(self) -> float:
        return (self.errors + self.flagged) / self.attempted

    @property
    def wrong_frac(self) -> float:
        return self.wrong / self.attempted

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.errors += other.errors
        self.flagged += other.flagged
        self.wrong += other.wrong
        self.unreferenced += other.unreferenced
        self.problems += other.problems


def _value_problems(v: Value, ref: dict | None) -> list[str]:
    out = []
    if not -EXACT_TOL <= v.r <= 1 + 1e-6:
        out.append(f"r={v.r} outside [0, 1]")
    if v.weights is not None:
        expect = closed_form_r_cd(*v.weights)
        if abs(v.r - expect) > EXACT_TOL:
            out.append(f"r={v.r} but closed form gives {expect}")
    if "q_plus" in v.aux and v.aux["q_plus"] < -FEAS_TOL:
        out.append(f"q(r*+0.05)={v.aux['q_plus']:.3e} < 0")
    if ref is not None:
        tol = REFINE_TOL if v.refined else DR
        if abs(v.r - ref["r"]) > tol + EXACT_TOL:
            out.append(f"r={v.r} vs reference {ref['r']} (tolerance {tol})")
        for name, expect in ref.get("aux", {}).items():
            got = v.aux.get(name)
            if got is None or abs(got - expect) > AUX_TOL:
                out.append(f"{name}={got} vs reference {expect}")
    return out


def tally(values: list[Value], reference: dict[str, dict]) -> Tally:
    t = Tally(attempted=len(values))
    by_key = {v.key: v for v in values}
    for v in values:
        if v.error is not None:
            t.errors += 1
            t.problems.append(f"{v.key}: error {v.error}")
            continue
        t.flagged += v.flagged
        ref = reference.get(v.key)
        t.unreferenced += ref is None
        problems = _value_problems(v, ref)
        if v.key.endswith("/generic"):
            cd = by_key.get(v.key[: -len("generic")] + "cd")
            if cd is not None and cd.r is not None:
                slack = REFINE_TOL if v.refined else EXACT_TOL
                if v.r > cd.r + slack:
                    problems.append(f"r_generic={v.r} > r_cd={cd.r}")
        if problems:
            t.wrong += 1
            t.problems += [f"{v.key}: {p}" for p in problems]
    return t


def self_test() -> None:
    """The checker must catch a value off by two grid steps and count a
    flagged value as failed; one grid step is within tolerance."""
    ref = {"fig5/t=0.5/generic": {"r": 0.1}, "pair0/generic": {"r": 0.2}}

    def run(*values: Value) -> Tally:
        return tally(list(values), ref)

    cases = [
        ("two grid steps off is wrong", run(Value("fig5/t=0.5/generic", r=0.1 + 2 * DR)).wrong == 1),
        ("one grid step off is right", run(Value("fig5/t=0.5/generic", r=0.1 + DR)).wrong == 0),
        ("refined value off by 2e-5 is wrong",
         run(Value("pair0/generic", r=0.2 + 2e-5, refined=True)).wrong == 1),
        ("flagged value counts as failed",
         run(Value("fig5/t=0.5/generic", r=0.1, flagged=True)).failed_frac == 1.0),
        ("error counts as failed", run(Value("fig5/t=0.5/generic", error="boom")).failed_frac == 1.0),
        ("closed form off by one grid step is wrong",
         run(Value("fig1/t=0/cd", r=0.5 + DR, weights=(1.0, 1.0))).wrong == 1),
        ("closed form of two identities is 0.5",
         run(Value("fig1/t=0/cd", r=0.5, weights=(1.0, 1.0))).wrong == 0),
        ("r_generic above r_cd is wrong",
         run(Value("x/generic", r=0.3), Value("x/cd", r=0.2)).wrong == 1),
        ("negative q at r*+0.05 is wrong",
         run(Value("x/cd", r=0.2, aux={"q_plus": -1e-3})).wrong == 1),
    ]
    failed = [name for name, ok in cases if not ok]
    if failed:
        raise RuntimeError(f"checker self-test failed: {failed}")


if __name__ == "__main__":
    self_test()
    print("checker self-test passed")
