"""Named map families, default parameters, and the figures as family pairs.

Defaults follow the reference setup: lam = alpha = 0.5, omega = 5*pi,
t from 0 to 1 in steps of 0.01 (robustness values use the grid robustness.DR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .channels import (
    DynamicalMap,
    amplitude_damping_map,
    depolarizing_map,
    eternal_map,
    identity_map,
)

LAM = 0.5
OMEGA = 5 * math.pi
ALPHA = 0.5
T_STEP = 0.01
T_MAX = 1.0


def default_t_grid(t_min: float = 0.0, t_max: float = T_MAX, t_step: float = T_STEP) -> list[float]:
    """t_min + k * t_step with exactly floor((t_max - t_min)/t_step) + 1 points."""
    for name, value in (("t_min", t_min), ("t_max", t_max), ("t_step", t_step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if t_step <= 0:
        raise ValueError(f"t_step must be positive, got {t_step}")
    if t_max < t_min:
        raise ValueError(f"t_max {t_max} below t_min {t_min}")
    steps = (t_max - t_min) / t_step
    if not math.isfinite(steps):
        raise ValueError(f"t_step {t_step} over the span {t_max - t_min} gives {steps} steps")
    count = int(math.floor(steps + 1e-9)) + 1
    return [round(t_min + k * t_step, 12) for k in range(count)]


# family name -> its map at decay rates lam (depolarizing) and alpha (damping)
# and oscillation frequency omega; a family ignores the rates it does not use
FAMILIES: dict[str, Callable[[float, float, float], DynamicalMap]] = {
    "identity": lambda lam, omega, alpha: identity_map(),
    "depolarizing-div": lambda lam, omega, alpha: depolarizing_map(lam),
    "depolarizing-indiv": lambda lam, omega, alpha: depolarizing_map(lam, omega),
    "amplitude-damping": lambda lam, omega, alpha: amplitude_damping_map(alpha, omega),
    "eternal": lambda lam, omega, alpha: eternal_map(),
}


@dataclass(frozen=True)
class FigureSpec:
    map1: DynamicalMap
    map2: DynamicalMap
    teleport_columns: bool


def _figure(family1: str, family2: str, teleport_columns: bool = False) -> FigureSpec:
    """The sweep of two families at the default parameters."""
    map1, map2 = (FAMILIES[name](LAM, OMEGA, ALPHA) for name in (family1, family2))
    return FigureSpec(map1, map2, teleport_columns)


FIGURES = {
    1: _figure("depolarizing-div", "depolarizing-div"),
    2: _figure("depolarizing-indiv", "depolarizing-indiv"),
    3: _figure("depolarizing-div", "depolarizing-indiv"),
    4: _figure("identity", "depolarizing-indiv"),
    5: _figure("identity", "amplitude-damping"),
    6: _figure("identity", "eternal"),
    7: _figure("identity", "depolarizing-indiv", teleport_columns=True),
}
