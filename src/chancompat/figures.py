"""Built-in figure definitions: map pairs, default parameters, and columns.

Defaults follow the reference setup: lam = alpha = 0.5, omega = 5*pi,
t from 0 to 1 in steps of 0.01 (robustness values use the grid robustness.DR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    count = int(math.floor((t_max - t_min) / t_step + 1e-9)) + 1
    return [round(t_min + k * t_step, 12) for k in range(count)]


@dataclass(frozen=True)
class FigureSpec:
    map1: DynamicalMap
    map2: DynamicalMap
    teleport_columns: bool


def _specs() -> dict[int, FigureSpec]:
    d1 = depolarizing_map(LAM)
    d2 = depolarizing_map(LAM, OMEGA)
    ad = amplitude_damping_map(ALPHA, OMEGA)
    et = eternal_map()
    ident = identity_map()
    return {
        1: FigureSpec(d1, d1, False),      # two copies of the divisible depolarizing map
        2: FigureSpec(d2, d2, False),      # two copies of the oscillating depolarizing map
        3: FigureSpec(d1, d2, False),      # divisible vs oscillating depolarizing maps
        4: FigureSpec(ident, d2, False),   # identity reference vs oscillating depolarizing map
        5: FigureSpec(ident, ad, False),   # identity reference vs oscillating amplitude damping
        6: FigureSpec(ident, et, False),   # identity reference vs eternal map
        7: FigureSpec(ident, d2, True),    # teleportation fidelity alongside robustness
    }


FIGURES = _specs()
