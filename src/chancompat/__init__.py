"""Incompatibility robustness of quantum channels along dynamical maps."""

from .channels import (
    Channel,
    DynamicalMap,
    Povm,
    amplitude_damping_choi,
    amplitude_damping_map,
    apply,
    channel_from_json,
    compose,
    constant_map,
    depolarizing_choi,
    depolarizing_map,
    dual_apply,
    eternal_choi,
    eternal_map,
    identity_channel,
    identity_map,
    projective_povm,
    pushforward_povm,
)
from .robustness import (
    NoiseClass,
    RobustnessResult,
    SweepRecord,
    feasibility_q,
    measurement_robustness,
    robustness,
    sweep,
)
from .witness import (
    IndivisibilityReport,
    cp_indivisibility_measure,
    indivisibility_from_curve,
    rising_segments,
    teleport_fidelity,
)

__version__ = "0.1.0"
