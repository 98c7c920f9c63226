"""The package's public surface: the names that `import chancompat` binds.
Kernels and the solver are imported from their modules (`chancompat.linalg`,
`chancompat.sdp`), so a name added to or dropped from the package is a
deliberate change of this list."""

import types

import chancompat

PUBLIC = [
    "Channel", "DynamicalMap", "IndivisibilityReport", "NoiseClass", "Povm", "RobustnessResult",
    "SweepRecord", "amplitude_damping_choi", "amplitude_damping_map", "apply", "channel_from_json",
    "compose", "constant_map", "cp_indivisibility_measure", "depolarizing_choi", "depolarizing_map",
    "dual_apply", "eternal_choi", "eternal_map", "feasibility_q", "identity_channel", "identity_map",
    "indivisibility_from_curve", "measurement_robustness", "projective_povm", "pushforward_povm",
    "rising_segments", "robustness", "sweep", "teleport_fidelity",
]


def test_public_names_are_the_listed_ones():
    # submodules bind as attributes once anything imports them, so they are not names of the surface
    names = sorted(name for name, value in vars(chancompat).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC)
