"""The package's public names."""

import switchbeam


def test_all_is_pinned():
    # a name joins the public surface on purpose, in this list, or not at all
    assert switchbeam.__all__ == [
        "ArrayConfig",
        "ArraySchedule",
        "CircuitParams",
        "ConstellationResult",
        "ElementSchedule",
        "HarmonicCoefficient",
        "HarmonicSpectrum",
        "PatternTable",
        "PboPoint",
        "PowerBreakdown",
        "PulseTrain",
        "SymbolPlan",
        "amplitude_of_alpha",
        "array_factor",
        "circuit_efficiency",
        "compute_spectrum",
        "design_schedule",
        "envelope_dft_coefficients",
        "harmonic_efficiency",
        "harmonic_power",
        "pbo_sweep",
        "plan_constellation",
        "power_breakdown",
        "predistort_alpha",
        "radiation_pattern",
        "sideband_level",
        "simulate_constellation",
        "steering_onset",
        "suppressed_harmonics",
        "total_drain_efficiency",
        "total_power",
        "validate",
    ]
    assert all(hasattr(switchbeam, name) for name in switchbeam.__all__)
