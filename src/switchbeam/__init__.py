"""Harmonic beamforming with time-modulated switching schedules.

Designs pulse schedules whose harmonic spectrum is shaped by construction,
analyzes the resulting beams and radiated powers, composes array harmonic
efficiency with a switched-amplifier drain-efficiency model for power
back-off prediction, and plans pre-distorted QAM constellations.
"""

__version__ = "0.1.0"

from .array_model import (
    ArrayConfig,
    ArraySchedule,
    ElementSchedule,
    PulseTrain,
    validate,
)
from .circuit_model import (
    CircuitParams,
    PboPoint,
    PowerBreakdown,
    circuit_efficiency,
    pbo_sweep,
    power_breakdown,
    total_drain_efficiency,
)
from .harmonic_analysis import (
    HarmonicCoefficient,
    HarmonicSpectrum,
    PatternTable,
    array_factor,
    compute_spectrum,
    envelope_dft_coefficients,
    harmonic_efficiency,
    harmonic_power,
    radiation_pattern,
    sideband_level,
    total_power,
)
from .modulation import (
    ConstellationResult,
    SymbolPlan,
    amplitude_of_alpha,
    plan_constellation,
    predistort_alpha,
    simulate_constellation,
)
from .schedule_design import (
    design_schedule,
    steering_onset,
    suppressed_harmonics,
)

__all__ = [
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
