"""QAM symbol planning with duty-cycle pre-distortion, and EVM simulation.

Constellation magnitude is delivered by scaling the pulse width: the
first-harmonic amplitude follows ``sin(alpha*pi/3) / sin(pi/3)``, which
compresses relative to the naive "alpha-dB equals back-off-dB" rule.
Pre-distortion inverts that law (optionally folding in circuit-efficiency
droop) so each symbol lands on its target magnitude.  Symbol phase is set by
the quadrature drive and is treated as exact, entering the simulation as a
complex rotation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sin

import numpy as np

from .array_model import ArrayConfig
from .circuit_model import MAX_DUTY, CircuitParams, circuit_efficiency
from .harmonic_analysis import _coefficients, _steering
from .schedule_design import _designed_tables, design_schedule

#: Bisection width at which the pre-distortion root is accepted.
ROOT_TOL = 1e-10


@dataclass(frozen=True)
class SymbolPlan:
    """Transmit plan for one constellation point."""

    symbol: complex
    duty_ratio: float
    carrier_phase: float
    magnitude_target: float


def amplitude_of_alpha(alpha: float) -> float:
    """Normalized first-harmonic amplitude at duty-cycle ratio alpha.

    Strictly increasing on (0, 1] with amplitude_of_alpha(1) = 1.
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    return sin(alpha * pi / 3) / sin(pi / 3)


def _response(alpha: float, circuit: CircuitParams | None, peak: float | None) -> float:
    """Delivered amplitude at ``alpha``; ``peak`` is the circuit's efficiency at ``MAX_DUTY``."""
    amp = amplitude_of_alpha(alpha)
    if circuit is None:
        return amp
    return amp * np.sqrt(circuit_efficiency(circuit, MAX_DUTY * alpha) / peak)


def predistort_alpha(target_amplitude: float, circuit: CircuitParams | None = None) -> float:
    """Duty-cycle ratio whose delivered amplitude equals the target.

    Inverts ``amplitude_of_alpha`` by bisection to within ``ROOT_TOL``.  With
    ``circuit`` given, the circuit-efficiency droop (square-rooted into the
    amplitude domain) is folded into the response before inversion, which
    always yields a duty ratio at least as large as the ideal one.  The
    response at alpha = 1 is exactly 1 (``CircuitParams`` keeps the peak
    efficiency finite and positive), so a target of 1 needs no bisection.
    """
    if not 0 < target_amplitude <= 1:
        raise ValueError("target amplitude must lie in (0, 1]")
    if target_amplitude == 1.0:
        return 1.0
    peak = None if circuit is None else circuit_efficiency(circuit, MAX_DUTY)
    lo, hi = 1e-12, 1.0
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if _response(mid, circuit, peak) < target_amplitude:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def plan_constellation(
    points,
    predistort: bool,
    circuit: CircuitParams | None = None,
) -> list[SymbolPlan]:
    """Map constellation points to duty ratios and carrier phases.

    Magnitude targets are the point magnitudes normalized by the largest one.
    With ``predistort`` the duty ratio inverts the amplitude law; without it
    the naive rule ``10*log10(alpha) = 20*log10(target)`` is applied, i.e.
    ``alpha = target**2``.  Symbols of equal magnitude share one bisection.
    """
    symbols = [complex(p) for p in points]
    if not symbols:
        raise ValueError("constellation is empty")
    try:
        peak = max(abs(z) for z in symbols)
    except OverflowError:  # finite parts, but |z| beyond the float range
        raise ValueError("constellation symbol magnitudes must be finite") from None
    if peak <= 0:
        raise ValueError("constellation has no nonzero symbol")
    plans = []
    alphas = {}  # pre-distorted duty ratio by exact target
    for z in symbols:
        if abs(z) == 0:
            raise ValueError("zero-magnitude symbol cannot be planned")
        target = abs(z) / peak
        if predistort and target not in alphas:
            alphas[target] = predistort_alpha(target, circuit)
        alpha = alphas[target] if predistort else target**2
        plans.append(SymbolPlan(z, alpha, float(np.angle(z)), target))
    return plans


@dataclass(frozen=True)
class ConstellationResult:
    received: np.ndarray
    evm_rms_percent: float


def simulate_constellation(
    plans: list[SymbolPlan],
    config: ArrayConfig,
    steer_angle: float,
) -> ConstellationResult:
    """Drive each plan through the designed array and measure the EVM.

    One schedule is designed, at the peak.  Each duty's m = 1 field at the
    steering angle is the steering product on the peak's table with its
    pulses narrowed (``_designed_tables``), every element's coefficient from
    the whole table: the bits of ``array_factor`` on a schedule that
    ``dataclasses.replace`` rebuilt from the design.  The field at duty 1.0
    is the reference, so a duty of 1.0 gets magnitude 1.0 exactly.  Each
    magnitude is rotated by the carrier phase; the quadrature drive makes
    the phase exact, so only the magnitude law distorts.  EVM is the RMS
    error over the normalized reference constellation's RMS, in percent.
    """
    if not plans:
        raise ValueError("no symbol plans to simulate")
    peak = design_schedule(config, steer_angle, 1.0)
    phase = _steering(config, np.asarray(steer_angle, dtype=float))
    duties = list(dict.fromkeys([1.0] + [plan.duty_ratio for plan in plans]))
    fields = [abs(complex((phase @ _coefficients(table, [1])[0])[0]))
              for table in _designed_tables(peak, duties)]
    magnitude = {duty: field / fields[0] for duty, field in zip(duties, fields)}
    received = np.array([magnitude[p.duty_ratio] * np.exp(1j * p.carrier_phase) for p in plans])
    ideal = np.array([p.magnitude_target * np.exp(1j * p.carrier_phase) for p in plans])
    evm = 100.0 * np.sqrt(np.mean(np.abs(received - ideal) ** 2) / np.mean(np.abs(ideal) ** 2))
    return ConstellationResult(received, float(evm))
