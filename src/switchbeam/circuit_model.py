"""Behavioral drain-efficiency model of the switched amplifier cell.

The cell is either fully ON (class-A/B operation behind a closed switch) or
OFF.  Three loss mechanisms are modeled per modulation period: the DC draw
while ON, sub-threshold leakage through an equivalent switch resistance while
OFF, and the dynamic loss of charging and discharging an equivalent switch
capacitance.  Composing the resulting circuit efficiency with the array's
harmonic efficiency gives the transmitter's overall drain efficiency.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .array_model import ArrayConfig
from .harmonic_analysis import harmonic_efficiency
from .schedule_design import design_schedule

#: Two pulses per period, each at most a third of the period wide.
MAX_DUTY = 2.0 / 3.0


@dataclass(frozen=True)
class CircuitParams:
    """Behavioral parameters of one switched amplifier cell.

    ``switch_resistance`` models OFF-state leakage (may be ``math.inf`` for a
    leak-free cell) and ``switch_capacitance`` the dynamic switching loss
    (may be 0 for a loss-free cell).  The voltage swing cannot exceed the
    supply.
    """

    supply_voltage: float
    bias_current: float
    peak_voltage: float
    load_resistance: float
    switch_resistance: float
    switch_capacitance: float
    pulse_freq: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if math.isnan(value) or (math.isinf(value) and name != "switch_resistance"):
                raise ValueError(f"{name} must be finite")
        for name in ("supply_voltage", "bias_current", "peak_voltage",
                     "load_resistance", "switch_resistance", "pulse_freq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.switch_capacitance < 0:
            raise ValueError("switch_capacitance must be nonnegative")
        if self.peak_voltage > self.supply_voltage:
            raise ValueError("peak_voltage cannot exceed supply_voltage")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitParams":
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"circuit params missing fields: {', '.join(missing)}")
        return cls(**{name: float(data[name]) for name in names})


@dataclass(frozen=True)
class DensityParams:
    """Per-width densities of the switching transistor plus its width."""

    cap_per_width: float    # farads per meter of width
    res_times_width: float  # ohm * meters
    width: float            # meters

    def __post_init__(self):
        if self.cap_per_width <= 0 or self.res_times_width <= 0 or self.width <= 0:
            raise ValueError("density parameters must be positive")


def params_from_width(
    density: DensityParams,
    supply_voltage: float,
    bias_current: float,
    peak_voltage: float,
    load_resistance: float,
    pulse_freq: float,
) -> CircuitParams:
    """Scale the switch parasitics from transistor width and densities."""
    return CircuitParams(
        supply_voltage=supply_voltage,
        bias_current=bias_current,
        peak_voltage=peak_voltage,
        load_resistance=load_resistance,
        switch_resistance=density.res_times_width / density.width,
        switch_capacitance=density.cap_per_width * density.width,
        pulse_freq=pulse_freq,
    )


@dataclass(frozen=True)
class PowerBreakdown:
    """Period-averaged power components of one cell, in watts."""

    on_output: float
    on_dc: float
    leakage: float
    dynamic: float

    @property
    def dc_total(self) -> float:
        return self.on_dc + self.leakage + self.dynamic


def _check_duty(duty: float) -> None:
    if not 0 < duty <= MAX_DUTY:
        raise ValueError(f"duty must lie in (0, {MAX_DUTY!r}]")


def power_breakdown(params: CircuitParams, duty: float) -> PowerBreakdown:
    """Period-averaged power components at a given ON-time fraction.

    ``duty`` is the fraction of the period the cell is ON (two pulses per
    period, so at most 2/3).  The dynamic term is a per-period cost and does
    not scale with duty.
    """
    _check_duty(duty)
    v = params.supply_voltage
    return PowerBreakdown(
        on_output=duty * params.peak_voltage**2 / (2 * params.load_resistance),
        on_dc=duty * v * params.bias_current,
        leakage=(1 - duty) * v**2 / params.switch_resistance,
        dynamic=params.pulse_freq * v**2 * params.switch_capacitance,
    )


def circuit_efficiency(params: CircuitParams, duty: float) -> float:
    """Drain efficiency of the cell at a given ON-time fraction.

    Ratio of ON-state output power to total DC draw (ON draw, OFF leakage,
    and dynamic switching loss), all period-averaged.  In the loss-free limit
    (infinite switch resistance, zero switch capacitance) the duty cancels
    exactly and the efficiency reduces to ``v_pk^2 / (2 R_L V_DD I_DD)``.
    """
    _check_duty(duty)
    out = params.peak_voltage**2 / (2 * params.load_resistance)
    dc = params.supply_voltage * params.bias_current
    leak = (1 - duty) * params.supply_voltage**2 / params.switch_resistance
    dyn = params.pulse_freq * params.supply_voltage**2 * params.switch_capacitance
    if leak == 0.0 and dyn == 0.0:
        return out / dc
    return duty * out / (duty * dc + leak + dyn)


def total_drain_efficiency(harmonic_eff: float, circuit_eff: float) -> float:
    """Overall transmitter drain efficiency: the product of the two stages."""
    for name, value in (("harmonic_eff", harmonic_eff), ("circuit_eff", circuit_eff)):
        if not 0 <= value <= 1:
            raise ValueError(f"{name} must lie in [0, 1]")
    return harmonic_eff * circuit_eff


@dataclass(frozen=True)
class PboPoint:
    """One row of a power-back-off sweep."""

    ten_log_alpha: float
    alpha: float
    zeta_harm: float
    zeta_circ: float | None
    eta: float | None
    pbo_db: float


def pbo_sweep(
    config: ArrayConfig,
    params: CircuitParams | None,
    steer_angle: float,
    alpha_grid,
) -> list[PboPoint]:
    """Efficiencies and output back-off across a duty-cycle-ratio grid.

    The first-harmonic output tracks both the ON-time energy budget (directly
    proportional to alpha) and the harmonic efficiency at that alpha, so

        pbo_db = 10*log10(alpha) + 10*log10(zeta_harm(alpha) / zeta_harm(1)).

    Circuit columns are ``None`` when no circuit parameters are supplied.
    The cell duty corresponding to a duty-cycle ratio alpha is ``2*alpha/3``.
    """
    alphas = [float(a) for a in alpha_grid]
    if any(not 0 < a <= 1 for a in alphas):
        raise ValueError("alpha grid values must lie in (0, 1]")

    zeta_peak = harmonic_efficiency(design_schedule(config, steer_angle, 1.0))
    rows = []
    for alpha in alphas:
        schedule = design_schedule(config, steer_angle, alpha)
        zeta_harm = harmonic_efficiency(schedule)
        pbo_db = 10.0 * math.log10(alpha * zeta_harm / zeta_peak)
        zeta_circ = eta = None
        if params is not None:
            zeta_circ = circuit_efficiency(params, 2 * alpha / 3)
            eta = total_drain_efficiency(zeta_harm, zeta_circ)
        rows.append(PboPoint(10.0 * math.log10(alpha), alpha, zeta_harm, zeta_circ, eta, pbo_db))
    return rows
