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
from .harmonic_analysis import _harmonic_efficiencies, harmonic_efficiency
from .schedule_design import _designed_tables, design_schedule

#: Two pulses per period, each at most a third of the period wide.
MAX_DUTY = 2.0 / 3.0


@dataclass(frozen=True)
class CircuitParams:
    """Behavioral parameters of one switched amplifier cell.

    ``switch_resistance`` models OFF-state leakage (may be ``math.inf`` for a
    leak-free cell) and ``switch_capacitance`` the dynamic switching loss
    (may be 0 for a loss-free cell).  The voltage swing cannot exceed the
    supply, and the efficiency at ``MAX_DUTY`` must be finite and positive,
    which holds only if every loss term there is finite: the efficiency at
    any duty is then a number, and its ratio to the peak is defined.
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
        try:
            peak = circuit_efficiency(self, MAX_DUTY)
        except (OverflowError, ZeroDivisionError):  # v**2 overflows, or the ON draw underflows
            peak = math.nan
        if not 0 < peak < math.inf:
            raise ValueError(f"efficiency at peak duty must be finite and positive, got {peak!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CircuitParams":
        if not isinstance(data, dict):
            raise ValueError(f"circuit params must be an object, got {data!r}")
        names = [f.name for f in fields(cls)]
        missing = [name for name in names if name not in data]
        if missing:
            raise ValueError(f"circuit params missing fields: {', '.join(missing)}")
        values = {}
        for name in names:
            value = data[name]
            # a JSON number: bool is an int subclass, and float() would read strings
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"circuit params field {name}: expected a number, got {value!r}")
            try:
                values[name] = float(value)
            except OverflowError as exc:
                raise ValueError(f"circuit params field {name}: {exc}") from exc
        return cls(**values)


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


def _loss_terms(params: CircuitParams, duty: float) -> tuple[float, float, float, float]:
    """ON output and ON draw per unit duty, OFF leakage and dynamic loss, in watts:
    one loss model, so a lossy breakdown's ratio is ``circuit_efficiency`` bit for bit."""
    if not 0 < duty <= MAX_DUTY:
        raise ValueError(f"duty must lie in (0, {MAX_DUTY!r}]")
    v = params.supply_voltage
    return (params.peak_voltage**2 / (2 * params.load_resistance), v * params.bias_current,
            (1 - duty) * v**2 / params.switch_resistance,
            params.pulse_freq * v**2 * params.switch_capacitance)


def power_breakdown(params: CircuitParams, duty: float) -> PowerBreakdown:
    """Period-averaged power components at a given ON-time fraction.

    ``duty`` is the fraction of the period the cell is ON (two pulses per
    period, so at most 2/3).  The dynamic term is a per-period cost and does
    not scale with duty.
    """
    out, dc, leak, dyn = _loss_terms(params, duty)
    return PowerBreakdown(on_output=duty * out, on_dc=duty * dc, leakage=leak, dynamic=dyn)


def circuit_efficiency(params: CircuitParams, duty: float) -> float:
    """Drain efficiency of the cell at a given ON-time fraction.

    Ratio of ON-state output power to total DC draw (ON draw, OFF leakage,
    and dynamic switching loss), all period-averaged.  In the loss-free limit
    (infinite switch resistance, zero switch capacitance) the duty cancels
    exactly and the efficiency reduces to ``v_pk^2 / (2 R_L V_DD I_DD)``.
    """
    out, dc, leak, dyn = _loss_terms(params, duty)
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
    Every zeta_harm equals ``harmonic_efficiency`` of that alpha's designed
    schedule, bit for bit.  zeta_harm(1) is ``harmonic_efficiency`` of the
    designed peak schedule; every other distinct alpha is evaluated once, on
    the peak's table with narrowed pulses (``_designed_tables``), in one
    batched pass, block by block, so memory does not grow with the grid.
    """
    alphas = [float(a) for a in alpha_grid]
    peak = design_schedule(config, steer_angle, 1.0)
    others = [alpha for alpha in dict.fromkeys(alphas) if alpha != 1.0]
    # the batched pass below would give alpha = 1 the same bits, but this is
    # the only public harmonic_analysis call of a perfbench backoff_qam
    # operation, and its traced run (--trace 1) fails without one
    zetas = {1.0: harmonic_efficiency(peak)}
    zetas.update(zip(others, _harmonic_efficiencies(config, _designed_tables(peak, others))))
    rows = []
    for alpha in alphas:
        zeta_harm = zetas[alpha]
        pbo_db = 10.0 * math.log10(alpha * zeta_harm / zetas[1.0])
        zeta_circ = eta = None
        if params is not None:
            zeta_circ = circuit_efficiency(params, 2 * alpha / 3)
            eta = total_drain_efficiency(zeta_harm, zeta_circ)
        rows.append(PboPoint(10.0 * math.log10(alpha), alpha, zeta_harm, zeta_circ, eta, pbo_db))
    return rows
