"""Switched-cell efficiency model and its composition with the array."""

import json
import math
from importlib import resources

import numpy as np
import pytest

from conftest import THETA_20, reference_config
from switchbeam.circuit_model import (
    CircuitParams,
    DensityParams,
    circuit_efficiency,
    params_from_width,
    pbo_sweep,
    power_breakdown,
    total_drain_efficiency,
)
from switchbeam.formats import read_fixture_csv


def lossfree_params(**overrides):
    base = dict(
        supply_voltage=1.2,
        bias_current=0.02,
        peak_voltage=1.0,
        load_resistance=25.0,
        switch_resistance=math.inf,
        switch_capacitance=0.0,
        pulse_freq=1e9,
    )
    base.update(overrides)
    return CircuitParams(**base)


def load_reference_params(name: str) -> CircuitParams:
    text = resources.files("switchbeam.reference").joinpath(name).read_text()
    return CircuitParams.from_dict(json.loads(text))


def load_reference_curves() -> dict:
    text = (
        resources.files("switchbeam.reference")
        .joinpath("circuit_drain_efficiency.csv")
        .read_text()
    )
    return read_fixture_csv(text)


class TestParamsFromWidth:
    def test_reference_densities_at_100um(self):
        density = DensityParams(cap_per_width=0.35e-9, res_times_width=5.4, width=100e-6)
        params = params_from_width(density, 1.2, 0.02, 1.0, 25.0, 1e9)
        assert params.switch_capacitance == pytest.approx(35e-15, rel=1e-12)
        assert params.switch_resistance == pytest.approx(54e3, rel=1e-12)

    def test_width_scaling(self):
        narrow = DensityParams(0.35e-9, 5.4, 50e-6)
        wide = DensityParams(0.35e-9, 5.4, 100e-6)
        p_narrow = params_from_width(narrow, 1.2, 0.02, 1.0, 25.0, 1e9)
        p_wide = params_from_width(wide, 1.2, 0.02, 1.0, 25.0, 1e9)
        assert p_wide.switch_capacitance == pytest.approx(2 * p_narrow.switch_capacitance)
        assert p_wide.switch_resistance == pytest.approx(p_narrow.switch_resistance / 2)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            DensityParams(0.35e-9, 5.4, 0.0)


class TestCircuitParams:
    def test_swing_cannot_exceed_supply(self):
        with pytest.raises(ValueError):
            lossfree_params(peak_voltage=1.3)

    def test_dict_round_trip(self):
        params = lossfree_params(switch_resistance=1e4, switch_capacitance=1e-13)
        assert CircuitParams.from_dict(params.to_dict()) == params
        assert list(params.to_dict()) == [
            "supply_voltage", "bias_current", "peak_voltage", "load_resistance",
            "switch_resistance", "switch_capacitance", "pulse_freq",
        ]

    @pytest.mark.parametrize("field, value", [
        ("supply_voltage", math.nan), ("bias_current", math.inf),
        ("switch_resistance", math.nan), ("switch_capacitance", math.inf),
        ("pulse_freq", math.inf),
    ])
    def test_rejects_nonfinite_values(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            lossfree_params(**{field: value})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match=(
            "^circuit params missing fields: bias_current, peak_voltage, load_resistance, "
            "switch_resistance, switch_capacitance, pulse_freq$"
        )):
            CircuitParams.from_dict({"supply_voltage": 1.2})


class TestPowerBreakdown:
    def test_lossfree_peak_mode(self):
        parts = power_breakdown(lossfree_params(switch_resistance=1e12), 2 / 3)
        assert parts.leakage == pytest.approx(0.0, abs=1e-12)
        assert parts.dynamic == 0.0
        assert parts.on_output == pytest.approx((2 / 3) * 1.0 / 50.0, rel=1e-12)
        assert parts.on_dc == pytest.approx((2 / 3) * 1.2 * 0.02, rel=1e-12)

    def test_dynamic_loss_value(self):
        params = lossfree_params(switch_capacitance=35e-15)
        parts = power_breakdown(params, 0.5)
        assert parts.dynamic == pytest.approx(50.4e-6, rel=1e-12)

    def test_dynamic_loss_is_duty_independent(self):
        params = lossfree_params(switch_capacitance=35e-15, switch_resistance=1e4)
        assert power_breakdown(params, 0.1).dynamic == power_breakdown(params, 2 / 3).dynamic

    @pytest.mark.parametrize("duty", [0.0, -0.1, 0.7, 1.0])
    def test_duty_range_is_enforced(self, duty):
        with pytest.raises(ValueError):
            power_breakdown(lossfree_params(), duty)


class TestCircuitEfficiency:
    def test_lossfree_limit_is_exact_and_duty_independent(self):
        params = lossfree_params()
        expected = 1.0**2 / (2 * 25.0 * 1.2 * 0.02)
        for duty in (0.05, 0.3, 2 / 3):
            assert circuit_efficiency(params, duty) == expected
        assert expected == pytest.approx(0.020 / 0.024, rel=1e-12)

    def test_matches_power_breakdown_ratio(self):
        params = load_reference_params("circuit_params_2ghz.json")
        for duty in (0.05, 0.2, 0.45, 2 / 3):
            parts = power_breakdown(params, duty)
            assert circuit_efficiency(params, duty) == pytest.approx(
                parts.on_output / parts.dc_total, rel=1e-12
            )

    def test_strictly_decreasing_in_pulse_frequency(self):
        base = load_reference_params("circuit_params_200mhz.json").to_dict()
        base.pop("notes", None)
        for duty in np.linspace(0.05, 2 / 3, 9):
            values = [
                circuit_efficiency(CircuitParams.from_dict({**base, "pulse_freq": fp}), duty)
                for fp in (0.5e9, 1e9, 2e9, 4e9)
            ]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_duty_when_lossy(self):
        params = load_reference_params("circuit_params_2ghz.json")
        duties = np.linspace(0.05, 2 / 3, 20)
        values = [circuit_efficiency(params, d) for d in duties]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_increasing_in_switch_resistance(self):
        base = lossfree_params(switch_resistance=1e3).to_dict()
        values = [
            circuit_efficiency(CircuitParams.from_dict({**base, "switch_resistance": r}), 0.3)
            for r in (1e3, 1e4, 1e5)
        ]
        assert values[0] < values[1] < values[2]


class TestTotalDrainEfficiency:
    def test_identity_and_annihilator(self):
        assert total_drain_efficiency(1.0, 0.42) == 0.42
        assert total_drain_efficiency(0.0, 0.9) == 0.0

    def test_reported_peak_composition(self):
        assert total_drain_efficiency(0.897, 0.27) == pytest.approx(0.242, abs=5e-4)

    def test_symmetry_and_monotonicity(self):
        assert total_drain_efficiency(0.3, 0.7) == total_drain_efficiency(0.7, 0.3)
        assert total_drain_efficiency(0.5, 0.6) < total_drain_efficiency(0.5, 0.7)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_range_check(self, bad):
        with pytest.raises(ValueError):
            total_drain_efficiency(bad, 0.5)


class TestReferenceCurveFit:
    """The shipped parameter sets reproduce the shipped model curves."""

    @pytest.mark.parametrize("params_name,series", [
        ("circuit_params_200mhz.json", "model_200mhz"),
        ("circuit_params_2ghz.json", "model_2ghz"),
    ])
    def test_model_matches_fixture_within_one_point(self, params_name, series):
        params = load_reference_params(params_name)
        curve = load_reference_curves()[series]
        for ten_log_alpha, percent in curve:
            alpha = 10 ** (ten_log_alpha / 10)
            model = 100 * circuit_efficiency(params, 2 * alpha / 3)
            assert model == pytest.approx(percent, abs=1.0)


class TestPboSweep:
    def test_peak_mode_is_zero_back_off(self):
        rows = pbo_sweep(reference_config(), None, THETA_20, [1.0])
        assert rows[0].pbo_db == pytest.approx(0.0, abs=1e-12)
        assert rows[0].zeta_circ is None and rows[0].eta is None

    def test_minus_six_back_off_composition(self):
        rows = pbo_sweep(reference_config(), None, THETA_20, [10**-0.6])
        assert rows[0].pbo_db == pytest.approx(-8.7, abs=0.3)
        assert rows[0].zeta_harm == pytest.approx(0.4908968, abs=1e-6)

    def test_back_off_is_steeper_than_alpha_alone(self):
        alphas = [10**-0.3, 10**-0.6, 10**-0.9]
        rows = pbo_sweep(reference_config(), None, THETA_20, alphas)
        for alpha, row in zip(alphas, rows):
            assert row.pbo_db <= 10 * math.log10(alpha) + 1e-12

    def test_circuit_columns_appear_with_params(self):
        params = load_reference_params("circuit_params_200mhz.json")
        rows = pbo_sweep(reference_config(), params, THETA_20, [1.0, 0.5])
        for row in rows:
            assert row.zeta_circ is not None
            assert row.eta == pytest.approx(row.zeta_harm * row.zeta_circ, rel=1e-12)

    def test_rejects_alpha_outside_unit_interval(self):
        with pytest.raises(ValueError):
            pbo_sweep(reference_config(), None, THETA_20, [1.2])
