"""Switched-cell efficiency model and its composition with the array."""

import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import THETA_20, reference_config
from switchbeam.circuit_model import (
    CircuitParams,
    circuit_efficiency,
    pbo_sweep,
    power_breakdown,
    total_drain_efficiency,
)
from switchbeam import circuit_model, harmonic_analysis
from switchbeam.formats import read_fixture_csv
from switchbeam.harmonic_analysis import harmonic_efficiency
from switchbeam.schedule_design import design_schedule


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

    @pytest.mark.parametrize("value", [True, "1e-2", None, [1.2]])
    def test_fields_must_be_json_numbers(self, value):
        data = {**lossfree_params().to_dict(), "switch_resistance": 1e4, "bias_current": value}
        with pytest.raises(ValueError, match="^circuit params field bias_current: expected a number"):
            CircuitParams.from_dict(data)

    @pytest.mark.parametrize("name", ["circuit_params_200mhz.json", "circuit_params_2ghz.json"])
    def test_reference_files_load_as_written(self, name):
        text = resources.files("switchbeam.reference").joinpath(name).read_text()
        doc = json.loads(text)
        params = load_reference_params(name)
        assert params.to_dict() == {k: float(v) for k, v in doc.items() if k != "notes"}

    def test_rejects_a_loss_free_cell_whose_on_draw_underflows(self):
        # 0.1 V x 5e-324 A rounds to 0 W
        with pytest.raises(ValueError, match="^efficiency at peak duty must be finite and positive"):
            lossfree_params(supply_voltage=0.1, peak_voltage=0.1, bias_current=5e-324)

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

    @settings(max_examples=300, deadline=None)
    @given(
        supply=st.floats(0.1, 10.0),
        bias=st.floats(1e-4, 1.0),
        swing=st.floats(0.01, 1.0),
        load=st.floats(1.0, 1e3),
        switch_r=st.one_of(st.just(math.inf), st.floats(1.0, 1e8)),
        switch_c=st.one_of(st.just(0.0), st.floats(1e-16, 1e-9)),
        fp=st.floats(1e6, 1e11),
        duty=st.floats(0.0, 2 / 3, exclude_min=True),
    )
    def test_breakdown_ratio_is_the_efficiency(self, supply, bias, swing, load, switch_r,
                                               switch_c, fp, duty):
        params = CircuitParams(supply, bias, swing * supply, load, switch_r, switch_c, fp)
        parts = power_breakdown(params, duty)
        # a lossy cell: in the loss-free branch the duty cancels
        assume(parts.leakage != 0.0 or parts.dynamic != 0.0)
        assert parts.on_output / parts.dc_total == circuit_efficiency(params, duty)

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

    @pytest.mark.parametrize("alpha", [1.2, 0.0, -0.5, math.nan])
    def test_alpha_is_checked_as_a_designed_duty_ratio(self, alpha):
        with pytest.raises(ValueError, match=r"^duty_ratio must lie in \(0, 1\]$"):
            pbo_sweep(reference_config(), None, THETA_20, [0.5, alpha])


class TestPboSweepBatch:
    """The batched sweep gives the bits of one harmonic_efficiency per alpha."""

    @pytest.mark.parametrize("n_elements, path_count", [(1, 4), (5, 4), (5, 8), (16, 8)])
    def test_rows_equal_per_alpha_efficiencies(self, n_elements, path_count):
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        params = load_reference_params("circuit_params_2ghz.json")
        steer = np.deg2rad(-35.0)
        # the 0 dB point, a repeat and the fine grid of a back-off curve
        alphas = [10 ** (k / 100) for k in range(-100, 1, 7)] + [1.0, 0.5, 0.5]
        zeta_peak = harmonic_efficiency(design_schedule(cfg, steer, 1.0))
        rows = pbo_sweep(cfg, params, steer, alphas)
        assert len(rows) == len(alphas)
        for alpha, row in zip(alphas, rows):
            zeta = harmonic_efficiency(design_schedule(cfg, steer, alpha))
            eta = total_drain_efficiency(zeta, circuit_efficiency(params, 2 * alpha / 3))
            pbo_db = 10.0 * math.log10(alpha * zeta / zeta_peak)
            assert (row.zeta_harm.hex(), row.eta.hex(), row.pbo_db.hex()) == (
                zeta.hex(), eta.hex(), pbo_db.hex())

    def test_blocks_of_the_grid_give_the_same_rows(self, monkeypatch):
        cfg = reference_config(path_count=8)
        alphas = [10 ** (k / 20) for k in range(-20, 1)]
        whole = pbo_sweep(cfg, None, THETA_20, alphas)
        # one schedule per block, and Gram blocks of a few rows
        monkeypatch.setattr(harmonic_analysis, "GRAM_BLOCK", 1)
        assert pbo_sweep(cfg, None, THETA_20, alphas) == whole

    def test_each_distinct_alpha_is_evaluated_once(self, monkeypatch):
        # a grid that ends at 0 dB, the peak's own alpha, with repeats
        grid = [10 ** (k / 10) for k in range(-10, 1)]
        alphas = grid + [0.5, 0.5, 10 ** -0.3, 1.0]
        batch, sizes = circuit_model._harmonic_efficiencies, []

        def counted(config, tables):
            tables = list(tables)
            sizes.append(len(tables))
            return batch(config, tables)

        peaks = []
        single = circuit_model.harmonic_efficiency
        monkeypatch.setattr(circuit_model, "_harmonic_efficiencies", counted)
        monkeypatch.setattr(circuit_model, "harmonic_efficiency",
                            lambda schedule: peaks.append(schedule.duty_ratio) or single(schedule))
        rows = pbo_sweep(reference_config(), None, THETA_20, alphas)
        # the peak alone, then every other distinct alpha in one batch
        assert peaks == [1.0] and sizes == [len(grid)]
        assert [row.alpha for row in rows] == alphas
        assert rows[-4] == rows[-3] and rows[-2] == rows[7] and rows[-1] == rows[10]

    def test_designs_one_schedule_for_the_whole_grid(self, design_calls):
        alphas = [10 ** (k / 100) for k in range(-100, 1)]
        pbo_sweep(reference_config(n_elements=16, path_count=8), None, THETA_20, alphas)
        assert design_calls == {"design_schedule": 1, "validate": 1}

    def test_traced_memory_stays_bounded(self):
        cfg = reference_config(n_elements=16, path_count=8)
        alphas = [10 ** (k / 100) for k in range(-100, 1)]
        pbo_sweep(cfg, None, THETA_20, alphas[:3])
        tracemalloc.start()
        try:
            pbo_sweep(cfg, None, THETA_20, alphas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20
