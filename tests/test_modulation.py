"""QAM planning, duty-cycle pre-distortion, and constellation simulation."""

import dataclasses
import json
import math
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THETA_20, reference_config
from switchbeam.array_model import C_VACUUM, ArrayConfig
from switchbeam.circuit_model import MAX_DUTY, CircuitParams, circuit_efficiency
from switchbeam.harmonic_analysis import array_factor
from switchbeam import modulation
from switchbeam.modulation import (
    SymbolPlan,
    amplitude_of_alpha,
    plan_constellation,
    predistort_alpha,
    simulate_constellation,
)
from switchbeam.schedule_design import design_schedule

QAM16 = [complex(i, q) for i in (-3, -1, 1, 3) for q in (-3, -1, 1, 3)]
QPSK = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]


def qam_points(order: int) -> list[complex]:
    levels = range(1 - math.isqrt(order), math.isqrt(order), 2)
    return [complex(i, q) for i in levels for q in levels]


def loop_constellation(plans, config, steer_angle):
    """Reference: one designed schedule per distinct duty ratio, rebuilt by
    ``dataclasses.replace`` so that every element's coefficient comes from the
    whole table, and its array_factor; the received points and their EVM."""

    def field(duty):
        schedule = dataclasses.replace(design_schedule(config, steer_angle, duty))
        return abs(array_factor(schedule, 1, steer_angle))

    reference = field(1.0)
    magnitudes = {}
    for plan in plans:
        if plan.duty_ratio not in magnitudes:
            magnitudes[plan.duty_ratio] = field(plan.duty_ratio) / reference
    received = np.array([magnitudes[p.duty_ratio] * np.exp(1j * p.carrier_phase) for p in plans])
    ideal = np.array([p.magnitude_target * np.exp(1j * p.carrier_phase) for p in plans])
    evm = 100.0 * np.sqrt(np.mean(np.abs(received - ideal) ** 2) / np.mean(np.abs(ideal) ** 2))
    return received, float(evm)


def droopy_params() -> CircuitParams:
    text = resources.files("switchbeam.reference").joinpath("circuit_params_2ghz.json").read_text()
    return CircuitParams.from_dict(json.loads(text))


class TestAmplitudeOfAlpha:
    def test_endpoints_and_midpoint(self):
        assert amplitude_of_alpha(1.0) == pytest.approx(1.0, rel=1e-15)
        assert amplitude_of_alpha(0.5) == pytest.approx(
            math.sin(math.pi / 6) / math.sin(math.pi / 3), rel=1e-12
        )

    def test_small_alpha_linear_limit(self):
        alpha = 1e-5
        linear = alpha * (math.pi / 3) / math.sin(math.pi / 3)
        assert amplitude_of_alpha(alpha) == pytest.approx(linear, rel=1e-8)

    def test_strictly_increasing(self):
        grid = np.linspace(0.01, 1.0, 100)
        values = [amplitude_of_alpha(a) for a in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.0, -0.2, 1.01])
    def test_domain_check(self, alpha):
        with pytest.raises(ValueError):
            amplitude_of_alpha(alpha)


class TestPredistortAlpha:
    def test_full_scale_maps_to_unity(self):
        assert predistort_alpha(1.0) == 1.0

    def test_one_third_target(self):
        alpha = predistort_alpha(1.0 / 3.0)
        assert alpha == pytest.approx(0.2796442479891921, abs=1e-9)
        assert 10 * math.log10(alpha) == pytest.approx(-5.53, abs=0.01)

    def test_inverts_amplitude_law(self):
        rng = np.random.default_rng(7)
        for target in rng.uniform(1e-3, 1.0, size=200):
            alpha = predistort_alpha(float(target))
            assert abs(amplitude_of_alpha(alpha) - target) < 1e-9

    def test_rejects_out_of_range_targets(self):
        for target in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                predistort_alpha(target)

    def test_circuit_droop_needs_wider_pulses(self):
        params = droopy_params()
        for target in (0.1, 1 / 3, 0.8):
            assert predistort_alpha(target, params) > predistort_alpha(target)

    def test_circuit_mode_full_scale_is_still_unity(self):
        assert predistort_alpha(1.0, droopy_params()) == 1.0

    def test_full_scale_skips_the_bisection(self, monkeypatch):
        params = droopy_params()

        def no_response(*args):
            raise AssertionError("response evaluated for a full-scale target")

        monkeypatch.setattr(modulation, "_response", no_response)
        assert predistort_alpha(1.0) == 1.0
        assert predistort_alpha(1.0, params) == 1.0

    def test_peak_efficiency_is_evaluated_once(self, monkeypatch):
        params = droopy_params()
        duties = []

        def counted(circuit, duty):
            duties.append(duty)
            return circuit_efficiency(circuit, duty)

        monkeypatch.setattr(modulation, "circuit_efficiency", counted)
        predistort_alpha(0.5, params)
        assert duties.count(MAX_DUTY) == 1
        # one evaluation per bisection step besides
        assert len(duties) > 30


class TestPlanConstellation:
    def test_qpsk_runs_at_peak_duty(self):
        plans = plan_constellation(QPSK, predistort=True)
        assert all(p.duty_ratio == 1.0 for p in plans)
        phases = sorted(p.carrier_phase for p in plans)
        expected = sorted(np.angle(z) for z in QPSK)
        np.testing.assert_allclose(phases, expected, atol=1e-12)

    def test_outer_corner_is_peak_mode(self):
        plans = plan_constellation(QAM16, predistort=True)
        corner = next(p for p in plans if p.symbol == 3 + 3j)
        assert corner.duty_ratio == 1.0
        assert corner.carrier_phase == pytest.approx(math.pi / 4, rel=1e-12)

    def test_edge_symbol_target_and_phase(self):
        plans = plan_constellation(QAM16, predistort=True)
        edge = next(p for p in plans if p.symbol == 3 + 1j)
        assert edge.magnitude_target == pytest.approx(math.sqrt(10.0 / 18.0), rel=1e-12)
        assert edge.carrier_phase == pytest.approx(math.atan(1.0 / 3.0), rel=1e-12)

    def test_mirrored_symbols_share_duty(self):
        plans = plan_constellation([1 + 1j, -1 + 1j, 3 + 3j], predistort=True)
        a = next(p for p in plans if p.symbol == 1 + 1j)
        b = next(p for p in plans if p.symbol == -1 + 1j)
        assert a.duty_ratio == b.duty_ratio
        assert a.carrier_phase != b.carrier_phase

    def test_naive_rule_squares_the_target(self):
        plans = plan_constellation(QAM16, predistort=False)
        inner = next(p for p in plans if p.symbol == 1 + 1j)
        assert inner.duty_ratio == pytest.approx(inner.magnitude_target**2, rel=1e-12)

    @pytest.mark.parametrize("with_circuit", [False, True])
    @pytest.mark.parametrize("order, magnitudes", [(16, 3), (64, 9), (256, 32)])
    def test_one_bisection_per_magnitude(self, monkeypatch, order, magnitudes, with_circuit):
        circuit = droopy_params() if with_circuit else None
        points = qam_points(order)
        peak = max(abs(z) for z in points)
        expected = [SymbolPlan(z, predistort_alpha(abs(z) / peak, circuit),
                               float(np.angle(z)), abs(z) / peak) for z in points]
        targets = []

        def counted(target, circuit=None):
            targets.append(target)
            return predistort_alpha(target, circuit)

        monkeypatch.setattr(modulation, "predistort_alpha", counted)
        assert plan_constellation(points, predistort=True, circuit=circuit) == expected
        assert len(targets) == len(set(targets)) == magnitudes

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            plan_constellation([], predistort=True)
        with pytest.raises(ValueError):
            plan_constellation([0j, 1 + 0j], predistort=True)

    def test_rejects_a_magnitude_beyond_the_float_range(self):
        # finite parts, but abs() overflows
        with pytest.raises(ValueError, match="magnitudes must be finite"):
            plan_constellation([1 + 1j, 1e308 + 1.5e308j], predistort=True)


class TestSimulateConstellation:
    def test_predistorted_16qam_is_nearly_exact(self):
        plans = plan_constellation(QAM16, predistort=True)
        result = simulate_constellation(plans, reference_config(), THETA_20)
        assert result.evm_rms_percent < 0.1

    def test_naive_mapping_compresses_the_inner_ring(self):
        naive = plan_constellation(QAM16, predistort=False)
        result = simulate_constellation(naive, reference_config(), THETA_20)
        ideal = plan_constellation(QAM16, predistort=True)
        baseline = simulate_constellation(ideal, reference_config(), THETA_20)
        assert result.evm_rms_percent > baseline.evm_rms_percent
        inner = next(i for i, p in enumerate(naive) if p.symbol == 1 + 1j)
        assert abs(result.received[inner]) < naive[inner].magnitude_target

    def test_single_symbol_is_error_free(self):
        plans = plan_constellation([2 - 1j], predistort=True)
        result = simulate_constellation(plans, reference_config(), THETA_20)
        assert result.evm_rms_percent == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(rotation=st.floats(0.0, 2 * math.pi))
    def test_received_magnitudes_are_rotation_invariant(self, rotation):
        rotated = [z * np.exp(1j * rotation) for z in QAM16]
        plans = plan_constellation(rotated, predistort=True)
        result = simulate_constellation(plans, reference_config(), THETA_20)
        reference = plan_constellation(QAM16, predistort=True)
        baseline = simulate_constellation(reference, reference_config(), THETA_20)
        np.testing.assert_allclose(
            sorted(np.abs(result.received)), sorted(np.abs(baseline.received)), atol=1e-12
        )

    def test_circuit_predistortion_runs_end_to_end(self):
        plans = plan_constellation(QAM16, predistort=True, circuit=droopy_params())
        ideal = plan_constellation(QAM16, predistort=True)
        for lossy, clean in zip(plans, ideal):
            assert lossy.duty_ratio >= clean.duty_ratio


class TestSimulateConstellationOnOneDesign:
    """One designed table per duty gives the bits of one schedule per duty."""

    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("n_elements, path_count", [(5, 4), (5, 8), (16, 8)])
    @pytest.mark.parametrize("predistort", [True, False])
    def test_equals_one_schedule_per_duty(self, order, n_elements, path_count, predistort):
        cfg = ArrayConfig(n_elements, 0.3 * C_VACUUM / 77e9, 77e9, 1e9, path_count=path_count)
        plans = plan_constellation(qam_points(order), predistort, droopy_params())
        # mirrored symbols share a duty ratio, so duties repeat
        assert len({p.duty_ratio for p in plans}) < len(plans)
        result = simulate_constellation(plans, cfg, np.deg2rad(-27.0))
        received, evm = loop_constellation(plans, cfg, np.deg2rad(-27.0))
        assert result.received.tobytes() == received.tobytes()
        assert result.evm_rms_percent.hex() == evm.hex()

    @pytest.mark.parametrize("n_elements, path_count, theta_deg", [
        (1, 4, 0.0), (5, 8, -27.0), (64, 8, 59.3), (257, 4, 11.0),
    ])
    def test_duty_one_is_the_reference_exactly(self, n_elements, path_count, theta_deg):
        cfg = reference_config(n_elements, path_count, 0.7)
        # the peak symbol after a backed-off one, at carrier phase 0
        plans = [SymbolPlan(0.5j, 0.3, math.pi / 2, 0.5), SymbolPlan(1.0, 1.0, 0.0, 1.0)]
        received = simulate_constellation(plans, cfg, np.deg2rad(theta_deg)).received
        assert received[1] == 1.0

    def test_designs_one_schedule(self, design_calls):
        plans = plan_constellation(qam_points(256), predistort=True)
        simulate_constellation(plans, reference_config(n_elements=16, path_count=8), THETA_20)
        assert design_calls == {"design_schedule": 1, "validate": 1}

    def test_rejects_a_duty_outside_unit_interval(self):
        plans = plan_constellation(QAM16, predistort=True)
        plans[3] = dataclasses.replace(plans[3], duty_ratio=1.5)
        with pytest.raises(ValueError, match=r"duty_ratio must lie in \(0, 1\]"):
            simulate_constellation(plans, reference_config(), THETA_20)
