"""Analytic coefficients, powers, Parseval consistency, and patterns."""

import dataclasses
import json
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALPHA_GRID, THETA_20, reference_config
from switchbeam.array_model import ArraySchedule, ElementSchedule, PulseTrain
from switchbeam import harmonic_analysis
from switchbeam.harmonic_analysis import (
    DB_FLOOR,
    POWER_CLAMP_REL,
    array_factor,
    coefficient_matrix,
    coefficient_vector,
    combined_coefficient,
    compute_spectrum,
    envelope_dft_coefficients,
    harmonic_efficiency,
    harmonic_power,
    oracle_tolerance,
    path_coefficient,
    radiation_pattern,
    sideband_level,
    total_power,
)
from switchbeam.formats import dump_json, schedule_from_doc, schedule_to_doc
from switchbeam.schedule_design import design_schedule, steering_onset

ZETA_PEAK_4PATH = 9.0 / pi**2


def riemann_coefficient(train, phase, m, samples=2**18):
    """Independent oracle: midpoint Riemann sum of the gated waveform."""
    t = (np.arange(samples) + 0.5) / samples
    wave = np.where((t - train.onset_pos_norm) % 1.0 < train.width_norm, 1.0, 0.0)
    wave -= np.where((t - train.onset_neg_norm) % 1.0 < train.width_norm, 1.0, 0.0)
    return np.exp(1j * phase) * np.mean(wave * np.exp(-2j * pi * m * t))


def closed_form_coefficient(m, t1, alpha):
    """Designed 4-path combined coefficient, written out independently.

    Even-harmonic spacing turns each train into a sin(m*pi/2) factor; the
    quadrature pair contributes 1 + exp(j*pi*(m-1)/2) and the opposed pair
    1 + exp(j*pi*(2m/3 - 1)).
    """
    if m % 2 == 0:
        return 0j
    width = alpha / 3.0
    prefactor = (2.0 / (m * pi)) * np.sin(m * pi * width) * np.sin(m * pi / 2)
    return (
        prefactor
        * np.exp(-1j * m * pi * (2 * t1 + width))
        * np.exp(1j * pi * (1 - m) / 2)
        * (1 + np.exp(1j * pi * (m - 1) / 2))
        * (1 + np.exp(1j * pi * (2 * m / 3.0 - 1)))
    )


class TestPathCoefficient:
    def test_carrier_term_vanishes_for_designed_trains(self, peak_schedule):
        for phase, train in peak_schedule.elements[0].paths:
            assert path_coefficient(train, phase, 0) == 0j

    def test_even_harmonics_vanish_for_half_period_spacing(self):
        train = PulseTrain(0.21, 0.13, 0.63)
        for m in (2, -2, 4, 10):
            assert abs(path_coefficient(train, 0.7, m)) < 1e-15

    def test_first_harmonic_magnitude_of_peak_train(self):
        train = PulseTrain(1.0 / 3.0, 0.0, 0.5)
        value = path_coefficient(train, 0.0, 1)
        assert abs(value) == pytest.approx((2 / pi) * np.sin(pi / 3), abs=1e-14)

    @pytest.mark.parametrize("m", [1, -3, 5, 12])
    def test_matches_riemann_oracle_for_general_trains(self, m):
        train = PulseTrain(0.17, 0.31, 0.66)  # no special structure
        exact = path_coefficient(train, -2.1, m)
        assert abs(exact - riemann_coefficient(train, -2.1, m)) < 5e-5


class TestCombinedCoefficient:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_independent_closed_form(self, alpha):
        cfg = reference_config()
        schedule = design_schedule(cfg, THETA_20, alpha)
        for n, element in enumerate(schedule.elements):
            t1 = steering_onset(n, THETA_20, cfg)
            for m in range(-25, 26):
                if m == 0:
                    continue
                expected = closed_form_coefficient(m, t1, alpha)
                assert abs(combined_coefficient(element, m) - expected) < 1e-12

    def test_peak_first_harmonic_magnitude(self, peak_schedule):
        for element in peak_schedule.elements:
            assert abs(combined_coefficient(element, 1)) == pytest.approx(6 / pi, abs=1e-12)

    def test_eight_path_first_harmonic_magnitude(self, peak_schedule_8path):
        expected = (6 / pi) * 2 * np.cos(pi / 5)
        for element in peak_schedule_8path.elements:
            assert abs(combined_coefficient(element, 1)) == pytest.approx(expected, abs=1e-12)

    def test_pbo_schedule_kills_minus_three_at_any_duty(self):
        for alpha in (0.9, 0.5, 0.17):
            schedule = design_schedule(reference_config(), THETA_20, alpha)
            for element in schedule.elements:
                assert abs(combined_coefficient(element, -3)) < 1e-13


class TestArrayFactor:
    def test_phases_align_at_steering_angle(self, peak_schedule):
        gain = abs(array_factor(peak_schedule, 1, THETA_20))
        assert gain == pytest.approx(5 * 6 / pi, rel=1e-12)

    def test_single_element_has_no_angle_dependence(self):
        schedule = design_schedule(reference_config(n_elements=1), 0.3, 0.8)
        magnitude = abs(combined_coefficient(schedule.elements[0], 5))
        for theta in (-1.2, 0.0, 0.7):
            assert abs(array_factor(schedule, 5, theta)) == pytest.approx(magnitude, rel=1e-12)

    def test_suppressed_harmonic_is_zero_everywhere(self, peak_schedule):
        theta = np.linspace(-pi / 2, pi / 2, 181)
        assert np.max(np.abs(array_factor(peak_schedule, 2, theta))) < 1e-13

    def test_matches_dirichlet_kernel_shape(self, peak_schedule):
        # independent oracle for the uniform-excitation pattern shape
        cfg = peak_schedule.config
        theta = np.deg2rad(np.linspace(-90, 90, 361))
        psi = cfg.wavenumber * cfg.element_spacing * (np.sin(theta) - np.sin(THETA_20))
        n = cfg.n_elements
        with np.errstate(divide="ignore", invalid="ignore"):
            dirichlet = np.abs(np.sin(n * psi / 2) / (n * np.sin(psi / 2)))
        dirichlet[~np.isfinite(dirichlet)] = 1.0
        pattern = np.abs(array_factor(peak_schedule, 1, theta)) / (n * 6 / pi)
        np.testing.assert_allclose(pattern, dirichlet, atol=1e-9)


class TestPowers:
    def test_half_wavelength_power_is_diagonal(self, peak_schedule):
        assert harmonic_power(peak_schedule, 1) == pytest.approx(5 * (6 / pi) ** 2, rel=1e-12)

    def test_carrier_power_is_zero(self, peak_schedule):
        assert harmonic_power(peak_schedule, 0) == 0.0

    @pytest.mark.parametrize("spacing_wl", [0.3, 0.5, 0.7])
    def test_power_is_nonnegative_for_any_spacing(self, spacing_wl):
        schedule = design_schedule(
            reference_config(spacing_wl=spacing_wl), THETA_20, 0.7
        )
        for m in (-7, -3, 1, 5, 13):
            assert harmonic_power(schedule, m) >= -1e-12

    def test_single_pulse_train_time_average(self):
        # a lone path radiating +-1 pulses of width tau is on for 2*tau per period
        cfg = reference_config(n_elements=1)
        width = 0.09
        element = ElementSchedule(0, ((0.0, PulseTrain(width, 0.0, 0.5)),))
        schedule = ArraySchedule(cfg, 3 * width, 0.0, (element,))
        assert total_power(schedule) == pytest.approx(2 * width, abs=1e-15)

    def test_doubling_excitation_quadruples_total(self, peak_schedule):
        doubled_cfg = dataclasses.replace(peak_schedule.config, excitations=(2.0,) * 5)
        doubled = dataclasses.replace(peak_schedule, config=doubled_cfg)
        assert total_power(doubled) == pytest.approx(4 * total_power(peak_schedule), rel=1e-12)

    def test_truncated_sum_stays_below_exact_total(self, peak_schedule):
        total = total_power(peak_schedule)
        running = 0.0
        previous = 0.0
        for m_max in (1, 5, 25, 75, 101):
            running = sum(harmonic_power(peak_schedule, m) for m in range(-m_max, m_max + 1))
            assert previous <= running <= total * (1 + 1e-12)
            previous = running
        assert running / total > 0.99


class TestHarmonicEfficiency:
    def test_peak_mode_value_is_nine_over_pi_squared(self, peak_schedule):
        assert harmonic_efficiency(peak_schedule) == pytest.approx(ZETA_PEAK_4PATH, rel=1e-12)

    def test_steering_does_not_change_efficiency_at_half_wavelength(self):
        cfg = reference_config()
        values = [
            harmonic_efficiency(design_schedule(cfg, theta, 0.4))
            for theta in (0.0, THETA_20, -0.9)
        ]
        assert max(values) - min(values) < 1e-12

    def test_monotone_up_to_half_duty_and_vanishing_at_zero(self):
        # beyond alpha = 0.5 pulse overlaps make the curve wobble, so the
        # clean monotone regime is (0, 0.5]
        cfg = reference_config()
        values = [
            harmonic_efficiency(design_schedule(cfg, THETA_20, alpha))
            for alpha in np.arange(0.05, 0.501, 0.05)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert harmonic_efficiency(design_schedule(cfg, THETA_20, 0.01)) < 0.05

    def test_zero_power_schedule_is_an_error(self):
        cfg = reference_config(n_elements=1)
        element = ElementSchedule(0, ())
        schedule = ArraySchedule(cfg, 1.0, 0.0, (element,))
        with pytest.raises(ValueError, match="zero radiated power"):
            harmonic_efficiency(schedule)


class TestSpectrum:
    def test_suppressed_powers_are_clamped_to_zero(self, peak_schedule):
        spectrum = compute_spectrum(peak_schedule, m_max=25)
        assert spectrum.powers[2] == 0.0
        assert spectrum.powers[-3] == 0.0
        assert spectrum.powers[1] > 0
        assert np.all(spectrum.coefficients[0].per_element == 0)
        assert spectrum.efficiency == pytest.approx(
            spectrum.powers[1] / spectrum.total_power, rel=1e-12
        )

    def test_tabulated_sum_does_not_exceed_total(self, peak_schedule):
        spectrum = compute_spectrum(peak_schedule, m_max=51)
        assert sum(spectrum.powers.values()) <= spectrum.total_power * (1 + 1e-12)


class TestRadiationPattern:
    def test_main_lobe_sits_at_steering_angle(self, peak_schedule):
        theta = np.deg2rad(np.arange(-90.0, 90.01, 0.25))
        table = radiation_pattern(peak_schedule, [1], theta)
        peak_theta = np.degrees(theta[int(np.argmax(table.levels_db[1]))])
        assert abs(peak_theta - 20.0) <= 0.25

    def test_broadside_pattern_is_symmetric(self):
        schedule = design_schedule(reference_config(), 0.0, 1.0)
        theta = np.deg2rad(np.linspace(-80, 80, 321))
        table = radiation_pattern(schedule, [1], theta)
        np.testing.assert_allclose(
            table.levels_db[1], table.levels_db[1][::-1], atol=1e-9
        )

    def test_first_sidelobe_level(self, peak_schedule):
        theta = np.deg2rad(np.arange(-90.0, 90.001, 0.01))
        levels = radiation_pattern(peak_schedule, [1], theta).levels_db[1]
        interior = (levels[1:-1] > levels[:-2]) & (levels[1:-1] > levels[2:])
        side_peaks = sorted(levels[1:-1][interior], reverse=True)
        assert side_peaks[1] == pytest.approx(-12.04, abs=0.05)

    def test_suppressed_harmonic_reports_the_floor(self, peak_schedule):
        theta = np.deg2rad(np.linspace(-90, 90, 101))
        table = radiation_pattern(peak_schedule, [-3], theta)
        assert np.all(table.levels_db[-3] == DB_FLOOR)

    def test_external_reference_rescales(self, peak_schedule):
        theta = np.deg2rad(np.linspace(-90, 90, 181))
        table = radiation_pattern(peak_schedule, [1], theta)
        rescaled = radiation_pattern(peak_schedule, [1], theta, reference=table.reference * 10)
        np.testing.assert_allclose(
            rescaled.levels_db[1], table.levels_db[1] - 20.0, atol=1e-9
        )

    def test_empty_grid_is_rejected(self, peak_schedule):
        with pytest.raises(ValueError):
            radiation_pattern(peak_schedule, [1], [])


class TestSidebandLevel:
    def test_four_path_peak_mode_dominated_by_fifth_harmonic(self, peak_schedule):
        assert sideband_level(peak_schedule, 7) == pytest.approx(-13.979, abs=0.02)

    def test_eight_path_peak_mode(self, peak_schedule_8path):
        # with m=5 gone the strongest survivor below m_max=7 is m=-7; the
        # second-quartet weighting pushes it well below the plain 1/7 ratio
        assert sideband_level(peak_schedule_8path, 7) == pytest.approx(-25.261, abs=0.02)
        assert sideband_level(peak_schedule_8path, 25) == pytest.approx(-20.874, abs=0.02)

    def test_single_path_schedule_has_weak_suppression(self):
        cfg = reference_config(n_elements=1)
        element = ElementSchedule(0, ((0.0, PulseTrain(1 / 3, 0.0, 0.5)),))
        schedule = ArraySchedule(cfg, 1.0, 0.0, (element,))
        assert sideband_level(schedule, 7) >= -10.0

    def test_rejects_tiny_m_max(self, peak_schedule):
        with pytest.raises(ValueError):
            sideband_level(peak_schedule, 1)


class TestDftOracle:
    def test_recovers_analytic_coefficients(self, peak_schedule):
        element = peak_schedule.elements[1]
        exact = {m: combined_coefficient(element, m) for m in range(-25, 26)}
        scale = max(abs(v) for v in exact.values())
        estimate = envelope_dft_coefficients(element, 2**14, 25)
        worst = max(abs(estimate[m] - exact[m]) for m in exact) / scale
        assert worst < oracle_tolerance(2**14)

    def test_tolerance_rule_tracks_the_cubic_convergence(self, peak_schedule):
        element = peak_schedule.elements[4]
        exact = {m: combined_coefficient(element, m) for m in range(-25, 26)}
        scale = max(abs(v) for v in exact.values())
        for samples in (2**8, 2**10, 2**12):
            estimate = envelope_dft_coefficients(element, samples, 25)
            worst = max(abs(estimate[m] - exact[m]) for m in exact) / scale
            assert worst < oracle_tolerance(samples)

    def test_rejects_m_max_at_nyquist(self, peak_schedule):
        with pytest.raises(ValueError):
            envelope_dft_coefficients(peak_schedule.elements[0], 128, 64)


# ------------------------------------------------ vectorized core vs. loops

def loop_coefficients(schedule, ms):
    """Reference: the scalar per-element, per-path code at every harmonic."""
    return np.array(
        [[combined_coefficient(e, m) for e in schedule.elements] for m in ms], dtype=complex
    ).reshape(len(ms), len(schedule.elements))


def loop_array_factor(schedule, m, theta):
    """Reference: one steering exponential per harmonic, as a plain loop builds it."""
    cfg = schedule.config
    n = np.arange(cfg.n_elements)
    beta_d = cfg.wavenumber * cfg.element_spacing
    phase = np.exp(1j * beta_d * np.outer(np.sin(theta), n))
    return phase @ (coefficient_vector(schedule, m) * np.asarray(cfg.excitations))


train_timings = st.tuples(
    st.floats(-2 * pi, 2 * pi, allow_nan=False),   # path phase
    st.floats(1e-3, 0.5, allow_nan=False),         # width
    st.floats(-1.5, 1.5, allow_nan=False),         # positive onset
    st.floats(-1.5, 1.5, allow_nan=False),         # negative onset
)


#: Trains whose two pulses never overlap: the negative pulse starts somewhere
#: in the gap the positive pulse leaves free, at least 1% away from its ends.
disjoint_timings = st.tuples(
    st.floats(-2 * pi, 2 * pi, allow_nan=False),   # path phase
    st.floats(1e-3, 1 / 3, allow_nan=False),       # width
    st.floats(-1.5, 1.5, allow_nan=False),         # positive onset
    st.floats(0.01, 0.99, allow_nan=False),        # place in the free gap
).map(lambda t: (t[0], t[1], t[2], t[2] + t[1] + t[3] * (1 - 2 * t[1])))


@st.composite
def loaded_schedules(draw, timings=train_timings):
    """Arbitrary schedules as a document can hold them: ragged path counts,
    elements without paths, unequal widths and, unless ``timings`` rules
    them out, overlapping pulses."""
    element_paths = draw(st.lists(st.lists(timings, max_size=9), min_size=1, max_size=6))
    cfg = reference_config(n_elements=len(element_paths))
    elements = tuple(
        ElementSchedule(i, tuple((ph, PulseTrain(w, on, off)) for ph, w, on, off in paths))
        for i, paths in enumerate(element_paths)
    )
    return ArraySchedule(cfg, 1.0, 0.0, elements)


class TestCoefficientMatrix:
    @pytest.mark.parametrize("path_count", [4, 8])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_equals_scalar_code_exactly_on_designed_schedules(self, path_count, alpha):
        cfg = reference_config(n_elements=9, path_count=path_count)
        schedule = design_schedule(cfg, np.deg2rad(-37.5), alpha)
        ms = range(-101, 102)
        assert np.array_equal(coefficient_matrix(schedule, ms), loop_coefficients(schedule, ms))

    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(), st.lists(st.integers(-60, 60), min_size=1, max_size=12))
    def test_equals_scalar_code_exactly_on_loaded_schedules(self, schedule, ms):
        assert np.array_equal(coefficient_matrix(schedule, ms), loop_coefficients(schedule, ms))

    def test_shape_and_zero_harmonic(self, peak_schedule_8path):
        matrix = coefficient_matrix(peak_schedule_8path, [0, 1, 0])
        assert matrix.shape == (3, 5)
        assert np.all(matrix[[0, 2]] == 0)


#: Values a document cannot hold as they are: negative zeros, an angle whose
#: radians are subnormal and onsets that print as 1.
EDGE_SCHEDULE = ArraySchedule(reference_config(n_elements=1), 1.0, 0.0, (
    ElementSchedule(0, ((-0.0, PulseTrain(0.25, 1 - 2**-53, 0.5 - 2**-53)),
                        (1e-310, PulseTrain(0.25, 0.5 - 2**-53, 1 - 2**-53)))),
))


class TestLoadedSchedules:
    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(disjoint_timings), st.floats(0.05, 4.0), st.floats(1e9, 3e11),
           st.floats(1e-3, 1.0), st.floats(-80.0, 80.0))
    @example(EDGE_SCHEDULE, 0.5, 77e9, 1.0, -0.0)
    def test_document_round_trip_is_byte_identical(
        self, schedule, spacing_wl, f0, alpha, theta_deg
    ):
        schedule = dataclasses.replace(
            schedule,
            config=reference_config(schedule.config.n_elements, spacing_wl=spacing_wl, f0=f0),
            duty_ratio=alpha,
            steer_angle=np.deg2rad(theta_deg),
        )
        first = dump_json(schedule_to_doc(schedule))
        assert dump_json(schedule_to_doc(schedule_from_doc(json.loads(first)))) == first

    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(disjoint_timings))
    def test_tabulated_powers_never_exceed_total(self, schedule):
        spectrum = compute_spectrum(schedule)
        assert sum(spectrum.powers.values()) <= spectrum.total_power * (1 + 1e-12)


class TestSharedSteering:
    @pytest.mark.parametrize("n_elements, path_count", [(5, 4), (16, 8), (64, 4), (256, 8)])
    def test_radiation_pattern_is_bit_identical_to_per_harmonic_loop(
        self, n_elements, path_count
    ):
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        schedule = design_schedule(cfg, np.deg2rad(23.0), 10 ** -0.4)
        theta = np.deg2rad(np.arange(-90.0, 90.125, 0.25))
        harmonics = [1, -3, 5, -7, 9, -15]
        table = radiation_pattern(schedule, harmonics, theta)
        reference = float(np.max(np.abs(loop_array_factor(schedule, 1, theta))))
        assert table.reference == reference
        for m in harmonics:
            ratio = np.abs(loop_array_factor(schedule, m, theta)) / reference
            with np.errstate(divide="ignore"):
                db = 20.0 * np.log10(ratio)
            db[ratio * ratio < POWER_CLAMP_REL] = DB_FLOOR
            assert np.array_equal(table.levels_db[m], np.maximum(db, DB_FLOOR))

    @pytest.mark.parametrize("n_elements, path_count, alpha", [
        (5, 4, 1.0), (5, 8, 10 ** -0.6), (32, 8, 1.0), (32, 4, 10 ** -0.9),
    ])
    def test_sideband_level_agrees_with_per_harmonic_loop(self, n_elements, path_count, alpha):
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        schedule = design_schedule(cfg, np.deg2rad(-41.0), alpha)
        step, m_max = 0.1, 25
        theta = np.deg2rad(np.arange(-90.0, 90.0 + step / 2, step))
        ref = np.max(np.abs(loop_array_factor(schedule, 1, theta)))
        worst = max(np.max(np.abs(loop_array_factor(schedule, m, theta)))
                    for m in range(-m_max, m_max + 1) if m not in (0, 1))
        expected = 20.0 * np.log10(worst / ref)
        assert sideband_level(schedule, m_max, step) == pytest.approx(expected, rel=1e-12)

    def test_sideband_level_blocks_the_grid_under_the_cap(self, peak_schedule, monkeypatch):
        whole = sideband_level(peak_schedule, 25)
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 997)
        assert sideband_level(peak_schedule, 25) == pytest.approx(whole, rel=1e-12)

    def test_pattern_above_the_cap_is_rejected(self, peak_schedule, monkeypatch):
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 5 * 100)
        theta = np.linspace(-1.0, 1.0, 100)
        radiation_pattern(peak_schedule, [1], theta)
        with pytest.raises(ValueError, match="cap"):
            radiation_pattern(peak_schedule, [1], np.linspace(-1.0, 1.0, 101))
