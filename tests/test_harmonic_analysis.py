"""Analytic coefficients, powers, Parseval consistency, and patterns."""

import dataclasses
import json
import os
import pickle
import random
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from math import pi

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ALPHA_GRID, THETA_20, reference_config
from scalar_reference import (
    combined_coefficient,
    envelope_segments,
    lag_total_power,
    path_coefficient,
    synthesize_envelope,
)
from switchbeam.array_model import (
    MAX_ELEMENTS,
    ArraySchedule,
    _schedule_table,
    _segments,
    ElementSchedule,
    PulseTrain,
    pulse_table,
    validate,
)
from switchbeam import harmonic_analysis
from switchbeam.harmonic_analysis import (
    DB_FLOOR,
    POWER_CLAMP_REL,
    array_factor,
    coefficient_matrix,
    coefficient_vector,
    compute_spectrum,
    envelope_dft_coefficients,
    harmonic_efficiency,
    harmonic_power,
    oracle_tolerance,
    radiation_pattern,
    sideband_level,
    total_power,
)
from switchbeam.formats import (
    canonical_schedule,
    dump_json,
    schedule_from_doc,
    schedule_to_doc,
)
from switchbeam.modulation import SymbolPlan, simulate_constellation
from switchbeam.schedule_design import design_schedule, steering_onset, suppressed_harmonics

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

    def test_imaginary_residue_names_the_first_offending_harmonic(self):
        # an asymmetric kernel: row [1, 1j] leaves -1j, row [1j, 1] +1j, and a
        # zero row has no scale to measure a residue against
        kernel = np.array([[1.0, 1.0], [0.0, 1.0]])
        matrix = np.array([[0, 0], [1, 1], [1, 1j], [1j, 1]], dtype=complex)
        with pytest.raises(RuntimeError, match=r"^harmonic_power\(m=9\): imaginary residue "
                                               r"-1\.000e\+00 exceeds tolerance$"):
            harmonic_analysis._harmonic_powers(kernel, matrix, [7, 8, 9, 10])

    def test_asymmetric_kernel_is_caught_by_harmonic_power(self, peak_schedule, monkeypatch):
        # the elements' coefficients differ in phase, so a one-sided kernel
        # leaves an imaginary part of the order of the power
        monkeypatch.setattr(harmonic_analysis, "_coupling_kernel",
                            lambda config: np.triu(np.ones((config.n_elements,) * 2)))
        with pytest.raises(RuntimeError, match=r"harmonic_power\(m=1\): imaginary residue"):
            harmonic_power(peak_schedule, 1)

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

    def test_one_coupling_kernel_serves_every_block(self, monkeypatch):
        # 16 elements x 8 paths stack 8 schedules a block: 20 take three
        cfg = reference_config(16, path_count=8)
        schedules = [design_schedule(cfg, THETA_20, alpha) for alpha in np.linspace(0.05, 1, 20)]
        expected = [harmonic_efficiency(s) for s in schedules]
        built, real = [], harmonic_analysis._coupling_kernel
        monkeypatch.setattr(harmonic_analysis, "_coupling_kernel",
                            lambda config: built.append(config) or real(config))
        tables = [_schedule_table(s) for s in schedules]
        assert harmonic_analysis._harmonic_efficiencies(cfg, tables) == expected
        assert built == [cfg]


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

    @pytest.mark.parametrize("alpha", [1e-17, 1e-12, 1e-6])
    def test_efficiency_divides_the_unclamped_first_harmonic(self, alpha):
        # at 0.5 wavelength the coupling kernel is the identity, and pulses this
        # narrow do not overlap: P_1 = N |A_1,0|**2 and P_total = N * 8 * alpha / 3;
        # at alpha = 1e-17, P_1 is below POWER_CLAMP_REL of the total
        schedule = design_schedule(reference_config(), THETA_20, alpha)
        expected = abs(coefficient_matrix(schedule, [1])[0, 0]) ** 2 * 3 / (8 * alpha)
        assert compute_spectrum(schedule).efficiency == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m_max", [0, -1])
    def test_rejects_m_max_below_one(self, peak_schedule, m_max):
        with pytest.raises(ValueError, match="m_max must be at least 1"):
            compute_spectrum(peak_schedule, m_max)

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

    @pytest.mark.parametrize("reference", [np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0])
    def test_rejects_a_reference_that_is_not_finite_and_positive(self, peak_schedule, reference):
        # nan gave NaN levels and inf the floor everywhere
        theta = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="pattern reference must be positive and finite"):
            radiation_pattern(peak_schedule, [1, 5], theta, reference=reference)

    def test_empty_grid_is_rejected(self, peak_schedule):
        with pytest.raises(ValueError):
            radiation_pattern(peak_schedule, [1], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_angles_are_rejected(self, peak_schedule, bad):
        # a NaN angle used to give a NaN reference, which passed the check,
        # and NaN levels
        with pytest.raises(ValueError, match="theta must be finite"):
            radiation_pattern(peak_schedule, [1, 5], [bad, 0.1])
        with pytest.raises(ValueError, match="theta must be finite"):
            array_factor(peak_schedule, 1, bad)


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

    @pytest.mark.parametrize("extra", [((0.05,), {}), ((), {"theta_step_deg": 0.05})],
                             ids=["positional", "keyword"])
    def test_takes_no_theta_step(self, peak_schedule, extra):
        # the grid is fixed at 0.05 degrees: no step, by position or by name
        args, kwargs = extra
        with pytest.raises(TypeError):
            sideband_level(peak_schedule, 25, *args, **kwargs)

    @pytest.mark.parametrize("n_elements, path_count", [(4, 4), (17, 8), (64, 8)])
    def test_agrees_with_per_harmonic_loop_on_its_grid(self, n_elements, path_count):
        # the 0.05-degree grid over +-90 degrees, built here as a plain loop would
        theta = np.deg2rad(np.arange(-90.0, 90.0 + 0.05 / 2, 0.05))
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        schedule = design_schedule(cfg, np.deg2rad(-41.0), 0.5)
        m_max = 25
        ref = np.max(np.abs(loop_array_factor(schedule, 1, theta)))
        worst = max(np.max(np.abs(loop_array_factor(schedule, m, theta)))
                    for m in range(-m_max, m_max + 1) if m not in (0, 1))
        expected = 20.0 * np.log10(worst / ref)
        assert sideband_level(schedule, m_max) == pytest.approx(expected, rel=1e-12)

    def test_silent_schedule_is_rejected(self):
        # elements without paths radiate nothing: no m = 1 peak to compare
        # against, not a -150 dB "no sidebands"
        cfg = reference_config(n_elements=3)
        schedule = ArraySchedule(cfg, 1.0, 0.0, tuple(ElementSchedule(i, ()) for i in range(3)))
        with pytest.raises(ValueError, match="the m = 1 peak"):
            sideband_level(schedule, 7)
        with pytest.raises(ValueError, match="pattern reference must be positive"):
            radiation_pattern(schedule, [3], np.linspace(-1.0, 1.0, 5))


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


def assert_template_rows(fast, exact):
    """A designed schedule's template rows against the general route's over
    the same table: every entry, element 0's too, within 1e-12 of the
    largest |A| (``TestElementZero`` holds element 0 to the scalar code)."""
    assert np.max(np.abs(fast - exact)) <= 1e-12 * np.max(np.abs(exact))


def reference_coefficients(table, ms):
    """Reference: ``coefficient_matrix`` of a pulse table as one broadcast over
    every harmonic, element and path, three exponentials per entry and the
    paths added in order; ``_coefficients`` must keep its bytes."""
    onsets, width, rotation = table
    width, rot_r, rot_i = width[..., None], rotation.real, rotation.imag
    w = 2 * pi * np.asarray(ms, dtype=float)[:, None, None, None]
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0)
    f = np.exp(-1j * w * width)
    e = np.exp(-1j * w * onsets)
    f_r, f_i = 1.0 - f.real, -f.imag
    e_r, e_i = e.real, e.imag
    p_r = e_r * f_r - e_i * f_i
    p_i = e_r * f_i + e_i * f_r
    pulse_r, pulse_i = p_i * inv_w, -p_r * inv_w
    d_r = pulse_r[..., 0] - pulse_r[..., 1]
    d_i = pulse_i[..., 0] - pulse_i[..., 1]
    out = np.empty(d_r.shape[:2], dtype=complex)
    out.real = np.cumsum(rot_r * d_r - rot_i * d_i, axis=2)[..., -1]
    out.imag = np.cumsum(rot_r * d_i + rot_i * d_r, axis=2)[..., -1]
    return out


def loop_array_factor(schedule, m, theta):
    """Reference: one steering exponential per harmonic, as a plain loop builds it."""
    cfg = schedule.config
    n = np.arange(cfg.n_elements)
    beta_d = cfg.wavenumber * cfg.element_spacing
    phase = np.exp(1j * beta_d * np.outer(np.sin(theta), n))
    return phase @ coefficient_vector(schedule, m)


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
def loaded_schedules(draw, timings=train_timings, n_elements=None):
    """Arbitrary schedules as a document can hold them: ragged path counts,
    elements without paths, unequal widths and, unless ``timings`` rules
    them out, overlapping pulses.  ``n_elements`` fixes the element count."""
    element_paths = draw(st.lists(st.lists(timings, max_size=9),
                                  min_size=n_elements or 1, max_size=n_elements or 6))
    cfg = reference_config(n_elements=len(element_paths))
    elements = tuple(
        ElementSchedule(i, tuple((ph, PulseTrain(w, on, off)) for ph, w, on, off in paths))
        for i, paths in enumerate(element_paths)
    )
    return ArraySchedule(cfg, 1.0, 0.0, elements)


@st.composite
def spaced_schedules(draw):
    """``loaded_schedules`` with a spacing of 0.1 to 1 wavelength: below 0.5,
    some harmonics' beams leave the visible region, so their peaks fall well
    short of their bounds."""
    schedule = draw(loaded_schedules())
    spacing = schedule.config.element_spacing * draw(st.floats(0.2, 2.0))
    config = dataclasses.replace(schedule.config, element_spacing=spacing)
    return dataclasses.replace(schedule, config=config)


@st.composite
def sideband_schedules(draw, spacing=(0.1, 1.0), copies=True):
    """A designed schedule of 1 to 300 elements, 4 or 8 paths, at a spacing
    in ``spacing`` wavelengths, or, if ``copies``, maybe its
    ``dataclasses.replace`` copy (analysed from its elements)."""
    cfg = reference_config(n_elements=draw(st.integers(1, 300)),
                           path_count=draw(st.sampled_from([4, 8])),
                           spacing_wl=draw(st.floats(*spacing)))
    schedule = design_schedule(cfg, np.deg2rad(draw(st.floats(-70.0, 70.0))),
                               draw(st.floats(1e-3, 1.0)))
    return dataclasses.replace(schedule) if copies and draw(st.booleans()) else schedule


#: Trains for the byte tests: phases whose rotations hold signed zeros or
#: exact signs, widths down to 1e-12, and now and then both pulses at one
#: onset, so that a path adds exact zeros.
bit_timings = st.tuples(
    st.one_of(st.sampled_from([0.0, -0.0, pi, -pi]), st.floats(-2 * pi, 2 * pi)),
    st.one_of(st.just(1e-12), st.floats(1e-12, 0.5)),
    st.floats(-1.5, 1.5),
    st.one_of(st.none(), st.floats(-1.5, 1.5)),
).map(lambda t: (t[0], t[1], t[2], t[2] if t[3] is None else t[3]))

#: Harmonic lists in any order, with repeats, 0 and +-m pairs.
harmonic_lists = st.lists(st.integers(-101, 101), min_size=1, max_size=16).flatmap(
    lambda ms: st.permutations(ms + [-m for m in ms[::2]] + [0]))

#: One path with both pulses at one onset and a rotation of negative real
#: part: every harmonic's coefficient is a zero whose sign the -m rows keep.
ZERO_PATH_SCHEDULE = ArraySchedule(reference_config(n_elements=1), 1.0, 0.0, (
    ElementSchedule(0, ((pi, PulseTrain(0.25, 0.3, 0.3)),)),
))


class TestCoefficientMatrix:
    @pytest.mark.parametrize("path_count", [4, 8])
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_equals_scalar_code_exactly_on_designed_schedules(self, path_count, alpha):
        cfg = reference_config(n_elements=9, path_count=path_count)
        schedule = design_schedule(cfg, np.deg2rad(-37.5), alpha)
        ms = range(-101, 102)
        # the general route over the designed table keeps the scalar bits
        general = coefficient_matrix(dataclasses.replace(schedule), ms)
        assert np.array_equal(general, loop_coefficients(schedule, ms))
        assert_template_rows(coefficient_matrix(schedule, ms), general)

    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(), st.lists(st.integers(-60, 60), min_size=1, max_size=12))
    def test_equals_scalar_code_exactly_on_loaded_schedules(self, schedule, ms):
        assert np.array_equal(coefficient_matrix(schedule, ms), loop_coefficients(schedule, ms))

    def test_shape_and_zero_harmonic(self, peak_schedule_8path):
        matrix = coefficient_matrix(peak_schedule_8path, [0, 1, 0])
        assert matrix.shape == (3, 5)
        assert np.all(matrix[[0, 2]] == 0)

    @settings(max_examples=150, deadline=None)
    @given(loaded_schedules(bit_timings), harmonic_lists,
           st.sampled_from([1, 5, harmonic_analysis.COEFFICIENT_BLOCK]))
    @example(ZERO_PATH_SCHEDULE, [1, -1, 2, -2], 1)
    @example(ZERO_PATH_SCHEDULE, [-3, 0, 3], harmonic_analysis.COEFFICIENT_BLOCK)
    def test_bytes_equal_the_reference_broadcast(self, schedule, ms, block):
        # a fresh copy: the module constant may hold a memo of an earlier example
        schedule = dataclasses.replace(schedule)
        # np.array_equal would pass a zero of the wrong sign
        expected = reference_coefficients(pulse_table(schedule.elements), ms)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harmonic_analysis, "COEFFICIENT_BLOCK", block)
            got = coefficient_matrix(schedule, ms)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("path_count", [4, 8])
    def test_bytes_equal_the_reference_on_designed_tables(self, path_count):
        cfg = reference_config(n_elements=37, path_count=path_count, spacing_wl=0.6)
        schedule = design_schedule(cfg, np.deg2rad(-37.5), 0.3)
        ms = list(range(-101, 102)) + [1, -1, 0]
        expected = reference_coefficients(pulse_table(schedule.elements), ms)
        general = coefficient_matrix(dataclasses.replace(schedule), ms)
        assert general.tobytes() == expected.tobytes()
        assert_template_rows(coefficient_matrix(schedule, ms), expected)

    def test_general_pass_at_the_element_cap_holds_a_few_blocks(self):
        # at 2048 elements x 8 paths a block is one harmonic, 2 x 8 x 2048
        # onset exponentials (512 KiB); all 203 harmonics at once would take
        # 101.5 MiB of them
        schedule = design_schedule(reference_config(MAX_ELEMENTS, path_count=8), THETA_20, 0.5)
        table = _schedule_table(dataclasses.replace(schedule))
        block_bytes = harmonic_analysis.COEFFICIENT_BLOCK * 16
        tracemalloc.start()
        try:
            matrix = harmonic_analysis._coefficients(table, np.arange(-101.0, 102.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - matrix.nbytes <= 8 * block_bytes

    def test_empty_harmonic_list(self, peak_schedule):
        assert coefficient_matrix(peak_schedule, []).shape == (0, 5)

    @pytest.mark.parametrize("m", [2**53, -2**53, 2.0**53, np.int64(-7), 3.0, -0.0])
    def test_accepts_integral_indices(self, peak_schedule, m):
        expected = reference_coefficients(pulse_table(peak_schedule.elements), [float(m)])
        fresh = dataclasses.replace(peak_schedule)
        assert coefficient_matrix(fresh, [m]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("m", [1.5, -0.25, np.nan, np.inf, -np.inf, 2**53 + 1, -2**53 - 1,
                                   2.0**53 + 2, 2**62, np.int64(-2**63), 2**70, 10**400, 1e300])
    @pytest.mark.parametrize("analysis", [
        lambda s, m: coefficient_matrix(s, [1, m]),
        lambda s, m: coefficient_vector(s, m),
        lambda s, m: harmonic_power(s, m),
        lambda s, m: array_factor(s, m, 0.3),
        lambda s, m: radiation_pattern(s, [m], np.linspace(-1.0, 1.0, 5)),
    ], ids=["matrix", "vector", "power", "array_factor", "pattern"])
    def test_rejects_a_harmonic_that_does_not_exist(self, peak_schedule, m, analysis):
        with pytest.raises(ValueError, match="harmonic indices"):
            analysis(peak_schedule, m)


#: A coarse grid: the memo tests compare bytes, not pattern shapes.
COARSE_THETA = np.deg2rad(np.arange(-90.0, 90.5, 1.0))


@st.composite
def schedule_makers(draw):
    """Callables that build one schedule afresh at every call: a designed
    schedule (the lag-sum route), or one of ``loaded_schedules`` copied by
    ``dataclasses.replace`` (the Gram route)."""
    if draw(st.booleans()):
        cfg = reference_config(n_elements=draw(st.integers(1, 16)),
                               path_count=draw(st.sampled_from([4, 8])))
        theta, alpha = np.deg2rad(draw(st.floats(-60.0, 60.0))), draw(st.floats(1e-3, 1.0))
        return lambda: design_schedule(cfg, theta, alpha)
    schedule = draw(loaded_schedules(disjoint_timings))
    return lambda: dataclasses.replace(schedule)


#: One analysis call: its name and its harmonic argument.
analysis_calls = st.one_of(
    st.tuples(st.just("spectrum"), st.integers(1, 12)),
    st.tuples(st.just("sideband"), st.integers(2, 12)),
    st.tuples(st.just("pattern"), st.lists(st.integers(-15, 15), max_size=5)),
    st.tuples(st.just("matrix"), harmonic_lists),
    st.tuples(st.just("array_factor"), st.integers(-15, 15)),
)


def analysis_bytes(schedule, call) -> bytes:
    """Every number one analysis call returns, as bytes, or its error."""
    name, arg = call
    try:
        if name == "spectrum":
            spectrum = compute_spectrum(schedule, arg)
            parts = [c.per_element for c in spectrum.coefficients.values()]
            parts += [list(spectrum.powers.values()), [spectrum.total_power, spectrum.efficiency]]
        elif name == "sideband":
            peaks = harmonic_analysis._sideband_peaks(schedule, arg, COARSE_THETA)
            parts = [list(peaks), list(peaks.values())]
        elif name == "pattern":
            table = radiation_pattern(schedule, arg, COARSE_THETA)
            parts = [*table.levels_db.values(), [table.reference]]
        elif name == "matrix":
            parts = [coefficient_matrix(schedule, arg)]
        else:
            parts = [array_factor(schedule, arg, COARSE_THETA)]
    except ValueError as exc:
        return str(exc).encode()
    return b"".join(np.asarray(part).tobytes() for part in parts)


def counted_passes(monkeypatch) -> list:
    """The harmonic count of every coefficient pass from here on: a
    designed schedule's ``_template_rows``, any other's ``_coefficients``."""
    passes = []
    for name in ("_coefficients", "_template_rows"):
        real = getattr(harmonic_analysis, name)
        monkeypatch.setattr(harmonic_analysis, name, lambda table, ms, real=real:
                            passes.append(len(ms)) or real(table, ms))
    return passes


class TestCoefficientMemo:
    @settings(max_examples=60, deadline=None)
    @given(schedule_makers(), st.lists(analysis_calls, min_size=1, max_size=6))
    @example(lambda: design_schedule(reference_config(9, 8), THETA_20, 0.4),
             [("spectrum", 5), ("sideband", 5), ("pattern", [1, 1, -3, 5, -7]),
              ("matrix", [0, -0.0, 5, 5]), ("array_factor", -3), ("spectrum", 3)])
    def test_bytes_equal_a_fresh_schedule_in_any_order(self, make, calls):
        schedule = make()
        for call in calls:
            assert analysis_bytes(schedule, call) == analysis_bytes(make(), call)

    def test_one_coefficient_pass_serves_an_array_study(self, monkeypatch):
        schedule = design_schedule(reference_config(32, path_count=8), THETA_20, 0.4)
        passes = counted_passes(monkeypatch)
        compute_spectrum(schedule, 25)
        sideband_level(schedule, 25)
        radiation_pattern(schedule, [1, -3, 5, -7], COARSE_THETA)
        array_factor(schedule, -25, 0.3)
        harmonic_power(schedule, 7)
        coefficient_matrix(schedule, [0, -0.0, 1, 1])
        assert passes == [51]
        # a harmonic outside the memo: one pass, whose rows replace it
        coefficient_matrix(schedule, [26])
        coefficient_matrix(schedule, [26, 26])
        coefficient_matrix(schedule, [25])
        assert passes == [51, 1, 1]
        # copies start without a memo
        coefficient_matrix(dataclasses.replace(schedule), [25])
        assert passes == [51, 1, 1, 1]

    def test_writes_into_results_never_reach_the_memo(self):
        schedule = design_schedule(reference_config(9, path_count=8), THETA_20, 0.4)
        ms = range(-5, 6)
        fresh = design_schedule(reference_config(9, path_count=8), THETA_20, 0.4)
        expected = coefficient_matrix(fresh, ms).tobytes()
        spectrum = compute_spectrum(schedule, 5)
        with pytest.raises(ValueError, match="read-only"):
            spectrum.coefficients[1].per_element[0] = 0.0
        # the memo's own rows in order, some of its rows, and a pass that
        # replaces it
        for request in (ms, [1, -3], [6]):
            coefficient_matrix(schedule, request)[...] = 7.0
        coefficient_matrix(schedule, ms)[...] = 7.0
        assert coefficient_matrix(schedule, ms).tobytes() == expected
        rows = compute_spectrum(schedule, 5).coefficients.values()
        assert b"".join(c.per_element.tobytes() for c in rows) == expected

    def test_a_general_schedule_keeps_no_rows(self, monkeypatch):
        copy = dataclasses.replace(design_schedule(reference_config(9, 8), THETA_20, 0.4))
        passes = counted_passes(monkeypatch)
        compute_spectrum(copy, 5)
        sideband_level(copy, 5)
        radiation_pattern(copy, [1, -3], COARSE_THETA)
        coefficient_matrix(copy, [1, -3])
        assert "_coefficient_memo" not in vars(copy)
        # each call, the range of the spectrum's own included, runs its pass
        assert passes == [11, 11, 2, 2]

    def test_memo_is_not_part_of_the_dataclass(self):
        schedule = design_schedule(reference_config(9), THETA_20, 0.4)
        before = (dataclasses.fields(schedule), hash(schedule), repr(schedule))
        compute_spectrum(schedule, 5)
        assert (dataclasses.fields(schedule), hash(schedule), repr(schedule)) == before
        copy = dataclasses.replace(schedule)
        assert copy == schedule and hash(copy) == hash(schedule) and repr(copy) == repr(schedule)
        assert set(vars(copy)) <= {f.name for f in dataclasses.fields(copy)}

    @pytest.mark.parametrize("m", [1.5, np.nan, 2**53 + 1])
    def test_memo_does_not_skip_the_index_check(self, m):
        # 2**53 + 1 rounds onto the key 2**53 as a float
        schedule = design_schedule(reference_config(9), THETA_20, 0.4)
        compute_spectrum(schedule, 5)
        coefficient_matrix(schedule, [1, 2**53])
        with pytest.raises(ValueError, match="harmonic indices"):
            coefficient_matrix(schedule, [1, m])

    def test_pickle_drops_the_memo_and_keeps_the_step(self):
        schedule = design_schedule(reference_config(256, path_count=8), THETA_20, 0.5)
        before = pickle.dumps(schedule)
        expected = analysis_bytes(schedule, ("spectrum", 101))
        # the memo now holds 203 x 256 complex coefficients, about 0.8 MB
        assert pickle.dumps(schedule) == before
        copy = pickle.loads(before)
        assert copy == schedule and copy.onset_step == schedule.onset_step
        assert "_coefficient_memo" not in vars(copy)
        assert analysis_bytes(copy, ("spectrum", 101)) == expected

    def test_threads_sharing_a_schedule_get_its_bits(self):
        # more threads than cores, each replacing the memo with its own rows
        # while the others index it; a torn (index, matrix) pair would hand
        # one request another's rows
        schedule = design_schedule(reference_config(16, path_count=8), THETA_20, 0.4)
        requests = [range(-5, 6), [1, -3, 5], [7, 0, -7], [2, 4, 4, -9]]
        expected = [coefficient_matrix(design_schedule(reference_config(16, path_count=8),
                                                       THETA_20, 0.4), ms) for ms in requests]
        mismatches = []

        def worker(k):
            for i in range(300):
                ms = requests[(k + i) % len(requests)]
                got = coefficient_matrix(schedule, ms)
                if got.tobytes() != expected[(k + i) % len(requests)].tobytes():
                    mismatches.append(list(ms))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_range_of_the_pass_is_the_memo_at_once(self, monkeypatch):
        def make():
            return design_schedule(reference_config(16, path_count=8), THETA_20, 0.4)

        schedule = make()
        expected = coefficient_matrix(make(), range(-6, 7)).tobytes()
        reordered, narrower = (coefficient_matrix(make(), request).tobytes()
                               for request in (range(6, -7, -1), range(-3, 4)))
        memo = harmonic_analysis._rows(schedule, range(-6, 7))
        checks = []
        real = harmonic_analysis._harmonic_indices
        monkeypatch.setattr(harmonic_analysis, "_harmonic_indices",
                            lambda ms: checks.append(ms) or real(ms))
        # an equal range, however spelled, takes no index check
        for request in (range(-6, 7), range(-6, 7, 1)):
            rows = harmonic_analysis._rows(schedule, request)
            assert rows is memo and not rows.flags.writeable
            assert rows.tobytes() == expected
        assert checks == []
        with pytest.raises(ValueError, match="read-only"):
            harmonic_analysis._rows(schedule, range(-6, 7))[0, 0] = 0.0
        # a list, a reordered or narrower range and a wider one take the
        # general path: the first is the memo, the next two fresh copies,
        # the last a new pass whose range then hits
        listed = harmonic_analysis._rows(schedule, list(range(-6, 7)))
        assert listed is memo
        for request, bits in ((range(6, -7, -1), reordered), (range(-3, 4), narrower)):
            rows = harmonic_analysis._rows(schedule, request)
            assert rows.flags.writeable and rows.tobytes() == bits
        wider = harmonic_analysis._rows(schedule, range(-7, 8))
        assert wider is not memo and harmonic_analysis._rows(schedule, range(-7, 8)) is wider
        assert len(checks) == 4
        assert coefficient_matrix(schedule, range(-6, 7)).tobytes() == expected

    def test_spectrum_holds_one_coefficient_matrix(self):
        # the memo and the spectrum's rows share one matrix of 6.3 MiB; the
        # peak adds the larger working set of the coefficient blocks and of
        # the lag-sum powers, each measured alone
        schedule = design_schedule(reference_config(MAX_ELEMENTS), THETA_20, 0.5)
        ms = range(-101, 102)
        matrix_bytes = len(ms) * MAX_ELEMENTS * 16
        compute_spectrum(design_schedule(reference_config(5), THETA_20, 0.5), 101)
        table = pulse_table(schedule.elements)
        tracemalloc.start()
        try:
            matrix = harmonic_analysis._coefficients(table, np.array(ms, dtype=float))
            coefficient_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            harmonic_analysis._template_powers(
                harmonic_analysis._lag_weights(schedule.config), matrix)
            template_peak = tracemalloc.get_traced_memory()[1] - held + matrix_bytes
            del matrix
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spectrum = compute_spectrum(schedule, 101)
            held, peak = (x - base for x in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert spectrum.coefficients[1].per_element.base.nbytes == matrix_bytes
        assert held <= matrix_bytes + 2**20
        assert peak <= max(coefficient_peak, template_peak) + 2**20


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

    @settings(max_examples=40, deadline=None)
    @given(loaded_schedules(disjoint_timings))
    def test_coefficients_agree_with_dft_oracle(self, schedule):
        samples, ms = 4096, range(-25, 26)
        matrix = coefficient_matrix(schedule, ms)
        for element, exact in zip(schedule.elements, matrix.T):
            scale = np.max(np.abs(exact))
            if scale == 0:  # no paths: a relative error is undefined
                continue
            estimate = envelope_dft_coefficients(element, samples, 25)
            worst = max(abs(estimate[m] - a) for m, a in zip(ms, exact)) / scale
            assert worst < oracle_tolerance(samples)

    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(disjoint_timings))
    def test_segments_of_many_elements_equal_each_alone(self, schedule):
        # zero-width padding of ragged path counts must add no break
        edges, values = _segments(pulse_table(schedule.elements))
        assert edges.shape == values.shape == (len(schedule.elements), 4 * max(
            [1] + [len(e.paths) for e in schedule.elements]))
        for element, row, row_values in zip(schedule.elements, edges, values):
            last = np.isfinite(row) & (row != np.append(row[1:], np.inf))
            alone = envelope_segments(element)
            assert same_bits(row[last], alone[0])
            assert same_bits(row_values[last], alone[1])

    @settings(max_examples=60, deadline=None)
    @given(loaded_schedules(disjoint_timings))
    def test_envelope_segments_match_synthesized_samples(self, schedule):
        # both add the same pulse weights in the same order, so away from the
        # breaks (where the value is a convention) they agree bit for bit
        samples = 2048
        t = (np.arange(samples) + 0.5) / samples
        for element in schedule.elements:
            breaks, values = envelope_segments(element)
            assert 0.0 <= breaks[0] and np.all(np.diff(breaks) > 0) and breaks[-1] < 1.0
            gap = np.abs(t[:, None] - np.concatenate([breaks - 1, breaks, breaks + 1]))
            clear = gap.min(axis=1) > 1e-9
            looked_up = values[np.searchsorted(breaks, t, side="right") - 1]
            env = synthesize_envelope(element, samples)
            assert np.array_equal(env[clear], looked_up[clear])


# ------------------------------------------------ batched Gram pass vs. the pair loop

def pair_integral(seg_a, seg_b) -> complex:
    """Reference: integral over one period of E_a(t) * conj(E_b(t)), one pair."""
    breaks_a, vals_a = seg_a
    breaks_b, vals_b = seg_b
    edges = np.unique(np.concatenate([breaks_a, breaks_b, [0.0, 1.0]]))
    lengths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    idx_a = np.searchsorted(breaks_a, mids, side="right") - 1
    idx_b = np.searchsorted(breaks_b, mids, side="right") - 1
    # mids before the first breakpoint belong to the wrapped last segment
    va = vals_a[idx_a]
    vb = vals_b[idx_b]
    return complex(np.sum(np.multiply(np.multiply(va, np.conj(vb)), lengths)))


def loop_gram(schedule) -> np.ndarray:
    """Reference: the loop over element pairs that the batched pass replaced."""
    segments = [envelope_segments(e) for e in schedule.elements]
    n_el = len(segments)
    gram = np.zeros((n_el, n_el), dtype=complex)
    for i in range(n_el):
        for j in range(i, n_el):
            gram[i, j] = pair_integral(segments[i], segments[j])
            gram[j, i] = np.conj(gram[i, j])
    return gram


def loop_total_power(schedule) -> float:
    kernel = harmonic_analysis._coupling_kernel(schedule.config)
    return float(np.sum(kernel * loop_gram(schedule)).real)


def batch_grams(schedules) -> np.ndarray:
    """The batched pass over same-size schedules stacked in one pulse table."""
    table = pulse_table([e for s in schedules for e in s.elements])
    return harmonic_analysis._grams(table, len(schedules))


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def dyadic_timings(draw):
    """Disjoint trains on a 1/64 grid, each onset possibly nudged by one ulp,
    so that edges coincide or lie one ulp apart."""
    width = draw(st.integers(1, 21)) / 64
    on = draw(st.integers(0, 63)) / 64
    off = on + width + draw(st.integers(0, 64 - 2 * int(width * 64))) / 64
    on, off = (float(np.nextafter(t, t + draw(st.sampled_from([-1.0, 0.0, 1.0]))))
               for t in (on, off))
    assume(PulseTrain(width, on, off).pulses_disjoint())
    return draw(st.sampled_from([0.0, -0.0, pi / 2, -2.5])), width, on, off


class TestTotalPowerBatch:
    @pytest.mark.parametrize("path_count", [4, 8])
    @pytest.mark.parametrize("n_elements", [1, 2, 5, 16, 33])
    def test_equals_pair_loop_on_designed_schedules(self, n_elements, path_count):
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        for alpha in ALPHA_GRID + (0.37, 10 ** -0.95):
            schedule = design_schedule(cfg, np.deg2rad(-37.5), alpha)
            assert total_power(schedule).hex() == loop_total_power(schedule).hex()

    @pytest.mark.parametrize("block", [harmonic_analysis.GRAM_BLOCK, 1 << 22])
    def test_gram_equals_pair_loop_at_sizes_numpy_would_elide(self, block, monkeypatch):
        # 64 elements x 8 paths in one block hold complex arrays far above the
        # 256 KiB at which numpy reuses temporaries in place
        monkeypatch.setattr(harmonic_analysis, "GRAM_BLOCK", block)
        schedule = design_schedule(reference_config(64, path_count=8), np.deg2rad(23.0), 0.61)
        assert same_bits(batch_grams([schedule])[0], loop_gram(schedule))
        assert total_power(schedule).hex() == loop_total_power(schedule).hex()

    @settings(max_examples=80, deadline=None)
    @given(loaded_schedules(dyadic_timings()))
    def test_gram_equals_pair_loop_on_ragged_dyadic_schedules(self, schedule):
        assert same_bits(batch_grams([schedule])[0], loop_gram(schedule))
        assert total_power(schedule).hex() == loop_total_power(schedule).hex()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.lists(
               loaded_schedules(st.one_of(disjoint_timings, dyadic_timings()), n_elements=n),
               min_size=1, max_size=5)),
           st.sampled_from([1, 40, 1 << 13]))
    def test_one_pass_over_many_schedules_equals_each_alone(self, schedules, block):
        # same-size schedules with ragged path counts: one table pads them all
        expected = [loop_gram(s) for s in schedules]
        table = pulse_table([e for s in schedules for e in s.elements])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harmonic_analysis, "GRAM_BLOCK", block)
            grams = batch_grams(schedules)
            kernel = harmonic_analysis._coupling_kernel(schedules[0].config)
            totals = harmonic_analysis._total_powers(kernel, table)
        assert len(grams) == len(totals) == len(schedules)
        assert all(same_bits(g, e) for g, e in zip(grams, expected))
        assert [p.hex() for p in totals] == [loop_total_power(s).hex() for s in schedules]

    def test_midpoint_rounding_onto_the_upper_edge(self):
        # edges one ulp apart, the lower with an odd last bit: their midpoint
        # rounds onto the upper edge, which both passes must count there
        lo = float(np.nextafter(0.25, 1.0))
        hi = float(np.nextafter(lo, 1.0))
        schedule = ArraySchedule(reference_config(n_elements=2), 1.0, 0.0, (
            ElementSchedule(0, ((0.3, PulseTrain(0.2, lo, lo + 0.5)),)),
            ElementSchedule(1, ((-1.1, PulseTrain(1e-3, hi, hi + 0.5)),)),
        ))
        breaks = np.unique(np.concatenate([envelope_segments(e)[0] for e in schedule.elements]))
        assert np.any(0.5 * (breaks[:-1] + breaks[1:]) == breaks[1:])
        assert same_bits(batch_grams([schedule])[0], loop_gram(schedule))
        assert total_power(schedule).hex() == loop_total_power(schedule).hex()

    def test_rows_wider_than_a_16_bit_count_field(self, monkeypatch):
        # 8192 paths pad both elements to 32768 edges, and b's offset in the
        # value table (2 x 32769 entries) overflows an int32 running sum
        # with fixed 16-bit fields.  Each path has its own timing, so a pair
        # has over 16384 segments (256 KiB of products), where numpy's
        # temporary elision would reorder an implicit product in place (see
        # ``_grams``): both passes spell their products out
        rng = np.random.default_rng(8192)
        widths, onsets, phases = (rng.uniform(lo, hi, 8192).tolist()
                                  for lo, hi in [(1e-6, 1e-2), (0.0, 1.0), (-pi, pi)])
        wide = ElementSchedule(0, tuple(
            (phase, PulseTrain(width, onset, onset + 0.5))
            for phase, width, onset in zip(phases, widths, onsets)))
        narrow = ElementSchedule(1, tuple(
            (phase, PulseTrain(0.1, onset, onset + 0.5))
            for phase, onset in [(0.0, 0.05), (1.0, 0.3), (2.0, 0.61), (-1.0, 0.9)]))
        schedule = ArraySchedule(reference_config(n_elements=2), 1.0, 0.0, (wide, narrow))
        # the batched pass and total_power share one _segments pass, and the
        # total is loop_total_power's sum over the one loop Gram matrix: at
        # this width each _segments pass takes seconds
        segments, memo = harmonic_analysis._segments, {}

        def once(table):
            key = b"".join(column.tobytes() for column in table)
            if key not in memo:
                memo[key] = segments(table)
            return memo[key]

        monkeypatch.setattr(harmonic_analysis, "_segments", once)
        expected = loop_gram(schedule)
        assert same_bits(batch_grams([schedule])[0], expected)
        kernel = harmonic_analysis._coupling_kernel(schedule.config)
        assert total_power(schedule).hex() == float(np.sum(kernel * expected).real).hex()
        assert len(memo) == 1

    def test_overlapping_train_is_rejected(self, peak_schedule):
        element = peak_schedule.elements[2]
        (phase, train), *rest = element.paths
        wide = dataclasses.replace(train, onset_neg_norm=train.onset_pos_norm + 0.2)
        elements = list(peak_schedule.elements)
        elements[2] = dataclasses.replace(element, paths=((phase, wide), *rest))
        loaded = dataclasses.replace(peak_schedule, elements=elements)
        with pytest.raises(ValueError, match="element 2: pulses within one train overlap"):
            total_power(loaded)

    def test_traced_memory_stays_bounded(self):
        schedule = design_schedule(reference_config(256, path_count=8), THETA_20, 0.5)
        total_power(design_schedule(reference_config(path_count=8), THETA_20, 0.5))
        tracemalloc.start()
        try:
            total_power(schedule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


@pytest.mark.parametrize("analyse", [
    lambda s: coefficient_matrix(s, [1, -3]),
    lambda s: compute_spectrum(s, 9),
    lambda s: harmonic_power(s, 1),
    total_power,
    harmonic_efficiency,
    lambda s: array_factor(s, 1, np.linspace(-1.0, 1.0, 5)),
    lambda s: radiation_pattern(s, [1, -3], np.linspace(-1.0, 1.0, 5)),
    lambda s: sideband_level(s, 9),
], ids=["coefficient_matrix", "compute_spectrum", "harmonic_power", "total_power",
        "harmonic_efficiency", "array_factor", "radiation_pattern", "sideband_level"])
@pytest.mark.parametrize("count", [3, 6])
def test_element_count_must_match_the_config(analyse, count, peak_schedule):
    elements = (peak_schedule.elements * 2)[:count]
    schedule = dataclasses.replace(peak_schedule, elements=elements)
    with pytest.raises(ValueError, match=f"{count} element schedules for 5 configured"):
        analyse(schedule)


def test_short_document_loads_and_is_rejected_in_analysis(peak_schedule):
    doc = json.loads(dump_json(schedule_to_doc(peak_schedule)))
    del doc["elements"][3:]
    schedule = schedule_from_doc(doc)
    assert "schedule: 3 element schedules for 5 configured elements" in validate(schedule)
    with pytest.raises(ValueError, match="3 element schedules for 5 configured elements"):
        coefficient_matrix(schedule, [1])


class TestSharedSteering:
    @pytest.mark.parametrize("n_elements, path_count", [(5, 4), (16, 8), (64, 4), (256, 8)])
    def test_radiation_pattern_is_bit_identical_to_per_harmonic_loop(
        self, n_elements, path_count
    ):
        # a copy: the general route, whose steering product is the loop's
        cfg = reference_config(n_elements=n_elements, path_count=path_count)
        schedule = dataclasses.replace(design_schedule(cfg, np.deg2rad(23.0), 10 ** -0.4))
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
        m_max = 25
        theta = np.deg2rad(np.arange(-90.0, 90.05, 0.1))
        ref = np.max(np.abs(loop_array_factor(schedule, 1, theta)))
        worst = max(np.max(np.abs(loop_array_factor(schedule, m, theta)))
                    for m in range(-m_max, m_max + 1) if m not in (0, 1))
        peaks = harmonic_analysis._sideband_peaks(schedule, m_max, theta)
        level = 20.0 * np.log10(max(p for m, p in peaks.items() if m != 1) / peaks[1])
        assert level == pytest.approx(20.0 * np.log10(worst / ref), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(spaced_schedules(), st.integers(2, 40))
    def test_sideband_level_equals_an_unpruned_scan(self, schedule, m_max):
        theta = np.deg2rad(np.arange(-90.0, 90.025, 0.05))
        ref = np.max(np.abs(loop_array_factor(schedule, 1, theta)))
        if ref == 0:
            with pytest.raises(ValueError, match="the m = 1 peak"):
                sideband_level(schedule, m_max)
            return
        ratio = max(np.max(np.abs(loop_array_factor(schedule, m, theta)))
                    for m in range(-m_max, m_max + 1) if m not in (0, 1)) / ref
        level = sideband_level(schedule, m_max)
        if level == DB_FLOOR and ratio <= 10 ** (DB_FLOOR / 20):
            return
        assert abs(10 ** (level / 20) - ratio) <= 1e-13 * max(1.0, ratio)

    @pytest.mark.parametrize("n_elements, path_count, spacing_wl, steer_deg, alpha", [
        (5, 4, 0.2, 20.0, 1.0), (5, 4, 0.15, -41.0, 10 ** -0.6), (16, 8, 0.3, 20.0, 1.0),
    ])
    def test_sideband_level_finds_a_worst_harmonic_below_the_top_bound(
        self, n_elements, path_count, spacing_wl, steer_deg, alpha
    ):
        # below 0.5 wavelength some harmonics' beams leave the visible region,
        # so the largest bound need not belong to the highest peak
        cfg = reference_config(n_elements=n_elements, path_count=path_count,
                               spacing_wl=spacing_wl)
        schedule = design_schedule(cfg, np.deg2rad(steer_deg), alpha)
        theta = np.deg2rad(np.arange(-90.0, 90.025, 0.05))
        ms = [m for m in range(-25, 26) if m not in (0, 1)]
        peaks = [np.max(np.abs(loop_array_factor(schedule, m, theta))) for m in ms]
        bounds = [np.sum(np.abs(coefficient_vector(schedule, m))) for m in ms]
        assert np.argmax(peaks) != np.argmax(bounds)
        ref = np.max(np.abs(loop_array_factor(schedule, 1, theta)))
        expected = 20.0 * np.log10(max(peaks) / ref)
        assert sideband_level(schedule, 25) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, path_count, spacing_wl", [
        (256, 4, 0.5), (256, 4, 0.2), (256, 8, 0.5), (256, 8, 0.2),
        (300, 4, 0.5), (300, 8, 0.2), (1024, 8, 0.5),
    ])
    def test_sideband_peaks_match_a_long_double_steering(self, n, path_count, spacing_wl):
        # 300 and 1024 exceed 16**2 elements: the last row of the high
        # steering table (phase step 16 beta d) is partial
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        schedule = design_schedule(cfg, np.deg2rad(20.0), 10 ** -0.6)
        theta = np.deg2rad(np.arange(-90.0, 90.025, 0.05))
        peaks = harmonic_analysis._sideband_peaks(schedule, 25, theta)
        ms = [m for m in range(-25, 26) if m != 0]
        x = np.longdouble(cfg.wavenumber * cfg.element_spacing) * np.sin(theta.astype(np.longdouble))
        rows = harmonic_analysis._rows(schedule, ms).astype(np.clongdouble)
        exact = np.zeros(len(ms), dtype=np.longdouble)
        for start in range(0, x.size, 512):
            steering = np.exp(1j * np.multiply.outer(x[start:start + 512], np.arange(n)))
            assert steering.dtype == np.clongdouble
            np.maximum(exact, np.max(np.abs(steering @ rows.T), axis=0), out=exact)
        exact = dict(zip(ms, exact))
        assert sorted(peaks) == ms
        for m in ms:
            assert abs(peaks[m] - exact[m]) <= 1e-15 * exact[1]

    @pytest.mark.parametrize("memo, max_entries", [
        (1 << 12, 1 << 22), (1 << 12, 997), (1 << 8, 1 << 22),
    ])
    def test_sideband_working_arrays_stay_under_the_cap(self, monkeypatch, memo, max_entries):
        # the cap is a quarter of the memo's, or MAX_STEERING_ENTRIES if lower;
        # a block of angles fills it with the 51 harmonics' Q = 2 columns each
        # (17 elements), but holds two angles at least; a copy of the design,
        # so that the whole grid is scanned
        schedule = dataclasses.replace(design_schedule(reference_config(17, 8), THETA_20, 0.5))
        whole = sideband_level(schedule, 25)
        cap, width = min(max_entries, memo >> 2), 51 * 2
        sizes = []
        einsum = np.einsum

        def fields(subscripts, inner, high):
            out = einsum(subscripts, inner, high)
            # the block's angles x 16 entries of the low table (G is
            # harmonics x angles x Q), then the rest
            sizes.extend((inner.shape[-2] * 16, inner.size, high.size, out.size))
            return out

        monkeypatch.setattr(np, "einsum", fields)
        monkeypatch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", memo)
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", max_entries)
        assert sideband_level(schedule, 25) == whole
        assert max(sizes) == max(2, cap // width) * width

    @pytest.mark.parametrize("n", [5, 17, 64, 256])
    def test_peaks_keep_their_bits_in_blocks_of_any_size(self, monkeypatch, n):
        # the grid ends on the beam, so that the m = 1 peak lies in the last
        # block: 2, 4 or 8 angles of 7 at 5 elements, 2 or 4 at 17, 2 above
        schedule = design_schedule(reference_config(n, 8), THETA_20, 0.5)
        theta = THETA_20 + np.linspace(-0.05, 0.0, 7)
        whole = harmonic_analysis._sideband_peaks(schedule, 7, theta)
        for memo in (1 << 6, 1 << 7, 1 << 8, 1 << 9):
            monkeypatch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", memo)
            assert harmonic_analysis._sideband_peaks(schedule, 7, theta) == whole

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(sideband_schedules(), spaced_schedules()), st.integers(2, 25),
           st.integers(1, 40))
    def test_scan_matches_formed_steering_with_the_bits_of_any_memo(self, schedule, m_max,
                                                                   wider):
        cfg = schedule.config
        ms = [1] + [m for m in range(-m_max, m_max + 1) if m not in (0, 1)]
        beta_d = cfg.wavenumber * cfg.element_spacing
        steering = np.exp(1j * beta_d * np.outer(np.sin(SIDEBAND_THETA),
                                                  np.arange(cfg.n_elements)))
        exact = np.max(np.abs(steering @ coefficient_matrix(schedule, ms).T), axis=0)
        clear_steering_memo()
        cold = harmonic_analysis._sideband_peaks(schedule, m_max, SIDEBAND_THETA)
        worst = max(p for m, p in cold.items() if m != 1)
        scale = max(exact)
        assert abs(cold[1] - exact[0]) <= 1e-14 * scale
        assert abs(worst - max(exact[1:])) <= 1e-14 * scale
        # warm, then with a wider array's tables in the memo, then with the
        # tables built for the call under a low memo cap
        assert harmonic_analysis._sideband_peaks(schedule, m_max, SIDEBAND_THETA) == cold
        clear_steering_memo()
        warm_steering_memo(dataclasses.replace(cfg, n_elements=cfg.n_elements + wider),
                           "sideband")
        assert harmonic_analysis._sideband_peaks(schedule, m_max, SIDEBAND_THETA) == cold
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", 1 << 10)
            assert harmonic_analysis._sideband_peaks(schedule, m_max, SIDEBAND_THETA) == cold

    @pytest.mark.parametrize("analysis, m_max", [
        (compute_spectrum, 2.5), (sideband_level, 3.0), (compute_spectrum, "7"),
        (sideband_level, None),
    ])
    def test_non_integer_m_max_is_rejected(self, peak_schedule, analysis, m_max):
        with pytest.raises(ValueError, match="m_max must be an integer"):
            analysis(peak_schedule, m_max)

    def test_no_sideband_reads_the_floor(self, peak_schedule, monkeypatch):
        # a design takes the crossing route, its copy the scan
        monkeypatch.setattr(harmonic_analysis, "_sideband_peaks",
                            lambda schedule, m_max, theta: {1: 2.0, -3: 0.0, 5: 0.0})
        monkeypatch.setattr(harmonic_analysis, "_crossing_peaks",
                            lambda schedule, m_max: {1: 2.0, -3: 0.0, 5: 0.0})
        assert sideband_level(peak_schedule, 5) == DB_FLOOR
        assert sideband_level(dataclasses.replace(peak_schedule), 5) == DB_FLOOR

    def test_numpy_integer_m_max_is_accepted(self, peak_schedule):
        assert sideband_level(peak_schedule, np.int64(7)) == sideband_level(peak_schedule, 7)
        assert compute_spectrum(peak_schedule, np.int32(3)).powers.keys() == set(range(-3, 4))

    @pytest.mark.parametrize("analysis", [compute_spectrum, sideband_level])
    def test_harmonics_above_the_cap_are_rejected(self, peak_schedule, monkeypatch, analysis):
        # 51 harmonics x 5 elements is one above the lowered cap
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 51 * 5 - 1)
        analysis(peak_schedule, 24)
        with pytest.raises(ValueError, match="51 harmonics x 5 elements exceed"):
            analysis(peak_schedule, 25)

    def test_sideband_fields_stay_under_the_cap(self, peak_schedule, monkeypatch):
        # 200 harmonics: blocks of 2**14 // 5 angles would hold 10 MiB of fields
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 1 << 14)
        sideband_level(peak_schedule, 100)
        # a fresh copy, so that the measured call runs its coefficient pass
        fresh = dataclasses.replace(peak_schedule)
        tracemalloc.start()
        try:
            sideband_level(fresh, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_pattern_above_the_cap_is_rejected(self, peak_schedule, monkeypatch):
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 5 * 100)
        theta = np.linspace(-1.0, 1.0, 100)
        radiation_pattern(peak_schedule, [1], theta)
        with pytest.raises(ValueError, match="cap"):
            radiation_pattern(peak_schedule, [1], np.linspace(-1.0, 1.0, 101))


def table_memos() -> list:
    """Every bounded memo of the module: steering tables and element 0's
    pulse sums and lag groups."""
    return [memo for memo in vars(harmonic_analysis).values()
            if isinstance(memo, harmonic_analysis._Memo)]


def clear_steering_memo():
    """Empty every module-level memo (``table_memos()``, the steering memo
    among them), so the next call builds cold."""
    for memo in table_memos():
        memo.clear()


#: The angle grids of ``radiation_pattern`` in the benchmark (0.25 degrees)
#: and of ``sideband_level`` (0.05 degrees), and a coarse one.
PATTERN_THETA = np.deg2rad(np.arange(-90.0, 90.125, 0.25))
SIDEBAND_THETA = np.deg2rad(np.arange(-90.0, 90.025, 0.05))
GRIDS = {"pattern": PATTERN_THETA, "sideband": SIDEBAND_THETA, "coarse": COARSE_THETA}


@st.composite
def steered_schedules(draw):
    """A designed schedule of 1 to 300 elements at 0.5 or 0.37 wavelength, or
    its ``dataclasses.replace`` copy (no ``onset_step``: the Gram route)."""
    cfg = reference_config(n_elements=draw(st.integers(1, 300)),
                           path_count=draw(st.sampled_from([4, 8])),
                           spacing_wl=draw(st.sampled_from([0.5, 0.37])))
    schedule = design_schedule(cfg, np.deg2rad(draw(st.floats(-60.0, 60.0))),
                               draw(st.floats(1e-3, 1.0)))
    return dataclasses.replace(schedule) if draw(st.booleans()) else schedule


def steering_bytes(schedule, grid: str) -> bytes:
    """Every steering-dependent result of one schedule on one grid, as bytes."""
    theta = GRIDS[grid]
    table = radiation_pattern(schedule, [1, -3, 5, -7], theta)
    plans = [SymbolPlan(z, a, float(np.angle(z)), abs(z)) for z, a in
             ((1 + 1j, 0.5), (-0.5 + 0.25j, 0.2), (0.1j, 1.0))]
    constellation = simulate_constellation(plans, schedule.config, schedule.steer_angle)
    parts = [*table.levels_db.values(), [table.reference],
             array_factor(schedule, -3, theta), [array_factor(schedule, 1, 0.4)],
             list(harmonic_analysis._sideband_peaks(schedule, 7, theta).values()),
             constellation.received, [constellation.evm_rms_percent]]
    return b"".join(np.asarray(part).tobytes() for part in parts)


def memo_bytes(schedule) -> bytes:
    """Every result of a design that reads element 0's memo, as bytes: the
    spectrum of a fresh design of the same inputs, which runs its
    coefficient pass and lag sums, and harmonic powers of the schedule's
    copy, which build the coupling kernel."""
    fresh = design_schedule(schedule.config, schedule.steer_angle, schedule.duty_ratio)
    spectrum = compute_spectrum(fresh, 7)
    copy = dataclasses.replace(schedule)
    parts = [*(c.per_element for c in spectrum.coefficients.values()),
             list(spectrum.powers.values()),
             [spectrum.total_power, harmonic_power(copy, 1), harmonic_power(copy, -3)]]
    return b"".join(np.asarray(part).tobytes() for part in parts)


def warm_steering_memo(config, grid: str) -> None:
    """Fill the memo with the tables of an array of ``config`` on one grid."""
    schedule = design_schedule(config, THETA_20, 0.5)
    radiation_pattern(schedule, [1], GRIDS[grid])
    harmonic_analysis._sideband_peaks(schedule, 3, GRIDS[grid])


class TestSteeringMemo:
    @settings(max_examples=15, deadline=None)
    @given(steered_schedules(), st.sampled_from(sorted(GRIDS)), st.integers(1, 64),
           st.integers(1, 300))
    @example(design_schedule(reference_config(256, 8), THETA_20, 0.4), "pattern", 1, 128)
    def test_results_keep_their_bytes_whatever_the_memo_holds(self, schedule, grid, wider,
                                                              narrower):
        cfg = schedule.config
        clear_steering_memo()
        cold = steering_bytes(schedule, grid)
        # a wider array on the same grid and spacing, then a narrower one
        for n in (cfg.n_elements + wider, min(narrower, cfg.n_elements)):
            clear_steering_memo()
            warm_steering_memo(dataclasses.replace(cfg, n_elements=n), grid)
            assert steering_bytes(schedule, grid) == cold
        assert steering_bytes(schedule, grid) == cold
        clear_steering_memo()
        results = [None, None]

        def worker(k):
            results[k] = steering_bytes(schedule, grid)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == [cold, cold]

    def test_threads_sharing_the_memo_get_its_bits(self, monkeypatch):
        # more threads than cores, each scanning arrays of other table
        # widths than the others', and each config evicting the others'
        # entries of the memos that hold one value here
        schedules = [design_schedule(reference_config(n, 8), THETA_20, 0.4) for n in (3, 64, 17)]
        expected = []
        for schedule in schedules:
            clear_steering_memo()
            expected.append(steering_bytes(schedule, "coarse") + memo_bytes(schedule))
        for memo in table_memos():
            monkeypatch.setattr(memo, "size", 1)
        mismatches = []

        def worker(k):
            for i in range(40):
                j = (k + i) % len(schedules)
                got = steering_bytes(schedules[j], "coarse") + memo_bytes(schedules[j])
                if got != expected[j]:
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_slices_of_a_wide_table_equal_fresh_builds(self):
        beta_d, counts = pi, (1, 5, 16, 32, 64, 128)
        for theta in (PATTERN_THETA, SIDEBAND_THETA):
            clear_steering_memo()
            wide = harmonic_analysis._phase_table(beta_d, theta, 256)
            for count in counts:
                fresh = harmonic_analysis._exp_table(beta_d, theta, count)
                narrow = harmonic_analysis._phase_table(beta_d, theta, count)
                assert narrow.tobytes() == fresh.tobytes() == wide[:, :count].tobytes()
            # one table per width, the six used last; a table above the memo's
            # cap (3601 x 128 or more) is built for the call alone
            kept = [table.shape for table in harmonic_analysis._steering_tables._values.values()]
            cap = harmonic_analysis._STEERING_MEMO_ENTRIES
            widths = [count for count in (256, *counts) if theta.size * count <= cap]
            assert kept == [(theta.size, count) for count in widths[-6:]]

    @pytest.mark.parametrize("grid, wide", [("pattern", 256), ("sideband", 64), ("module", 64)])
    def test_narrow_requests_after_a_wide_one_are_contiguous(self, grid, wide):
        # a column slice of the wide table would stride its rows by 4 KiB at
        # 256 columns; each request is a contiguous table of its own width,
        # which the memo keeps and hands out again
        theta = harmonic_analysis._SIDEBAND_THETA if grid == "module" else GRIDS[grid]
        clear_steering_memo()
        counts = (wide, 1, 2, 5, 16, wide // 2)
        tables = [harmonic_analysis._phase_table(pi, theta, count) for count in counts]
        for count, table in zip(counts, tables):
            assert table.flags.c_contiguous and not table.flags.writeable
            assert table.tobytes() == harmonic_analysis._exp_table(pi, theta, count).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0.0
            assert np.shares_memory(harmonic_analysis._phase_table(pi, theta, count), table)
        kept = list(harmonic_analysis._steering_tables._values.values())
        assert len(kept) == len(counts)
        assert all(any(np.shares_memory(table, k) for k in kept) for table in tables)

    def test_module_grid_shares_its_table_with_an_equal_caller_grid(self):
        # the module's sideband grid is keyed by bytes taken once; a caller's
        # grid by its bytes at each lookup, so a write into it misses
        grid = harmonic_analysis._SIDEBAND_THETA
        clear_steering_memo()
        own = harmonic_analysis._phase_table(pi, grid, 16)
        caller = grid.copy()
        assert np.shares_memory(harmonic_analysis._phase_table(pi, caller, 16), own)
        assert len(harmonic_analysis._steering_tables) == 1
        caller[7] = 0.0
        table = harmonic_analysis._phase_table(pi, caller, 16)
        assert table.tobytes() == harmonic_analysis._exp_table(pi, caller, 16).tobytes()
        assert table.tobytes() != own.tobytes()
        assert np.shares_memory(harmonic_analysis._phase_table(pi, grid, 16), own)

    def test_memo_stays_bounded(self):
        huge = np.linspace(-1.5, 1.5, 10**5)
        for n in (1, 2, 5, 17, 64, 256, 300, 2048):
            schedule = design_schedule(reference_config(n, 4), THETA_20, 0.5)
            for theta in (PATTERN_THETA, COARSE_THETA, SIDEBAND_THETA, huge):
                if theta.size * n <= harmonic_analysis.MAX_STEERING_ENTRIES:
                    radiation_pattern(schedule, [1, -3], theta)
                    array_factor(schedule, 5, theta)
            for theta in (COARSE_THETA, PATTERN_THETA, SIDEBAND_THETA):
                harmonic_analysis._sideband_peaks(schedule, 3, theta)
        tables = list(harmonic_analysis._steering_tables._values.values())
        assert 0 < len(tables) <= 6
        for table in tables:
            assert table.size <= harmonic_analysis._STEERING_MEMO_ENTRIES
            assert not table.flags.writeable

    def test_no_caller_can_write_into_the_memo(self, peak_schedule):
        clear_steering_memo()
        # a design's pattern keeps its 5- and 1-wide tables
        radiation_pattern(peak_schedule, [1], PATTERN_THETA)
        beta_d = peak_schedule.config.wavenumber * peak_schedule.config.element_spacing
        steering = harmonic_analysis._phase_table(beta_d, PATTERN_THETA, 5)
        assert any(np.shares_memory(steering, table)
                   for table in harmonic_analysis._steering_tables._values.values())
        with pytest.raises(ValueError, match="read-only"):
            steering[0, 0] = 0.0
        with pytest.raises(ValueError):
            steering.flags.writeable = True

    def test_guards_run_on_a_warm_memo(self, peak_schedule, monkeypatch):
        radiation_pattern(peak_schedule, [1], PATTERN_THETA)
        bad = PATTERN_THETA.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            radiation_pattern(peak_schedule, [1], bad)
        with pytest.raises(ValueError, match="finite"):
            array_factor(peak_schedule, 1, bad)
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", PATTERN_THETA.size * 5 - 1)
        with pytest.raises(ValueError, match="cap"):
            radiation_pattern(peak_schedule, [1], PATTERN_THETA)
        with pytest.raises(ValueError, match="cap"):
            array_factor(peak_schedule, 1, PATTERN_THETA)

    def test_only_factored_tables_enter_the_memo(self):
        # array_factor, a constellation and a general pattern build their
        # theta x N tables for the call; a design's pattern keeps its
        # factored ones, 16 and 4 columns wide at 64 elements
        clear_steering_memo()
        cfg = reference_config(64, 8)
        schedule = design_schedule(cfg, THETA_20, 0.5)
        array_factor(schedule, 1, 0.3)
        plans = [SymbolPlan(1 + 1j, 0.5, pi / 4, 1.0)]
        simulate_constellation(plans, cfg, 0.3)
        array_factor(schedule, 1, PATTERN_THETA)
        radiation_pattern(dataclasses.replace(schedule), [1, -3], PATTERN_THETA)
        assert harmonic_analysis._steering_tables._values == {}
        radiation_pattern(schedule, [1, -3], PATTERN_THETA)
        kept = harmonic_analysis._steering_tables._values.values()
        assert sorted(table.shape for table in kept) == [(721, 4), (721, 16)]

    @pytest.mark.parametrize("n, mib", [(256, 4), (2048, 16)])
    def test_sideband_scan_holds_no_steering_matrix(self, n, mib):
        # the whole 3601 x 256 steering matrix alone would be 14.1 MiB, and
        # 3601 x 2048 would be 113 MiB; at 2048 the high table (3601 x 128,
        # 7 MiB) exceeds the memo's cap and is built for the call
        schedule = design_schedule(reference_config(n, path_count=8), THETA_20, 0.5)
        sideband_level(schedule, 25)
        fresh = dataclasses.replace(schedule)
        tracemalloc.start()
        try:
            sideband_level(fresh, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20

    def test_sideband_grid_is_fixed_and_read_only(self):
        grid = harmonic_analysis._SIDEBAND_THETA
        assert grid.size == 3601
        assert grid.tobytes() == np.deg2rad(np.arange(-90.0, 90.0 + 0.05 / 2, 0.05)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0

    @pytest.mark.parametrize("n", [1200, 2048])
    def test_sideband_level_keeps_its_bits_above_the_memo_cap(self, monkeypatch, n):
        # 3601 x ceil(n / 16) high-table entries exceed the memo's cap, so
        # that table is built for each scan; the 16-wide one is memoized (a
        # copy of the design, so that the whole grid is scanned)
        schedule = dataclasses.replace(design_schedule(reference_config(n, 8), THETA_20, 0.5))
        clear_steering_memo()
        cold = sideband_level(schedule, 25)
        assert sideband_level(schedule, 25) == cold
        # with the tables of a 1152-element array, the widest the memo keeps
        clear_steering_memo()
        warm_steering_memo(reference_config(1152, 8), "sideband")
        assert sideband_level(schedule, 25) == cold
        monkeypatch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", 1 << 10)
        assert sideband_level(schedule, 25) == cold


def long_double_fields(rows, beta_d: float, theta: np.ndarray) -> np.ndarray:
    """|field| of each row, in long double from the float sines of ``theta``:
    one grid's angles for every row (a 1-d grid) or each row's own (rows x
    angles)."""
    x = np.longdouble(beta_d) * np.sin(theta).astype(np.longdouble)
    steering = np.exp(1j * x[..., None] * np.arange(rows.shape[1]))
    assert steering.dtype == np.clongdouble
    rows = rows.astype(np.clongdouble)
    if theta.ndim == 1:
        return np.abs(rows @ steering.T)
    return np.abs(np.einsum("man,mn->ma", steering, rows))


@st.composite
def pattern_designs(draw):
    """A designed schedule of 1 to 300 elements, 4 or 8 paths, 0.37 to 1
    wavelength apart, steered anywhere at any duty ratio."""
    cfg = reference_config(n_elements=draw(st.integers(1, 300)),
                           path_count=draw(st.sampled_from([4, 8])),
                           spacing_wl=draw(st.floats(0.37, 1.0)))
    return design_schedule(cfg, np.deg2rad(draw(st.floats(-90.0, 90.0))),
                           draw(st.floats(1e-6, 1.0)))


class TestDesignedPattern:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(pattern_designs(), st.lists(st.integers(-40, 40), min_size=1, max_size=5),
           st.lists(st.floats(-pi, pi), max_size=20))
    @example(design_schedule(reference_config(2048, 8), THETA_20, 0.4), [1, -3, 5, -7, 9], [])
    def test_fields_agree_with_the_general_route(self, schedule, harmonics, angles):
        theta = np.concatenate((PATTERN_THETA, angles))
        table = radiation_pattern(schedule, harmonics, theta)
        # array_factor steers the same rows with the theta x N matrix
        peak = np.max(np.abs(array_factor(schedule, 1, theta)))
        assert abs(table.reference - peak) <= 1e-13 * peak
        for m in harmonics:
            general = np.abs(array_factor(schedule, m, theta))
            level = table.levels_db[m]
            clamped = (general / peak) ** 2 < POWER_CLAMP_REL
            assert np.array_equal(level == DB_FLOOR, clamped)
            field = 10 ** (level[~clamped] / 20) * table.reference
            assert np.all(np.abs(field - general[~clamped]) <= 1e-13 * peak)

    @pytest.mark.parametrize("n", [8, 16, 17, 32, 48, 100])
    @pytest.mark.parametrize("paths", [4, 8])
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(st.floats(-60.0, 60.0), st.floats(0.1, 1.0))
    def test_a_harmonics_levels_do_not_depend_on_the_request(self, n, paths, steer_deg, alpha):
        # each harmonic's field is its own product, which no other row can round
        schedule = design_schedule(reference_config(n, paths), np.deg2rad(steer_deg), alpha)
        table = radiation_pattern(schedule, [1, -3, 5, -7], PATTERN_THETA)
        for m in (-3, 5, -7):
            alone = radiation_pattern(schedule, [m], PATTERN_THETA, table.reference)
            assert np.array_equal(alone.levels_db[m], table.levels_db[m])

    def test_a_default_pattern_forms_each_harmonic_once(self, monkeypatch):
        # m = 1 gives both its levels and the reference
        rows = []

        def fields(block, low, high, _original=harmonic_analysis._fields):
            rows.append(len(block))
            return _original(block, low, high)

        monkeypatch.setattr(harmonic_analysis, "_fields", fields)
        schedule = design_schedule(reference_config(64, 8), THETA_20, 0.5)
        radiation_pattern(schedule, [1, -3, 5, -7], PATTERN_THETA)
        assert sum(rows) == 4

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 1024), st.sampled_from([4, 8]), st.sampled_from([0.37, 0.5, 0.8]),
           st.floats(-60.0, 60.0), st.floats(0.1, 1.0))
    @example(1, 4, 0.5, 20.0, 0.5)
    @example(17, 8, 0.8, -41.0, 0.3)
    @example(1024, 8, 0.8, 16.2, 0.88)
    def test_fields_match_a_long_double_evaluation(self, n, paths, spacing_wl, steer_deg, alpha):
        # the same rows on the same float sines, so only the factored
        # tables' rounding and the sums' are measured; phases of up to
        # beta d N radians are rounded in float, as those of ``phase @ a``
        # are, which at 0.8 wavelength and N near 1024 costs up to ~6e-13 of
        # the m = 1 peak
        cfg = reference_config(n, paths, spacing_wl=spacing_wl)
        schedule = design_schedule(cfg, np.deg2rad(steer_deg), alpha)
        beta_d = cfg.wavenumber * cfg.element_spacing
        bound = 3e-15 if n <= 32 else 1e-14 if n <= 128 else 6e-14 if n <= 256 else 1e-12
        calls, angles = [], []

        def fields(rows, low, high, _original=harmonic_analysis._fields):
            calls.append((rows, _original(rows, low, high)))
            return calls[-1][1]

        def exp_table(beta_d, theta, count, _original=harmonic_analysis._exp_table):
            # the crossing route's candidates: rows x angles
            if np.ndim(theta) == 2:
                angles.append(theta)
            return _original(beta_d, theta, count)

        theta = PATTERN_THETA[::3]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harmonic_analysis, "_fields", fields)
            patch.setattr(harmonic_analysis, "_exp_table", exp_table)
            radiation_pattern(schedule, [1, -3, 5, -7], theta)
            calls_of_pattern = list(calls)
            calls.clear()
            peaks = harmonic_analysis._crossing_peaks(schedule, 25)
        exact = [long_double_fields(rows, beta_d, theta) for rows, _ in calls_of_pattern]
        peak = exact[0][0].max()
        for (_, got), want in zip(calls_of_pattern, exact):
            assert np.abs(got - want).max() <= bound * peak
        if peaks is None:
            return
        exact = np.concatenate([long_double_fields(rows, beta_d, at).max(axis=1)
                                for (rows, _), at in zip(calls, angles)])
        exact = dict(zip(range(-25, 26), exact))
        assert all(abs(peaks[m] - exact[m]) <= bound * exact[1] for m in peaks)

    def test_a_design_requests_no_table_wider_than_16_columns(self, monkeypatch):
        widths = []
        for name in ("_phase_table", "_exp_table"):
            def recorded(beta_d, theta, count, _original=getattr(harmonic_analysis, name)):
                widths.append(count)
                return _original(beta_d, theta, count)

            monkeypatch.setattr(harmonic_analysis, name, recorded)
        clear_steering_memo()
        schedule = design_schedule(reference_config(256, 8), THETA_20, 0.5)
        radiation_pattern(schedule, [1, -3, 5, -7], PATTERN_THETA)
        assert widths and max(widths) <= 16
        # its copy, on the general route, requests the 256-wide table
        radiation_pattern(dataclasses.replace(schedule), [1], PATTERN_THETA)
        assert max(widths) == 256

    @pytest.mark.parametrize("harmonics, mib", [([1, -3, 5, -7], 2), (range(-500, 500), 14)],
                             ids=["4", "1000"])
    def test_a_cold_design_holds_no_steering_matrix(self, harmonics, mib):
        # the 721 x 256 steering matrix alone is 2.8 MiB; 1000 harmonics in
        # one block would take 721 x 1000 x 16 complex entries, 176 MiB, and
        # their coefficients (3.9 MiB) and levels (5.5 MiB) are kept
        schedule = design_schedule(reference_config(256, 8), THETA_20, 0.5)
        clear_steering_memo()
        tracemalloc.start()
        try:
            radiation_pattern(schedule, harmonics, PATTERN_THETA)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2**20

    def test_a_design_at_the_element_cap_takes_the_sideband_grid(self):
        # its tables are 3601 x 16 and 3601 x 128 entries; its copy's
        # 3601 x 2048 steering matrix would exceed MAX_STEERING_ENTRIES
        schedule = design_schedule(reference_config(MAX_ELEMENTS, 8), THETA_20, 0.5)
        theta = harmonic_analysis._SIDEBAND_THETA
        table = radiation_pattern(schedule, [1, -3, 5], theta)
        assert all(np.isfinite(levels).all() for levels in table.levels_db.values())
        assert table.levels_db[1].max() == 0.0
        with pytest.raises(ValueError, match="3601 angles x 2048 elements exceed"):
            radiation_pattern(dataclasses.replace(schedule), [1], theta)

    def test_the_angle_cap_counts_the_widest_factored_table(self, monkeypatch):
        # 64 elements: tables of 16 and 4 columns, so 100 angles fit a cap
        # of 1600 entries, which 100 x 64 would not
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 1600)
        schedule = design_schedule(reference_config(64, 8), THETA_20, 0.5)
        table = radiation_pattern(schedule, [1, -3], np.linspace(-1.0, 1.0, 100))
        assert table.levels_db[-3].shape == (100,)
        with pytest.raises(ValueError, match="101 angles x 16 table columns exceed"):
            radiation_pattern(schedule, [1, -3], np.linspace(-1.0, 1.0, 101))

    @pytest.mark.parametrize("copy", [False, True], ids=["designed", "general"])
    def test_levels_and_array_factor_take_the_grid_shape(self, copy):
        schedule = design_schedule(reference_config(40, 8), THETA_20, 0.5)
        schedule = dataclasses.replace(schedule) if copy else schedule
        flat = np.linspace(-1.2, 1.2, 12)
        tables = {}
        for theta in (flat[5], flat[5:6], flat, flat.reshape(3, 4)):
            table = radiation_pattern(schedule, [1, -3], theta)
            field = array_factor(schedule, -3, theta)
            assert table.theta.shape == np.shape(field) == np.shape(theta)
            assert [table.levels_db[m].shape for m in (1, -3)] == [np.shape(theta)] * 2
            tables[np.shape(theta)] = table, field
        assert isinstance(tables[()][1], complex)
        # each grid's levels and fields are its flat grid's, reshaped
        for shape, flat_shape in (((), (1,)), ((3, 4), (12,))):
            (table, field), (flat_table, flat_field) = tables[shape], tables[flat_shape]
            assert np.array_equal(np.ravel(field), flat_field)
            for m in (1, -3):
                assert np.array_equal(table.levels_db[m].ravel(), flat_table.levels_db[m])


class TestTableMemos:
    def test_no_memo_is_filled_at_import(self):
        code = ("import switchbeam.harmonic_analysis as h; "
                "print(sorted(len(m) for m in vars(h).values() if isinstance(m, h._Memo)))")
        src = os.path.dirname(os.path.dirname(harmonic_analysis.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True).stdout
        assert out.split("\n")[0] == "[0, 0]"

    def test_memos_stay_bounded_and_read_only(self):
        # 60 configs: N 1 to 15 at two spacings and both path counts, each
        # designed, tabulated and its pattern taken, and its copy's pattern
        # (the general route, with an N-wide steering table built for the
        # call) and harmonic powers taken
        clear_steering_memo()
        configs = [reference_config(n, paths, spacing_wl=spacing)
                   for n in range(1, 16) for paths in (4, 8) for spacing in (0.5, 0.37)]
        for cfg in configs:
            schedule = design_schedule(cfg, THETA_20, 0.4)
            spectrum = compute_spectrum(schedule, 7)
            radiation_pattern(schedule, [1], COARSE_THETA)
            copy = dataclasses.replace(schedule)
            radiation_pattern(copy, [1], COARSE_THETA)
            assert harmonic_power(copy, 1) == pytest.approx(spectrum.powers[1], rel=1e-12)
        memos = table_memos()
        assert len(memos) == 2
        for memo in memos:
            assert 0 < len(memo) <= memo.size
            for value in memo._values.values():
                arrays = value if isinstance(value, tuple) else (value,)
                assert sum(array.size for array in arrays) <= memo.entries
                for array in arrays:
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0.0
                    with pytest.raises(ValueError):
                        array.flags.writeable = True
        # the steering memo keeps one table per spacing and width, the six
        # used last: the 1-wide high tables that every design reads and the
        # low tables of 14 and 15 elements, at both spacings
        steering = harmonic_analysis._steering_tables
        assert sorted(table.shape for table in steering._values.values()) == [
            (COARSE_THETA.size, n) for n in (1, 1, 14, 14, 15, 15)]

    def test_memo_drops_the_least_recently_used_and_keeps_no_large_value(self):
        memo = harmonic_analysis._Memo(3, 10)
        builds = []

        def build(key, *sizes):
            builds.append(key)
            arrays = tuple(np.zeros(size) for size in sizes)
            return arrays if len(arrays) > 1 else arrays[0]

        for key in range(4):
            memo.get(key, build, key, 4)
        memo.get(1, build, 1, 4)
        memo.get(4, build, 4, 6, 4)
        # 0 dropped by 3, and 2 by 4 (1 was used since): least recent first
        assert builds == [0, 1, 2, 3, 4] and list(memo._values) == [3, 1, 4]
        # a value of 11 entries, alone or in a tuple, is built on each call
        for _ in range(2):
            memo.get(5, build, 5, 11)
            memo.get(6, build, 6, 6, 5)
        assert builds[5:] == [5, 6, 5, 6] and list(memo._values) == [3, 1, 4]
        assert all(not array.flags.writeable for array in memo.get(4, build, 4, 6, 4))

    def test_kernel_and_lag_weights_keep_their_bits(self):
        for cfg in (reference_config(5), reference_config(64, 8, spacing_wl=0.37)):
            n = np.arange(cfg.n_elements)
            beta_d = cfg.wavenumber * cfg.element_spacing
            kernel = harmonic_analysis._sinc(beta_d * (n[:, None] - n[None, :]))
            c = (cfg.n_elements - n) * harmonic_analysis._sinc(beta_d * n)
            c[1:] *= 2.0
            assert harmonic_analysis._coupling_kernel(cfg).tobytes() == kernel.tobytes()
            assert harmonic_analysis._lag_weights(cfg).tobytes() == c.tobytes()

    @pytest.mark.parametrize("path_count", [4, 8])
    def test_lag_groups_of_element_zero_are_shared_across_designs(self, path_count):
        # element 0 has the same table at any size and angle: one entry of
        # the pulse-sum memo serves every design, with the bits of a cold memo
        schedules = [design_schedule(reference_config(n, path_count), theta, alpha)
                     for n, theta, alpha in ((1, 0.0, 1.0), (7, THETA_20, 0.3), (300, -1.1, 1e-3))]
        cold = []
        for schedule in schedules:
            clear_steering_memo()
            cold.append(lag_sum_total(schedule))
        clear_steering_memo()
        assert [lag_sum_total(s) for s in schedules] == cold
        assert list(harmonic_analysis._pulse_sums._values) == [(path_count, None)]

    def test_pulse_sums_are_shared_across_designs(self):
        # element 0 has the same table at any size, angle and duty ratio:
        # one read-only entry per path count, with the bits of a cold memo
        designs = [(n, paths, theta, alpha) for paths in (4, 8)
                   for n, theta, alpha in ((1, 0.0, 1.0), (7, THETA_20, 0.3),
                                           (MAX_ELEMENTS, -1.1, 1e-3))]
        cold = []
        for n, paths, theta, alpha in designs:
            clear_steering_memo()
            designed = design_schedule(reference_config(n, paths), theta, alpha)
            cold.append(compute_spectrum(designed, 25).coefficients)
        clear_steering_memo()
        for (n, paths, theta, alpha), expected in zip(designs, cold):
            designed = design_schedule(reference_config(n, paths), theta, alpha)
            got = compute_spectrum(designed, 25).coefficients
            assert all(got[m].per_element.tobytes() == expected[m].per_element.tobytes()
                       for m in expected)
        # beside the lag sums' offset groups, keyed (path count, None)
        memo = harmonic_analysis._pulse_sums
        kept = {key: value for key, value in memo._values.items() if key[1] is not None}
        assert sorted(kept) == [(4, range(-25, 26)), (8, range(-25, 26))]
        assert sorted(key for key in memo._values if key not in kept) == [(4, None), (8, None)]
        for w, sums in kept.values():
            assert w.size == sums.size == 51 and w.size + sums.size <= memo.entries
            for array in (w, sums):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0
                with pytest.raises(ValueError):
                    array.flags.writeable = True


# ----------------------------------- designed schedules: the crossing route

def dirichlet(n: int, y: np.ndarray) -> np.ndarray:
    """|D_N(y)| = |sin(N y / 2) / sin(y / 2)|, N at y = 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        d = np.abs(np.sin(n * y / 2) / np.sin(y / 2))
    return np.where(y == 0, float(n), d)


def unpruned_peaks(schedule, ms) -> np.ndarray:
    """Every harmonic's pattern peak over the sideband grid from one formed
    steering matrix, as ``loop_array_factor`` builds it."""
    cfg = schedule.config
    beta_d = cfg.wavenumber * cfg.element_spacing
    steering = np.exp(1j * beta_d * np.outer(np.sin(SIDEBAND_THETA), np.arange(cfg.n_elements)))
    return np.max(np.abs(steering @ coefficient_matrix(schedule, ms).T), axis=0)


def scan_must_not_run(*args):
    raise AssertionError("whole-grid scan on a designed schedule")


class TestCrossingPeaks:
    """``sideband_level`` of a designed schedule from the grid angles that
    bracket each harmonic's main lobes (``_crossing_peaks``)."""

    @pytest.mark.parametrize("n", list(range(1, 17)) + [33, 64, 255, 1024, MAX_ELEMENTS])
    def test_a_point_near_the_centre_beats_every_sidelobe(self, n):
        # within 4 / N of a lobe's centre |D_N| > 0.45 N, off the main lobes
        # |D_N| <= N / 3 (1 / sin(pi / N) <= N / 3 from N = 6 on)
        near = np.linspace(-4.0 / n, 4.0 / n, 4001)
        assert np.min(dirichlet(n, near)) >= 0.45 * n
        if n > 1:
            side = np.linspace(2 * pi / n, pi, 20001)
            assert np.max(dirichlet(n, side)) <= n / 3 * (1 + 1e-12)
        if n >= 6:
            assert 1 / np.sin(pi / n) <= n / 3 * (1 + 1e-12)

    def test_half_wavelength_grid_steps_fit_the_largest_array(self):
        # the widest step in x at 0.5 wavelength (pi * sin(0.05 degrees)), and
        # so every bracket, is under 8 / MAX_ELEMENTS
        steps = np.diff(pi * harmonic_analysis._SIDEBAND_SIN)
        assert pi * harmonic_analysis._SIDEBAND_STEP == pytest.approx(2.74e-3, rel=1e-3)
        assert np.max(steps) <= pi * harmonic_analysis._SIDEBAND_STEP * (1 + 1e-12)
        assert pi * harmonic_analysis._SIDEBAND_STEP < 8.0 / MAX_ELEMENTS

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sideband_schedules(spacing=(0.2, 2.0), copies=False), st.integers(2, 25))
    @example(design_schedule(reference_config(40, 8, 0.3), np.deg2rad(23.7), 0.4), 25)
    @example(design_schedule(reference_config(17, 8, 2.0), np.deg2rad(-59.0), 0.4), 25)
    @example(design_schedule(reference_config(1, 4, 0.5), np.deg2rad(41.3), 1.0), 2)
    def test_equals_an_unpruned_scan_at_any_spacing(self, schedule, m_max):
        ms = [1] + [m for m in range(-m_max, m_max + 1) if m not in (0, 1)]
        exact = unpruned_peaks(schedule, ms)
        ratio = max(exact[1:]) / exact[0]
        level = sideband_level(schedule, m_max)
        if not (level == DB_FLOOR and ratio <= 10 ** (DB_FLOOR / 20)):
            assert abs(10 ** (level / 20) - ratio) <= 1e-13 * max(1.0, ratio)
        peaks = harmonic_analysis._crossing_peaks(schedule, m_max)
        if peaks is None:
            return
        # every harmonic, against the formed steering and the scan alike
        assert sorted(peaks) == sorted(ms)
        for m, peak in zip(ms, exact):
            assert abs(peaks[m] - peak) <= 1e-14 * exact[0]
        # and the scan's bits: a field's bits depend on its row and angle alone
        assert peaks == harmonic_analysis._sideband_peaks(schedule, m_max, SIDEBAND_THETA)

    @pytest.mark.parametrize("n", [1, 2, 5, 256, MAX_ELEMENTS])
    @pytest.mark.parametrize("theta_deg", [-60.0, 23.7])
    def test_half_wavelength_designs_never_scan(self, monkeypatch, n, theta_deg):
        schedule = design_schedule(reference_config(n, 8), np.deg2rad(theta_deg), 0.4)
        expected = sideband_level(dataclasses.replace(schedule), 25)
        monkeypatch.setattr(harmonic_analysis, "_sideband_peaks", scan_must_not_run)
        assert sideband_level(schedule, 25) == pytest.approx(expected, rel=1e-14, abs=1e-13)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([32, 64, 128, 256]), st.sampled_from([4, 8]),
           st.floats(-60.0, 60.0), st.floats(-10.0, 0.0))
    def test_array_study_designs_never_scan(self, n, path_count, theta_deg, alpha_db):
        # the benchmark's array study: at 0.5 wavelength x spans [-pi, pi],
        # so every harmonic has a lobe centre on the grid and no design of
        # these sizes reaches the whole-grid scan
        schedule = design_schedule(reference_config(n, path_count), np.deg2rad(theta_deg),
                                   10 ** (alpha_db / 10))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harmonic_analysis, "_sideband_peaks", scan_must_not_run)
            assert np.isfinite(sideband_level(schedule, 25))

    def test_a_lobe_off_the_grid_falls_back_to_the_scan(self, monkeypatch):
        # at 0.3 wavelength x spans +-0.6 pi: harmonic m's lobes sit at
        # 2 pi ((m step) mod 1) + 2 pi k, and some miss the grid altogether
        schedule = design_schedule(reference_config(40, 8, 0.3), np.deg2rad(23.7), 0.4)
        cfg = schedule.config
        beta_d = cfg.wavenumber * cfg.element_spacing
        centres = 2 * pi * (np.arange(-25, 26) * schedule.onset_step % 1.0)
        gap = np.minimum(np.abs(centres), np.abs(2 * pi - centres)) - beta_d
        assert np.max(gap) > 4.0 / cfg.n_elements
        assert harmonic_analysis._crossing_peaks(schedule, 25) is None
        calls = []
        scan = harmonic_analysis._sideband_peaks
        monkeypatch.setattr(harmonic_analysis, "_sideband_peaks",
                            lambda *args: calls.append(args[1]) or scan(*args))
        level = sideband_level(schedule, 25)
        assert calls == [25]
        # the copy's rows are the general route's, ~1e-14 of the largest off
        copy = dataclasses.replace(schedule)
        assert level == pytest.approx(sideband_level(copy, 25), rel=1e-13)

    @pytest.mark.parametrize("n, spacing_wl, taken", [
        (512, 2.0, True), (1024, 2.0, False),
        (MAX_ELEMENTS, 0.5, True), (MAX_ELEMENTS, 0.75, False),
    ])
    def test_a_grid_step_wider_than_8_over_n_falls_back(self, n, spacing_wl, taken):
        # the widest step, at broadside, is 2 pi spacing sin(0.05 degrees)
        schedule = design_schedule(reference_config(n, 4, spacing_wl), np.deg2rad(23.7), 0.4)
        step = 2 * pi * spacing_wl * harmonic_analysis._SIDEBAND_STEP
        assert (step <= 8.0 / n) == taken
        assert (harmonic_analysis._crossing_peaks(schedule, 25) is not None) == taken

    @pytest.mark.parametrize("n", [5, 17, 64, 300])
    def test_peaks_keep_their_bits_in_blocks_of_any_size(self, monkeypatch, n):
        schedule = design_schedule(reference_config(n, 8, 1.3), THETA_20, 0.4)
        whole = harmonic_analysis._crossing_peaks(schedule, 25)
        assert whole is not None
        for memo in (1 << 6, 1 << 8, 1 << 10, 1 << 12):
            monkeypatch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", memo)
            assert harmonic_analysis._crossing_peaks(schedule, 25) == whole

    def test_working_arrays_stay_under_the_cap(self, monkeypatch):
        schedule = design_schedule(reference_config(300, 8), THETA_20, 0.4)
        whole = harmonic_analysis._crossing_peaks(schedule, 25)
        sizes = []
        einsum = np.einsum

        def fields(subscripts, inner, high):
            sizes.extend((inner.size, high.size, inner.shape[0] * 16 * -(-300 // 16)))
            return einsum(subscripts, inner, high)

        monkeypatch.setattr(np, "einsum", fields)
        monkeypatch.setattr(harmonic_analysis, "_STEERING_MEMO_ENTRIES", 1 << 12)
        assert harmonic_analysis._crossing_peaks(schedule, 25) == whole
        # a cap of 1024 entries: blocks of three harmonics, whose 19 x 16
        # padded elements (912 entries) outnumber their 4 x 19 exponentials
        assert max(sizes) == 3 * 19 * 16
        assert len(sizes) == 3 * 17

    @pytest.mark.parametrize("n, m_max", [(MAX_ELEMENTS, 25), (MAX_ELEMENTS, 1023)])
    def test_traced_memory_of_a_warm_call(self, n, m_max):
        # the whole-grid scan peaked at 12 MiB at 25 harmonics (its table of
        # 3601 x 128 exponentials, rebuilt every call above 1152 elements) and
        # 128 MiB at 1023, the coefficient cap, copying the 64 MiB of rows
        schedule = design_schedule(reference_config(n, path_count=8), THETA_20, 0.5)
        assert (2 * m_max + 1) * n <= harmonic_analysis.MAX_STEERING_ENTRIES
        sideband_level(schedule, m_max)
        tracemalloc.start()
        try:
            sideband_level(schedule, m_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


# ------------------------------------------- designed schedules: the lag sum

def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def gram_tolerance(alpha: float) -> float:
    """Relative agreement with ``total_power`` expected of the lag sum: the
    Gram pass integrates segment lengths hi - lo of edges in [0, 1), each
    off by ~1e-16, so on pulses of width alpha / 3 its own relative error
    grows as ~1e-16 / alpha (``test_lag_sum_is_exact_where_gram_pass_rounds``)."""
    return max(1e-14, 1e-15 / alpha)


def lag_sum_total(schedule) -> float:
    """``_lag_total_power`` of a designed schedule, with its config's lag weights."""
    return harmonic_analysis._lag_total_power(
        schedule, harmonic_analysis._lag_weights(schedule.config))


def rational_total_power(schedule) -> Fraction:
    """Exact total power of the schedule's stored floats: every pulse pair's
    circular overlap in rational arithmetic, weighted by the rounded
    rotation products and coupling kernel."""
    onsets, widths, rotation = pulse_table(schedule.elements)
    weights = np.stack((rotation, -rotation), axis=-1).reshape(len(widths), -1)
    onsets = onsets.reshape(len(widths), -1)
    widths = np.repeat(widths, 2, axis=1)
    kernel = harmonic_analysis._coupling_kernel(schedule.config)
    total = Fraction(0)
    for a, b in np.ndindex(kernel.shape):
        pair = Fraction(0)
        for p, q in np.ndindex(onsets.shape[1], onsets.shape[1]):
            shift = (Fraction(onsets[a, p]) - Fraction(onsets[b, q])) % 1
            overlap = Fraction(widths[a, p]) - min(shift, 1 - shift)
            if overlap > 0:
                pair += Fraction((weights[a, p] * np.conj(weights[b, q])).real) * overlap
        total += Fraction(kernel[a, b]) * pair
    return total


class TestLagTotalPower:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([4, 8]), st.floats(-80.0, 80.0),
           st.floats(1e-6, 1.0), st.floats(0.3, 0.7))
    @example(1, 4, 0.0, 1.0, 0.5)
    @example(1, 4, 0.0, 2.0 ** -8, 0.5)
    def test_spectrum_total_agrees_with_gram_pass(self, n, path_count, theta_deg, alpha,
                                                  spacing_wl):
        # below alpha ~ 1e-15 a pulse is narrower than an ulp of its onset
        # and the Gram pass loses it altogether
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        schedule = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        spectrum = compute_spectrum(schedule, m_max=5)
        exact = total_power(schedule)
        assert relative_gap(spectrum.total_power, exact) <= gram_tolerance(alpha)
        assert spectrum.efficiency == spectrum.powers[1] / spectrum.total_power
        # P_1 as the quadratic form of the m = 1 row in long double: the float64
        # form of harmonic_power is itself up to ~2e-14 of the total off on
        # uniform arrays of N > 35, more than gram_tolerance allows
        row = harmonic_analysis._rows(schedule, [1])[0].astype(np.clongdouble)
        kernel = harmonic_analysis._coupling_kernel(cfg).astype(np.longdouble)
        p1 = float((row @ kernel @ row.conj()).real)
        assert relative_gap(spectrum.efficiency, p1 / exact) <= gram_tolerance(alpha)

    @pytest.mark.parametrize("n, path_count, alpha, theta_deg", [
        (1, 4, 2.0 ** -8, 0.0), (5, 4, 1e-4, 23.4), (5, 8, 1e-3, -59.3), (3, 8, 0.5, 60.0),
    ])
    def test_lag_sum_is_exact_where_gram_pass_rounds(self, n, path_count, alpha, theta_deg):
        # at (1, 4, 2**-8) the Gram pass is 1.1e-14 off the exact 1/96
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=0.37)
        schedule = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        exact = float(rational_total_power(schedule))
        assert relative_gap(lag_sum_total(schedule), exact) <= 1e-15
        assert relative_gap(total_power(schedule), exact) <= gram_tolerance(alpha)

    @pytest.mark.parametrize("theta_deg, alpha", [(-59.3, 1.0), (23.4, 10 ** -0.6)])
    def test_large_eight_path_array_agrees_with_gram_pass(self, theta_deg, alpha):
        cfg = reference_config(n_elements=256, path_count=8, spacing_wl=0.37)
        schedule = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        exact = total_power(schedule)
        assert relative_gap(compute_spectrum(schedule, m_max=25).total_power, exact) <= 1e-14

    @pytest.mark.parametrize("path_count", [4, 8])
    def test_coefficients_and_powers_keep_their_bits(self, path_count):
        designed = design_schedule(reference_config(33, path_count, 0.6), THETA_20, 0.4)
        general = dataclasses.replace(designed)
        fast, exact = compute_spectrum(designed, 25), compute_spectrum(general, 25)
        assert relative_gap(fast.total_power, exact.total_power) <= 1e-14
        ms = list(exact.coefficients)
        rows = [np.array([s.coefficients[m].per_element for m in ms]) for s in (fast, exact)]
        assert_template_rows(*rows)
        # the powers come from the lag sum (TestTemplatePowers), not bit for
        # bit, over the spectrum's own template rows, whose bits they keep
        powers = harmonic_analysis._template_powers(
            harmonic_analysis._lag_weights(designed.config), rows[0])
        for m, power in zip(ms, powers):
            assert fast.powers[m] in (0.0, float(power))
            assert abs(fast.powers[m] - exact.powers[m]) <= 1e-13 * exact.total_power
        assert fast.efficiency == float(powers[ms.index(1)]) / fast.total_power

    def test_designed_schedule_skips_the_gram_pass(self, monkeypatch):
        schedule = design_schedule(reference_config(16, path_count=8), THETA_20, 0.5)
        expected = total_power(schedule)

        def no_gram(*args):
            raise AssertionError("Gram pass on a designed schedule")

        monkeypatch.setattr(harmonic_analysis, "total_power", no_gram)
        monkeypatch.setattr(harmonic_analysis, "_grams", no_gram)
        assert relative_gap(compute_spectrum(schedule, 5).total_power, expected) <= 1e-14

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, MAX_ELEMENTS), st.sampled_from([4, 8]), st.floats(0.1, 2.0),
           st.floats(-80.0, 80.0), st.floats(1e-6, 1.0))
    @example(MAX_ELEMENTS, 8, 0.45, -41.9, 0.0167)
    @example(1, 4, 0.5, 0.0, 1.0)
    def test_offset_groups_match_the_pair_sum(self, n, path_count, spacing_wl, theta_deg,
                                              alpha):
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        schedule = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        exact = lag_total_power(schedule)
        assert relative_gap(lag_sum_total(schedule), exact) <= 1e-15

    def test_memory_stays_flat_at_the_element_cap(self):
        # the N x N Gram or coupling matrix alone would be 32 MiB of floats
        schedule = design_schedule(reference_config(MAX_ELEMENTS, path_count=8), THETA_20, 0.5)
        c = harmonic_analysis._lag_weights(schedule.config)
        harmonic_analysis._lag_total_power(schedule, c)
        tracemalloc.start()
        try:
            harmonic_analysis._lag_total_power(schedule, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


class TestTemplatePowers:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.sampled_from([4, 8]), st.floats(-80.0, 80.0),
           st.floats(1e-3, 1.0), st.floats(0.1, 1.0), st.sampled_from([5, 25, 101]))
    @example(1, 4, 0.0, 1.0, 0.5, 5)
    def test_agree_with_the_general_route(self, n, path_count, theta_deg, alpha, spacing_wl,
                                          m_max):
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        designed = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        fast = compute_spectrum(designed, m_max)
        exact = compute_spectrum(dataclasses.replace(designed), m_max)
        for m, power in exact.powers.items():
            assert abs(fast.powers[m] - power) <= 1e-13 * exact.total_power

    @pytest.mark.parametrize("n, path_count", [(1, 4), (5, 8), (64, 4), (256, 8)])
    def test_half_wavelength_uniform_array_is_n_times_element_zero(self, n, path_count):
        # at 0.5 wavelength every lag d > 0 couples by sinc(pi d), ~1e-16
        schedule = design_schedule(reference_config(n, path_count), np.deg2rad(-23.4), 0.4)
        spectrum = compute_spectrum(schedule, 101)
        for m, power in spectrum.powers.items():
            a0 = spectrum.coefficients[m].per_element[0]
            assert abs(power - n * abs(a0) ** 2) <= 1e-14 * spectrum.total_power

    def test_designed_schedule_skips_the_coupling_kernel(self, monkeypatch):
        schedule = design_schedule(reference_config(16, path_count=8), THETA_20, 0.5)
        expected = compute_spectrum(dataclasses.replace(schedule), 25)

        def forbidden(*args):
            raise AssertionError("N x N power pass on a designed schedule")

        monkeypatch.setattr(harmonic_analysis, "_harmonic_powers", forbidden)
        monkeypatch.setattr(harmonic_analysis, "_coupling_kernel", forbidden)
        spectrum = compute_spectrum(schedule, 25)
        for m, power in expected.powers.items():
            assert abs(spectrum.powers[m] - power) <= 1e-13 * expected.total_power


class TestDesignedStructure:
    @pytest.mark.parametrize("path_count", [4, 8])
    @pytest.mark.parametrize("theta_deg", [-59.3, 0.0, 23.4])
    def test_every_element_is_element_zero_shifted(self, path_count, theta_deg):
        schedule = design_schedule(reference_config(9, path_count), np.deg2rad(theta_deg), 0.5)
        onsets = pulse_table(schedule.elements)[0]
        n = np.arange(9)[:, None, None]
        gap = (onsets - onsets[0] - n * schedule.onset_step + 0.5) % 1.0 - 0.5
        assert np.max(np.abs(gap)) <= 1e-14

    def test_constructor_does_not_take_the_step(self, peak_schedule):
        with pytest.raises(TypeError):
            ArraySchedule(peak_schedule.config, 1.0, THETA_20, peak_schedule.elements,
                          onset_step=peak_schedule.onset_step)

    @pytest.mark.parametrize("rebuild", [
        lambda s: dataclasses.replace(s, elements=s.elements),
        lambda s: canonical_schedule(s),
        lambda s: schedule_from_doc(json.loads(dump_json(schedule_to_doc(s)))),
    ], ids=["replace", "canonical", "document"])
    def test_rebuilt_schedules_take_the_gram_pass(self, rebuild):
        designed = design_schedule(reference_config(12, path_count=8), np.deg2rad(-20.0), 0.3)
        rebuilt = rebuild(designed)
        assert designed.onset_step is not None and rebuilt.onset_step is None
        assert compute_spectrum(rebuilt, 5).total_power.hex() == total_power(rebuilt).hex()

    def test_equality_repr_and_document_ignore_the_step(self, peak_schedule):
        copy = dataclasses.replace(peak_schedule, elements=peak_schedule.elements)
        assert copy == peak_schedule and repr(copy) == repr(peak_schedule)
        assert dump_json(schedule_to_doc(copy)) == dump_json(schedule_to_doc(peak_schedule))


class TestTemplateRows:
    """A designed schedule's coefficients from element 0's column and each
    element's delay, against the general route over the same table."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, MAX_ELEMENTS), st.sampled_from([4, 8]), st.floats(0.2, 1.0),
           st.floats(-80.0, 80.0), st.floats(1e-3, 1.0))
    @example(MAX_ELEMENTS, 8, 1.0, 80.0, 1.0)
    @example(MAX_ELEMENTS, 4, 0.2, -3.0, 0.1)
    def test_agree_with_the_general_route(self, n, path_count, spacing_wl, theta_deg, alpha):
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        designed = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        ms = range(-101, 102)
        general = harmonic_analysis._coefficients(_schedule_table(designed), ms)
        assert_template_rows(coefficient_matrix(designed, ms), general)

    @pytest.mark.parametrize("n, path_count, theta_deg, alpha", [
        (9, 4, -37.5, 0.1), (33, 8, 23.4, 10 ** -0.3), (64, 8, 59.3, 1.0),
    ])
    def test_agree_with_the_dft_oracle(self, n, path_count, theta_deg, alpha):
        designed = design_schedule(reference_config(n, path_count, 0.6), np.deg2rad(theta_deg),
                                   alpha)
        ms = range(-25, 26)
        matrix = coefficient_matrix(designed, ms)
        for i in sorted({0, 1, n // 2, n - 1}):
            exact = matrix[:, i]
            estimate = envelope_dft_coefficients(designed.elements[i], 2**14, 25)
            worst = max(abs(estimate[m] - a) for m, a in zip(ms, exact))
            assert worst / np.max(np.abs(exact)) < oracle_tolerance(2**14)

    def test_coefficient_passes_see_element_zero_alone(self, monkeypatch):
        # harmonic_efficiency and total_power take the Gram pass, which reads
        # the whole table; every analysis through the row memo reads one
        # row, and none takes the general pass
        schedule = design_schedule(reference_config(32, path_count=8), THETA_20, 0.4)
        sizes, general = [], []
        real, real_general = harmonic_analysis._element_zero, harmonic_analysis._coefficients
        monkeypatch.setattr(harmonic_analysis, "_element_zero",
                            lambda table, ms: sizes.append(len(table[1])) or real(table, ms))
        monkeypatch.setattr(harmonic_analysis, "_coefficients",
                            lambda table, ms: general.append(ms) or real_general(table, ms))
        compute_spectrum(schedule, 25)
        sideband_level(schedule, 30)
        radiation_pattern(schedule, [1, -3, 5, -41], COARSE_THETA)
        array_factor(schedule, -45, 0.3)
        harmonic_power(schedule, 47)
        coefficient_vector(schedule, 49)
        coefficient_matrix(schedule, [0, 51, -51])
        assert len(sizes) == 7 and set(sizes) == {1} and general == []

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.sampled_from([4, 8]), st.integers(1, 101),
           st.floats(0.2, 2.0), st.floats(-80.0, 80.0), st.floats(1e-3, 1.0),
           st.tuples(st.integers(-101, 101), st.integers(1, 40), st.sampled_from([1, 2, 3, -1])),
           st.randoms(use_true_random=False))
    @example(300, 8, 101, 0.5, 23.7, 0.4, (7, 20, 1), random.Random(0))
    def test_a_range_request_has_the_bits_of_a_shuffled_list(self, n, path_count, m_max,
                                                               spacing_wl, theta_deg, alpha,
                                                               other, rng):
        # a range reaches the pass as a range, a list as floats: each row has
        # the same bits, on the template route and on the copy's general one,
        # for the spectrum's range about 0 and for any other
        cfg = reference_config(n, path_count, spacing_wl)
        designed = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        start, count, step = other
        for ms in (range(-m_max, m_max + 1), range(start, start + count * step, step)):
            listed = list(ms) + [rng.choice(ms) for _ in range(7)]
            rng.shuffle(listed)
            for make in (lambda: design_schedule(cfg, designed.steer_angle, alpha),
                         lambda: dataclasses.replace(designed)):
                by_range = coefficient_matrix(make(), ms)
                assert coefficient_matrix(make(), listed).tobytes() == by_range[
                    [ms.index(m) for m in listed]].tobytes()

    @pytest.mark.parametrize("ms", [range(2**53 - 1, 2**53 + 2), range(-2**53 - 1, 0),
                                    range(10**400, 10**400 + 3), range(-10**400, 5, 10**399)])
    def test_a_range_beyond_2_53_is_rejected(self, peak_schedule, ms):
        # its ends are checked as integers: 10**400 would overflow a float
        for schedule in (design_schedule(peak_schedule.config, THETA_20, 1.0),
                         dataclasses.replace(peak_schedule)):
            with pytest.raises(ValueError, match="harmonic indices"):
                coefficient_matrix(schedule, ms)

    def test_a_range_up_to_2_53_is_taken(self, peak_schedule):
        ms = range(2**53 - 2, 2**53 + 1)
        for make in (lambda: design_schedule(peak_schedule.config, THETA_20, 1.0),
                     lambda: dataclasses.replace(peak_schedule)):
            assert coefficient_matrix(make(), ms).tobytes() == coefficient_matrix(
                make(), [float(m) for m in ms]).tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, MAX_ELEMENTS), st.sampled_from([4, 8]), st.floats(0.05, 4.0),
           st.floats(-89.9, 89.9), st.floats(1e-6, 1.0))
    def test_the_path_count_fixes_element_zero(self, n, path_count, spacing_wl, theta_deg,
                                               alpha):
        # the pulse-sum and lag-group memos key element 0 by path count alone
        cfg = reference_config(n, path_count, spacing_wl)
        onsets, _, rotation = _schedule_table(design_schedule(cfg, np.deg2rad(theta_deg), alpha))
        expected = _schedule_table(design_schedule(reference_config(1, path_count), 0.0, 1.0))
        assert onsets[0].tobytes() == expected[0][0].tobytes()
        assert rotation[0].tobytes() == expected[2][0].tobytes()


def long_double_element_zero(schedule, ms) -> np.ndarray:
    """A[m, 0] of a designed schedule's element 0 in long double, with the
    identity 1 - e^(-jx) = 2 sin^2(x / 2) + j sin x, from the table's
    onsets, width and rotations.  Each onset phase w t is the float product
    the code rounds (so that only the rest is compared); the exponentials,
    the path sum and the width factor are then taken in long double."""
    onsets, widths, rotation = (column[0] for column in _schedule_table(schedule))
    w = 2 * pi * np.asarray(ms, dtype=float)[:, None]
    phase = (w[..., None] * onsets).astype(np.longdouble)
    e = np.cos(phase) - 1j * np.sin(phase).astype(np.clongdouble)
    sums = np.sum(rotation.astype(np.clongdouble) * (e[..., 0] - e[..., 1]), axis=1)
    w = w[:, 0].astype(np.longdouble)
    x = w * np.longdouble(widths[0])
    factor = (np.sin(x) - 2j * (np.sin(x / 2) ** 2).astype(np.clongdouble)) / np.where(w, w, 1)
    return sums * factor


class TestElementZero:
    """A designed schedule's element 0 from its pulse sums and one width
    factor per harmonic (``_element_zero``)."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, MAX_ELEMENTS), st.sampled_from([4, 8]), st.floats(0.1, 2.0),
           st.floats(-80.0, 80.0), st.floats(0.1, 1.0))
    @example(MAX_ELEMENTS, 8, 0.5, 23.4, 1.0)
    @example(1, 4, 0.5, 0.0, 0.1)
    def test_agrees_with_the_scalar_code(self, n, path_count, spacing_wl, theta_deg, alpha):
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        designed = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        ms = range(-101, 102)
        exact = np.array([combined_coefficient(designed.elements[0], m) for m in ms])
        column = coefficient_matrix(designed, ms)[:, 0]
        assert np.max(np.abs(column - exact)) <= 1e-15 * np.max(np.abs(exact))

    @pytest.mark.parametrize("path_count", [4, 8])
    @pytest.mark.parametrize("alpha", [1e-9, 1e-12])
    def test_narrow_pulses_keep_their_precision(self, path_count, alpha):
        # 1 - cos x would lose ~x / 2 of |A|: 1e-9 of it at alpha = 1e-9
        designed = design_schedule(reference_config(7, path_count), THETA_20, alpha)
        ms = range(-101, 102)
        exact = long_double_element_zero(designed, ms)
        column = coefficient_matrix(designed, ms)[:, 0]
        assert np.max(np.abs(column - exact)) <= 1e-15 * np.max(np.abs(exact))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.sampled_from([4, 8]), st.floats(0.1, 2.0),
           st.floats(-80.0, 80.0), st.floats(1e-6, 1.0))
    @example(1, 4, 1.0, 0.0, 2.0 ** -6)
    def test_suppressed_harmonics_stay_suppressed(self, n, path_count, spacing_wl, theta_deg,
                                                  alpha):
        # the residue grows with |m|, each onset having been rounded: up to
        # |m| = 101 both routes reach ~2e-14 (the general one ~5e-14)
        cfg = reference_config(n_elements=n, path_count=path_count, spacing_wl=spacing_wl)
        designed = design_schedule(cfg, np.deg2rad(theta_deg), alpha)
        ms = suppressed_harmonics(path_count, 25)
        rows = coefficient_matrix(designed, [1] + ms)
        assert np.max(np.abs(rows[1:]) / np.abs(rows[0])) < 1e-14
