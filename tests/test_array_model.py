"""Domain types, schedule validation, and envelope synthesis."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import THETA_20, reference_config
from switchbeam.array_model import (
    ArrayConfig,
    ArraySchedule,
    ElementSchedule,
    PulseTrain,
    envelope_segments,
    synthesize_envelope,
    validate,
    wrap_unit,
)
from switchbeam.harmonic_analysis import combined_coefficient, path_coefficient
from switchbeam.schedule_design import design_schedule


class TestPulseTrain:
    def test_onsets_normalized_into_unit_interval(self):
        train = PulseTrain(0.1, 1.75, -0.25)
        assert train.onset_pos_norm == 0.75
        assert train.onset_neg_norm == 0.75

    def test_wrap_unit_guards_the_one_boundary(self):
        # Python's (-1e-18) % 1.0 rounds to 1.0; the wrap must stay in [0, 1)
        assert wrap_unit(-1e-18) == 0.0
        assert 0.0 <= wrap_unit(0.999999999999999999) < 1.0

    def test_disjoint_pulse_detection(self):
        assert PulseTrain(0.2, 0.0, 0.5).pulses_disjoint()
        assert not PulseTrain(0.3, 0.0, 0.2).pulses_disjoint()
        # wrap-around overlap: positive pulse [0.9, 0.2) hits negative at 0.1
        assert not PulseTrain(0.3, 0.9, 0.1).pulses_disjoint()

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            PulseTrain(0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            PulseTrain(-0.1, 0.0, 0.5)

    # (path phase, width, positive onset, negative onset)
    @pytest.mark.parametrize("timings", [
        (0.0, math.inf, 0.0, 0.5), (0.0, math.nan, 0.0, 0.5),
        (0.0, 0.1, math.nan, 0.5), (0.0, 0.1, 0.0, -math.inf),
        (math.nan, 0.1, 0.0, 0.5), (-math.inf, 0.1, 0.0, 0.5),
    ])
    def test_rejects_nonfinite_timings(self, timings):
        phase, *train = timings
        with pytest.raises(ValueError, match="finite"):
            ElementSchedule(0, ((phase, PulseTrain(*train)),))


class TestArrayConfig:
    def test_defaults_to_uniform_excitation(self):
        cfg = reference_config()
        assert cfg.excitations == (1.0,) * 5
        assert cfg.wavelength == pytest.approx(299792458.0 / 77e9, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(n_elements=0),
        dict(element_spacing=0.0),
        dict(carrier_freq=-1.0),
        dict(path_count=3),
        dict(excitations=(1.0, 1.0)),
        dict(excitations=(1.0, -1.0, 1.0, 1.0, 1.0)),
        dict(element_spacing=math.nan),
        dict(carrier_freq=math.inf),
        dict(pulse_freq=math.nan),
        dict(if_freq=math.inf),
        dict(excitations=(1.0, math.inf, 1.0, 1.0, 1.0)),
    ])
    def test_rejects_nonsense(self, kwargs):
        base = dict(n_elements=5, element_spacing=2e-3, carrier_freq=77e9, pulse_freq=1e9)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ArrayConfig(**base)

    def test_frequency_ratio_violation_is_reported_not_raised(self):
        cfg = ArrayConfig(2, 2e-3, carrier_freq=5e9, pulse_freq=1e9)
        assert any("ratio" in v for v in cfg.violations())

    def test_if_aliasing_violation(self):
        cfg = ArrayConfig(2, 2e-3, 77e9, 1e9, if_freq=0.6e9)
        assert any("if_freq" in v for v in cfg.violations())
        ok = ArrayConfig(2, 2e-3, 77e9, 1e9, if_freq=0.4e9)
        assert ok.violations() == []


class TestValidate:
    def test_designed_schedule_is_clean(self, peak_schedule):
        assert validate(peak_schedule) == []

    def test_overwide_train_is_flagged(self, peak_schedule):
        element = peak_schedule.elements[0]
        phase, train = element.paths[0]
        fat = dataclasses.replace(train, width_norm=0.4)
        patched = dataclasses.replace(
            element, paths=((phase, fat),) + element.paths[1:]
        )
        schedule = dataclasses.replace(
            peak_schedule, elements=(patched,) + peak_schedule.elements[1:]
        )
        assert any("width exceeds T_p/3" in v for v in validate(schedule))

    def test_duplicate_phases_are_flagged(self, peak_schedule):
        element = peak_schedule.elements[0]
        _, train = element.paths[1]
        patched = dataclasses.replace(
            element, paths=(element.paths[0], (0.0, train)) + element.paths[2:]
        )
        schedule = dataclasses.replace(
            peak_schedule, elements=(patched,) + peak_schedule.elements[1:]
        )
        assert any("phases not distinct" in v for v in validate(schedule))

    def test_element_count_mismatch_is_flagged(self, peak_schedule):
        schedule = dataclasses.replace(peak_schedule, elements=peak_schedule.elements[:-1])
        assert any("element schedules" in v for v in validate(schedule))

    def test_bad_duty_ratio_is_flagged(self, peak_schedule):
        schedule = dataclasses.replace(peak_schedule, duty_ratio=1.4)
        assert any("duty_ratio" in v for v in validate(schedule))


class TestSynthesizeEnvelope:
    def test_single_path_sample_inside_positive_pulse_is_one(self):
        element = ElementSchedule(0, ((0.0, PulseTrain(0.25, 0.0, 0.5)),))
        env = synthesize_envelope(element, 64)
        assert env[4] == 1 + 0j          # t = 4.5/64 lies inside [0, 0.25)
        assert env[36] == -1 + 0j        # t = 36.5/64 lies inside [0.5, 0.75)
        assert env[30] == 0j

    def test_designed_paths_average_to_zero(self, peak_schedule):
        # equal positive/negative durations: exact analytically, and the
        # sampled mean can be off by at most one sample's worth
        samples = 4096
        for phase, train in peak_schedule.elements[1].paths:
            assert path_coefficient(train, phase, 0) == 0j
            env = synthesize_envelope(ElementSchedule(0, ((0.0, train),)), samples)
            assert abs(np.mean(env.real)) <= 1.0 / samples

    def test_rejects_too_few_samples(self, peak_schedule):
        with pytest.raises(ValueError):
            synthesize_envelope(peak_schedule.elements[0], 63)

    def test_rejects_overlapping_pulses_within_a_train(self):
        element = ElementSchedule(0, ((0.0, PulseTrain(0.3, 0.0, 0.2)),))
        with pytest.raises(ValueError, match="overlap"):
            synthesize_envelope(element, 128)

    def test_period_shift_is_bit_identical_for_exact_onsets(self):
        base = ElementSchedule(0, ((0.0, PulseTrain(0.25, 0.75, 0.25)),))
        shifted = ElementSchedule(0, ((0.0, PulseTrain(0.25, 1.75, 1.25)),))
        assert np.array_equal(synthesize_envelope(base, 256), synthesize_envelope(shifted, 256))

    def test_period_shift_on_designed_schedule(self, peak_schedule):
        # non-dyadic onsets pick up one ulp in the shift arithmetic
        element = peak_schedule.elements[3]
        shifted = ElementSchedule(
            element.element_index,
            tuple(
                (p, dataclasses.replace(t, onset_pos_norm=t.onset_pos_norm + 1.0,
                                        onset_neg_norm=t.onset_neg_norm + 1.0))
                for p, t in element.paths
            ),
        )
        np.testing.assert_allclose(
            synthesize_envelope(element, 1024), synthesize_envelope(shifted, 1024),
            atol=1e-12,
        )

    @pytest.mark.parametrize("path_count", [4, 8])
    def test_midpoint_dft_error_shrinks_with_sampling(self, path_count):
        # aliasing makes stepwise halving erratic, but over 16x more samples
        # the error drops by at least 4x on every designed schedule measured
        schedule = design_schedule(reference_config(path_count=path_count), THETA_20, 0.7)
        element = schedule.elements[2]
        exact = {m: combined_coefficient(element, m) for m in range(-25, 26)}
        scale = max(abs(v) for v in exact.values())

        def dft_error(samples):
            spectrum = np.fft.fft(synthesize_envelope(element, samples)) / samples
            return max(
                abs(spectrum[m % samples] * np.exp(-1j * np.pi * m / samples) - exact[m])
                for m in exact
            ) / scale

        assert dft_error(2**10) / dft_error(2**14) > 4.0


class TestEnvelopeSegments:
    def test_segments_tile_the_period_and_match_samples(self, peak_schedule):
        element = peak_schedule.elements[2]
        breaks, values = envelope_segments(element)
        upper = np.append(breaks[1:], breaks[0] + 1.0)
        assert np.sum(upper - breaks) == pytest.approx(1.0, abs=1e-15)

        env = synthesize_envelope(element, 8192)
        t = (np.arange(8192) + 0.5) / 8192
        idx = np.searchsorted(breaks, t, side="right") - 1
        np.testing.assert_allclose(env, values[idx], atol=1e-15)

    def test_single_pulse_energy(self):
        element = ElementSchedule(0, ((0.0, PulseTrain(0.2, 0.1, 0.6)),))
        breaks, values = envelope_segments(element)
        upper = np.append(breaks[1:], breaks[0] + 1.0)
        energy = np.sum(np.abs(values) ** 2 * (upper - breaks))
        assert energy == pytest.approx(0.4, abs=1e-15)


def test_schedule_is_immutable(peak_schedule):
    with pytest.raises(dataclasses.FrozenInstanceError):
        peak_schedule.duty_ratio = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        peak_schedule.elements[0].paths[0][1].width_norm = 0.5
