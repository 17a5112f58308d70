"""Domain types, schedule validation, and envelope synthesis."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import THETA_20, reference_config
from scalar_reference import (
    combined_coefficient,
    envelope_segments,
    path_coefficient,
    synthesize_envelope,
)
from switchbeam.array_model import (
    ArrayConfig,
    ArraySchedule,
    ElementSchedule,
    PulseTrain,
    envelope_filtered_samples,
    pulse_table,
    validate,
    wrap_unit,
)
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

    def test_wrap_unit_of_an_array_wraps_each_entry_as_a_float_would(self):
        times = [-1e-18, 0.999999999999999999, 1.75, -0.25, 0.0, -3.5]
        wrapped = wrap_unit(np.array(times))
        assert wrapped.dtype == float
        assert wrapped.tobytes() == np.array([wrap_unit(t) for t in times]).tobytes()

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
    def test_uniform_array_of_five_fields(self):
        cfg = reference_config()
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "n_elements", "element_spacing", "carrier_freq", "pulse_freq", "path_count"]
        assert cfg.wavelength == pytest.approx(299792458.0 / 77e9, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        dict(n_elements=0),
        dict(element_spacing=0.0),
        dict(carrier_freq=-1.0),
        dict(path_count=3),
        dict(element_spacing=math.nan),
        dict(carrier_freq=math.inf),
        dict(pulse_freq=math.nan),
        dict(n_elements=5.0),
        dict(n_elements=np.float64(5.0)),
        dict(n_elements=True),
        dict(path_count=4.0),
        dict(path_count=True),
    ])
    def test_rejects_nonsense(self, kwargs):
        base = dict(n_elements=5, element_spacing=2e-3, carrier_freq=77e9, pulse_freq=1e9)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ArrayConfig(**base)

    def test_rejects_a_spacing_whose_beta_d_overflows(self):
        # 1e306 m is finite, but 2 pi d / wavelength is not
        with pytest.raises(ValueError, match=r"element_spacing 1e\+306 m overflows beta\*d"):
            ArrayConfig(5, 1e306, 77e9, 1e9)

    def test_accepts_numpy_integer_counts(self):
        cfg = ArrayConfig(np.int64(5), 2e-3, 77e9, 1e9, path_count=np.int32(8))
        assert cfg == ArrayConfig(5, 2e-3, 77e9, 1e9, path_count=8)
        assert type(cfg.n_elements) is int and type(cfg.path_count) is int

    def test_frequency_ratio_violation_is_reported_not_raised(self):
        cfg = ArrayConfig(2, 2e-3, carrier_freq=5e9, pulse_freq=1e9)
        assert any("ratio" in v for v in cfg.violations())


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


class TestPulseTable:
    def test_layout_and_padding(self):
        wide = ElementSchedule(0, ((0.5, PulseTrain(0.25, 0.0, 0.5)),
                                   (-1.0, PulseTrain(0.125, 0.75, 0.25))))
        narrow = ElementSchedule(1, ((2.0, PulseTrain(0.2, 0.1, 0.6)),))
        onsets, widths, rotations = pulse_table((wide, ElementSchedule(2, ()), narrow))
        # one row per element, one column per path; shorter rows are padded
        assert onsets.tolist() == [[[0.0, 0.5], [0.75, 0.25]], [[0.0, 0.0]] * 2,
                                   [[0.1, 0.6], [0.0, 0.0]]]
        assert widths.tolist() == [[0.25, 0.125], [0.0] * 2, [0.2, 0.0]]
        assert rotations[0].tolist() == [np.exp(0.5j), np.exp(-1.0j)]
        assert rotations[2].tolist() == [np.exp(2.0j), 0]
        assert not np.any(rotations[1])

    def test_envelopes_reject_overlapping_pulses(self):
        element = ElementSchedule(7, ((0.0, PulseTrain(0.3, 0.0, 0.2)),))
        assert pulse_table((element,))[0].shape == (1, 1, 2)
        for envelope in (lambda e: synthesize_envelope(e, 64),
                         lambda e: envelope_filtered_samples(e, 64), envelope_segments):
            with pytest.raises(ValueError, match="element 7: pulses within one train overlap"):
                envelope(element)


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


def dense_filtered_samples(element, samples):
    """``envelope_filtered_samples`` as a pass over every bin for each pulse
    copy: the reference that its per-pulse slices must match bit for bit."""
    h = 1.0 / samples
    centers = (np.arange(samples) + 0.5) / samples

    def kernel_cdf(x):
        x = np.clip(x, -h, h)
        lower = (x + h) ** 2 / (2 * h * h)
        upper = 1.0 - (h - x) ** 2 / (2 * h * h)
        return np.where(x <= 0.0, lower, upper)

    out = np.zeros(samples, dtype=complex)
    for phase, train in element.paths:
        rotation = np.exp(1j * phase)
        for onset, weight in ((train.onset_pos_norm, rotation), (train.onset_neg_norm, -rotation)):
            for shift in (-1.0, 0.0, 1.0):
                a = onset + shift
                out += weight * (kernel_cdf(centers - a)
                                 - kernel_cdf(centers - (a + train.width_norm)))
    return out


@st.composite
def bin_onsets(draw, samples):
    """An onset on a bin edge k/S, one ulp either side of it, mid-bin, or anywhere."""
    k = draw(st.integers(0, samples - 1))
    edge = k / samples
    return draw(st.sampled_from([
        edge, float(np.nextafter(edge, 2.0)), float(np.nextafter(edge, -1.0)) % 1.0,
        (k + 0.5) / samples, draw(st.floats(0.0, 1.0, exclude_max=True)),
    ]))


@st.composite
def loaded_elements(draw):
    """A hand-written element: 0 to 8 paths with their own onsets and widths
    up to the disjoint limit, pulses that may wrap across 0/1, and signed
    zero and pi among the phases."""
    samples = draw(st.sampled_from([64, 100, 1024]))
    paths = []
    for _ in range(draw(st.integers(0, 8))):
        pos, neg = draw(bin_onsets(samples)), draw(bin_onsets(samples))
        gap = wrap_unit(neg - pos)
        scale = draw(st.one_of(st.just(1.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)))
        train = PulseTrain(max(scale * min(gap, 1.0 - gap), 1e-12), pos, neg)
        phase = draw(st.one_of(st.sampled_from([0.0, -0.0, math.pi]),
                               st.floats(-math.pi, math.pi)))
        if train.pulses_disjoint():
            paths.append((phase, train))
    return ElementSchedule(0, tuple(paths)), samples


class TestEnvelopeFilteredSamples:
    @settings(max_examples=150, deadline=None)
    @given(case=loaded_elements())
    # a mid-bin onset at S = 100: rounding lifts the bin whose kernel edge
    # meets the pulse edge exactly off zero, one bin before the exact support
    @example(case=(ElementSchedule(0, ((0.0, PulseTrain(0.1, 0.015, 0.515)),)), 100))
    def test_slices_give_the_dense_bits_on_loaded_elements(self, case):
        element, samples = case
        got = envelope_filtered_samples(element, samples)
        assert got.tobytes() == dense_filtered_samples(element, samples).tobytes()

    @pytest.mark.parametrize("path_count, alpha, theta", [
        (4, 1.0, THETA_20), (8, 10.0 ** -0.6, -0.61), (4, 1e-3, 0.72),
    ])
    def test_slices_give_the_dense_bits_on_designed_elements(self, path_count, alpha, theta):
        schedule = design_schedule(reference_config(path_count=path_count), theta, alpha)
        for element in (schedule.elements[0], schedule.elements[-1]):
            got = envelope_filtered_samples(element, 1 << 14)
            assert got.tobytes() == dense_filtered_samples(element, 1 << 14).tobytes()


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

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(-1.0, 2.0, exclude_min=True, exclude_max=True),
        st.floats(2.0**52, 1e308).flatmap(lambda x: st.sampled_from([x, -x])),
        st.floats(-(2.0**-54), 0.0, exclude_max=True),  # 1 + x rounds to 1.0
        st.floats(allow_nan=True, allow_infinity=True),
    ), min_size=1, max_size=40))
    @example([-0.0, 0.0, float("nan"), -(2.0**-54), -5e-324, float("inf"), -float("inf")])
    def test_floor_wrap_has_the_bits_of_the_float_remainder(self, xs):
        # _segments tests a time against a pulse as d - floor(d) < width
        x = np.array(xs)
        with np.errstate(invalid="ignore"):
            assert (x - np.floor(x)).tobytes() == (x % 1.0).tobytes()

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
