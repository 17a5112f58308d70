"""Schedule construction rules and their harmonic-suppression guarantees."""

import dataclasses
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALPHA_GRID, THETA_20, reference_config
from scalar_reference import combined_coefficient
from switchbeam.array_model import pulse_table
from switchbeam.harmonic_analysis import array_factor, coefficient_matrix
from switchbeam.schedule_design import (
    EIGHT_PATH_SHIFT,
    PBO_SHIFT,
    _designed_tables,
    design_schedule,
    steering_onset,
    suppressed_harmonics,
)


class TestSteeringOnset:
    def test_first_element_is_three_quarters_for_any_angle(self):
        cfg = reference_config()
        for theta in (0.0, THETA_20, -0.7):
            assert steering_onset(0, theta, cfg) == pytest.approx(0.75, abs=1e-15)

    def test_broadside_gives_three_quarters_for_every_element(self):
        cfg = reference_config()
        for n in range(5):
            assert steering_onset(n, 0.0, cfg) == pytest.approx(0.75, abs=1e-12)

    def test_second_element_at_twenty_degrees(self):
        # half-wavelength spacing: 0.5*(sin 20deg - 1/2) wrapped into [0, 1)
        onset = steering_onset(1, THETA_20, reference_config())
        assert onset == pytest.approx(0.9210100716628343, abs=1e-9)

    def test_rejects_endfire_angles(self):
        with pytest.raises(ValueError):
            steering_onset(0, pi / 2, reference_config())

    def test_designed_onset_maximizes_first_harmonic(self):
        # brute-force oracle: slide element 1's whole schedule and watch the
        # first-harmonic response at the steering angle
        schedule = design_schedule(reference_config(n_elements=2), THETA_20, 1.0)
        base = schedule.elements[1]

        def response(delta: float) -> float:
            moved = dataclasses.replace(
                base,
                paths=tuple(
                    (p, dataclasses.replace(
                        t,
                        onset_pos_norm=(t.onset_pos_norm + delta) % 1.0,
                        onset_neg_norm=(t.onset_neg_norm + delta) % 1.0,
                    ))
                    for p, t in base.paths
                ),
            )
            probe = dataclasses.replace(schedule, elements=(schedule.elements[0], moved))
            return abs(array_factor(probe, 1, THETA_20))

        deltas = np.linspace(0.0, 1.0, 1441, endpoint=False)
        best = deltas[int(np.argmax([response(d) for d in deltas]))]
        distance = min(best, 1.0 - best)
        assert distance <= 1.0 / 1441 + 1e-12


class TestEliminationOffset:
    def test_pbo_branch(self):
        # k/|m| periods with m = -3, k = -1
        assert PBO_SHIFT == -1 / abs(-3) == -1.0 / 3.0


class TestDesignSchedule:
    def test_reference_element_zero_trains(self):
        schedule = design_schedule(reference_config(), THETA_20, 1.0)
        paths = dict(
            (round(np.degrees(p)), t) for p, t in schedule.elements[0].paths
        )
        t0 = paths[0]
        assert t0.onset_pos_norm == pytest.approx(0.75, abs=1e-12)
        assert t0.onset_neg_norm == pytest.approx(0.25, abs=1e-12)
        assert t0.width_norm == pytest.approx(1.0 / 3.0, abs=1e-15)
        t_pi = paths[-180]
        assert t_pi.onset_pos_norm == pytest.approx(0.75 - 1.0 / 3.0, abs=1e-12)
        assert t_pi.onset_neg_norm == pytest.approx(0.75 - 1.0 / 3.0 + 0.5, abs=1e-12)

    def test_negative_pulse_trails_by_half_a_period(self):
        for alpha in (1.0, 0.3):
            schedule = design_schedule(reference_config(path_count=8), THETA_20, alpha)
            for element in schedule.elements:
                for _, train in element.paths:
                    gap = (train.onset_neg_norm - train.onset_pos_norm) % 1.0
                    assert gap == pytest.approx(0.5, abs=1e-15)

    def test_eight_path_quartet_is_shifted_copy(self):
        schedule = design_schedule(reference_config(path_count=8), THETA_20, 0.6)
        for element in schedule.elements:
            base = {round(np.degrees(p)): t for p, t in element.paths}
            for deg in (0, -90, -180, -270):
                lead, lag = base[deg], base[deg - 45]
                delta = (lag.onset_pos_norm - lead.onset_pos_norm) % 1.0
                assert delta == pytest.approx(EIGHT_PATH_SHIFT, abs=1e-12)

    def test_width_scales_with_duty_ratio(self):
        schedule = design_schedule(reference_config(), THETA_20, 0.25)
        for element in schedule.elements:
            for _, train in element.paths:
                assert train.width_norm == pytest.approx(0.25 / 3.0, abs=1e-15)

    def test_rejects_bad_duty_ratio(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                design_schedule(reference_config(), THETA_20, alpha)

    def test_rejects_config_failing_validation(self):
        bad = reference_config(f0=5e9, fp=1e9)
        with pytest.raises(ValueError, match="ratio"):
            design_schedule(bad, THETA_20, 1.0)


class TestSuppression:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    @pytest.mark.parametrize("path_count", [4, 8])
    def test_designed_suppression_set(self, path_count, alpha):
        schedule = design_schedule(reference_config(path_count=path_count), THETA_20, alpha)
        for element in schedule.elements:
            scale = abs(combined_coefficient(element, 1))
            for m in suppressed_harmonics(path_count, 25):
                assert abs(combined_coefficient(element, m)) < 1e-12 * scale

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.02, 1.0),
        theta=st.floats(-1.2, 1.2),
        path_count=st.sampled_from([4, 8]),
    )
    def test_suppression_holds_for_any_steering_and_duty(self, alpha, theta, path_count):
        schedule = design_schedule(
            reference_config(n_elements=3, path_count=path_count), theta, alpha
        )
        element = schedule.elements[2]
        scale = abs(combined_coefficient(element, 1))
        for m in suppressed_harmonics(path_count, 13):
            assert abs(combined_coefficient(element, m)) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.01, 1.0), theta=st.floats(-1.2, 1.2),
           path_count=st.sampled_from([4, 8]))
    @example(alpha=0.6, theta=0.3, path_count=4)   # pulse-shape nulls at m = +-5, 10, ...
    @example(alpha=1.0, theta=0.3, path_count=8)   # ... and at every multiple of 3
    def test_suppressed_set_is_exactly_the_vanishing_set(self, alpha, theta, path_count):
        # besides the rule set, a harmonic vanishes only where the pulse
        # shape sin(pi*m*alpha/3) does; those alpha-dependent nulls are left out
        m_max = 60
        schedule = design_schedule(
            reference_config(n_elements=3, path_count=path_count), theta, alpha
        )
        ms = np.arange(-m_max, m_max + 1)
        peaks = np.max(np.abs(coefficient_matrix(schedule, ms)), axis=1)
        vanishing = set(ms[peaks < 1e-12 * peaks[ms == 1]].tolist())
        pulse_nulls = set(ms[np.abs(np.sin(pi * ms * alpha / 3)) < 1e-9].tolist())
        suppressed = set(suppressed_harmonics(path_count, m_max))
        assert vanishing - pulse_nulls == suppressed - pulse_nulls

    def test_width_factor_and_offset_agree_on_multiples_of_three(self):
        # at alpha = 1 the width alone nulls every multiple of 3; the opposed
        # -1/3 offset nulls the odd ones at any alpha - both give zero at 1
        schedule = design_schedule(reference_config(), THETA_20, 1.0)
        element = schedule.elements[0]
        for m in (3, -3, 9, -9, 15):
            assert abs(combined_coefficient(element, m)) < 1e-13

    def test_suppressed_harmonics_catalogue(self):
        four = suppressed_harmonics(4, 9)
        assert set(four) == {0, 2, -2, 4, -4, 6, -6, 8, -8,    # even
                             3, -3, 9, -9, 6, -6,              # multiples of 3
                             7, -1, -5, -9, 3}                 # 3 mod 4
        eight = suppressed_harmonics(8, 9)
        assert set(eight) == set(four) | {5}
        assert -35 in suppressed_harmonics(8, 40)


class TestSteering:
    @pytest.mark.parametrize("n_elements", [2, 4, 8])
    @pytest.mark.parametrize("theta_deg", [-60, -20, 0, 20, 60])
    def test_first_harmonic_peaks_at_commanded_angle(self, n_elements, theta_deg):
        schedule = design_schedule(
            reference_config(n_elements=n_elements), np.deg2rad(theta_deg), 1.0
        )
        grid = np.arange(-90.0, 90.0 + 1e-9, 0.25)
        gains = np.abs(array_factor(schedule, 1, np.deg2rad(grid)))
        assert abs(grid[int(np.argmax(gains))] - theta_deg) <= 0.25 + 1e-9


def test_pulse_frequency_scale_invariance():
    # normalized onsets and coefficient magnitudes depend only on alpha/theta
    fast = design_schedule(reference_config(fp=1e9), THETA_20, 0.4)
    slow = design_schedule(reference_config(fp=2.5e8), THETA_20, 0.4)
    for e_fast, e_slow in zip(fast.elements, slow.elements):
        for (p1, t1), (p2, t2) in zip(e_fast.paths, e_slow.paths):
            assert p1 == p2
            assert t1.onset_pos_norm == t2.onset_pos_norm
            assert t1.width_norm == t2.width_norm
        for m in (-7, 1, 5, 13):
            assert combined_coefficient(e_fast, m) == combined_coefficient(e_slow, m)


class TestDesignedTables:
    @settings(max_examples=60, deadline=None)
    @given(
        n_elements=st.integers(1, 24),
        spacing_wl=st.floats(0.05, 2.0),
        theta=st.floats(-1.5, 1.5),
        alphas=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4),
        path_count=st.sampled_from([4, 8]),
    )
    @example(n_elements=5, spacing_wl=0.5, theta=0.35, alphas=[1.0, 10 ** -0.6, 1.0],
             path_count=8)
    def test_each_table_is_the_designed_schedules_table(
        self, n_elements, spacing_wl, theta, alphas, path_count
    ):
        cfg = reference_config(n_elements=n_elements, path_count=path_count,
                               spacing_wl=spacing_wl)
        tables = list(_designed_tables(design_schedule(cfg, theta, 1.0), alphas))
        assert len(tables) == len(alphas)
        for alpha, table in zip(alphas, tables):
            expected = pulse_table(design_schedule(cfg, theta, alpha).elements)
            for got, want in zip(table, expected, strict=True):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("duty", [0.0, -0.5, 1.5, float("nan")])
    def test_rejects_duty_outside_unit_interval(self, duty):
        with pytest.raises(ValueError, match=r"duty_ratio must lie in \(0, 1\]"):
            list(_designed_tables(design_schedule(reference_config(), THETA_20, 1.0),
                                  [0.5, duty]))
