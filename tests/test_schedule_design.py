"""Schedule construction rules and their harmonic-suppression guarantees."""

import copy
import dataclasses
import pickle
import warnings
from math import pi

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALPHA_GRID, THETA_20, reference_config
from scalar_reference import combined_coefficient, design_elements
from switchbeam import circuit_model, modulation
from switchbeam.array_model import ArraySchedule, pulse_table, validate
from switchbeam.circuit_model import pbo_sweep
from switchbeam.harmonic_analysis import (
    array_factor,
    coefficient_matrix,
    compute_spectrum,
    harmonic_efficiency,
    radiation_pattern,
    sideband_level,
    total_power,
)
from switchbeam.modulation import SymbolPlan, simulate_constellation
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

    @pytest.mark.parametrize("n", [2047, np.arange(2048)])
    def test_overflowing_phase_raises_before_numpy_warns(self, n):
        # finite beta_d, but n * beta_d * sin(theta) overflows; it used to
        # give NaN
        cfg = reference_config(2048, spacing_wl=1e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pulse train timings must be finite"):
                steering_onset(n, THETA_20, cfg)

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
        with pytest.raises(ValueError, match="^invalid config: config: carrier/pulse frequency "
                                             "ratio 5 below 10$"):
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


def reference_schedule(config, steer_angle, duty_ratio, onset_step=None):
    """The schedule of ``design_elements``, optionally with a designed step."""
    schedule = ArraySchedule(config, duty_ratio, steer_angle,
                             design_elements(config, steer_angle, duty_ratio))
    object.__setattr__(schedule, "onset_step", onset_step)
    return schedule


def analysis_bytes(schedule) -> bytes:
    """Spectrum, powers and a pattern of one schedule, as bytes."""
    spectrum = compute_spectrum(schedule, 9)
    pattern = radiation_pattern(schedule, [1, -3, 5], np.linspace(-1.5, 1.5, 61))
    parts = [[spectrum.total_power, *spectrum.powers.values(), total_power(schedule),
              harmonic_efficiency(schedule), sideband_level(schedule, 9)],
             *(c.per_element for c in spectrum.coefficients.values()),
             *pattern.levels_db.values()]
    return b"".join(np.asarray(part).tobytes() for part in parts)


class TestStoredTable:
    @settings(max_examples=100, deadline=None)
    @given(
        n_elements=st.integers(1, 299),
        path_count=st.sampled_from([4, 8]),
        spacing_wl=st.floats(0.1, 1.0),
        theta=st.floats(-1.5, 1.5),
        alpha=st.floats(0.01, 1.0),
    )
    def test_table_is_the_reference_designs_table(
        self, n_elements, path_count, spacing_wl, theta, alpha
    ):
        cfg = reference_config(n_elements, path_count, spacing_wl)
        schedule = design_schedule(cfg, theta, alpha)
        elements = design_elements(cfg, theta, alpha)
        for got, want in zip(schedule._pulse_table, pulse_table(elements), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        # so the element rules that validate skips for a stored table hold
        assert validate(ArraySchedule(cfg, alpha, theta, elements)) == []
        assert "elements" not in vars(schedule)
        assert schedule.elements == elements

    @pytest.mark.parametrize("path_count", [4, 8])
    def test_elements_view_keeps_equality_hash_repr_and_pickle(self, path_count):
        cfg = reference_config(7, path_count, 0.37)
        schedule = design_schedule(cfg, -0.4, 0.3)
        reference = reference_schedule(cfg, -0.4, 0.3, schedule.onset_step)
        assert pickle.dumps(schedule) == pickle.dumps(reference)
        assert "elements" in vars(schedule)
        assert schedule == reference and hash(schedule) == hash(reference)
        assert repr(schedule) == repr(reference)
        assert validate(schedule) == [] == validate(dataclasses.replace(schedule))

    def test_stored_table_is_read_only(self):
        onsets, widths, rotation = design_schedule(reference_config(), THETA_20, 0.5)._pulse_table
        for column in (onsets, widths, rotation):
            with pytest.raises(ValueError, match="read-only"):
                column[0, 0] = 0.5

    @pytest.mark.parametrize("analyse", [
        lambda s: compute_spectrum(s, 25),
        lambda s: sideband_level(s, 9),
        lambda s: radiation_pattern(s, [1, -3, 5, -7], np.linspace(-1.5, 1.5, 181)),
        total_power,
        harmonic_efficiency,
    ], ids=["spectrum", "sideband", "pattern", "total_power", "efficiency"])
    def test_analysis_never_builds_the_elements(self, analyse):
        schedule = design_schedule(reference_config(16, 8), THETA_20, 0.4)
        analyse(schedule)
        assert "elements" not in vars(schedule)

    def test_sweeps_never_build_the_elements(self, monkeypatch):
        designed = []

        def recorded(*args):
            designed.append(design_schedule(*args))
            return designed[-1]

        for module in (circuit_model, modulation):
            monkeypatch.setattr(module, "design_schedule", recorded)
        cfg = reference_config(8, 8)
        pbo_sweep(cfg, None, THETA_20, [1.0, 0.5, 0.1])
        plans = [SymbolPlan(1 + 1j, 0.5, pi / 4, 1.0), SymbolPlan(-0.5j, 0.2, -pi / 2, 0.5)]
        simulate_constellation(plans, cfg, THETA_20)
        assert len(designed) == 2
        assert all("elements" not in vars(schedule) for schedule in designed)

    def test_replaced_copy_takes_the_element_route(self):
        cfg = reference_config(12, 8)
        schedule = design_schedule(cfg, THETA_20, 0.5)
        analysis_bytes(schedule)
        narrowed = dataclasses.replace(schedule, duty_ratio=0.25)
        assert narrowed.onset_step is None
        assert set(vars(narrowed)) <= {f.name for f in dataclasses.fields(narrowed)}
        reference = dataclasses.replace(reference_schedule(cfg, THETA_20, 0.5), duty_ratio=0.25)
        assert analysis_bytes(narrowed) == analysis_bytes(reference)

    @pytest.mark.parametrize("clone", [lambda s: pickle.loads(pickle.dumps(s)), copy.copy,
                                       copy.deepcopy], ids=["pickle", "copy", "deepcopy"])
    def test_clones_carry_the_fields_alone(self, clone):
        cfg = reference_config(10, 4, 0.45)
        schedule = design_schedule(cfg, -0.3, 0.6)
        analysis_bytes(schedule)
        copied = clone(schedule)
        assert set(vars(copied)) <= {f.name for f in dataclasses.fields(copied)}
        assert copied.onset_step == schedule.onset_step
        reference = reference_schedule(cfg, -0.3, 0.6, schedule.onset_step)
        assert copied == reference
        assert analysis_bytes(copied) == analysis_bytes(reference) == analysis_bytes(schedule)

    @pytest.mark.parametrize("theta, duty, message", [
        (pi / 2, 1.0, "steer_angle must lie strictly inside"),
        (float("nan"), 1.0, "steer_angle must lie strictly inside"),
        (THETA_20, 0.0, r"duty_ratio must lie in \(0, 1\]"),
        (THETA_20, float("nan"), r"duty_ratio must lie in \(0, 1\]"),
    ])
    def test_rejections_keep_their_messages(self, theta, duty, message):
        with pytest.raises(ValueError, match=message):
            design_schedule(reference_config(), theta, duty)

    def test_overflowing_onsets_raise_before_numpy_warns(self):
        # finite beta_d, but n * beta_d * sin(theta) overflows at the last
        # elements
        cfg = reference_config(2048, spacing_wl=1e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="pulse train timings must be finite"):
                design_schedule(cfg, THETA_20, 1.0)
