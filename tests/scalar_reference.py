"""Scalar references for the vectorized design and analysis: one path, one
element and one harmonic at a time, as plain Python and complex arithmetic.

``design_elements`` is the design loop whose ``pulse_table`` the schedule
stores, ``coefficient_matrix`` must give the bits of ``combined_coefficient``
at every entry, and ``synthesize_envelope`` is the point-sampled envelope that
the segments, the filtered samples and the DFT checks compare against.
``envelope_segments`` reads one element's segments off ``_segments``.
"""

from math import pi

import numpy as np

from switchbeam.array_model import (
    ElementSchedule,
    PulseTrain,
    _check_disjoint,
    _segments,
    _train_pulses,
    pulse_table,
)
from switchbeam.schedule_design import (
    EIGHT_PATH_SHIFT,
    FOUR_PATH_PHASES,
    PBO_SHIFT,
    QUADRATURE_SHIFT,
    steering_onset,
)


def design_elements(config, steer_angle: float, duty_ratio: float) -> tuple[ElementSchedule, ...]:
    """The element schedules of ``design_schedule``, built one element and
    one ``PulseTrain`` at a time: the stored pulse table must equal their
    ``pulse_table`` byte for byte."""
    width_norm = duty_ratio / 3.0
    elements = []
    for n in range(config.n_elements):
        t1 = steering_onset(n, steer_angle, config)
        base_onsets = (t1, t1 + QUADRATURE_SHIFT, t1 + PBO_SHIFT, t1 + PBO_SHIFT + QUADRATURE_SHIFT)
        phases = list(FOUR_PATH_PHASES)
        onsets = list(base_onsets)
        if config.path_count == 8:
            phases += [p - pi / 4 for p in FOUR_PATH_PHASES]
            onsets += [on + EIGHT_PATH_SHIFT for on in base_onsets]
        paths = tuple(
            (phase, PulseTrain(width_norm, onset, onset + 0.5))
            for phase, onset in zip(phases, onsets)
        )
        elements.append(ElementSchedule(n, paths))
    return tuple(elements)


def path_coefficient(train: PulseTrain, path_phase: float, m: int) -> complex:
    """Exact Fourier coefficient of one path's train at harmonic m.

    Integrates the two rectangular pulses in closed form and applies the
    path's carrier phase as a complex rotation.  For m = 0 the equal positive
    and negative pulse widths cancel exactly, so the result is 0.
    """
    if m == 0:
        return 0j
    w = 2j * pi * m

    def pulse(onset_norm: float) -> complex:
        return np.exp(-w * onset_norm) * (1.0 - np.exp(-w * train.width_norm)) / w

    return np.exp(1j * path_phase) * (pulse(train.onset_pos_norm) - pulse(train.onset_neg_norm))


def combined_coefficient(element: ElementSchedule, m: int) -> complex:
    """Per-element harmonic coefficient: the phase-rotated sum over paths."""
    return sum((path_coefficient(t, p, m) for p, t in element.paths), start=0j)


def synthesize_envelope(element: ElementSchedule, samples_per_period: int) -> np.ndarray:
    """Sample the element's combined complex baseband envelope over one period.

    The envelope is the sum over paths of ``exp(1j*phase)`` times the path's
    two-pulse train, sampled at bin midpoints (unbiased for rectangular
    pulses).  ``samples_per_period`` must be at least 64; overlapping pulses
    within a train raise ``ValueError``.
    """
    if samples_per_period < 64:
        raise ValueError("samples_per_period must be at least 64")
    t = (np.arange(samples_per_period) + 0.5) / samples_per_period
    env = np.zeros(samples_per_period, dtype=complex)
    for onset, width, weight in _train_pulses(element):
        env += weight * (((t - onset) % 1.0) < width)
    return env


def envelope_segments(element: ElementSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant form of the combined envelope on [0, 1).

    Returns
    -------
    (breaks, values)
        ``breaks`` is the sorted array of segment start times (the first is
        not necessarily 0); segment ``i`` spans ``[breaks[i], breaks[i+1])``
        (wrapping at 1) and the envelope equals ``values[i]`` throughout.
    """
    _check_disjoint((element,))
    edges, values = (row[0] for row in _segments(pulse_table((element,))))
    last = edges < np.append(edges[1:], np.inf)
    return edges[last], values[last]
