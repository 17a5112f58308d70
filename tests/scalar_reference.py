"""Scalar references for the vectorized analysis: one path, one element and
one harmonic at a time, as plain complex arithmetic.

``coefficient_matrix`` must give the bits of ``combined_coefficient`` at
every entry, and ``synthesize_envelope`` is the point-sampled envelope that
the segments, the filtered samples and the DFT checks compare against.
"""

from math import pi

import numpy as np

from switchbeam.array_model import ElementSchedule, PulseTrain, _train_pulses


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
