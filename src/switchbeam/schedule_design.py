"""Closed-form construction of harmonic-suppressing switching schedules.

The design stacks four timing rules on top of a per-element steering onset:

* the negative pulse trails the positive pulse by half a period, which kills
  every even harmonic;
* the peak pulse width is a third of the period, scaled by the duty-cycle
  ratio ``alpha`` for power back-off;
* the two quadrature paths repeat the in-phase pair a quarter period earlier,
  cancelling every harmonic congruent to 3 mod 4;
* the opposed-phase pair is offset by a third of a period, which cancels the
  m = -3 harmonic (and with it every odd multiple of 3) at any duty ratio.

In 8-path mode a second quartet, rotated 45 degrees and shifted by 3/40 of a
period, additionally cancels the m = 5 harmonic.

``PBO_SHIFT`` is the third rule's offset.  Two equal-width trains on
phase-opposed paths cancel their m-th harmonic when their onsets differ by
k/|m| periods for an integer k (k = 0 is degenerate: identical trains cancel
nothing).  The design takes m = -3, k = -1, i.e. -1/3 of a period, which
removes the strongest harmonic that survives in power back-off.  All timing
here is in periods; a schedule carries no seconds.
"""

from __future__ import annotations

from math import isfinite, pi, sin

import numpy as np

from .array_model import (
    MAX_ELEMENTS, ArrayConfig, ArraySchedule, _schedule_table, validate, wrap_unit,
)

#: Carrier phases of the in-phase, quadrature and opposed paths, in radians.
FOUR_PATH_PHASES = (0.0, -pi / 2, -pi, -3 * pi / 2)

#: Offset of the quadrature paths, in periods.
QUADRATURE_SHIFT = -0.25

#: Offset of the second 8-path quartet, in periods (cancels m = 5).
EIGHT_PATH_SHIFT = 3.0 / 40.0


def steering_onset(n: int, steer_angle: float, config: ArrayConfig) -> float:
    """Positive-pulse onset (normalized by the period) that steers element n.

    Chosen so the first-harmonic contributions of all elements add in phase
    toward ``steer_angle``.  Element indices are 0-based; an array of them
    gives an array of onsets.  An overflowing phase raises ValueError.
    """
    if not abs(steer_angle) < pi / 2:
        raise ValueError("steer_angle must lie strictly inside (-pi/2, pi/2)")
    beta_d = config.wavenumber * config.element_spacing
    # every n * beta_d is finite if the largest |n|'s is, and |sin| < 1
    if not isfinite(float(np.abs(n).max(initial=0)) * beta_d):
        raise ValueError("pulse train timings must be finite")
    return wrap_unit(0.5 * (n * beta_d * sin(steer_angle) / pi - 0.5))


#: Offset of the opposed-phase pair, in periods: k/|m| with m = -3, k = -1.
PBO_SHIFT = -1.0 / 3.0


def design_schedule(config: ArrayConfig, steer_angle: float, duty_ratio: float) -> ArraySchedule:
    """Build the full suppression-by-construction schedule for an array.

    Parameters
    ----------
    config : ArrayConfig
        Array geometry; ``config.path_count`` selects 4- or 8-path mode.
    steer_angle : float
        Target beam direction in radians for the first harmonic.
    duty_ratio : float
        Pulse-width scale ``alpha`` in (0, 1]; every train gets width
        ``alpha * T_p / 3``.

    Returns
    -------
    ArraySchedule
        It stores its read-only pulse table, which analysis reads, and builds
        its ``elements`` on their first read.  Its ``onset_step`` is the
        per-element steering step ``beta_d * sin(steer_angle) / (2 pi)`` in
        periods: every element's envelope is element 0's shifted by its
        index times this step.
    """
    if not 0 < duty_ratio <= 1:
        raise ValueError("duty_ratio must lie in (0, 1]")
    t1 = steering_onset(np.arange(config.n_elements), steer_angle, config)
    phases, rotation, shifts = _DESIGN_PATHS[config.path_count]
    # every pulse's onset before wrapping, its shifts added in the rules' order
    onsets = t1[:, None, None] + shifts[0]
    for shift in shifts[1:]:
        onsets += shift
    # ``wrap_unit`` in place: x - floor(x) has the bits of x % 1.0, faster
    onsets -= np.floor(onsets)
    onsets -= onsets >= 1.0
    widths = np.full(onsets.shape[:2], duty_ratio / 3.0)
    rotation = rotation[:config.n_elements]
    onsets.flags.writeable = widths.flags.writeable = False

    schedule = ArraySchedule(config, duty_ratio, steer_angle)
    del vars(schedule)["elements"]  # built from the table on the first read
    vars(schedule).update(_pulse_table=(onsets, widths, rotation), _path_phases=phases)
    problems = validate(schedule)  # the config's: the table is valid by construction
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    beta_d = config.wavenumber * config.element_spacing
    object.__setattr__(schedule, "onset_step", beta_d * sin(steer_angle) / (2 * pi))
    return schedule


def _design_paths(path_count: int):
    """The carrier phases of a design's paths, their rotations as a read-only
    ``MAX_ELEMENTS`` x paths view of one row, and the shifts of each path's
    two pulses (paths x 2) from the steering onset:
    one array per rule, in the order the design adds them (opposed pair,
    quadrature, second quartet, then half a period for the negative pulse).
    A rule that leaves a pulse alone adds +0.0, which keeps its bits: no
    onset is -0.0."""
    rules = [[0.0, 0.0, PBO_SHIFT, PBO_SHIFT], [0.0, QUADRATURE_SHIFT, 0.0, QUADRATURE_SHIFT]]
    phases = FOUR_PATH_PHASES
    if path_count == 8:
        rules = [rule * 2 for rule in rules] + [[0.0] * 4 + [EIGHT_PATH_SHIFT] * 4]
        phases += tuple(p - pi / 4 for p in FOUR_PATH_PHASES)
    shifts = np.concatenate((np.repeat(np.array(rules)[..., None], 2, axis=2),
                             np.tile([0.0, 0.5], (1, path_count, 1))))
    rotation = np.exp(1j * np.array(phases))
    shifts.flags.writeable = rotation.flags.writeable = False
    return phases, np.broadcast_to(rotation, (MAX_ELEMENTS, path_count)), shifts


#: ``_design_paths`` of both path counts.
_DESIGN_PATHS = {k: _design_paths(k) for k in (4, 8)}


def _designed_tables(peak: ArraySchedule, duty_ratios):
    """``pulse_table`` of ``design_schedule`` at every duty ratio, bit for bit:
    the designed peak schedule's table with every width ``duty_ratio / 3``."""
    onsets, widths, rotation = _schedule_table(peak)
    for duty_ratio in duty_ratios:
        if not 0 < duty_ratio <= 1:
            raise ValueError("duty_ratio must lie in (0, 1]")
        yield onsets, np.full_like(widths, duty_ratio / 3.0), rotation


def suppressed_harmonics(path_count: int, m_max: int) -> list[int]:
    """Harmonic indices the designed schedule suppresses, for |m| <= m_max.

    The 4-path design removes every even harmonic, every multiple of 3, and
    every m congruent to 3 mod 4.  The 8-path design additionally removes m
    congruent to 5 mod 40 (in particular m = 5).  The rule set does not
    depend on the duty ratio: at a given alpha the pulse shape also nulls
    the harmonics with m*alpha/3 an integer, which are not listed here.
    """
    if path_count not in (4, 8):
        raise ValueError("path_count must be 4 or 8")
    out = []
    for m in range(-m_max, m_max + 1):
        if m % 2 == 0 or m % 3 == 0 or m % 4 == 3:
            out.append(m)
        elif path_count == 8 and m % 40 == 5:
            out.append(m)
    return out
