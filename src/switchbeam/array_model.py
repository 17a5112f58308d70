"""Core domain types for a switched transmitter array.

Each array element is fed through several phase-offset signal paths, and each
path is gated by a periodic two-pulse train: one positive-polarity pulse and
one negative-polarity pulse per modulation period.  This module holds the
data containers for the array geometry and its switching schedules, schedule
validation, and time-domain synthesis of the combined complex baseband
envelope.  The synthesized envelope is the numerical reference that the
analytic spectrum code is cross-checked against.

Pulse widths and onsets are fractions of the modulation period (onsets in
[0, 1)); a schedule holds no seconds.  Every type is immutable and every
function is pure, so everything here is safe to share across threads and to
evaluate in parallel sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, isfinite, pi

import numpy as np

C_VACUUM = 299_792_458.0

#: Concrete realization of the "carrier much faster than modulation" regime.
MIN_FREQ_RATIO = 10.0

#: Designed schedules never widen a pulse beyond a third of the period.
MAX_WIDTH_NORM = 1.0 / 3.0

#: Largest array: its N x N pair matrices (coupling kernel, power Gram matrix)
#: then hold at most 2**22 entries, the bound on a pattern's steering matrix.
MAX_ELEMENTS = 1 << 11


def wrap_unit(x: float) -> float:
    """Reduce a normalized time into [0, 1), guarding the x % 1.0 == 1.0 corner."""
    r = x % 1.0
    return r - 1.0 if r >= 1.0 else r


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and drive frequencies of a uniform linear array.

    Parameters
    ----------
    n_elements : int
        Number of radiating elements, isotropic and equally spaced.
    element_spacing : float
        Inter-element distance in meters.
    carrier_freq : float
        Carrier frequency in Hz.
    pulse_freq : float
        Switching-pulse repetition frequency in Hz.
    if_freq : float, optional
        Intermediate frequency in Hz; when present the pulse rate must exceed
        twice this value to avoid aliasing.
    excitations : tuple of float, optional
        Per-element amplitude weights; defaults to uniform unit excitation.
    path_count : int
        Signal paths per element, 4 or 8.
    """

    n_elements: int
    element_spacing: float
    carrier_freq: float
    pulse_freq: float
    if_freq: float | None = None
    excitations: tuple[float, ...] | None = None
    path_count: int = 4

    def __post_init__(self):
        if not all(isfinite(x) for x in (self.element_spacing, self.carrier_freq,
                                         self.pulse_freq, self.if_freq or 0.0)):
            raise ValueError("spacing and frequencies must be finite")
        if not 1 <= self.n_elements <= MAX_ELEMENTS:
            raise ValueError(f"n_elements must lie in [1, {MAX_ELEMENTS}]")
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")
        if self.carrier_freq <= 0 or self.pulse_freq <= 0:
            raise ValueError("frequencies must be positive")
        if self.path_count not in (4, 8):
            raise ValueError("path_count must be 4 or 8")
        if self.excitations is None:
            object.__setattr__(self, "excitations", (1.0,) * self.n_elements)
        else:
            object.__setattr__(self, "excitations", tuple(float(x) for x in self.excitations))
            if len(self.excitations) != self.n_elements:
                raise ValueError("excitations length must match n_elements")
            if not all(0 < x < inf for x in self.excitations):
                raise ValueError("excitations must be positive and finite")

    @property
    def wavelength(self) -> float:
        return C_VACUUM / self.carrier_freq

    @property
    def wavenumber(self) -> float:
        return 2 * pi / self.wavelength

    def violations(self) -> list[str]:
        """Soft invariants, reported as data rather than raised."""
        out = []
        if self.carrier_freq / self.pulse_freq < MIN_FREQ_RATIO:
            out.append(
                f"config: carrier/pulse frequency ratio "
                f"{self.carrier_freq / self.pulse_freq:.3g} below {MIN_FREQ_RATIO:g}"
            )
        if self.if_freq is not None and not self.pulse_freq > 2 * self.if_freq:
            out.append("config: pulse_freq must exceed twice if_freq to avoid aliasing")
        return out


def config_from_wavelengths(
    n_elements: int, spacing_wl: float, carrier_freq: float, pulse_freq: float, path_count: int
) -> ArrayConfig:
    """ArrayConfig with the element spacing given in wavelengths, as schedule
    documents and CLI flags give it."""
    if not 0 < carrier_freq < inf:
        raise ValueError(f"carrier frequency must be finite and positive, got {carrier_freq!r}")
    return ArrayConfig(
        n_elements=n_elements,
        element_spacing=spacing_wl * (C_VACUUM / carrier_freq),
        carrier_freq=carrier_freq,
        pulse_freq=pulse_freq,
        path_count=path_count,
    )


@dataclass(frozen=True)
class PulseTrain:
    """One path's gating train: a positive and a negative pulse per period.

    The train's value is +1 inside the positive pulse, -1 inside the negative
    pulse and 0 elsewhere.  Pulses may wrap across the period boundary.
    Width and onsets are fractions of the period.
    """

    width_norm: float
    onset_pos_norm: float
    onset_neg_norm: float

    def __post_init__(self):
        if not all(isfinite(x) for x in (self.width_norm, self.onset_pos_norm,
                                         self.onset_neg_norm)):
            raise ValueError("pulse train timings must be finite")
        if self.width_norm <= 0:
            raise ValueError("width must be positive")
        object.__setattr__(self, "onset_pos_norm", wrap_unit(self.onset_pos_norm))
        object.__setattr__(self, "onset_neg_norm", wrap_unit(self.onset_neg_norm))

    def pulses_disjoint(self) -> bool:
        """True when the two pulses do not overlap on the circle."""
        gap = wrap_unit(self.onset_neg_norm - self.onset_pos_norm)
        return gap >= self.width_norm and (1.0 - gap) >= self.width_norm


@dataclass(frozen=True)
class ElementSchedule:
    """All path drives of one array element.

    ``paths`` is a sequence of ``(path_phase, train)`` pairs; the phase is the
    path's carrier phase in radians and enters the combined envelope as the
    complex rotation ``exp(1j * path_phase)`` applied to its train.
    """

    element_index: int
    paths: tuple[tuple[float, PulseTrain], ...]

    def __post_init__(self):
        paths = tuple((float(p), t) for p, t in self.paths)
        if not all(isfinite(p) for p, _ in paths):
            raise ValueError(f"element {self.element_index}: path phases must be finite")
        object.__setattr__(self, "paths", paths)


@dataclass(frozen=True)
class ArraySchedule:
    """A complete switching plan: geometry plus one schedule per element."""

    config: ArrayConfig
    duty_ratio: float
    steer_angle: float
    elements: tuple[ElementSchedule, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


def validate(schedule: ArraySchedule) -> list[str]:
    """Check every schedule invariant and return the violations found.

    An empty list means the schedule is well formed.  Each violation names
    the element, path, and rule; violations are data, not failures.
    """
    out = list(schedule.config.violations())
    cfg = schedule.config

    if not 0 < schedule.duty_ratio <= 1:
        out.append(f"schedule: duty_ratio {schedule.duty_ratio!r} outside (0, 1]")
    if len(schedule.elements) != cfg.n_elements:
        out.append(
            f"schedule: {len(schedule.elements)} element schedules for "
            f"{cfg.n_elements} configured elements"
        )

    expected_width = schedule.duty_ratio / 3.0
    for element in schedule.elements:
        tag = f"element {element.element_index}"
        if len(element.paths) != cfg.path_count:
            out.append(f"{tag}: {len(element.paths)} paths, expected {cfg.path_count}")
        phases = [p for p, _ in element.paths]
        if len(set(phases)) != len(phases):
            out.append(f"{tag}: phases not distinct")
        widths = {t.width_norm for _, t in element.paths}
        if len(widths) > 1:
            out.append(f"{tag}: trains do not share a common width")
        for i, (_, train) in enumerate(element.paths):
            ptag = f"{tag} path {i}"
            if train.width_norm > MAX_WIDTH_NORM + 1e-12:
                out.append(f"{ptag}: width exceeds T_p/3")
            if abs(train.width_norm - expected_width) > 1e-12:
                out.append(
                    f"{ptag}: width {train.width_norm:.6g} does not equal "
                    f"duty_ratio*T_p/3 = {expected_width:.6g}"
                )
            if not train.pulses_disjoint():
                out.append(f"{ptag}: positive and negative pulses overlap")
    return out


def _pulse_list(element: ElementSchedule) -> list[tuple[float, float, complex]]:
    """Flatten an element schedule into (onset_norm, width_norm, weight) pulses."""
    pulses = []
    for phase, train in element.paths:
        if not train.pulses_disjoint():
            raise ValueError(
                f"element {element.element_index}: pulses within one train overlap"
            )
        w = complex(np.exp(1j * phase))
        pulses.append((train.onset_pos_norm, train.width_norm, w))
        pulses.append((train.onset_neg_norm, train.width_norm, -w))
    return pulses


def synthesize_envelope(element: ElementSchedule, samples_per_period: int) -> np.ndarray:
    """Sample the element's combined complex baseband envelope over one period.

    The envelope is the sum over paths of ``exp(1j*phase)`` times the path's
    two-pulse train.  Samples are taken at bin midpoints, which is unbiased
    for rectangular pulses.

    Parameters
    ----------
    element : ElementSchedule
    samples_per_period : int
        Number of equally spaced samples, at least 64.

    Returns
    -------
    numpy.ndarray
        Complex array of length ``samples_per_period``.
    """
    if samples_per_period < 64:
        raise ValueError("samples_per_period must be at least 64")
    t = (np.arange(samples_per_period) + 0.5) / samples_per_period
    env = np.zeros(samples_per_period, dtype=complex)
    for onset, width, weight in _pulse_list(element):
        env += weight * (((t - onset) % 1.0) < width)
    return env


def envelope_filtered_samples(element: ElementSchedule, samples_per_period: int) -> np.ndarray:
    """Envelope convolved with a unit-area triangular kernel of half-width one bin.

    These are exact integrals of the pulse geometry (interval arithmetic, no
    point sampling), evaluated at bin midpoints.  The triangular smoothing
    suppresses spectral aliasing of the discrete Fourier transform to third
    order in the bin width, which is what lets a finite-length DFT recover
    the analytic Fourier coefficients to high accuracy.
    """
    if samples_per_period < 64:
        raise ValueError("samples_per_period must be at least 64")
    s = samples_per_period
    h = 1.0 / s
    centers = (np.arange(s) + 0.5) / s

    def kernel_cdf(x):
        x = np.clip(x, -h, h)
        lower = (x + h) ** 2 / (2 * h * h)
        upper = 1.0 - (h - x) ** 2 / (2 * h * h)
        return np.where(x <= 0.0, lower, upper)

    out = np.zeros(s, dtype=complex)
    for onset, width, weight in _pulse_list(element):
        for shift in (-1.0, 0.0, 1.0):  # wrapped copies cover the kernel support
            a = onset + shift
            out += weight * (kernel_cdf(centers - a) - kernel_cdf(centers - (a + width)))
    return out


def envelope_segments(element: ElementSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant form of the combined envelope on [0, 1).

    Returns
    -------
    (breaks, values)
        ``breaks`` is the sorted array of segment start times (the first is
        not necessarily 0); segment ``i`` spans ``[breaks[i], breaks[i+1])``
        (wrapping at 1) and the envelope equals ``values[i]`` throughout.
    """
    pulses = _pulse_list(element)
    if not pulses:
        return np.array([0.0]), np.zeros(1, dtype=complex)
    edges = set()
    for onset, width, _ in pulses:
        edges.add(wrap_unit(onset))
        edges.add(wrap_unit(onset + width))
    breaks = np.array(sorted(edges))
    upper = np.append(breaks[1:], breaks[0] + 1.0)
    mids = 0.5 * (breaks + upper)
    values = np.zeros(len(breaks), dtype=complex)
    for onset, width, weight in pulses:
        values += weight * (((mids - onset) % 1.0) < width)
    return breaks, values
