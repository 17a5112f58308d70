"""Core domain types for a switched transmitter array.

Each array element is fed through several phase-offset signal paths, and each
path is gated by a periodic two-pulse train: one positive-polarity pulse and
one negative-polarity pulse per modulation period.  This module holds the
data containers for the array geometry and its switching schedules, schedule
validation, the pulse table, and the filtered samples and segments of the
combined complex baseband envelope that the analytic spectrum code is
cross-checked against.  The array is uniform: no element carries a static
amplitude weight; pulse timing alone sets each element's amplitude.

Pulse widths and onsets are fractions of the modulation period (onsets in
[0, 1)); a schedule holds no seconds.  Every type is immutable and every
function is pure, so everything here is safe to share across threads and to
evaluate in parallel sweeps.  (A designed schedule stores its pulse table and
builds ``elements`` from it on first read, and ``harmonic_analysis`` caches the
coefficients of its last pass on a schedule: pure functions of its fields.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import ceil, floor, inf, isfinite, pi

import numpy as np

C_VACUUM = 299_792_458.0

#: Concrete realization of the "carrier much faster than modulation" regime.
MIN_FREQ_RATIO = 10.0

#: Designed schedules never widen a pulse beyond a third of the period.
MAX_WIDTH_NORM = 1.0 / 3.0

#: Largest array: its N x N pair matrices (coupling kernel, power Gram matrix)
#: then hold at most 2**22 entries, the bound on a pattern's steering matrix.
MAX_ELEMENTS = 1 << 11


def wrap_unit(x):
    """Reduce normalized times into [0, 1), guarding the x % 1.0 == 1.0 corner."""
    r = x % 1.0
    return r - (r >= 1.0)


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
    path_count : int
        Signal paths per element, 4 or 8.
    """

    n_elements: int
    element_spacing: float
    carrier_freq: float
    pulse_freq: float
    path_count: int = 4

    def __post_init__(self):
        for name in ("n_elements", "path_count"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
            object.__setattr__(self, name, int(count))
        if not all(isfinite(x) for x in (self.element_spacing, self.carrier_freq, self.pulse_freq)):
            raise ValueError("spacing and frequencies must be finite")
        if not 1 <= self.n_elements <= MAX_ELEMENTS:
            raise ValueError(f"n_elements must lie in [1, {MAX_ELEMENTS}]")
        if self.element_spacing <= 0:
            raise ValueError("element_spacing must be positive")
        if self.carrier_freq <= 0 or self.pulse_freq <= 0:
            raise ValueError("frequencies must be positive")
        if not isfinite(self.wavenumber * self.element_spacing):
            raise ValueError(f"element_spacing {self.element_spacing!r} m overflows beta*d")
        if self.path_count not in (4, 8):
            raise ValueError("path_count must be 4 or 8")

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
    """A complete switching plan: geometry plus one schedule per element.

    ``onset_step`` is set only by ``design_schedule``: the period fraction
    delta by which each element's envelope trails the previous one's, so
    that element n is element 0 shifted by n * delta.  The constructor does
    not take it, and ``dataclasses.replace``, documents and every other
    schedule carry ``None``; it takes no part in equality or ``repr``.
    ``design_schedule`` also stores its read-only pulse table, which analysis
    reads, and ``elements`` is built from it on first read.  Pickles and copies
    hold the fields alone, not the table or the coefficient rows cached on it.
    """

    config: ArrayConfig
    duty_ratio: float
    steer_angle: float
    elements: tuple[ElementSchedule, ...] = field(default_factory=tuple)
    onset_step: float | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    def __getattr__(self, name):
        # only names missing from the instance get here, among them the
        # elements of a designed schedule before their first read
        if name != "elements" or "_pulse_table" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        onsets, widths, _ = (column.tolist() for column in self._pulse_table)
        phases = self._path_phases
        object.__setattr__(self, "elements", tuple(
            ElementSchedule(n, [(p, PulseTrain(w, *on)) for p, w, on in zip(phases, *row)])
            for n, row in enumerate(zip(widths, onsets))))
        return self.elements

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def validate(schedule: ArraySchedule) -> list[str]:
    """Check every schedule invariant and return the violations found.

    An empty list means the schedule is well formed.  Each violation names
    the element, path, and rule; violations are data, not failures.
    """
    out = list(schedule.config.violations())
    cfg = schedule.config

    if not 0 < schedule.duty_ratio <= 1:
        out.append(f"schedule: duty_ratio {schedule.duty_ratio!r} outside (0, 1]")
    if "_pulse_table" in vars(schedule):
        # designed: one width, duty_ratio/3 <= T_p/3, distinct phases, pulses T_p/2 apart
        return out
    expected_width = schedule.duty_ratio / 3.0
    if len(schedule.elements) != cfg.n_elements:
        out.append(
            f"schedule: {len(schedule.elements)} element schedules for "
            f"{cfg.n_elements} configured elements"
        )

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


def pulse_table(elements) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten element schedules into an elements x K table of paths, K being
    the largest path count (at least 1): pulse onsets (elements x K x 2, the
    positive pulse first), widths and carrier rotations ``exp(1j * phase)``.

    A path's positive pulse is weighted by its rotation and its negative
    pulse by the negated rotation.  Shorter elements are padded with
    zero-width paths of zero rotation.
    """
    k = max([1] + [len(e.paths) for e in elements])
    table = np.array([[(t.onset_pos_norm, t.onset_neg_norm, t.width_norm, p, 1.0)
                       for p, t in e.paths] + [(0.0,) * 5] * (k - len(e.paths))
                      for e in elements], dtype=float).reshape(len(elements), k, 5)
    return table[..., :2], table[..., 2], np.exp(1j * table[..., 3]) * table[..., 4]


def _schedule_table(schedule: ArraySchedule) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pulse table ``design_schedule`` stored, else that of the elements,
    which raises ValueError unless there is one per configured element."""
    table = vars(schedule).get("_pulse_table")
    if table is not None:
        return table
    if len(schedule.elements) != schedule.config.n_elements:
        raise ValueError(f"schedule has {len(schedule.elements)} element schedules for "
                         f"{schedule.config.n_elements} configured elements")
    return pulse_table(schedule.elements)


def _check_disjoint(elements) -> None:
    """Raise ValueError if the two pulses of any train overlap."""
    for element in elements:
        if not all(t.pulses_disjoint() for _, t in element.paths):
            raise ValueError(f"element {element.element_index}: pulses within one train overlap")


def _train_pulses(element: ElementSchedule):
    """Onset, width and weight of every pulse, read from the paths, not from
    ``pulse_table``: the filtered samples are the table's independent check."""
    _check_disjoint((element,))
    for phase, train in element.paths:
        rotation = np.exp(1j * phase)
        yield train.onset_pos_norm, train.width_norm, rotation
        yield train.onset_neg_norm, train.width_norm, -rotation


def envelope_filtered_samples(element: ElementSchedule, samples_per_period: int) -> np.ndarray:
    """Envelope convolved with a unit-area triangular kernel of half-width one bin.

    These are exact integrals of the pulse geometry (interval arithmetic, no
    point sampling), evaluated at bin midpoints.  The triangular smoothing
    suppresses spectral aliasing of the discrete Fourier transform to third
    order in the bin width, which is what lets a finite-length DFT recover
    the analytic Fourier coefficients to high accuracy.

    Each pulse copy [a, a + width] is evaluated only on the bins whose
    kernel reaches it, widened by one bin on each side against rounding in
    the bin arithmetic.  Every other bin would add ``weight * (0 - 0)`` or
    ``weight * (1 - 1)``, an exact zero, and the factor multiplying the
    weight is real, so the slices give the bits of a pass over all bins.
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
    for onset, width, weight in _train_pulses(element):
        for shift in (-1.0, 0.0, 1.0):  # wrapped copies cover the kernel support
            a = onset + shift
            # bin i gains a nonzero term only if a*s - 1.5 < i < (a + width)*s + 0.5;
            # one more bin on each side covers rounding in that arithmetic
            lo = max(floor(a * s - 0.5) - 1, 0)
            hi = min(ceil((a + width) * s + 0.5) + 1, s)
            if lo < hi:
                c = centers[lo:hi]
                out[lo:hi] += weight * (kernel_cdf(c - a) - kernel_cdf(c - (a + width)))
    return out


def _segments(table) -> tuple[np.ndarray, np.ndarray]:
    """The piecewise-constant envelope of every element of a pulse table, as
    padded rows: the element's wrapped pulse edges, sorted, equal edges left
    in place and +inf after the last, and at the last edge of each run of
    equal edges the envelope's value up to the next edge (0 elsewhere).

    The zero-width paths that pad ragged path counts add no edge, but an
    element without paths keeps its padding path's edges at 0 (one segment
    of value 0).  Values add the pulse terms onto zero path by path, the
    positive pulse first, as a loop of ``+=`` would.  A time d past an onset
    is in the pulse if ``d - floor(d) < width``: the bits of ``d % 1.0``
    (both round d - floor(d) once), which numpy computes three times slower.
    A table row with overlapping pulses in one train raises ValueError.
    """
    onsets, widths, rotation = table
    gap = (onsets[..., 1] - onsets[..., 0]) % 1.0
    overlap = ((gap < widths) | (1.0 - gap < widths)).any(axis=1)
    if overlap.any():
        raise ValueError(f"element {overlap.argmax()}: pulses within one train overlap")
    n, k = widths.shape
    edges = np.concatenate([onsets, onsets + widths[..., None]], axis=2) % 1.0
    # padding paths come last, so path 0 is real unless the element has none
    real = widths > 0
    real[:, 0] = True
    edges[~real] = np.inf
    edges = np.sort(edges.reshape(n, 4 * k), axis=1)
    # a run's last edge starts a segment that ends at the next edge; the
    # row's last wraps to its first + 1
    upper = np.append(edges[:, 1:], np.full((n, 1), np.inf), axis=1)
    mids = np.where(edges < upper, 0.5 * (edges + np.minimum(upper, edges[:, :1] + 1.0)), np.nan)
    weights = np.stack((rotation, -rotation), axis=2)
    values = np.zeros(edges.shape, dtype=complex)
    for p, side in np.ndindex(k, 2):
        d = mids - onsets[:, p, side, None]
        inside = (d - np.floor(d)) < widths[:, p, None]
        values = values + weights[:, p, side, None] * inside
    return edges, values
