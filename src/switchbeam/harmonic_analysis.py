"""Harmonic spectrum, array factors, radiated powers, and pattern synthesis.

The internals read a schedule only as its pulse table
(``array_model.pulse_table``: per path, its two onsets, width and carrier
rotation, ragged path counts padded with zero-rotation paths) and its config.
A designed schedule (``onset_step`` set: straight from ``design_schedule``)
stores its table, and element n runs element 0's pulses s_n periods later.
Every other schedule, ``dataclasses.replace`` copies included, is general.
Routes, and their accuracy:

* Coefficients (``_rows``); a ``range`` of harmonics stays a range down
  to the pass.  General: ``_coefficients``, the closed form of every pulse,
  with the bits of the scalar reference, a fresh pass at each call.
  Designed: ``_template_rows``, through the schedule's memo of its last
  pass, element 0 from its pulse sums (``_element_zero``, ~1e-16 of max|A|
  off the scalar reference) turned by each element's delay, ~1e-14 of
  max|A| off the general route for |m| <= 101.
* Sidebands (``sideband_level``).  Designed: ``_crossing_peaks``, the grid
  angles that bracket each harmonic's main lobes, when a Dirichlet bound
  shows that they hold every peak.  General, and a design that fails the
  bound: ``_sideband_peaks``, every harmonic over the whole grid.  Both are
  within ~1e-15 of the m = 1 peak of a long-double scan, bit for bit alike.
* Power.  General: the Gram pass (``total_power``, ``_grams``: the bits of
  a loop over element pairs, ~1e-16 / alpha relative) and the N x N
  quadratic form ``_harmonic_powers``.  Designed, in ``compute_spectrum``:
  lag sums over element 0, the total (``_lag_total_power``, ~1e-15
  relative) and each harmonic (``_template_powers``, ~1e-14 of the total).
  ``total_power``, ``harmonic_efficiency`` and ``harmonic_power`` take the
  general power route on any schedule.
* Patterns (``radiation_pattern``, ``array_factor``): ``_fields``, each
  harmonic's once, with the same bits whatever else is asked.  General:
  the theta x N table of exact exponentials (``_exp_table``), built for the
  call, and a unit column, with the bits of the rows times that table.
  Designed: the sideband scan's factored tables, no theta x N one, each
  |AF_m| within ~3e-14 of the m = 1 peak of the general route.
  ``array_factor`` takes the rows times the theta x N table on any schedule.

Three ``functools.lru_cache`` builders keep tables that calls reuse, each
keyed by the bytes (or range) it is built from: the steering tables
(``_steering_table``), element 0's pulse sums (``_scaled_sums``) and its
lag groups (``_offset_groups``).  Each holds read-only arrays, is filled by
calls alone and leaves every result's bits as they are.
``envelope_dft_coefficients`` is an independent DFT oracle for the coefficients.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import islice
from math import isfinite, pi

import numpy as np

from .array_model import (
    ArrayConfig,
    ArraySchedule,
    ElementSchedule,
    _frac,
    _schedule_table,
    _segments,
    envelope_filtered_samples,
)

#: Power ratios below this (relative to the total) are clamped to zero in
#: reports, so suppressed harmonics do not show up as -inf dB noise.
POWER_CLAMP_REL = 1e-15

#: Floor for reported pattern levels, in dB.
DB_FLOOR = -150.0

#: Default truncation when tabulating a spectrum; totals never rely on it.
DEFAULT_M_MAX = 101

#: Most onset exponentials (harmonics x elements x 2 per path) of one block
#: of a coefficient pass; a block holds one harmonic at least.
COEFFICIENT_BLOCK = 1 << 15

#: Largest block of the power Gram pass: schedules are taken with at most
#: this many pulse edges at a time, and their element pairs with at most
#: this many merged edges, so each working array holds about this many
#: numbers (64 KiB of complex ones; larger blocks raised the peak resident
#: memory of a back-off sweep by up to 10% and ran little faster).
GRAM_BLOCK = 1 << 12

#: Largest steering matrix (theta points x elements) built at once: 2**22
#: complex entries are 64 MiB.
MAX_STEERING_ENTRIES = 1 << 22

#: Most entries (theta points x columns) of a table in the steering cache,
#: which holds at most six, each at most 16 or ceil(N / 16) columns wide:
#: 2**18 complex entries are 4 MiB and hold the ceil(N / 16)-wide table of
#: the 0.05-degree sideband grid up to N = 1152.  ``sideband_level`` and a
#: designed pattern form their fields in blocks of at most a quarter of this.
_STEERING_MEMO_ENTRIES = 1 << 18

#: The angles ``sideband_level`` scans, read-only: -90 to 90 degrees in
#: steps of 0.05 degrees, 3601 in all, and their sines.
_SIDEBAND_THETA = np.deg2rad(np.arange(-90.0, 90.0 + 0.05 / 2, 0.05))
_SIDEBAND_SIN = np.sin(_SIDEBAND_THETA)
_SIDEBAND_THETA.flags.writeable = _SIDEBAND_SIN.flags.writeable = False

#: The sideband grid's steering-cache key: its bytes, whose hash Python keeps,
#: where ``tobytes`` would copy and hash 28.8 KB on every lookup.
_SIDEBAND_BYTES = _SIDEBAND_THETA.tobytes()

#: The grid's widest step in sin(theta), at broadside: sin(0.05 degrees).
_SIDEBAND_STEP = float(np.max(np.diff(_SIDEBAND_SIN)))


def _sinc(x) -> np.ndarray:
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def _frozen(*arrays) -> tuple:
    """Views of ``arrays`` made read-only, which no holder can make writeable."""
    for array in arrays:
        array.flags.writeable = False
    return tuple(array[...] for array in arrays)


def coefficient_matrix(schedule: ArraySchedule, ms) -> np.ndarray:
    """Combined coefficients of all elements at every harmonic in ``ms``.

    Returns a fresh ``(len(ms), n_elements)`` complex array equal, bit for
    bit, to a scalar path-by-path sum at each entry, save on a designed
    schedule: there element 0's column comes from its pulse sums and every
    other is element 0's turned by that element's delay
    (``_template_rows``), ~1e-14 of the largest |A| off the sum;
    ``dataclasses.replace(schedule)`` gives the sum's bits.  Each harmonic
    index must be an integer of magnitude at most 2**53, else ValueError.
    Harmonics are evaluated in blocks of at most ``COEFFICIENT_BLOCK``
    onset exponentials.  A designed schedule keeps
    the rows of its last coefficient pass (``_rows``), and a request they
    cover is copied out of them, with the same bits.
    """
    rows = _rows(schedule, ms)
    return rows if rows.flags.writeable else rows.copy()


def _rows(schedule: ArraySchedule, ms) -> np.ndarray:
    """``coefficient_matrix`` of ``ms``, read-only or fresh.  A general
    schedule (``onset_step`` None) gets a fresh ``_coefficients`` pass of its
    whole table and keeps nothing.  A designed one's pass is
    ``_template_rows``, through the schedule's memo: the read-only matrix of
    its last pass, keyed by harmonic.  A request the memo covers is indexed
    out of it (or is the memo, if it asks for its rows in order); any other
    runs one pass and its matrix replaces the memo.  A ``range`` equal to
    the one that made the pass is the memo at once, with no index check or
    lookup per harmonic; any other range is checked at its ends and reaches
    the pass as a range.  Each entry of a pass depends on its harmonic and
    element alone, so the bits are the same.
    The memo is a private attribute, not a field: equality, hash, repr and
    ``dataclasses.replace`` do not see it.  It is read and replaced as one
    (index, matrix, range) triple, so threads racing on one schedule at most
    repeat a pass.
    """
    index, matrix, request = getattr(schedule, "_coefficient_memo", ({}, None, None))
    if type(ms) is range and ms == request:
        return matrix
    m = _harmonic_indices(ms)
    if schedule.onset_step is None:
        return _coefficients(_schedule_table(schedule), m)
    keys = m if type(m) is range else m.tolist()
    if matrix is not None:
        at = [index.get(key) for key in keys]
        if None not in at:
            return matrix if at == list(range(len(matrix))) else matrix[at]
    matrix = _template_rows(_schedule_table(schedule), m)
    matrix.flags.writeable = False
    memo = (dict(zip(keys, range(len(keys)))), matrix, ms if type(ms) is range else None)
    object.__setattr__(schedule, "_coefficient_memo", memo)
    return matrix


def _harmonic_indices(ms) -> np.ndarray | range:
    """``ms`` as floats (a range as itself), each checked to be an integer with |m| <= 2**53."""
    message = "harmonic indices must be finite integers with |m| <= 2**53"
    if type(ms) is range:
        if ms and max(abs(ms[0]), abs(ms[-1])) > 2**53:
            raise ValueError(message)
        return ms
    try:
        m = np.asarray(ms, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(message) from None
    if not ((np.abs(m) < 2.0**53) & (m == np.floor(m))).all():
        # floats hold every integer up to 2**53, but 2**53 + 1 rounds to it
        given = np.asarray(ms)
        if not (((given >= -2**53) & (given <= 2**53)).all() and (m == np.floor(m)).all()):
            raise ValueError(message)
    return m


def _coefficients(table, ms) -> np.ndarray:
    """``coefficient_matrix`` of a pulse table: one column per table row.

    ``ms`` must hold integers, taken in order in blocks of at most
    ``COEFFICIENT_BLOCK`` onset exponentials.  Every entry is the scalar
    reference ``combined_coefficient`` in ``tests/scalar_reference.py`` as a
    broadcast, each exponential and complex product as that code rounds it,
    so it has that code's bits.
    """
    # per path: onsets (positive, negative), width and carrier rotation
    onsets, width, rotation = table
    # axes (onset, path, harmonic, element): each operation below runs along
    # whole rows of elements, and the paths are added plane by plane
    onsets = onsets.transpose(2, 1, 0)[:, :, None]
    width = width.T[:, None]
    rot_r, rot_i = rotation.real.T[:, None], rotation.imag.T[:, None]
    m = np.asarray(ms, dtype=float)
    out = np.empty((m.size, onsets.shape[-1]), dtype=complex)
    rows = max(1, COEFFICIENT_BLOCK // max(1, onsets.size))
    for start in range(0, m.size, rows):
        block = slice(start, start + rows)
        # exp(-jw t) of both onsets (2, k, m, n) and of the width (k, m, n)
        w, inv_w, e = _onset_exponentials(onsets, m[block])
        f = np.exp(-1j * w * width)
        f_r, f_i = 1.0 - f.real, -f.imag
        e_r, e_i = e.real, e.imag
        # pulse = exp(-jw onset) (1 - exp(-jw width)) / (jw), with every
        # complex product written out as the scalar code rounds it
        p_r = e_r * f_r - e_i * f_i
        p_i = e_r * f_i + e_i * f_r
        pulse_r, pulse_i = p_i * inv_w, -p_r * inv_w
        d_r, d_i = pulse_r[0] - pulse_r[1], pulse_i[0] - pulse_i[1]
        # rotate by the carrier phase and add the paths in order (cumsum,
        # unlike sum, never regroups the additions)
        out.real[block] = np.cumsum(rot_r * d_r - rot_i * d_i, axis=0)[-1]
        out.imag[block] = np.cumsum(rot_r * d_i + rot_i * d_r, axis=0)[-1]
    return out


def _onset_exponentials(onsets: np.ndarray, ms: np.ndarray):
    """w = 2 pi m (a column), 1/w (0 at m = 0) and exp(-jw t) for every
    onset t of an (onset, path, 1, element) array."""
    w = 2 * pi * ms[:, None]
    # 1/(jw) is (0, -1/w); m = 0 gets 0, its coefficient being exactly 0
    inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0)
    return w, inv_w, np.exp(-1j * w * onsets)


def _element_zero(table, ms) -> np.ndarray:
    """A[m, 0] of a designed table's first row, from its pulse sums.

    With w = 2 pi m and x = w u, u the row's one width,
    A[m, 0] = S(m) (1 - e^(-jx)) / (jw), where S(m) is the sum over its
    paths p, in path order, of r_p (e^(-jw o_p+) - e^(-jw o_p-)): S+(|m|)
    for m >= 0, S-(|m|) for m < 0.  S(m) / w, which the duty ratio does not
    change, comes from the ``_scaled_sums`` cache, keyed by the row's onsets
    and rotations and a block of harmonics whose size does not depend on the
    element count.  1 - e^(-jx) is taken as 2 sin^2(x / 2) + j sin x, which
    keeps its relative precision at any width, where 1 - cos x would not.
    Each entry depends on its m alone and agrees with the scalar reference
    to ~1e-16 of the largest |A| for alpha >= 0.1.
    """
    onsets, width, rotation = (column[0] for column in table)
    row = onsets.tobytes(), rotation.tobytes()
    out = np.empty(len(ms), dtype=complex)
    size = max(1, COEFFICIENT_BLOCK // onsets.size)
    for start in range(0, len(ms), size):
        block = ms[start:start + size]
        w, s = _scaled_sums(*row, block if type(block) is range else block.tobytes())
        # A = (S / w) (sin x - 2j sin^2(x / 2)), in real arithmetic
        x = w * width[0]
        f_r, f_i = np.sin(x), -2.0 * np.sin(0.5 * x) ** 2
        out.real[start:start + size] = s.real * f_r - s.imag * f_i
        out.imag[start:start + size] = s.real * f_i + s.imag * f_r
    return out


# a block of at most COEFFICIENT_BLOCK // (2K) harmonics keeps 32 bytes per
# harmonic (key, w and S(m) / w): eight hold at most 1 MiB (4 paths)
@functools.lru_cache(maxsize=8)
def _scaled_sums(onsets: bytes, rotation: bytes, block) -> tuple[np.ndarray, np.ndarray]:
    """w = 2 pi m and S(m) / w (0 at m = 0) of ``_element_zero``, read-only,
    at the harmonics ``block`` (a range, or float bytes) of the row whose
    onsets (paths x 2) and rotations are ``onsets`` and ``rotation``, as
    bytes: one exponential per onset and harmonic, the paths added in order."""
    onsets = np.frombuffer(onsets).reshape(-1, 2)
    rotation = np.frombuffer(rotation, dtype=complex)
    m = np.asarray(block, dtype=float) if type(block) is range else np.frombuffer(block)
    inv_w, e = _onset_exponentials(onsets.T[:, :, None, None], m)[1:]
    d_r, d_i = (e.real[0] - e.real[1])[..., 0], (e.imag[0] - e.imag[1])[..., 0]
    r_r, r_i = rotation.real[:, None], rotation.imag[:, None]
    s = np.empty(m.size, dtype=complex)
    # cumsum, unlike sum, adds the paths in order
    s.real = np.cumsum(r_r * d_r - r_i * d_i, axis=0)[-1] * inv_w[:, 0]
    s.imag = np.cumsum(r_r * d_i + r_i * d_r, axis=0)[-1] * inv_w[:, 0]
    return _frozen(2 * pi * m, s)


def _template_rows(table, ms) -> np.ndarray:
    """``coefficient_matrix`` of a designed schedule's pulse table, from
    element 0's coefficients (``_element_zero``).

    Element n runs element 0's pulses s_n periods later, so
    A[m, n] = A[m, 0] e^(-j 2 pi ((|m| s_n) mod 1)), conjugated for m < 0.
    s_n is read from the table, (onsets[n, 0, 0] - onsets[0, 0, 0]) mod 1,
    not taken as n * ``onset_step``, whose rounding grows with m * n.
    The rows agree with ``_coefficients`` of the whole table to ~1e-14 of
    the largest |A| for |m| <= 101, each path's onsets having been rounded
    on their own.  ``ms``, a range or an array, goes in order in blocks of at
    most ``COEFFICIENT_BLOCK`` entries, each with one exponential per element
    and distinct |m| of the block (``np.unique``): a row's bits depend on its
    m alone, and no table spans the |m| between far-apart harmonics.
    """
    a0 = _element_zero(tuple(column[:1] for column in table), ms)
    onsets = table[0]
    shift = _frac(onsets[1:, 0, 0] - onsets[0, 0, 0])
    m = np.arange(ms.start, ms.stop, ms.step) if type(ms) is range else ms
    out = np.empty((len(m), len(onsets)), dtype=complex)
    out[:, 0] = a0
    rows = max(1, COEFFICIENT_BLOCK // len(onsets))
    for start in range(0, len(m), rows):
        block = slice(start, start + rows)
        mags, at = np.unique(np.abs(m[block]), return_inverse=True)
        turn = np.exp(-2j * pi * _frac(np.multiply.outer(mags, shift)))[at]
        # conjugated for m < 0, and multiplied in real arithmetic, so that an
        # entry's bits do not depend on its place in the block
        t_r, t_i = turn.real, turn.imag
        np.negative(t_i, out=t_i, where=(m[block] < 0)[:, None])
        a_r, a_i = a0.real[block, None], a0.imag[block, None]
        out.real[block, 1:] = a_r * t_r - a_i * t_i
        out.imag[block, 1:] = a_r * t_i + a_i * t_r
    return out


def coefficient_vector(schedule: ArraySchedule, m: int) -> np.ndarray:
    """Combined coefficients of all elements at harmonic m."""
    return coefficient_matrix(schedule, [m])[0]


@dataclass(frozen=True)
class HarmonicCoefficient:
    harmonic_index: int
    per_element: np.ndarray


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Tabulated spectrum: coefficients and powers for |m| <= m_max.

    ``total_power`` comes from the exact time-domain integral, so the sum of
    the tabulated powers can only fall short of it (truncation loses power,
    never creates it).  For a designed schedule the total and the powers are
    lag sums, which agree with ``total_power()`` to ~1e-15 relative and with
    ``harmonic_power()`` to ~1e-14 of the total, not bit for bit.  The
    coefficients are bit for bit those of ``coefficient_matrix`` (on a
    designed schedule, its template rows), each ``per_element`` a read-only
    row of one matrix.
    """

    coefficients: dict[int, HarmonicCoefficient]
    powers: dict[int, float]
    total_power: float
    efficiency: float


def _coupling_kernel(config: ArrayConfig) -> np.ndarray:
    """sinc(beta d (a - b)) for every element pair (a, b)."""
    n = np.arange(config.n_elements)
    beta_d = config.wavenumber * config.element_spacing
    return _sinc(beta_d * (n[:, None] - n[None, :]))


def _harmonic_powers(kernel: np.ndarray, matrix: np.ndarray, ms) -> np.ndarray:
    """Radiated powers of the harmonics ``ms``, one per row of ``matrix``.

    ``kernel`` is the config's ``_coupling_kernel``, real symmetric, so each
    quadratic form is real up to rounding; a residual imaginary part above
    1e-9 of the diagonal indicates a symmetry bug and raises.
    """
    values = np.einsum("mn,ns,ms->m", matrix, kernel, matrix.conj())
    scales = np.einsum("mn,nn->m", np.abs(matrix) ** 2, kernel).real
    bad = np.flatnonzero((scales > 0) & (np.abs(values.imag) > 1e-9 * scales))
    if bad.size:
        i = bad[0]
        raise RuntimeError(
            f"harmonic_power(m={ms[i]}): imaginary residue {values.imag[i]:.3e} exceeds tolerance"
        )
    return values.real


def harmonic_power(schedule: ArraySchedule, m: int) -> float:
    """Total radiated power of the m-th harmonic.

    Evaluates the spatial power integral over element pairs with the
    unnormalized sinc coupling kernel.
    """
    return float(_harmonic_powers(_coupling_kernel(schedule.config), _rows(schedule, [m]), [m])[0])


def total_power(schedule: ArraySchedule) -> float:
    """Total radiated power, via exact time-domain integration.

    Integrates the product of combined envelopes over one period for every
    element pair using their piecewise-constant forms (no sampling error) and
    contracts with the sinc coupling kernel.  Equals the full harmonic-power
    sum by Parseval; truncated sums approach it from below.  This is
    ``_total_powers`` on the schedule's pulse table: all pairs are merged and
    integrated in blocks of one vectorized pass (``_grams``), with the bits of
    a loop that integrates one pair at a time.
    """
    return _total_powers(_coupling_kernel(schedule.config), _schedule_table(schedule))[0]


def _total_powers(kernel: np.ndarray, table) -> list[float]:
    """``total_power`` of each schedule stacked in a pulse table: one
    ``_grams`` pass, each Gram matrix contracted with the coupling kernel."""
    grams = _grams(table, len(table[1]) // len(kernel))
    return [float(np.sum(kernel * gram).real) for gram in grams]


def _grams(table, count: int) -> np.ndarray:
    """Power Gram matrices of ``count`` schedules of one size, stacked in a
    pulse table: G[s, a, b] is the integral over one period of
    E_a(t) * conj(E_b(t)) for elements a and b of schedule s.

    Every element pair (a, b), a <= b, of each schedule is a row, and a block
    of at most ``GRAM_BLOCK`` merged edges is integrated at once.  The
    result equals, bit for bit, a loop that merges the two elements' breaks
    with 0 and 1 (``np.unique``), looks both values up at each segment's
    midpoint (``searchsorted(breaks, mid, side="right") - 1``, -1 wrapping to
    the last segment) and takes ``np.sum`` of ``va * conj(vb) * lengths``:

    * merge: each row lays both elements' padded edge rows (``_segments``)
      and 0, 1 and inf into one block row and sorts it.  The last entry of
      each run of equal entries is a break of the union; each one below 1.0
      starts a segment whose ``hi`` is the next entry.
    * counts: a's edges count in a low bit field and b's in a high one of
      one running sum, from the offsets of a and b in a value table whose
      column 0 holds each element's last value (the wrap before its first
      edge).  A run's end counts all its equal edges, in any order.
    * edges one ulp apart: the midpoint can round onto the upper edge, and
      ``searchsorted`` on it then counts that edge too, so the counts are
      taken at the end of the next run whenever ``0.5 * (lo + hi) == hi``.
    * sum: numpy's pairwise summation depends on the length, so the rows are
      summed with ``np.add.reduce`` in groups of equal segment count.
    * temporary elision: on operands of 256 KiB or more numpy would evaluate
      ``va * np.conj(vb) * lengths`` in place with the operands swapped, and
      a complex multiply that uses FMA rounds the imaginary part of the
      swapped product differently, so the products are explicit
      ``np.multiply`` calls (the loop's own swap from 16384 segments on).
    * diagonal: the loop stored each integral above the diagonal and its
      conjugate below and on it, and so does the Gram matrix here.  With
      FMA the diagonal's imaginary parts are rounding residues, not zeros.
    * ragged path counts: ``_segments`` gives the padding paths no edge.

    ``total_power`` reads only real parts, which neither the elision nor the
    diagonal can change; the Gram matrix keeps the loop's bits all the same.
    """
    edges, values = _segments(table)
    n, width = len(edges) // count, edges.shape[1]
    last = values[np.arange(len(edges)), np.sum(np.isfinite(edges), axis=1) - 1]
    lookup = np.concatenate([last[:, None], values], axis=1).ravel()
    upper_i, upper_j = np.triu_indices(n)
    n_rows = count * len(upper_i)
    grams = np.zeros(count * n * n, dtype=complex)
    # a row merges two padded edge rows with 0, 1 and inf
    step = max(1, GRAM_BLOCK // (2 * width + 2))
    for start in range(0, n_rows, step):
        schedule, pair = np.divmod(np.arange(start, min(start + step, n_rows)), len(upper_i))
        i, j = upper_i[pair], upper_j[pair]
        a, b = schedule * n + i, schedule * n + j
        integrals = _pair_integrals(a, b, edges, lookup)
        grams[a * n + j] = integrals
        grams[b * n + i] = np.conj(integrals)
    return grams.reshape(count, n, n)


def _pair_integrals(a, b, edges, lookup) -> np.ndarray:
    """Integral over one period of E_a(t) * conj(E_b(t)) for every row (a, b),
    ``lookup`` being the flat value table of ``_grams``."""
    width = edges.shape[1]
    cols = 2 * width + 3
    merged = np.empty((len(a), cols))
    merged[:, :width], merged[:, width:-3], merged[:, -3:] = edges[a], edges[b], (0.0, 1.0, np.inf)
    order = merged.argsort(axis=1, kind="stable")  # merges the sorted rows fastest
    merged = merged.take(order + np.arange(0, merged.size, cols)[:, None]).ravel()
    # a's edges count in the low field, b's in the high one; each row's first
    # entry moves the sum from the previous row's end to its ``lookup`` offsets
    shift = (lookup.size - 1).bit_length()
    tags = np.repeat(np.array([1, 1 << shift, 0], "i4" if shift < 16 else "i8"), [width, width, 3])
    offset = (a + (b << shift)) * (width + 1)
    counts = tags[order]
    counts[:, 0] += offset
    counts[1:, 0] -= offset[:-1] + (width + (width << shift))
    counts = counts.cumsum(dtype=tags.dtype)
    # the last entry of each run of equal entries (a row's inf end closes
    # every run); each one below 1.0 starts a segment that ends at the next
    ends = (merged[:-1] < merged[1:]).nonzero()[0]
    starts = (merged[ends] < 1.0).nonzero()[0]
    at = ends[starts]
    lo, hi = merged[at], merged[at + 1]
    # edges <= mid: up to lo, or up to the next run's end if mid rounds onto hi
    seen = counts[ends[starts + (0.5 * (lo + hi) == hi)]]
    va, vb = lookup[seen & ((1 << shift) - 1)], lookup[seen >> shift]
    products = np.multiply(np.multiply(va, np.conj(vb)), hi - lo)
    segments = np.bincount(at // cols, minlength=len(a))
    offsets = segments.cumsum() - segments
    out = np.empty(len(a), dtype=complex)
    for n in set(segments.tolist()):
        same = (segments == n).nonzero()[0]
        out[same] = np.add.reduce(products[offsets[same, None] + np.arange(n)], axis=1)
    return out


def harmonic_efficiency(schedule: ArraySchedule) -> float:
    """Fraction of the total radiated power carried by the m = 1 harmonic."""
    return _harmonic_efficiencies(schedule.config, [_schedule_table(schedule)])[0]


def _harmonic_efficiencies(config: ArrayConfig, tables) -> list[float]:
    """``harmonic_efficiency`` of every pulse table of an iterable, each one
    schedule of ``config``, with the bits of one call per schedule.

    The tables are stacked in blocks of at most ``GRAM_BLOCK`` pulse
    edges (two per pulse; a larger schedule alone), and each block gets one
    ``_total_powers`` pass, one m = 1 ``_coefficients`` and one
    ``_harmonic_powers`` call, all with the one coupling kernel of the call.
    """
    tables = iter(tables)
    kernel = _coupling_kernel(config)
    size = max(1, GRAM_BLOCK // (4 * config.n_elements * config.path_count))
    out = []
    while block := list(islice(tables, size)):
        stacked = tuple(np.concatenate(column) for column in zip(*block))
        totals = _total_powers(kernel, stacked)
        if min(totals) <= 0:
            raise ValueError("zero radiated power")
        a1 = _coefficients(stacked, [1]).reshape(len(block), -1)
        powers = _harmonic_powers(kernel, a1, [1] * len(block))
        out.extend(float(p) / total for p, total in zip(powers, totals))
    return out


def _lag_weights(config: ArrayConfig) -> np.ndarray:
    """c_d = (N - d) * sinc(beta_d * d), the sum of the coupling kernel's d-th
    diagonal, for the lags d = 0 .. N-1, doubled for d > 0 to stand for the
    lag -d too: the lag sums below weight an even function of d by it."""
    lags = np.arange(config.n_elements)
    beta_d = config.wavenumber * config.element_spacing
    c = (config.n_elements - lags) * _sinc(beta_d * lags)
    c[1:] *= 2.0
    return c


@functools.lru_cache(maxsize=4)
def _offset_groups(onsets: bytes, rotation: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The distinct onset offsets of every pulse pair (p, q) of one element's
    table row, whose onsets and rotations are given as bytes, sorted, and
    the sum of the pairs' weight products at each, read-only."""
    onsets, rotation = np.frombuffer(onsets), np.frombuffer(rotation, dtype=complex)
    weights = np.stack((rotation, -rotation), axis=-1).ravel()
    products = (weights[:, None] * weights.conj()[None, :]).real.ravel()
    offsets, pair = np.unique(onsets[:, None] - onsets[None, :], return_inverse=True)
    return _frozen(offsets, np.bincount(pair.ravel(), weights=products))


def _lag_total_power(schedule: ArraySchedule, c: np.ndarray) -> float:
    """``total_power`` of a designed schedule, whose element n is element 0
    shifted by n * ``onset_step``, to ~1e-15 relative (not bit for bit).

    The Gram matrix is then Toeplitz, G[a, b] = R((a - b) * step) with R the
    circular autocorrelation of element 0's envelope, and Re R is even, so
    P = sum over d = 0 .. N-1 of c_d * Re R(d * step) (``_lag_weights``).
    R(tau) is a sum over the (2K)**2 pulse pairs of element 0, all of one
    width, of the weight product times the overlap of two equal arcs.  Pairs
    whose onset offsets are bit-equal have bit-equal overlaps at every lag,
    so their products are added first (``_offset_groups``, cached by the
    row's bytes): a design's 64 pairs have 29 distinct offsets at 4 paths,
    its 256 pairs 85 at 8.  Lags go in the blocks of the sum over all pairs,
    ``GRAM_BLOCK`` // (2K)**2 at a time, so the additions over lags keep its
    order and the two sums differ only within each lag, by ~4e-16 relative.
    Each overlap is a width less a distance, so narrow pulses lose no
    relative precision here, while the Gram pass's segment lengths carry
    ~1e-16 / alpha.
    """
    onsets, widths, rotation = (column[:1] for column in _schedule_table(schedule))
    offsets, products = _offset_groups(onsets.tobytes(), rotation.tobytes())
    step = max(1, GRAM_BLOCK // onsets.size ** 2)
    # the overlaps of whole blocks of lags at once, GRAM_BLOCK at most
    chunk = step * max(1, GRAM_BLOCK // (step * offsets.size))
    width = widths[0, 0]
    lags = _frac(np.arange(c.size) * schedule.onset_step)
    total = 0.0
    for start in range(0, c.size, chunk):
        shift = _frac(offsets + lags[start:start + chunk, None])
        lagged = np.maximum(width - np.minimum(shift, 1.0 - shift), 0.0) @ products
        for at in range(0, len(lagged), step):
            total += c[start + at:start + at + step] @ lagged[at:at + step]
    return float(total)


def _template_powers(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Radiated powers of a designed schedule's template rows, in
    O(len(rows) * N).

    Element d's coefficient is A[m, 0] e^(-j 2 pi m s_d), so the power's
    quadratic form collapses onto the lags as the total's does:
    P_m = Re(conj(A[m, 0]) (A[m, :] @ c)), c the lag weights.  It agrees
    with ``_harmonic_powers`` to ~1e-14 of the total power, not bit for bit.
    """
    lagged = rows @ c
    return rows.real[:, 0] * lagged.real + rows.imag[:, 0] * lagged.imag


def compute_spectrum(schedule: ArraySchedule, m_max: int = DEFAULT_M_MAX) -> HarmonicSpectrum:
    """Tabulate coefficients and powers for |m| <= m_max.

    Powers below ``POWER_CLAMP_REL`` of the total are clamped to zero; the
    efficiency divides the unclamped m = 1 power.  A
    designed schedule (``onset_step`` set) takes its powers from the lag sums
    over element 0 (``_lag_total_power``, ``_template_powers``): the total
    agrees with ``total_power()`` to ~1e-15 relative and each harmonic's
    power with ``harmonic_power()`` to ~1e-14 of the total, not bit for bit.
    Its coefficients, and the rows its powers read, are the template rows of
    ``coefficient_matrix``.  Every other schedule gets ``total_power()`` and
    the powers of ``harmonic_power()``.
    """
    m_max = _check_harmonic_count(schedule.config, m_max, 1)
    ms = range(-m_max, m_max + 1)
    # the spectrum's rows: read-only views of one matrix (after a new pass,
    # the memo itself)
    matrix = _rows(schedule, ms)
    matrix.flags.writeable = False
    if schedule.onset_step is None:
        kernel = _coupling_kernel(schedule.config)
        total = _total_powers(kernel, _schedule_table(schedule))[0]
        tabulated = _harmonic_powers(kernel, matrix, ms)
    else:
        c = _lag_weights(schedule.config)
        total = _lag_total_power(schedule, c)
        tabulated = _template_powers(c, matrix)
    coefficients = dict(zip(ms, map(HarmonicCoefficient, ms, matrix)))
    tabulated, clamp = tabulated.tolist(), POWER_CLAMP_REL * total
    powers = {m: 0.0 if p < clamp else p for m, p in zip(ms, tabulated)}
    efficiency = tabulated[m_max + 1] / total if total > 0 else 0.0
    return HarmonicSpectrum(coefficients, powers, total, efficiency)


def _check_harmonic_count(config: ArrayConfig, m_max, least: int) -> int:
    """``m_max`` as an int, checked before any harmonic is listed: at least
    ``least``, and |m| <= m_max within ``MAX_STEERING_ENTRIES`` coefficients."""
    try:
        m_max = operator.index(m_max)
    except TypeError:
        raise ValueError(f"m_max must be an integer, not {m_max!r}") from None
    if m_max < least:
        raise ValueError(f"m_max must be at least {least}")
    if (2 * m_max + 1) * config.n_elements > MAX_STEERING_ENTRIES:
        raise ValueError(f"{2 * m_max + 1} harmonics x {config.n_elements} elements exceed "
                         f"the coefficient cap of {MAX_STEERING_ENTRIES} entries; lower m_max")
    return m_max


def _steering(config: ArrayConfig, theta: np.ndarray) -> np.ndarray:
    """Geometric phase of every element toward every angle: theta x elements."""
    return _exp_table(_check_angles(config, theta), theta, config.n_elements)


def _check_angles(config: ArrayConfig, theta: np.ndarray, columns: int | None = None) -> float:
    """beta d of ``config``, once ``theta`` is shown finite and within
    ``MAX_STEERING_ENTRIES`` angles x ``columns`` (by default, elements)."""
    if not np.isfinite(theta).all():
        raise ValueError("theta must be finite")
    if theta.size * (columns or config.n_elements) > MAX_STEERING_ENTRIES:
        size = f"{config.n_elements} elements" if columns is None else f"{columns} table columns"
        raise ValueError(f"{theta.size} angles x {size} exceed the steering-matrix "
                         f"cap of {MAX_STEERING_ENTRIES} entries")
    return config.wavenumber * config.element_spacing


def _exp_table(beta_d: float, theta: np.ndarray, count: int) -> np.ndarray:
    """e^(j beta_d sin(theta) k) for every angle and k < count, fresh: each
    entry depends on its angle and k alone."""
    phase = 1j * beta_d * np.outer(np.sin(theta), np.arange(count))
    return np.exp(phase, out=phase)


# six: an array-study cycle reads 16 columns on two grids and ceil(N / 16) at
# N = 32 to 256; over five cycles six slots built 6 tables, four built 42
@functools.lru_cache(maxsize=6)
def _steering_table(beta_d: float, count: int, shape: tuple, theta: bytes) -> np.ndarray:
    """The read-only ``_exp_table`` of the grid of ``shape`` whose bytes are ``theta``."""
    return _frozen(_exp_table(beta_d, np.frombuffer(theta).reshape(shape), count))[0]


def _phase_table(beta_d: float, theta: np.ndarray, count: int) -> np.ndarray:
    """``_exp_table`` through the steering cache, with the same bits: the
    cache's own C-contiguous, read-only table of ``count`` columns.  A single
    angle, or a table of more than ``_STEERING_MEMO_ENTRIES`` entries, is
    built fresh for the call alone.  A caller's grid is keyed by its bytes,
    the module's sideband grid by bytes taken once.
    """
    if theta.ndim == 0 or theta.size * count > _STEERING_MEMO_ENTRIES:
        return _exp_table(beta_d, theta, count)
    return _steering_table(beta_d, count, theta.shape,
                           _SIDEBAND_BYTES if theta is _SIDEBAND_THETA else theta.tobytes())


def array_factor(schedule: ArraySchedule, m: int, theta) -> complex | np.ndarray:
    """Far-field array factor of harmonic m at observation angle(s) theta.

    Sums the per-element coefficients with the geometric phase progression
    (0-based element index), dropping the common time factor.  ``theta`` may
    be a scalar or an array of radians, and an array result takes its shape.
    """
    theta_arr = np.asarray(theta, dtype=float)
    out = (_steering(schedule.config, theta_arr) @ _rows(schedule, [m])[0]).reshape(theta_arr.shape)
    return complex(out) if theta_arr.ndim == 0 else out


@dataclass(frozen=True)
class PatternTable:
    """Normalized power patterns: theta grid x harmonic -> level in dB."""

    theta: np.ndarray
    levels_db: dict[int, np.ndarray]
    reference: float


def radiation_pattern(
    schedule: ArraySchedule,
    harmonics,
    theta_grid,
    reference: float | None = None,
) -> PatternTable:
    """Relative power patterns of the requested harmonics over a theta grid.

    Levels are ``20*log10(|AF_m| / ref)`` where ``ref`` defaults to the peak
    of ``|AF_1|`` over the grid for this schedule.  Pass an external
    ``reference`` (e.g. the peak-mode value) to compare across duty ratios.
    Power ratios below the clamp threshold report the dB floor.  Each level
    array takes the grid's shape.

    Each distinct harmonic is evaluated once, m = 1 first for the default
    reference, in blocks whose working arrays hold at most a quarter of
    ``_STEERING_MEMO_ENTRIES`` and at most ``MAX_STEERING_ENTRIES`` entries,
    or one harmonic's theta x Q, Q = ceil(N / 16); a block's levels are
    taken before the next is formed.  Each block is one ``_fields`` call.  A
    general schedule's tables are P, the theta x N ``_exp_table`` built for
    the call, and a unit column: each row a gets the bits of ``|P @ a|``.  A
    designed one's (``onset_step`` set) are the cache's min(N, 16)-wide and
    Q-wide ones, the widest times the theta points at most
    ``MAX_STEERING_ENTRIES``; element 16 q + r's phase is rounded in two
    parts, so each field is within ~3e-14 of the m = 1 peak of ``|P @ a|``.
    A harmonic's levels have the same bits whatever else is requested.
    """
    theta = np.asarray(theta_grid, dtype=float)
    if theta.size == 0:
        raise ValueError("theta grid is empty")
    harmonics = list(harmonics)
    ms = list(dict.fromkeys([1] * (reference is None) + harmonics))
    n = schedule.config.n_elements
    base, rows_q = min(n, 16), -(-n // 16)
    designed = schedule.onset_step is not None
    beta_d = _check_angles(schedule.config, theta, max(base, rows_q) if designed else None)
    rows = _rows(schedule, ms)
    if reference is not None and not (isfinite(reference) and reference > 0):
        raise ValueError("pattern reference must be positive and finite")
    if designed:
        low, high = _phase_table(beta_d, theta, base), _phase_table(16 * beta_d, theta, rows_q)
    else:
        low, high = _exp_table(beta_d, theta, n), np.ones((theta.size, 1), dtype=complex)
    rows = _padded(rows, low.shape[-1] * high.shape[-1])
    cap = min(MAX_STEERING_ENTRIES, _STEERING_MEMO_ENTRIES >> 2)
    size = max(1, cap // (max(theta.size, base) * rows_q))
    levels = {}
    for start in range(0, len(ms), size):
        block = rows[start:start + size]
        fields = _fields(block, low, high)
        if reference is None:
            # m = 1's own field, the first row
            reference = float(fields[0].max())
            if not reference > 0:
                raise ValueError("pattern reference must be positive: the m = 1 peak is 0")
        ratio = np.divide(fields, reference, order="C")
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(ratio)
        db[ratio * ratio < POWER_CLAMP_REL] = DB_FLOOR
        levels.update(zip(ms[start:start + size], np.maximum(db, DB_FLOOR, out=db)))
    levels = {m: levels[m].reshape(theta.shape) for m in harmonics}
    return PatternTable(theta, levels, reference)


def sideband_level(schedule: ArraySchedule, m_max: int) -> float:
    """Strongest undesired harmonic's pattern peak relative to m = 1, in dB.

    Compares the peak over ``_SIDEBAND_THETA`` (3601 angles, 0.05 degrees
    apart) of every harmonic m != 1 with |m| <= m_max, an integer of at
    least 2, against the m = 1 peak, which must be positive.

    * Fields (``_fields``): with x = beta d sin(theta), element n = 16 q + r
      gets e^(j 16 q x) e^(j r x), the first built with phase step 16 beta d
      (exact, 16 being a power of two).  A field is sum over q of
      e^(j 16 q x) G[q], with G[q] = sum over r of e^(j r x) A[m, 16 q + r]
      each harmonic's own matrix product: no theta x N steering is formed.
    * Designed schedules (``onset_step`` set): each harmonic is evaluated
      only at the grid angles that bracket its main lobes
      (``_crossing_peaks``), unless some harmonic has no main lobe within
      4 / N of the grid or the grid's widest step in x exceeds 8 / N; then
      the call scans the whole grid as for any other schedule.
    * Scan (``_sideband_peaks``): every harmonic's field at every grid
      angle, from the ``_phase_table`` cache's min(N, 16)-wide and Q-wide
      tables, Q = ceil(N / 16) (the Q-wide one is kept up to N = 1152).
    * Accuracy: against a long-double scan of the 0.05-degree grid at 5 to
      1024 elements, each peak is within 4e-16 of the m = 1 peak; its bits
      depend neither on the cache, the block size nor the route.
    """
    m_max = _check_harmonic_count(schedule.config, m_max, 2)
    peaks = None if schedule.onset_step is None else _crossing_peaks(schedule, m_max)
    if peaks is None:
        peaks = _sideband_peaks(schedule, m_max, _SIDEBAND_THETA)
    ref = peaks.pop(1)
    if ref == 0.0:
        raise ValueError("sideband reference (the m = 1 peak) must be positive")
    # no sidebands at all clamp to the floor, -150.0 exactly
    return float(20.0 * np.log10(max(max(peaks.values()) / ref, 10 ** (DB_FLOOR / 20.0))))


def _sideband_peaks(schedule: ArraySchedule, m_max: int, theta: np.ndarray) -> dict[int, float]:
    """Pattern peaks over ``theta`` of every harmonic m != 0, |m| <= m_max.

    The rows are those of ``compute_spectrum`` at the same m_max (a design's
    memo holds them), all in each ``_fields`` call.  An angle block keeps
    every working array within ``cap`` entries, but holds two angles at
    least: numpy rounds a one-row product differently, so the bits do not
    depend on the blocks.
    """
    config, n = schedule.config, schedule.config.n_elements
    ms = range(-m_max, m_max + 1)
    # element 16 q + r: r < 16 (or N, if fewer), q < Q; rows padded once
    base, rows_q = min(n, 16), -(-n // 16)
    rows = _padded(_rows(schedule, ms), rows_q * base)
    beta_d = config.wavenumber * config.element_spacing
    low, high = _phase_table(beta_d, theta, base), _phase_table(16 * beta_d, theta, rows_q)
    cap = min(MAX_STEERING_ENTRIES, _STEERING_MEMO_ENTRIES >> 2)
    block = max(2, cap // max(base, len(ms) * rows_q))
    peaks = np.zeros(len(ms))
    for start in range(0, theta.size, block):
        # a last block of one angle takes the angle before it again
        at = slice(max(0, min(start, theta.size - 2)), start + block)
        np.maximum(peaks, _fields(rows, low[at], high[at]).max(axis=1), out=peaks)
    return {m: peak for m, peak in zip(ms, peaks.tolist()) if m != 0}


def _crossing_peaks(schedule: ArraySchedule, m_max: int) -> dict[int, float] | None:
    """Pattern peaks over ``_SIDEBAND_THETA`` of every harmonic m != 0,
    |m| <= m_max, of a designed schedule, each from the few grid angles that
    bracket its main lobes; None where those angles cannot be shown to hold
    every peak, and the caller then scans.

    Element n runs element 0's pulses s_n ~ n * step periods later, so
    harmonic m's field is A[m, 0] D_N(x - c) up to rounding, with
    x = beta d sin(theta), D_N(y) = sin(N y / 2) / sin(y / 2) and main lobes
    centred at c = 2 pi ((m * step) mod 1) + 2 pi k.

    * Candidates: for every centre within 2 pi / N of the grid's ends, the
      two grid angles that bracket it (``searchsorted``), clipped to the
      grid.  |D_N| falls off from a centre across its main lobe
      (|y| < 2 pi / N), so that lobe's largest grid value is at one of them.
      c, from ``onset_step``, is off the rows' own centre by rounding alone;
      a grid angle between the two is the one nearest the lobe's centre,
      and a candidate still.
    * Bound: |sin(y / 2)| <= |y| / 2 gives |D_N(y)| >= N sinc(2) > 0.45 N for
      |y| <= 4 / N, while off the main lobes |D_N| <= 1 / sin(pi / N) <= N / 3
      for N >= 6 (N = 2 to 5 have sidelobes of 0, 1, 1.09 and 1.25).  So if
      every harmonic has a candidate within 4 / N of a centre, its peak lies
      on a main lobe and hence at a candidate.  Each centre on the grid has
      one when the grid's widest step, beta d * ``_SIDEBAND_STEP``, is at
      most 8 / N (2.7e-3 at half a wavelength, under 8 / 2048).  The margin
      dwarfs the rounding of the rows and of the fields.
    * Fields: the scan's arithmetic, and so its bits, at the candidates
      alone: e^(j r x) read from the cache's 16-wide grid table,
      e^(j 16 q x) built for them, with harmonics taken in blocks whose
      working arrays hold at most ``cap`` entries, as the scan's do.
    """
    config, n = schedule.config, schedule.config.n_elements
    beta_d = config.wavenumber * config.element_spacing
    if beta_d * _SIDEBAND_STEP > 8.0 / n:
        return None
    x = beta_d * _SIDEBAND_SIN
    lobe = 2 * pi / n
    # the centres from the first at or above x[0] - lobe, 2 pi apart, past
    # x[-1] + lobe (one beyond it clips to the last angle, a harmless extra)
    count = int((x[-1] - x[0] + 2 * lobe) // (2 * pi)) + 1
    ms = range(-m_max, m_max + 1)
    base, rows_q = min(n, 16), -(-n // 16)
    # the rows of ``compute_spectrum`` at the same m_max (the memo's), padded
    rows = _padded(_rows(schedule, ms), rows_q * base)
    frac = _frac(np.arange(-m_max, m_max + 1) * schedule.onset_step)
    first = frac + np.ceil((x[0] - lobe) / (2 * pi) - frac)
    centres = 2 * pi * first[:, None] + 2 * pi * np.arange(count)
    # entry [m, side, k]: the grid angle below (side 0) or above centre k
    above = np.searchsorted(x, centres)[:, None]
    at = np.minimum(np.maximum(np.concatenate((above - 1, above), axis=1), 0), x.size - 1)
    if np.abs(x[at] - centres[:, None]).min(axis=(1, 2)).max() > 4.0 / n:
        return None
    at = at.reshape(len(ms), -1)
    low = _phase_table(beta_d, _SIDEBAND_THETA, base)
    cap = min(MAX_STEERING_ENTRIES, _STEERING_MEMO_ENTRIES >> 2)
    size = max(1, cap // max(2 * count * max(base, rows_q), rows_q * base))
    peaks = np.empty(len(ms))
    for start in range(0, len(ms), size):
        block = at[start:start + size]
        high = _exp_table(16 * beta_d, _SIDEBAND_THETA[block], rows_q).reshape(*block.shape, rows_q)
        peaks[start:start + size] = _fields(rows[start:start + size], low[block], high).max(axis=1)
    return {m: peak for m, peak in zip(ms, peaks.tolist()) if m != 0}


def _padded(rows: np.ndarray, width: int) -> np.ndarray:
    """``rows`` zero-padded to ``width`` columns, or themselves if that wide."""
    if rows.shape[1] < width:
        rows = np.concatenate((rows, np.zeros((len(rows), width - rows.shape[1]))), axis=1)
    return rows


def _fields(rows: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """|field| of each row of ``rows`` (harmonics x Q B columns), factored
    as in ``sideband_level``: ``low`` holds e^(j r x), r < B, and ``high``
    e^(j B q x), q < Q, at one grid's angles (angles x columns) or at each
    row's own (rows x angles x columns).  A design's B is min(N, 16) and
    Q = ceil(N / 16), its rows ``_padded`` to Q B; a general pattern's B is
    N and Q is 1.  Each row, read in place, has its own product with
    ``low`` (its G[q]), then one contraction with ``high`` gives harmonics x
    angles.  A row's bits depend on it and its angles alone.
    """
    base, rows_q = low.shape[-1], high.shape[-1]
    # entry [m, r, q]: element B q + r of row m; G's entry [m, angle, q]
    inner = low @ rows.reshape(-1, rows_q, base).transpose(0, 2, 1)
    return np.abs(np.einsum("...q,...q->...", inner, high))


def envelope_dft_coefficients(
    element: ElementSchedule, samples_per_period: int, m_max: int
) -> dict[int, complex]:
    """Numerical oracle for the combined coefficients via a finite DFT.

    Takes the triangularly smoothed envelope samples, runs an FFT, and undoes
    the midpoint phase and the kernel's squared-sinc rolloff per bin.  The
    estimator's aliasing error shrinks cubically in the sample count; at
    2^14 samples it recovers the analytic coefficients to better than 1e-8
    of the coefficient scale for |m| <= 25.
    """
    if m_max >= samples_per_period // 2:
        raise ValueError("m_max must be below the Nyquist bin")
    s = samples_per_period
    spectrum = np.fft.fft(envelope_filtered_samples(element, s)) / s
    out = {}
    for m in range(-m_max, m_max + 1):
        v = spectrum[m % s] * np.exp(-1j * pi * m / s)
        if m != 0:
            x = pi * m / s
            v /= (np.sin(x) / x) ** 2
        out[m] = complex(v)
    return out


#: The DFT oracle's tolerance at 2^14 samples, relative to the coefficient scale.
ORACLE_BASE_TOLERANCE = 1e-6


def oracle_tolerance(samples_per_period: int) -> float:
    """Documented accuracy rule for the DFT oracle at a given sample count.

    The triangular-kernel estimator converges cubically, so the tolerance
    relaxes as ``ORACLE_BASE_TOLERANCE * (16384 / samples)**3`` from its
    reference point at 2^14 samples.
    """
    return ORACLE_BASE_TOLERANCE * (16384.0 / samples_per_period) ** 3
