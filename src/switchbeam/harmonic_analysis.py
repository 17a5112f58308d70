"""Harmonic spectrum, array factors, radiated powers, and pattern synthesis.

The analytic path integrates each rectangular pulse exactly, giving the
Fourier coefficient of every path train in closed form; per-element combined
coefficients are the path sum with each path rotated by its carrier phase.
The internals read a schedule only as its pulse table
(``array_model.pulse_table``: per path, its two onsets, width and carrier
rotation, ragged path counts padded with zero-rotation paths) and its config.
A designed schedule's table is the one it stores: its elements are never built.
``_coefficients`` evaluates that closed form for a table in broadcasts over
elements and paths, with its exponentials once per distinct |m| (the -|m|
rows reuse them exactly) and, for a table of one width, one width
exponential per |m|; the paths are then added in order.  Its complex
products are spelled out in real arithmetic as scalar complex code rounds
them, so both give identical bits; numpy's vectorized complex multiply does
not.  Harmonic indices must be integers with |m| <= 2**53.  A schedule
keeps the read-only matrix of its last such pass, keyed by harmonic
(``_rows``): after ``compute_spectrum``, ``sideband_level`` and
``radiation_pattern`` index it.

The array is uniform, so radiated harmonic powers follow from the spatial
power integral with the unnormalized sinc kernel sinc(beta d (a - b)), and
a pattern is the steering matrix times the coefficient rows.  The total
radiated power is computed in the time domain by exact piecewise-constant
integration, so Parseval holds without sampling error: each element pair's
envelope product is integrated over the union of both envelopes' segments,
found by sorting each pair's edge rows (``array_model._segments``).
``_total_powers`` does this for every pair of many same-size schedules
stacked in one table (a back-off sweep is one pass) with the bits of a loop
over pairs; ``_grams`` lists the traps that would lose them.
``compute_spectrum`` takes a second route for a designed schedule (one with an
``onset_step``): its elements are one envelope shifted by n * step, so the
Gram matrix is Toeplitz and the total is a sum over N lags of element 0's
autocorrelation (``_lag_total_power``), agreeing to ~1e-15 relative.  Each
harmonic's power is element 0's |A[m, 0]|**2 times a cosine sum over the
same N lags (``_template_powers``), agreeing to ~1e-14 of the total.
Neither is bit for bit, and no N x N kernel is built.  Every other schedule,
and every other caller, takes the Gram pass and ``_harmonic_powers``.
A pattern shares one steering matrix (theta points x elements) across all
its harmonics; its size is capped by ``MAX_STEERING_ENTRIES``.  Steering
depends on the geometry and the angle grid alone, never on the schedule, so
a module-level memo keeps a few read-only tables of exact exponentials
e^(j beta d sin(theta) k), each the widest built so far for its phase step
and grid (``_phase_table``): a pattern reads its steering from it, bit for
bit, and so does an ``array_factor`` over an array of angles.  The sideband
level forms no steering: over its one 0.05-degree grid, its fields are sums
over q of e^(j 16 q x) G[q], G[q] a matrix product with e^(j r x), r < 16,
from two ``_phase_table`` tables.  m = 1 and the largest triangle bound,
sum over n of |A[m, n]|, cover the whole grid first, and every harmonic
whose bound cannot exceed the strongest peak found is skipped.

A DFT-based estimator over the envelope, which reads the element's paths and
not the pulse table, is an independent numerical oracle for the analytic
coefficients.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import islice
from math import isfinite, pi
from threading import Lock

import numpy as np

from .array_model import (
    ArrayConfig,
    ArraySchedule,
    ElementSchedule,
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

#: Largest pulse-table block (harmonics x elements x paths) that
#: ``coefficient_matrix`` evaluates in one broadcast.
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

#: Most entries (theta points x elements) of a table in the steering memo,
#: which holds at most four: 2**18 complex entries are 4 MiB and hold the
#: 721 x 256 table of a 0.25-degree pattern.  ``sideband_level`` forms its
#: steering in blocks of at most a quarter of this.
_STEERING_MEMO_ENTRIES = 1 << 18

#: The angles ``sideband_level`` scans, read-only: -90 to 90 degrees in
#: steps of 0.05 degrees, 3601 in all.
_SIDEBAND_THETA = np.deg2rad(np.arange(-90.0, 90.0 + 0.05 / 2, 0.05))
_SIDEBAND_THETA.flags.writeable = False


def _sinc(x) -> np.ndarray:
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0
    out[nz] = np.sin(x[nz]) / x[nz]
    return out


def coefficient_matrix(schedule: ArraySchedule, ms) -> np.ndarray:
    """Combined coefficients of all elements at every harmonic in ``ms``.

    Returns a fresh ``(len(ms), n_elements)`` complex array equal, bit for
    bit, to a scalar path-by-path sum at each entry.  Each harmonic index
    must be an integer of magnitude at most 2**53, else ValueError.
    Harmonics are evaluated in blocks of at most ``COEFFICIENT_BLOCK``
    pulse-table entries.  The schedule keeps the rows of its last coefficient
    pass (``_rows``), and a request they cover is copied out of them, with
    the same bits.
    """
    rows = _rows(schedule, ms)
    return rows if rows.flags.writeable else rows.copy()


def _rows(schedule: ArraySchedule, ms) -> np.ndarray:
    """``coefficient_matrix`` of ``ms``, read-only or fresh, through the
    schedule's memo: the read-only matrix of its last coefficient pass, keyed
    by harmonic.  A request the memo covers is indexed out of it (or is the
    memo, if it asks for its rows in order); any other runs ``_coefficients``
    once and its matrix replaces the memo.  Each entry of ``_coefficients``
    depends on its harmonic and element alone, so the bits are the same.
    The memo is a private attribute, not a field: equality, hash, repr and
    ``dataclasses.replace`` do not see it.  It is read and replaced as one
    (index, matrix) pair, so threads racing on one schedule at most repeat a
    pass.
    """
    m = _harmonic_indices(ms)
    keys = m.tolist()
    index, matrix = getattr(schedule, "_coefficient_memo", ({}, None))
    at = [index.get(key) for key in keys]
    if matrix is not None and None not in at:
        return matrix if at == list(range(len(matrix))) else matrix[at]
    matrix = _coefficients(_schedule_table(schedule), m)
    matrix.flags.writeable = False
    memo = ({key: i for i, key in enumerate(keys)}, matrix)
    object.__setattr__(schedule, "_coefficient_memo", memo)
    return matrix


def _harmonic_indices(ms) -> np.ndarray:
    """``ms`` as floats, each checked to be an integer with |m| <= 2**53."""
    message = "harmonic indices must be finite integers with |m| <= 2**53"
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

    ``ms`` must hold integers.  They are taken by |m| in blocks of at most
    ``COEFFICIENT_BLOCK`` table entries, and a block takes its exponentials
    once per distinct |m|: of each onset, and of the width if the table has
    one (a designed table does), else of each path's.  Its bits are those of
    the scalar reference ``combined_coefficient`` in ``tests/scalar_reference.py``.

    The -|m| rows reuse the +|m| pulses bit for bit.  With w = 2 pi |m|,
    ``-1j * -w * t`` is the conjugate of ``-1j * w * t``, save at t = 0,
    where both are +0 (every onset of a table lies in [0, 1), every width is
    positive, and a padding path has both zero).  Hence each exponential is
    its conjugate or equal, and the pulse product
    p = exp(-jw onset) (1 - exp(-jw width)) keeps its real part and turns
    its imaginary part into 0.0 - p_i: that is -p_i, or +0 where p_i cancels
    to +0.  The rest runs as for +|m|, with 1/w negated.
    """
    # per path: onsets (positive, negative), width and carrier rotation
    onsets, width, rotation = table
    n, k = width.shape
    # axes (onset, path, harmonic, element): each operation below runs along
    # whole rows of elements, and the paths are added plane by plane
    onsets = onsets.transpose(2, 1, 0)[:, :, None]
    rot_r, rot_i = rotation.real.T[:, None], rotation.imag.T[:, None]
    # a designed table has one width, whose exponential is then one per |m|
    width = width[0, 0] if width.size and (width == width[0, 0]).all() else width.T[:, None]
    m = np.asarray(ms, dtype=float)
    out = np.empty((m.size, n), dtype=complex)
    # by |m|, so that m and -m share a block and its exponentials
    order = np.argsort(np.abs(m), kind="stable")
    rows = max(1, COEFFICIENT_BLOCK // max(1, n * k))
    for start in range(0, m.size, rows):
        block = order[start:start + rows]
        mags, at = np.unique(np.abs(m[block]), return_inverse=True)
        w = 2 * pi * mags[:, None]
        # 1/(jw) is (0, -1/w); m = 0 gets 0, its coefficient being exactly 0
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=w != 0)
        # exp(-jw t) for the width and for both onsets:
        # shapes (|m|, 1) or (k, |m|, n), and (2, k, |m|, n)
        f = np.exp(-1j * w * width)
        e = np.exp(-1j * w * onsets)
        f_r, f_i = 1.0 - f.real, -f.imag
        e_r, e_i = e.real, e.imag
        # pulse = exp(-jw onset) (1 - exp(-jw width)) / (jw), with every
        # complex product written out as the scalar code rounds it
        p_r = e_r * f_r - e_i * f_i
        p_i = e_r * f_i + e_i * f_r
        pulse_r, pulse_i = p_i * inv_w, -p_r * inv_w
        d_r, d_i = pulse_r[0] - pulse_r[1], pulse_i[0] - pulse_i[1]
        negative = m[block] < 0
        flips = np.count_nonzero(negative)
        if flips:
            # the -|m| rows after the +|m| rows; there pulse_i is negated
            flip_r = (0.0 - p_i) * -inv_w
            d_r = np.concatenate((d_r, flip_r[0] - flip_r[1]), axis=1)
            d_i = np.concatenate((d_i, pulse_i[1] - pulse_i[0]), axis=1)
            at = at + negative * len(mags)
        if flips or len(at) > len(mags):
            # one row per harmonic of the block (else ``at`` counts 0, 1, ...)
            d_r, d_i = d_r[:, at], d_i[:, at]
        # rotate by the carrier phase and add the paths in order (cumsum,
        # unlike sum, never regroups the additions)
        out.real[block] = np.cumsum(rot_r * d_r - rot_i * d_i, axis=0)[-1]
        out.imag[block] = np.cumsum(rot_r * d_i + rot_i * d_r, axis=0)[-1]
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
    ``harmonic_power()`` to ~1e-14 of the total, not bit for bit; the
    coefficients are bit for bit those of ``coefficient_matrix``, each
    ``per_element`` a read-only row of one matrix.
    """

    coefficients: dict[int, HarmonicCoefficient]
    powers: dict[int, float]
    total_power: float
    efficiency: float


def _coupling_kernel(config: ArrayConfig) -> np.ndarray:
    n = np.arange(config.n_elements)
    beta_d = config.wavenumber * config.element_spacing
    return _sinc(beta_d * (n[:, None] - n[None, :]))


def _harmonic_powers(config: ArrayConfig, matrix: np.ndarray, ms) -> np.ndarray:
    """Radiated powers of the harmonics ``ms``, one per row of ``matrix``.

    The kernel is real symmetric, so each quadratic form is real up to
    rounding; a residual imaginary part above 1e-9 of the diagonal indicates
    a symmetry bug and raises.
    """
    kernel = _coupling_kernel(config)
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
    return float(_harmonic_powers(schedule.config, _rows(schedule, [m]), [m])[0])


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
    return _total_powers(schedule.config, _schedule_table(schedule))[0]


def _total_powers(config: ArrayConfig, table) -> list[float]:
    """``total_power`` of each schedule of ``config`` stacked in a pulse table:
    one ``_grams`` pass, each Gram matrix contracted with the coupling kernel."""
    kernel = _coupling_kernel(config)
    grams = _grams(table, len(table[1]) // config.n_elements)
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
    ``_harmonic_powers`` call.
    """
    tables = iter(tables)
    size = max(1, GRAM_BLOCK // (4 * config.n_elements * config.path_count))
    out = []
    while block := list(islice(tables, size)):
        stacked = tuple(np.concatenate(column) for column in zip(*block))
        totals = _total_powers(config, stacked)
        if min(totals) <= 0:
            raise ValueError("zero radiated power")
        a1 = _coefficients(stacked, [1]).reshape(len(block), -1)
        powers = _harmonic_powers(config, a1, [1] * len(block))
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


def _lag_total_power(schedule: ArraySchedule) -> float:
    """``total_power`` of a designed schedule, whose element n is element 0
    shifted by n * ``onset_step``, to ~1e-15 relative (not bit for bit).

    The Gram matrix is then Toeplitz, G[a, b] = R((a - b) * step) with R the
    circular autocorrelation of element 0's envelope, and Re R is even, so
    P = sum over d = 0 .. N-1 of c_d * Re R(d * step) (``_lag_weights``).
    R(tau) is a sum over the (2K)**2 pulse pairs of element 0, all of one
    width, of the weight product times the overlap of two equal arcs; lags
    are taken at most ``GRAM_BLOCK`` overlaps at a time.  Each overlap is a
    width less a distance, so narrow pulses lose no relative precision here,
    while the Gram pass's segment lengths carry ~1e-16 / alpha.
    """
    onsets, widths, rotation = (column[:1] for column in _schedule_table(schedule))
    weights = np.stack((rotation, -rotation), axis=-1).ravel()
    # the weight product of every pulse pair (p, q) and its onset offset
    products = (weights[:, None] * weights.conj()[None, :]).real.ravel()
    offsets = (onsets.ravel()[:, None] - onsets.ravel()[None, :]).ravel()
    width = widths[0, 0]
    c = _lag_weights(schedule.config)
    lags = np.arange(c.size)
    total = 0.0
    step = max(1, GRAM_BLOCK // offsets.size)
    for start in range(0, c.size, step):
        shift = (offsets + (lags[start:start + step, None] * schedule.onset_step) % 1.0) % 1.0
        overlap = np.maximum(width - np.minimum(shift, 1.0 - shift), 0.0)
        total += c[start:start + step] @ (overlap @ products)
    return float(total)


def _template_powers(schedule: ArraySchedule, a0: np.ndarray, ms) -> np.ndarray:
    """Radiated powers of the harmonics ``ms`` of a designed schedule from
    element 0's coefficients ``a0``, in O(len(ms) * N).

    Element n's coefficient is A[m, 0] e^(-j 2 pi m n step), so the power's
    quadratic form collapses onto the lags as the total's does:
    P_m = |A[m, 0]|**2 * sum over d of c_d cos(2 pi ((m d step) mod 1)).
    It agrees with ``_harmonic_powers`` to ~1e-14 of the total power, not
    bit for bit: the designed onsets are rounded where this phase is exact.
    """
    c = _lag_weights(schedule.config)
    phase = np.multiply.outer(np.asarray(ms, dtype=float), np.arange(c.size))
    phase = phase * schedule.onset_step % 1.0
    return (a0.real ** 2 + a0.imag ** 2) * (np.cos(2 * pi * phase) @ c)


def compute_spectrum(schedule: ArraySchedule, m_max: int = DEFAULT_M_MAX) -> HarmonicSpectrum:
    """Tabulate coefficients and powers for |m| <= m_max.

    Powers below ``POWER_CLAMP_REL`` of the total are clamped to zero; the
    efficiency divides the unclamped m = 1 power.  A
    designed schedule (``onset_step`` set) takes its powers from the lag sums
    over element 0 (``_lag_total_power``, ``_template_powers``): the total
    agrees with ``total_power()`` to ~1e-15 relative and each harmonic's
    power with ``harmonic_power()`` to ~1e-14 of the total, not bit for bit,
    while its coefficients stay bit for bit.  Every other schedule gets
    ``total_power()`` and the powers of ``harmonic_power()``.
    """
    m_max = _check_harmonic_count(schedule.config, m_max, 1)
    ms = range(-m_max, m_max + 1)
    # the spectrum's rows: read-only views of one matrix (after a new pass,
    # the memo itself)
    matrix = _rows(schedule, ms)
    matrix.flags.writeable = False
    if schedule.onset_step is None:
        total = total_power(schedule)
        tabulated = _harmonic_powers(schedule.config, matrix, ms)
    else:
        total = _lag_total_power(schedule)
        tabulated = _template_powers(schedule, matrix[:, 0], ms)
    coefficients = {m: HarmonicCoefficient(m, a) for m, a in zip(ms, matrix)}
    powers = {m: 0.0 if p < POWER_CLAMP_REL * total else float(p) for m, p in zip(ms, tabulated)}
    efficiency = float(tabulated[m_max + 1]) / total if total > 0 else 0.0
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
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if theta.size * config.n_elements > MAX_STEERING_ENTRIES:
        raise ValueError(
            f"{theta.size} angles x {config.n_elements} elements exceed the steering-matrix "
            f"cap of {MAX_STEERING_ENTRIES} entries"
        )
    return _phase_table(config.wavenumber * config.element_spacing, theta, config.n_elements)


def _exp_table(beta_d: float, theta: np.ndarray, count: int) -> np.ndarray:
    """e^(j beta_d sin(theta) k) for every angle and k < count, fresh: each
    entry depends on its angle and k alone."""
    phase = 1j * beta_d * np.outer(np.sin(theta), np.arange(count))
    return np.exp(phase, out=phase)


# the steering memo: (beta d, theta shape, theta bytes) -> the widest
# read-only ``_exp_table`` built so far, least recently used first
_phase_tables: dict[tuple, np.ndarray] = {}
_phase_tables_lock = Lock()


def _phase_table(beta_d: float, theta: np.ndarray, count: int) -> np.ndarray:
    """``_exp_table`` through the steering memo, with the same bits.

    A request is a read-only column slice of its grid's widest table.  The
    memo holds at most four tables of at most ``_STEERING_MEMO_ENTRIES``
    entries and drops the least recently used.  A single angle, or a larger
    table, is built fresh for the call alone.  A grid's narrower table is
    dropped before its wider one is built, outside the lock: threads at most
    repeat a build.
    """
    if theta.ndim == 0 or theta.size * count > _STEERING_MEMO_ENTRIES:
        return _exp_table(beta_d, theta, count)
    key = (beta_d, theta.shape, theta.tobytes())
    with _phase_tables_lock:
        table = _phase_tables.pop(key, None)
        if table is not None and table.shape[1] >= count:
            _phase_tables[key] = table
            return table[:, :count]
    table = _exp_table(beta_d, theta, count)
    table.flags.writeable = False
    with _phase_tables_lock:
        _phase_tables.pop(key, None)
        _phase_tables[key] = table
        while len(_phase_tables) > 4:
            del _phase_tables[next(iter(_phase_tables))]
    return table[:, :count]


def array_factor(schedule: ArraySchedule, m: int, theta) -> complex | np.ndarray:
    """Far-field array factor of harmonic m at observation angle(s) theta.

    Sums the per-element coefficients with the geometric phase progression
    (0-based element index), dropping the common time factor.  ``theta`` may
    be a scalar or an array of radians.
    """
    theta_arr = np.asarray(theta, dtype=float)
    out = _steering(schedule.config, theta_arr) @ _rows(schedule, [m])[0]
    return complex(out[0]) if theta_arr.ndim == 0 else out


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
    Power ratios below the clamp threshold report the dB floor.
    """
    theta = np.asarray(theta_grid, dtype=float)
    if theta.size == 0:
        raise ValueError("theta grid is empty")
    harmonics = list(harmonics)
    phase = _steering(schedule.config, theta)
    rows = _rows(schedule, [1] + harmonics)
    if reference is None:
        reference = float(np.max(np.abs(phase @ rows[0])))
    if not (isfinite(reference) and reference > 0):
        raise ValueError("pattern reference must be positive and finite")
    levels = {}
    for m, a in zip(harmonics, rows[1:]):
        ratio = np.abs(phase @ a) / reference
        with np.errstate(divide="ignore"):
            db = 20.0 * np.log10(ratio)
        db[ratio * ratio < POWER_CLAMP_REL] = DB_FLOOR
        levels[m] = np.maximum(db, DB_FLOOR)
    return PatternTable(theta, levels, reference)


def sideband_level(schedule: ArraySchedule, m_max: int) -> float:
    """Strongest undesired harmonic's pattern peak relative to m = 1, in dB.

    Compares the peak over ``_SIDEBAND_THETA`` (3601 angles, 0.05 degrees
    apart) of every harmonic m != 1 with |m| <= m_max, an integer of at
    least 2, against the m = 1 peak, which must be positive.

    * Fields: with x = beta d sin(theta), element n = 16 q + r gets
      e^(j 16 q x) e^(j r x) from the ``_phase_table`` tables of phase steps
      16 beta d (exact, 16 being a power of two) and beta d, which the memo
      shares across N (the first up to N = 1152).  A field is sum over q of
      e^(j 16 q x) G[q], with G[q] = sum over r of e^(j r x) A[m, 16 q + r]
      one matrix product: no theta x N steering is formed.
    * Pruning: harmonic m's bound, sum over n of |A[m, n]|, is at least its
      peak.  m = 1 and the top bound go first over the whole grid, then the
      rest by descending bound; one is dropped once its bound times
      1 + 2 (N + Q + 32) eps, Q = ceil(N / 16), is no greater than the worst
      peak found.  The margin covers the rounding of the bound's N-term sum,
      of both factors (|e| <= 1 + ~6 eps) and of a field's 16-term and
      Q-term sums in any order, so the result is that of an unpruned scan.
    * Accuracy: against a long-double scan of the 0.05-degree grid at 5 to
      1024 elements, each peak is within 4e-16 of the m = 1 peak.  The bits
      depend neither on the memo nor on the block size.
    """
    m_max = _check_harmonic_count(schedule.config, m_max, 2)
    peaks = _sideband_peaks(schedule, m_max, _SIDEBAND_THETA)
    ref = peaks.pop(1)
    if ref == 0.0:
        raise ValueError("sideband reference (the m = 1 peak) must be positive")
    # no sidebands at all clamp to the floor, -150.0 exactly
    return float(20.0 * np.log10(max(max(peaks.values()) / ref, 10 ** (DB_FLOOR / 20.0))))


def _sideband_peaks(schedule: ArraySchedule, m_max: int, theta: np.ndarray) -> dict[int, float]:
    """Pattern peaks over ``theta`` of m = 1 and of the harmonics m != 1,
    |m| <= m_max, that the pruning of ``sideband_level`` leaves in play.

    The harmonics go in column chunks of m = 1 and the top bound, then 2,
    4, ... by descending bound, each over the whole grid before the next is
    pruned.  An angle block keeps every working array within ``cap``
    entries, but holds two angles at least: numpy rounds a one-row product
    differently, as it does a chunk of another width, so the chunks follow
    the pruning alone and the bits do not depend on the blocks.
    """
    config, n = schedule.config, schedule.config.n_elements
    ms = np.array([1] + [m for m in range(-m_max, m_max + 1) if m not in (0, 1)])
    rows = _rows(schedule, ms)
    # element 16 q + r: r < 16 (or N, if fewer), q < Q
    base, rows_q = min(n, 16), -(-n // 16)
    bounds = np.sum(np.abs(rows), axis=1) * (1.0 + 2 * (n + rows_q + 32) * np.finfo(float).eps)
    # m = 1, then the others by descending bound
    order = np.concatenate(([0], 1 + np.argsort(-bounds[1:], kind="stable")))
    ms, bounds = ms[order], bounds[order]
    columns = np.zeros((len(ms), rows_q * base), dtype=complex)
    columns[:, :n] = rows[order]
    beta_d = config.wavenumber * config.element_spacing
    low, high = _phase_table(beta_d, theta, base), _phase_table(16 * beta_d, theta, rows_q)
    cap = min(MAX_STEERING_ENTRIES, _STEERING_MEMO_ENTRIES >> 2)
    peaks = np.zeros(len(ms))
    # the columns below ``live`` are in play
    live, worst, done = len(ms), 0.0, 0
    while done < live:
        stop = min(max(2, 2 * done), live)
        # entry [r, (c, q)]: element 16 q + r of the chunk's column c
        chunk = columns[done:stop].reshape(-1, rows_q, base).transpose(2, 0, 1).reshape(base, -1)
        block = max(2, cap // max(base, chunk.shape[1]))
        for start in range(0, theta.size, block):
            # a last block of one angle takes the angle before it again
            at = slice(max(0, min(start, theta.size - 2)), start + block)
            lo, hi = low[at], high[at]
            inner = (lo @ chunk).reshape(len(lo), stop - done, rows_q)
            fields = np.abs(np.einsum("tcq,tq->tc", inner, hi))
            np.maximum(peaks[done:stop], fields.max(axis=0), out=peaks[done:stop])
        worst = max(worst, peaks[1:stop].max(initial=0.0))
        done = stop
        live = done + int(np.count_nonzero(bounds[done:live] > worst))
    return dict(zip(ms[:live].tolist(), peaks[:live].tolist()))


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
