"""Designed-route byte gate: the analyses of seeded designs keep their bits.

The CLI digests in ``test_cli_bytes.py`` run the general routes alone (every
CLI schedule is canonicalized), so they cannot see the template rows, the
lag sums, the crossing peaks or the factored pattern fields that a schedule
straight from ``design_schedule`` takes.  This digest can: it is the SHA-256
of ``float.hex`` of every number below, over 24 seeded designs.  A faster
implementation of the same arithmetic must leave it alone.  Like the CLI
digests it holds for the numpy the tier-1 job pins, whose BLAS forms the
pattern fields.
"""

import hashlib
import random
from math import radians

import numpy as np

from conftest import reference_config
from switchbeam.array_model import _schedule_table
from switchbeam.harmonic_analysis import compute_spectrum, radiation_pattern, sideband_level
from switchbeam.schedule_design import design_schedule

#: The benchmark's pattern grid: -90 to 90 degrees in 0.25-degree steps.
THETA = np.deg2rad(np.arange(-90.0, 90.125, 0.25))

#: (harmonics, reference) of each pattern taken: the benchmark's, one with
#: repeats and without m = 1, single harmonics, and external references.
PATTERNS = (((1, -3, 5, -7), None), ((3, -5, 3), None), ((1,), None), ((-3, 1), 2.5),
            ((5,), 1.0), ((1, 1, -3), None))

DIGEST = "09598ade22b951b2ece2a458f1f130b8e9660cae384ac5893b94702880ae7e77"


def designs() -> list[tuple[int, int, float, float, float]]:
    """(N, paths, spacing in wavelengths, theta in degrees, alpha in dB) of
    24 designs: N 1-256, both path counts, alpha -10..0 dB."""
    rng = random.Random(2011)
    sizes = [1, 2, 3, 5, 8, 16, 17, 31, 32, 64, 100, 256]
    return [(n, paths, rng.choice((0.5, 0.5, 0.37, 0.8)), round(rng.uniform(-60.0, 60.0), 3),
             round(rng.uniform(-10.0, 0.0), 3))
            for n in sizes for paths in (4, 8)]


def numbers(n, paths, spacing, theta_deg, alpha_db):
    """Every float one design's analyses give, in a fixed order."""
    schedule = design_schedule(reference_config(n, paths, spacing_wl=spacing),
                               radians(theta_deg), 10.0 ** (alpha_db / 10.0))
    onsets, widths, _ = _schedule_table(schedule)
    yield from onsets.ravel().tolist()
    yield from widths.ravel().tolist()
    yield schedule.onset_step
    spectrum = compute_spectrum(schedule, 25)
    yield spectrum.total_power
    yield spectrum.efficiency
    yield from spectrum.powers.values()
    for coefficient in spectrum.coefficients.values():
        yield from coefficient.per_element.view(float).tolist()
    yield sideband_level(schedule, 25)
    for harmonics, reference in PATTERNS:
        table = radiation_pattern(schedule, harmonics, THETA, reference)
        yield table.reference
        for levels in table.levels_db.values():
            yield from levels.tolist()


def test_designed_analyses_keep_their_bits():
    text = "\n".join(float(x).hex() for design in designs() for x in numbers(*design))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
