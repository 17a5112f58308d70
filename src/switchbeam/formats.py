"""Stable on-disk formats: schedule documents, JSON emission, fixture CSVs.

All numbers are written with 15 significant digits and a ``.`` decimal point
regardless of locale, so identical inputs always produce identical bytes.
Inline CLI runs canonicalize their schedules through this representation,
which makes them byte-for-byte reproducible from a saved schedule file.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .array_model import (
    ArraySchedule, ElementSchedule, PulseTrain, config_from_wavelengths, wrap_unit,
)


def format_float(x: float) -> str:
    """Render a float with 15 significant digits."""
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".15g")


def dump_json(obj, indent: int = 0) -> str:
    """Serialize dicts/lists/scalars to JSON with 15-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {dump_json(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_csv(header: list[str], rows: list[list]) -> str:
    """Render a CSV document with deterministic float formatting."""
    def cell(v) -> str:
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
            return str(int(v))
        return format_float(float(v))

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def schedule_to_doc(schedule: ArraySchedule, theta_deg: float | None = None) -> dict:
    """Schedule document: config, duty ratio, and normalized train timings."""
    cfg = schedule.config
    if theta_deg is None:
        theta_deg = math.degrees(schedule.steer_angle)
    return {
        "config": {
            "elements": cfg.n_elements,
            "spacing_wavelengths": cfg.element_spacing / cfg.wavelength,
            "f0_hz": cfg.carrier_freq,
            "fp_hz": cfg.pulse_freq,
            "paths": cfg.path_count,
        },
        "alpha": schedule.duty_ratio,
        "theta_deg": _doc_degrees(theta_deg),
        "elements": [
            {
                "index": element.element_index,
                "paths": [
                    {
                        "phase_deg": _doc_degrees(math.degrees(phase)),
                        "onset_pos_norm": _doc_onset(train.onset_pos_norm),
                        "onset_neg_norm": _doc_onset(train.onset_neg_norm),
                        "width_norm": train.width_norm,
                    }
                    for phase, train in element.paths
                ],
            }
            for element in schedule.elements
        ],
    }


def _doc_onset(onset: float) -> float:
    """An onset at the document's 15 digits, kept in [0, 1): onsets within
    5e-16 of 1 would print as ``1``, load back as 0 and dump differently."""
    return wrap_unit(float(format_float(onset)))


def _doc_degrees(angle_deg: float) -> float:
    """An angle of magnitude below 1e-300 degrees is written as 0, so it
    loads back as written: JSON reads ``-0`` as the integer 0, and the
    radians of a tinier angle are subnormal and lose digits."""
    return angle_deg if abs(angle_deg) >= 1e-300 else 0.0


def schedule_from_doc(doc: dict) -> ArraySchedule:
    """Rebuild an ArraySchedule from its document form.  A document may hold
    a wrong number of elements: ``validate`` reports it and analysis rejects it."""
    try:
        c = doc["config"]
        config = config_from_wavelengths(
            _doc_int(c, "elements"),
            _doc_float(c, "spacing_wavelengths"),
            _doc_float(c, "f0_hz"),
            _doc_float(c, "fp_hz"),
            _doc_int(c, "paths"),
        )
        elements = []
        for e in doc["elements"]:
            paths = tuple(
                (
                    math.radians(_doc_float(p, "phase_deg")),
                    PulseTrain(
                        _doc_float(p, "width_norm"),
                        _doc_float(p, "onset_pos_norm"),
                        _doc_float(p, "onset_neg_norm"),
                    ),
                )
                for p in e["paths"]
            )
            elements.append(ElementSchedule(_doc_int(e, "index"), paths))
        return ArraySchedule(
            config=config,
            duty_ratio=_doc_float(doc, "alpha"),
            steer_angle=math.radians(_doc_float(doc, "theta_deg")),
            elements=tuple(elements),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed schedule document: {exc}") from exc


def _doc_int(obj: dict, key: str) -> int:
    """A document count or index: a JSON integer, which int() would not check."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def _doc_float(obj: dict, key: str) -> float:
    """A document number: a JSON integer or float, which float() would not check."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def canonical_schedule(schedule: ArraySchedule, theta_deg: float | None = None) -> ArraySchedule:
    """Round-trip a schedule through its document form.

    Pins every number to the 15-significant-digit file representation so an
    inline run and a ``--schedule`` run produce identical output bytes.
    """
    return schedule_from_doc(json.loads(dump_json(schedule_to_doc(schedule, theta_deg))))


def read_constellation_csv(text: str) -> list[complex]:
    """Parse ``i,q`` rows (an optional header line is skipped)."""
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if lineno == 1 and any(not _is_number(p) for p in parts):
            continue
        if len(parts) != 2:
            raise ValueError(f"constellation line {lineno}: expected two columns, got {len(parts)}")
        if not all(_is_number(p) for p in parts):
            raise ValueError(f"constellation line {lineno}: non-numeric value")
        points.append(complex(*_finite_floats(parts, f"constellation line {lineno}")))
    if not points:
        raise ValueError("constellation file holds no points")
    return points


def read_fixture_csv(text: str) -> dict[str, list[tuple[float, float]]]:
    """Parse a reference-curve CSV: ten_log_alpha, <value>, series_label.

    The value column is ``efficiency_percent`` for efficiency fixtures; the
    back-off fixture carries ``pbo_db`` in the same position.
    """
    series: dict[str, list[tuple[float, float]]] = {}
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("fixture file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if len(header) != 3 or header[0] != "ten_log_alpha" or header[2] != "series_label":
        raise ValueError("fixture header must be ten_log_alpha,<value>,series_label")
    for lineno, raw in enumerate(lines[1:], start=2):
        parts = [p.strip() for p in raw.split(",")]
        if len(parts) != 3 or not _is_number(parts[0]) or not _is_number(parts[1]):
            raise ValueError(f"fixture line {lineno}: malformed row")
        x, y = _finite_floats(parts[:2], f"fixture line {lineno}")
        series.setdefault(parts[2], []).append((x, y))
    return series


def _finite_floats(cells, where: str) -> list[float]:
    """Cells that parse as numbers, as floats; ``where`` names the line if
    one is NaN or infinite."""
    values = [float(c) for c in cells]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{where}: non-finite value")
    return values


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True
