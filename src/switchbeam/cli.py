"""Command-line front end: design, pattern, efficiency, qam, and verify.

Angles are degrees at this boundary and radians internally; frequencies are
Hz with scientific notation accepted.  Exit codes: 0 on success, 1 when a
verification check fails, 2 on usage or input errors (with a machine-readable
JSON error on stderr).  Identical flags always produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .array_model import ArrayConfig, ArraySchedule, config_from_wavelengths, validate
from .circuit_model import CircuitParams, pbo_sweep
from .formats import (
    canonical_schedule,
    dump_json,
    read_constellation_csv,
    read_fixture_csv,
    schedule_from_doc,
    schedule_to_doc,
    write_csv,
)
from .harmonic_analysis import (
    MAX_STEERING_ENTRIES,
    _check_harmonic_count,
    coefficient_matrix,
    envelope_dft_coefficients,
    oracle_tolerance,
    radiation_pattern,
)
from .modulation import plan_constellation, simulate_constellation
from .schedule_design import design_schedule, suppressed_harmonics

SUPPRESSION_TOL = 1e-12

#: Largest ``verify --samples``: each DFT-oracle envelope is a few arrays of
#: this length (2**20 complex samples are 16 MiB).
MAX_SAMPLES = 1 << 20

#: Largest ``efficiency`` alpha grid; every point designs and integrates a
#: whole schedule.
MAX_ALPHA_POINTS = 100_000


def _add_design_flags(p: argparse.ArgumentParser, alpha_db: bool = True) -> None:
    p.add_argument("--elements", type=int, default=5, help="number of array elements")
    p.add_argument("--spacing-wl", type=float, default=0.5,
                   help="element spacing in wavelengths")
    p.add_argument("--f0", type=float, default=77e9, help="carrier frequency in Hz")
    p.add_argument("--fp", type=float, default=1e9, help="pulse frequency in Hz")
    p.add_argument("--paths", type=int, choices=(4, 8), default=4,
                   help="signal paths per element")
    p.add_argument("--theta-deg", type=float, default=20.0,
                   help="steering angle in degrees")
    if alpha_db:
        p.add_argument("--alpha-db", type=float, default=0.0,
                       help="duty-cycle ratio as 10*log10(alpha), at most 0")


def _config_from_args(args) -> ArrayConfig:
    return config_from_wavelengths(args.elements, args.spacing_wl, args.f0, args.fp, args.paths)


def _alpha_from_db(alpha_db: float) -> float:
    if alpha_db > 0:
        raise ValueError("--alpha-db must be at most 0 (alpha cannot exceed 1)")
    return 10.0 ** (alpha_db / 10.0)


def _designed_schedule(args) -> ArraySchedule:
    schedule = design_schedule(
        _config_from_args(args), math.radians(args.theta_deg), _alpha_from_db(args.alpha_db)
    )
    return canonical_schedule(schedule, args.theta_deg)


def _read_input(path: str, what: str, parse):
    """``parse`` of the input file at ``path``, opened; ``what`` names it if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _schedule_doc(fh) -> ArraySchedule:
    try:
        doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"schedule file is not valid JSON: {exc}") from exc
    return schedule_from_doc(doc)


def _circuit_doc(fh) -> CircuitParams:
    try:
        return CircuitParams.from_dict(json.load(fh))
    except ValueError as exc:
        raise ValueError(f"malformed circuit params file: {exc}") from exc


def _schedule_from_args(args) -> ArraySchedule:
    if getattr(args, "schedule", None):
        return _read_input(args.schedule, "schedule file", _schedule_doc)
    return _designed_schedule(args)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------- design

def cmd_design(args) -> int:
    schedule = _designed_schedule(args)
    _emit(dump_json(schedule_to_doc(schedule, args.theta_deg)) + "\n", args.out)
    return 0


# -------------------------------------------------------------------- pattern

def _grid_steps(flag: str, lo: float, hi: float, step: float, max_points: int) -> int:
    """Steps of the grid lo, lo + step, ... up to hi set by ``--<flag>-*``.

    The point count is checked in floating point before any grid exists, so a
    span that overflows to inf is rejected too.
    """
    if hi < lo:
        raise ValueError(f"empty {flag} grid: --{flag}-max below --{flag}-min")
    if step <= 0:
        raise ValueError(f"--{flag}-step must be positive")
    steps = (hi - lo) / step + 1e-9
    if not steps < max_points:
        raise ValueError(f"{flag} grid exceeds {max_points} points; raise --{flag}-step")
    return int(steps)


def _parse_harmonics(text: str) -> list[int]:
    try:
        harmonics = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad harmonic list {text!r}: {exc}") from exc
    if not harmonics:
        raise ValueError("harmonic list is empty")
    return harmonics


def cmd_pattern(args) -> int:
    schedule = _schedule_from_args(args)
    harmonics = _parse_harmonics(args.harmonics)
    n_steps = _grid_steps("theta", args.theta_min, args.theta_max, args.theta_step,
                          MAX_STEERING_ENTRIES // schedule.config.n_elements)
    if len(harmonics) * max(n_steps + 1, schedule.config.n_elements) > MAX_STEERING_ENTRIES:
        raise ValueError(f"harmonics x theta points exceed {MAX_STEERING_ENTRIES} entries; "
                         "request fewer harmonics")
    # capped: min + k * step can round past the max
    theta_deg = np.minimum(args.theta_min + args.theta_step * np.arange(n_steps + 1),
                           args.theta_max)
    theta = np.deg2rad(theta_deg)

    reference = None
    if args.normalize == "peakmode":
        cfg = schedule.config
        peak = canonical_schedule(
            design_schedule(cfg, schedule.steer_angle, 1.0),
            math.degrees(schedule.steer_angle),
        )
        reference = radiation_pattern(peak, [1], theta).reference

    table = radiation_pattern(schedule, harmonics, theta, reference)
    header = ["theta_deg"] + [f"m_{m}_db" for m in harmonics]
    rows = [
        [theta_deg[i]] + [table.levels_db[m][i] for m in harmonics]
        for i in range(len(theta_deg))
    ]
    _emit(write_csv(header, rows), args.out)
    return 0


# ----------------------------------------------------------------- efficiency

def cmd_efficiency(args) -> int:
    if args.alpha_db_max > 0:
        raise ValueError("--alpha-db-max must be at most 0")
    n_steps = _grid_steps("alpha-db", args.alpha_db_min, args.alpha_db_max,
                          args.alpha_db_step, MAX_ALPHA_POINTS)
    # capped: min + k * step can round past the max, and past 0 dB
    dbs = [min(args.alpha_db_min + k * args.alpha_db_step, args.alpha_db_max)
           for k in range(n_steps + 1)]

    params = _read_input(args.circuit, "circuit params", _circuit_doc) if args.circuit else None
    config = _config_from_args(args)
    rows_data = pbo_sweep(config, params, math.radians(args.theta_deg),
                          [10.0 ** (db / 10.0) for db in dbs])

    header = ["ten_log_alpha", "zeta_harm", "zeta_circ", "eta", "pbo_db"]
    rows = [[db, r.zeta_harm, r.zeta_circ, r.eta, r.pbo_db]
            for db, r in zip(dbs, rows_data)]

    if args.compare:
        fixture = _read_input(args.compare, "fixture", lambda fh: read_fixture_csv(fh.read()))
        labels = [args.series] if args.series else sorted(fixture)
        if args.series and args.series not in fixture:
            raise ValueError(f"fixture has no series {args.series!r}")
        column = {"zeta_harm": 1, "zeta_circ": 2, "eta": 3}[args.compare_column]
        for label in labels:
            lookup = {round(x, 9): y for x, y in fixture[label]}
            header += [f"ref_{label}", f"delta_pp_{label}"]
            for db, row in zip(dbs, rows):
                ref = lookup.get(round(db, 9))
                model = row[column]
                if ref is None or model is None:
                    row += [None, None]
                else:
                    row += [ref, 100.0 * model - ref]

    _emit(write_csv(header, rows), args.out)
    return 0


# ------------------------------------------------------------------------ qam

def cmd_qam(args) -> int:
    points = _read_input(args.constellation, "constellation",
                         lambda fh: read_constellation_csv(fh.read()))

    circuit = None
    if args.predistort == "circuit":
        if not args.circuit:
            raise ValueError("--predistort circuit requires --circuit <params.json>")
        circuit = _read_input(args.circuit, "circuit params", _circuit_doc)

    plans = plan_constellation(points, args.predistort != "off", circuit)
    result = simulate_constellation(plans, _config_from_args(args), math.radians(args.theta_deg))

    plans_doc = {
        "predistort": args.predistort,
        "evm_rms_percent": result.evm_rms_percent,
        "plans": [
            {
                "symbol_i": p.symbol.real,
                "symbol_q": p.symbol.imag,
                "alpha": p.duty_ratio,
                "ten_log_alpha": 10.0 * math.log10(p.duty_ratio),
                "carrier_phase_rad": p.carrier_phase,
                "magnitude_target": p.magnitude_target,
            }
            for p in plans
        ],
    }
    received_rows = [
        [p.symbol.real, p.symbol.imag, p.duty_ratio, z.real, z.imag]
        for p, z in zip(plans, result.received)
    ]
    received_csv = write_csv(
        ["symbol_i", "symbol_q", "alpha", "received_i", "received_q"], received_rows
    )

    if args.plans_out:
        _emit(dump_json(plans_doc) + "\n", args.plans_out)
    if args.received_out:
        _emit(received_csv, args.received_out)
    if args.plans_out or args.received_out:
        summary = {"evm_rms_percent": result.evm_rms_percent, "n_symbols": len(plans)}
        sys.stdout.write(dump_json(summary) + "\n")
    else:
        plans_doc["received"] = [{"i": z.real, "q": z.imag} for z in result.received]
        sys.stdout.write(dump_json(plans_doc) + "\n")
    return 0


# --------------------------------------------------------------------- verify

def _nan_high(x: float) -> float:
    """Sort key ranking NaN above every number, so a NaN result is never hidden."""
    return math.inf if math.isnan(x) else x


def cmd_verify(args) -> int:
    schedule = _schedule_from_args(args)
    _check_harmonic_count(schedule.config, args.m_max, 1)
    # below this count the oracle tolerance is 1 or more, which an all-zero
    # estimate meets
    least = next(n for n in range(1, MAX_SAMPLES + 1) if oracle_tolerance(n) < 1)
    if not least <= args.samples <= MAX_SAMPLES:
        raise ValueError(
            f"--samples must lie in [{least}, {MAX_SAMPLES}]; below {least} the oracle "
            "tolerance is 1 or more and would pass an all-zero estimate"
        )
    if args.m_max >= args.samples // 2:
        raise ValueError("--m-max must be below half the sample count")

    checks = []

    problems = validate(schedule)
    checks.append({
        "name": "schedule validation",
        "passed": not problems,
        "detail": "no violations" if not problems else "; ".join(problems),
    })

    ms = range(-args.m_max, args.m_max + 1)
    vectors = dict(zip(ms, coefficient_matrix(schedule, ms)))
    reference = np.abs(vectors[1])
    suppressed = suppressed_harmonics(schedule.config.path_count, args.m_max)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = [(m, float(np.max(np.abs(vectors[m]) / reference))) for m in suppressed]
    worst_m, worst_ratio = max([(None, 0.0), *ratios], key=lambda r: _nan_high(r[1]))
    checks.append({
        "name": "harmonic suppression",
        "passed": bool(suppressed) and worst_ratio < SUPPRESSION_TOL,
        "detail": (
            f"max |A_m|/|A_1| = {worst_ratio:.3e} at m={worst_m} "
            f"over {len(suppressed)} suppressed harmonics (tolerance {SUPPRESSION_TOL:g})"
        ),
    })

    tol = oracle_tolerance(args.samples)
    errors = []
    for i, element in enumerate(schedule.elements):
        exact = {m: vectors[m][i] for m in vectors}
        scale = max(abs(v) for v in exact.values())
        if not scale > 0:  # all-zero coefficients: a relative error is undefined
            errors.append(math.nan)
            continue
        estimate = envelope_dft_coefficients(element, args.samples, args.m_max)
        errors.append(max(abs(estimate[m] - exact[m]) for m in exact) / scale)
    worst_err = max(errors, key=_nan_high, default=math.nan)
    checks.append({
        "name": "analytic vs DFT oracle",
        "passed": worst_err < tol,
        "detail": (
            f"max relative error {worst_err:.3e} at {args.samples} samples "
            f"(tolerance {tol:.3e})"
        ),
    })

    all_passed = all(c["passed"] for c in checks)
    if args.json:
        sys.stdout.write(dump_json({"passed": all_passed, "checks": checks}) + "\n")
    else:
        for c in checks:
            status = "PASS" if c["passed"] else "FAIL"
            sys.stdout.write(f"{status}  {c['name']}: {c['detail']}\n")
        sys.stdout.write(("all checks passed" if all_passed else "verification FAILED") + "\n")
    return 0 if all_passed else 1


# ----------------------------------------------------------------------- main

class _Parser(argparse.ArgumentParser):
    """Argument parser that takes flags only by their full names and reports
    a usage error as the JSON error object on stderr, with exit code 2.  A
    token of ``-`` then a digit or ``.`` is a value (``-1e1``, ``-3,5``), as
    no flag starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        sys.stderr.write(dump_json({"error": message}) + "\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="switchbeam",
        description="Design and analyze harmonic-beamforming switching schedules.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("design", help="emit a switching-schedule JSON document")
    _add_design_flags(p)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("pattern", help="radiation patterns as CSV")
    _add_design_flags(p)
    p.add_argument("--schedule", help="schedule JSON file (overrides design flags)")
    p.add_argument("--harmonics", default="1,-3,5,-7", help="comma-separated harmonic indices")
    p.add_argument("--theta-min", type=float, default=-90.0,
                   help="first angle of the pattern grid, in degrees")
    p.add_argument("--theta-max", type=float, default=90.0,
                   help="last angle of the pattern grid, in degrees")
    p.add_argument("--theta-step", type=float, default=0.25,
                   help="pattern grid step in degrees, positive; the grid holds at most "
                        f"{MAX_STEERING_ENTRIES} / elements angles")
    p.add_argument("--normalize", choices=("self", "peakmode"), default="self",
                   help="reference for the dB scale: this schedule or the alpha=1 design")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser("efficiency", help="efficiency and back-off sweep as CSV")
    _add_design_flags(p, alpha_db=False)
    p.add_argument("--alpha-db-min", type=float, default=-10.0)
    p.add_argument("--alpha-db-max", type=float, default=0.0)
    p.add_argument("--alpha-db-step", type=float, default=1.0)
    p.add_argument("--circuit", help="circuit params JSON for zeta_circ and eta columns")
    p.add_argument("--compare", help="reference-curve fixture CSV to diff against")
    p.add_argument("--series", help="restrict --compare to one series label")
    p.add_argument("--compare-column", choices=("zeta_harm", "zeta_circ", "eta"),
                   default="zeta_harm", help="model column compared against the fixture")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("qam", help="plan and simulate a QAM constellation")
    _add_design_flags(p, alpha_db=False)
    p.add_argument("--constellation", required=True, help="CSV of i,q rows")
    p.add_argument("--predistort", choices=("on", "off", "circuit"), default="on")
    p.add_argument("--circuit", help="circuit params JSON (for --predistort circuit)")
    p.add_argument("--plans-out", help="write symbol plans JSON here")
    p.add_argument("--received-out", help="write received-constellation CSV here")
    p.set_defaults(func=cmd_qam)

    p = sub.add_parser("verify", help="run suppression and DFT-oracle checks")
    _add_design_flags(p)
    p.add_argument("--schedule", help="schedule JSON file (overrides design flags)")
    p.add_argument("--m-max", type=int, default=25)
    p.add_argument("--samples", type=int, default=16384)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    return parser


def _check_finite(args) -> None:
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"--{name.replace('_', '-')} must be finite, got {value!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_finite(args)
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(dump_json({"error": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
