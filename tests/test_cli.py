"""Command-line interface: formats, round trips, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchbeam import array_model, cli, harmonic_analysis
from switchbeam.array_model import MAX_ELEMENTS, pulse_table
from switchbeam.circuit_model import CircuitParams
from switchbeam.cli import main

DESIGN_20 = ["--elements", "5", "--spacing-wl", "0.5", "--f0", "77e9",
             "--fp", "1e9", "--paths", "4", "--theta-deg", "20"]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def reference_path(name: str) -> str:
    return str(resources.files("switchbeam.reference").joinpath(name))


class NoArange:
    """Stands in for numpy in ``cli``: allocating the theta grid fails the test."""

    def __getattr__(self, name):
        if name == "arange":
            raise AssertionError("theta grid allocated")
        return getattr(np, name)


def csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


class TestDesign:
    def test_reference_design_document(self, capsys):
        code, out, _ = run(capsys, "design", *DESIGN_20, "--alpha-db", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"] == {
            "elements": 5, "spacing_wavelengths": 0.5, "f0_hz": 77e9,
            "fp_hz": 1e9, "paths": 4,
        }
        assert len(doc["elements"]) == 5
        for element in doc["elements"]:
            assert len(element["paths"]) == 4
            for path in element["paths"]:
                assert path["width_norm"] == pytest.approx(1 / 3, rel=1e-12)

    def test_backed_off_width(self, capsys):
        code, out, _ = run(capsys, "design", "--alpha-db", "-6")
        assert code == 0
        doc = json.loads(out)
        width = doc["elements"][0]["paths"][0]["width_norm"]
        assert width == pytest.approx(10**-0.6 / 3, rel=1e-9)
        assert width == pytest.approx(0.0837, abs=2e-4)

    def test_rejects_unknown_path_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["design", "--paths", "3"])
        assert exc.value.code == 2

    def test_rejects_positive_alpha_db(self, capsys):
        code, _, err = run(capsys, "design", "--alpha-db", "1.0")
        assert code == 2
        assert "error" in json.loads(err)

    @pytest.mark.parametrize("argv", [
        ["efficiency", "--alpha-db", "5"],
        ["qam", "--constellation", reference_path("qam16.csv"), "--alpha-db", "-3"],
    ])
    def test_alpha_db_only_where_it_is_read(self, capsys, argv):
        # efficiency sweeps its own grid and qam sets alpha per symbol
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "schedule.json"
        code, out, _ = run(capsys, "design", "--out", str(out_path))
        assert code == 0 and out == ""
        json.loads(out_path.read_text())


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["design", "--paths", "3"],
        ["efficiency", "--alpha-db", "5"],
        ["qam", "--constellation", reference_path("qam16.csv"), "--alpha-db", "-3"],
        [],
        ["design", "--elem", "2"],
        ["design", "--theta-deg", "-1", "-2"],
        ["design", "--theta-deg", "-inf"],
    ], ids=["bad-choice", "efficiency-alpha-db", "qam-alpha-db", "no-command", "abbreviated",
            "stray-negative", "dash-letter-value"])
    def test_exit_two_with_json_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "error" in json.loads(out.err)

    @pytest.mark.parametrize("argv, flag, value", [
        (["design"], "--theta-deg", "-1e1"),
        (["design"], "--alpha-db", "-.5"),
        (["pattern", "--theta-step", "30"], "--harmonics", "-3,5"),
    ])
    def test_a_value_after_a_dash_reads_as_the_equals_form(self, capsys, argv, flag, value):
        # a dash then a digit or "." is a value, as no flag starts that way
        split = run(capsys, *argv, flag, value)
        assert split == run(capsys, *argv, f"{flag}={value}")
        assert split[0] == 0 and split[1]

    def test_version_and_help_still_exit_zero(self, capsys):
        for argv in (["--version"], ["design", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0 and capsys.readouterr().out


class TestPattern:
    def test_main_lobe_at_steering_angle(self, capsys):
        code, out, _ = run(capsys, "pattern", *DESIGN_20, "--alpha-db", "0",
                           "--theta-step", "0.25")
        assert code == 0
        rows = csv_rows(out)
        assert list(rows[0]) == ["theta_deg", "m_1_db", "m_-3_db", "m_5_db", "m_-7_db"]
        best = max(rows, key=lambda r: float(r["m_1_db"]))
        assert abs(float(best["theta_deg"]) - 20.0) <= 0.25

    def test_suppressed_harmonic_stays_deep(self, capsys):
        code, out, _ = run(capsys, "pattern", "--alpha-db", "-6",
                           "--normalize", "peakmode", "--theta-step", "1")
        assert code == 0
        for row in csv_rows(out):
            assert float(row["m_-3_db"]) <= -120.0

    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        sched = tmp_path / "s.json"
        assert main(["design", "--alpha-db", "-3", "--out", str(sched)]) == 0
        capsys.readouterr()
        _, inline, _ = run(capsys, "pattern", "--alpha-db", "-3", "--theta-step", "0.5")
        _, from_file, _ = run(capsys, "pattern", "--schedule", str(sched),
                              "--theta-step", "0.5")
        assert inline == from_file

    def test_runs_are_deterministic(self, capsys):
        _, first, _ = run(capsys, "pattern", "--theta-step", "2")
        _, second, _ = run(capsys, "pattern", "--theta-step", "2")
        assert first == second

    def test_empty_grid_exits_two(self, capsys):
        code, _, err = run(capsys, "pattern", "--theta-min", "10", "--theta-max", "-10")
        assert code == 2 and "error" in json.loads(err)

    def test_grid_ends_on_its_max(self, capsys):
        # -4.1 + 41 * 0.1 rounds to 8.9e-16, past the max
        code, out, err = run(capsys, "pattern", "--theta-min", "-4.1", "--theta-max", "0",
                             "--theta-step", "0.1")
        assert code == 0, err
        assert out.splitlines()[-1].startswith("0,")

    def test_bad_harmonic_list_exits_two(self, capsys):
        code, _, _ = run(capsys, "pattern", "--harmonics", "1,x,5")
        assert code == 2

    @pytest.mark.parametrize("index", ["9" * 400, str(2**53 + 1), str(-2**53 - 1)])
    def test_out_of_range_harmonic_exits_two(self, capsys, index):
        code, out, err = run(capsys, "pattern", "--theta-step", "10", "--harmonics", f"1,{index}")
        assert code == 2 and out == ""
        assert "2**53" in json.loads(err)["error"]

    def test_largest_harmonic_is_accepted(self, capsys):
        code, _, _ = run(capsys, "pattern", "--theta-step", "10", "--harmonics", f"1,{-2**53}")
        assert code == 0

    def test_oversized_grid_exits_two_before_allocating(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "np", NoArange())
        # 16 elements x 262145 points is one above 2**22 entries
        code, _, err = run(capsys, "pattern", "--elements", "16", "--theta-min", "0",
                           "--theta-max", "262144", "--theta-step", "1")
        assert code == 2 and "exceeds" in json.loads(err)["error"]
        code, _, err = run(capsys, "pattern", "--theta-step", "1e-300")
        assert code == 2 and "exceeds" in json.loads(err)["error"]
        # a span that overflows to inf
        code, _, err = run(capsys, "pattern", "--theta-min=-1e308", "--theta-max", "1e308")
        assert code == 2 and "exceeds" in json.loads(err)["error"]

    def test_harmonics_times_grid_exits_two_before_allocating(self, capsys, monkeypatch):
        # 19 theta points x 5 elements fit under the lowered cap, but 6
        # harmonics x 19 points are one above it
        monkeypatch.setattr(cli, "MAX_STEERING_ENTRIES", 6 * 19 - 1)
        monkeypatch.setattr(cli, "np", NoArange())
        code, out, err = run(capsys, "pattern", "--theta-step", "10",
                             "--harmonics", "1,-3,5,-7,9,-11")
        assert code == 2 and out == ""
        assert "harmonics" in json.loads(err)["error"]


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["design", "--out"],
        ["qam", "--constellation", reference_path("qam16.csv"), "--plans-out"],
        ["qam", "--constellation", reference_path("qam16.csv"), "--received-out"],
    ])
    def test_missing_directory_exits_two(self, capsys, tmp_path, argv):
        target = str(tmp_path / "missing" / "out.txt")
        code, out, err = run(capsys, *argv, target)
        assert code == 2 and out == ""
        assert target in json.loads(err)["error"]


def set_number(field, value):
    """A document edit setting ``field`` of the document, its config or one
    path to ``value``."""
    def edit(doc):
        holders = (doc, doc["config"], doc["elements"][1]["paths"][2])
        next(h for h in holders if field in h)[field] = value
    return edit


class TestMalformedScheduleDocument:
    @pytest.mark.parametrize("command", ["verify", "pattern"])
    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["config"].update(f0_hz=0), "carrier frequency"),
        (lambda doc: doc["elements"][1]["paths"][2].update(phase_deg=math.nan), "finite"),
        (lambda doc: doc["config"].update(elements=math.inf), "malformed"),
        (lambda doc: doc["config"].update(elements=MAX_ELEMENTS + 1), "n_elements"),
        # int() would truncate these to 5 elements and 4 paths and verify them
        (lambda doc: doc["config"].update(elements=5.9, paths=4.7), "integer"),
        (lambda doc: doc["config"].update(paths=4.0), "integer"),
        (lambda doc: doc["config"].update(elements=True), "integer"),
        (lambda doc: doc["elements"][3].update(index=3.5), "integer"),
        # the element list must hold one schedule per configured element
        (lambda doc: doc["elements"].__delitem__(slice(3, None)),
         "3 element schedules for 5 configured elements"),
        (lambda doc: doc.update(elements=[]), "0 element schedules for 5 configured elements"),
    ] + [
        # float() would take these and verify the schedule
        (set_number(field, value), f"{field} must be a number, got {value!r}")
        for field in ("alpha", "theta_deg", "spacing_wavelengths", "f0_hz", "fp_hz",
                      "phase_deg", "onset_pos_norm", "onset_neg_norm", "width_norm")
        for value in (True, "0.333333333333333")
    ] + [
        # json reads and writes NaN and Infinity; a schedule takes neither
        (set_number(field, value), "duty ratio and steer angle must be finite")
        for field in ("alpha", "theta_deg")
        for value in (math.nan, math.inf)
    ])
    def test_exits_two_with_json_error(self, capsys, tmp_path, command, edit, message):
        sched = tmp_path / "s.json"
        assert main(["design", "--out", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        edit(doc)
        sched.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--schedule", str(sched))
        assert code == 2 and out == ""
        assert message in json.loads(err)["error"]


class TestAllocationCaps:
    def test_element_count(self, capsys):
        code, _, err = run(capsys, "design", "--elements", str(MAX_ELEMENTS + 1))
        assert code == 2 and "n_elements" in json.loads(err)["error"]

    def test_sample_count(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", str(cli.MAX_SAMPLES + 1))
        assert code == 2 and "--samples" in json.loads(err)["error"]

    def test_harmonics_times_elements(self, capsys, monkeypatch):
        # 51 harmonics x 5 elements is one above the lowered cap
        monkeypatch.setattr(harmonic_analysis, "MAX_STEERING_ENTRIES", 51 * 5 - 1)
        code, _, err = run(capsys, "verify", "--m-max", "25")
        assert code == 2
        assert "51 harmonics x 5 elements exceed the coefficient cap" in json.loads(err)["error"]

    @pytest.mark.parametrize("grid", [
        ["--alpha-db-min", "-10", "--alpha-db-step", "1e-4"],  # 100001 points
        ["--alpha-db-min=-1e308", "--alpha-db-step", "1e-300"],  # overflows to inf
    ])
    def test_alpha_grid_is_rejected_before_the_sweep(self, capsys, monkeypatch, grid):
        def no_sweep(*args):
            raise AssertionError("alpha grid swept")

        monkeypatch.setattr(cli, "pbo_sweep", no_sweep)
        code, _, err = run(capsys, "efficiency", *grid)
        assert code == 2 and "exceeds" in json.loads(err)["error"]


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["design", "--f0", "nan"],
        ["design", "--spacing-wl", "inf"],
        ["pattern", "--theta-max", "inf"],
        ["efficiency", "--alpha-db-min=-inf"],
        ["verify", "--theta-deg", "nan"],
    ])
    def test_exits_two_with_json_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "finite" in json.loads(err)["error"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_onsets_exit_two_without_numpy_warnings(self, capsys):
        # n * beta_d * sin(theta) overflows at the last elements
        code, out, err = run(capsys, "design", "--elements", "2048", "--spacing-wl", "1e305")
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "pulse train timings must be finite"}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["pattern", "verify"])
    def test_document_spacing_overflowing_beta_d_exits_two(self, capsys, tmp_path, command):
        code, out, _ = run(capsys, "design", *DESIGN_20)
        doc = json.loads(out)
        doc["config"]["spacing_wavelengths"] = 1e308
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--schedule", str(path))
        assert code == 2 and out == ""
        assert "element_spacing" in json.loads(err)["error"]

    @pytest.mark.parametrize("command, text, line", [
        (["qam"], "nan,1\n", 1),
        (["qam", "--predistort", "off"], "i,q\n0.5,0.5\nnan,1\n", 3),
        (["qam"], "0.5,1e400\n", 1),
        (["efficiency"], "ten_log_alpha,efficiency_percent,series_label\n0,nan,a\n", 2),
        (["efficiency"], "ten_log_alpha,efficiency_percent,series_label\n0,1,a\n-1,-inf,a\n", 3),
        (["efficiency"], "ten_log_alpha,efficiency_percent,series_label\nnan,50,a\n", 2),
    ])
    def test_csv_numbers_must_be_finite(self, capsys, tmp_path, command, text, line):
        path = tmp_path / "input.csv"
        path.write_text(text)
        flag = "--constellation" if command[0] == "qam" else "--compare"
        code, out, err = run(capsys, *command, flag, str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"].endswith(f"line {line}: non-finite value")


def numeric_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) of every int or float flag of the CLI."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions if action.type in (int, float)]


#: Random values of the flags that size a grid, drawn where a valid value
#: keeps the grid small: elsewhere a random float could ask for 10**5 angles
#: or back-off points, valid but seconds long.  Int flags (sizes too) never
#: take a float's text, and every other flag takes any finite float.
GRID_FLAG_VALUES = {
    "--theta-min": st.floats(-400.0, 400.0), "--theta-max": st.floats(-400.0, 400.0),
    "--theta-step": st.floats(0.25, 1e308),
    "--alpha-db-min": st.floats(-400.0, 400.0), "--alpha-db-max": st.floats(-400.0, 400.0),
    "--alpha-db-step": st.floats(0.1, 1e308),
}


@st.composite
def numeric_flag_runs(draw, flags):
    """One subcommand with one of its numeric ``flags`` set to an extreme or
    random value, in the ``--flag v`` or the ``--flag=v`` form."""
    command, flag = draw(st.sampled_from(flags))
    value = draw(st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1e+308", "-1e+308", "5e-324", "-0.0",
                         str(10**399), "1.5"]),
        GRID_FLAG_VALUES.get(flag, st.floats(allow_nan=False, allow_infinity=False)).map(repr),
    ))
    setting = [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    extra = ["--constellation", reference_path("qam16.csv")] if command == "qam" else []
    return [command, *extra, *setting]


class TestEfficiency:
    def test_sweep_endpoints(self, capsys):
        code, out, _ = run(capsys, "efficiency", "--alpha-db-min", "-10",
                           "--alpha-db-max", "0", "--alpha-db-step", "1")
        assert code == 0
        rows = {float(r["ten_log_alpha"]): r for r in csv_rows(out)}
        assert abs(float(rows[0.0]["zeta_harm"]) - 0.897) <= 0.04
        assert float(rows[-6.0]["pbo_db"]) == pytest.approx(-8.7, abs=0.3)
        assert rows[0.0]["zeta_circ"] == "" and rows[0.0]["eta"] == ""

    # -4.1 + 41 * 0.1 and -4.6 + 23 * 0.2 round above 0 dB (alpha above 1),
    # -0.3 + 3 * 0.1 to 5.55e-17
    @pytest.mark.parametrize("low, step", [("-4.1", "0.1"), ("-4.6", "0.2"), ("-0.3", "0.1")])
    def test_grid_ends_on_its_max(self, capsys, low, step):
        code, out, err = run(capsys, "efficiency", "--alpha-db-min", low,
                             "--alpha-db-max", "0", "--alpha-db-step", step)
        assert code == 0, err
        assert float(csv_rows(out)[-1]["ten_log_alpha"]) == 0.0

    def test_circuit_columns_with_params(self, capsys):
        code, out, _ = run(capsys, "efficiency", "--alpha-db-step", "5",
                           "--circuit", reference_path("circuit_params_200mhz.json"))
        assert code == 0
        rows = {float(r["ten_log_alpha"]): r for r in csv_rows(out)}
        assert float(rows[0.0]["zeta_circ"]) == pytest.approx(0.3113, abs=1e-3)
        eta = float(rows[0.0]["eta"])
        assert eta == pytest.approx(
            float(rows[0.0]["zeta_harm"]) * float(rows[0.0]["zeta_circ"]), abs=1e-9
        )

    def test_compare_emits_deltas_within_tolerance(self, capsys):
        code, out, _ = run(
            capsys, "efficiency", "--alpha-db-step", "1",
            "--compare", reference_path("harmonic_efficiency.csv"),
            "--series", "ideal_4path",
        )
        assert code == 0
        rows = csv_rows(out)
        assert "delta_pp_ideal_4path" in rows[0]
        for row in rows:
            assert abs(float(row["delta_pp_ideal_4path"])) < 5.0

    @pytest.mark.parametrize("params_name, series", [
        ("circuit_params_200mhz.json", "model_200mhz"),
        ("circuit_params_2ghz.json", "model_2ghz"),
    ])
    def test_compare_column_reads_the_named_column(self, capsys, params_name, series):
        # the fitted parameter sets reproduce their model curves (criterion 6)
        argv = ["efficiency", "--circuit", reference_path(params_name),
                "--compare", reference_path("circuit_drain_efficiency.csv"), "--series", series]
        code, out, _ = run(capsys, *argv, "--compare-column", "zeta_circ")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 11
        for row in rows:
            assert abs(float(row[f"delta_pp_{series}"])) <= 1e-9
        code, out, _ = run(capsys, *argv, "--compare-column", "eta")
        assert code == 0
        for row in csv_rows(out):
            # the printed cells carry 15 digits, the delta their unrounded difference
            delta = 100.0 * float(row["eta"]) - float(row[f"ref_{series}"])
            assert float(row[f"delta_pp_{series}"]) == pytest.approx(delta, rel=0, abs=1e-9)

    def test_malformed_circuit_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"supply_voltage\": 1.2}")
        code, _, err = run(capsys, "efficiency", "--circuit", str(bad))
        assert code == 2 and "missing" in json.loads(err)["error"]

    @pytest.mark.parametrize("edit", [
        lambda doc: 5,
        lambda doc: {**doc, "bias_current": None},
        lambda doc: {**doc, "pulse_freq": 10**400},
        # float() would read these as 1.0 and 0.01
        lambda doc: {**doc, "supply_voltage": True, "bias_current": "1e-2"},
    ])
    def test_circuit_file_of_non_numbers_exits_two(self, capsys, tmp_path, edit):
        with open(reference_path("circuit_params_200mhz.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(doc)))
        code, out, err = run(capsys, "efficiency", "--circuit", str(bad))
        assert code == 2 and out == ""
        assert "malformed circuit params" in json.loads(err)["error"]


def circuit_file(directory: Path, name: str, field: str, value: float) -> str:
    """A reference circuit file with one field set to ``value``."""
    with open(reference_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = directory / f"{field}.json"
    path.write_text(json.dumps({**doc, field: value}))
    return str(path)


def circuit_argv(command: str, path: str) -> list[str]:
    if command == "efficiency":
        return ["efficiency", "--circuit", path]
    return ["qam", "--constellation", reference_path("qam16.csv"),
            "--predistort", "circuit", "--circuit", path]


def exits_cleanly(argv: list[str]) -> int:
    """Run ``main(argv)`` in process and check the exit contract: code 0, 1
    or 2 and no other exception; 2 writes one JSON ``error`` object to stderr
    and nothing to stdout; 0 prints no nan or inf."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, from the argument parser
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == "" and list(json.loads(err.getvalue())) == ["error"]
    elif code == 0:
        assert not re.search("nan|inf", out.getvalue(), re.IGNORECASE)
    return code


#: Values a document field may take: non-finite, subnormal, huge, of the
#: wrong type, null and containers.
ODD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308,
                     0.0, -0.0, -1.0, 10**400, -(10**400), 2**64, True, False, None, "", "1.5",
                     "abc", [], {}, [1.0], {"a": 1}]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(),
)

#: Text a CSV cell may hold: the same kinds, as the file would spell them.
ODD_CELLS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "5e-324", "2.2e-308", "1e308",
                     "-1e308", "1e400", str(10**400), "0", "-0.0", "True", "null", "", "abc",
                     "[1]", "{}", " 1 ", "0x10", "1,2"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


def json_edits(draw, doc):
    """``doc`` with one field set to an odd value, deleted, or joined by an
    extra key, anywhere in its tree; or replaced whole."""
    places = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            places.append((node, key))
            if isinstance(child, (dict, list)):
                walk(child)

    walk(doc)
    action = draw(st.sampled_from(["set", "set", "delete", "extra", "whole"]))
    if action == "whole" or not places:
        return draw(ODD_VALUES)
    node, key = draw(st.sampled_from(places))
    if action == "set":
        node[key] = draw(ODD_VALUES)
    elif action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node["extra"] = draw(ODD_VALUES)
    else:
        node.append(draw(ODD_VALUES))
    return doc


def csv_edits(draw, text: str) -> str:
    """``text`` with one cell set to odd text, a row or column dropped or
    added, or the header changed."""
    rows = [line.split(",") for line in text.splitlines()]
    action = draw(st.sampled_from(["cell", "cell", "cell", "drop row", "drop column",
                                   "extra column", "extra row", "header"]))
    r = draw(st.integers(0, len(rows) - 1))
    if action == "cell":
        rows[r][draw(st.integers(0, len(rows[r]) - 1))] = draw(ODD_CELLS)
    elif action == "drop row":
        del rows[r]
    elif action == "drop column":
        c = draw(st.integers(0, len(rows[0]) - 1))
        rows = [row[:c] + row[c + 1:] for row in rows]
    elif action == "extra column":
        rows = [row + [draw(ODD_CELLS)] for row in rows]
    elif action == "extra row":
        rows.insert(r, [draw(ODD_CELLS) for _ in rows[0]])
    else:
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(ODD_CELLS)
    return "\n".join(",".join(row) for row in rows) + "\n"


def design_document(elements: int, paths: int) -> dict:
    """The ``design`` subcommand's schedule document of a small array."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["design", "--elements", str(elements), "--paths", str(paths)]) == 0
    return json.loads(out.getvalue())


def reference_text(name: str) -> str:
    with open(reference_path(name), encoding="utf-8") as fh:
        return fh.read()


@st.composite
def input_file_runs(draw):
    """(subcommand argv with a ``{path}`` slot, file text): a schedule
    document, circuit document, constellation CSV or ``--compare`` fixture
    CSV with one odd edit, for a subcommand that reads it."""
    kind = draw(st.sampled_from(["schedule", "circuit", "constellation", "compare"]))
    if kind == "schedule":
        doc = design_document(draw(st.integers(1, 3)), draw(st.sampled_from([4, 8])))
        argv = draw(st.sampled_from([["pattern", "--theta-step", "5"],
                                     ["verify", "--samples", "1024", "--m-max", "7"]]))
        return [*argv, "--schedule", "{path}"], json.dumps(json_edits(draw, doc))
    if kind == "circuit":
        name = draw(st.sampled_from(["circuit_params_200mhz.json", "circuit_params_2ghz.json"]))
        text = json.dumps(json_edits(draw, json.loads(reference_text(name))))
        return draw(st.sampled_from([circuit_argv("efficiency", "{path}"),
                                     circuit_argv("qam", "{path}")])), text
    if kind == "constellation":
        text = csv_edits(draw, reference_text("qam16.csv"))
        predistort = draw(st.sampled_from(["on", "off"]))
        return ["qam", "--constellation", "{path}", "--predistort", predistort], text
    text = csv_edits(draw, reference_text("harmonic_efficiency.csv"))
    return ["efficiency", "--compare", "{path}", "--series", "ideal_4path"], text


class TestAnyInput:
    """Every input kind, driven in process with extreme and ill-typed values:
    the CLI exits 0, 1 or 2 and never with a traceback; exit 2 writes the
    JSON error alone, and exit 0 prints finite numbers."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(numeric_flag_runs(numeric_flags()))
    def test_any_flag_value_exits_cleanly(self, argv):
        exits_cleanly(argv)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(input_file_runs())
    @example((["qam", "--constellation", "{path}"], "i,q\n1e308,1.5e308\n1,1\n"))
    def test_any_input_file_exits_cleanly(self, run):
        argv, text = run
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "input"
            path.write_text(text, encoding="utf-8")
            exits_cleanly([str(path) if arg == "{path}" else arg for arg in argv])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(["circuit_params_200mhz.json", "circuit_params_2ghz.json"]),
        field=st.sampled_from([f.name for f in dataclasses.fields(CircuitParams)]),
        value=st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1e308, -1e308]),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
    )
    def test_any_finite_circuit_value(self, name, field, value):
        # a finite circuit value never asks for exit 1
        with tempfile.TemporaryDirectory() as directory:
            path = circuit_file(Path(directory), name, field, value)
            for command in ("efficiency", "qam"):
                assert exits_cleanly(circuit_argv(command, path)) in (0, 2)

    @pytest.mark.parametrize("command, field, value", [
        ("efficiency", "supply_voltage", 1e300),
        ("qam", "peak_voltage", 1e-300),
        ("qam", "load_resistance", 1e308),
        ("qam", "switch_resistance", 5e-324),
        ("qam", "switch_capacitance", 1e300),
    ])
    def test_extreme_circuit_values_exit_two(self, capsys, tmp_path, command, field, value):
        path = circuit_file(tmp_path, "circuit_params_200mhz.json", field, value)
        code, out, err = run(capsys, *circuit_argv(command, path))
        assert code == 2 and out == ""
        assert "efficiency at peak duty must be finite and positive" in json.loads(err)["error"]


class TestQam:
    def test_predistorted_16qam(self, capsys):
        code, out, _ = run(capsys, "qam", "--constellation", reference_path("qam16.csv"),
                           "--predistort", "on")
        assert code == 0
        doc = json.loads(out)
        assert doc["evm_rms_percent"] < 0.1
        assert len(doc["plans"]) == 16
        assert len(doc["received"]) == 16

    def test_raw_mapping_is_worse(self, capsys):
        _, out_on, _ = run(capsys, "qam", "--constellation", reference_path("qam16.csv"),
                           "--predistort", "on")
        _, out_off, _ = run(capsys, "qam", "--constellation", reference_path("qam16.csv"),
                            "--predistort", "off")
        assert json.loads(out_off)["evm_rms_percent"] > json.loads(out_on)["evm_rms_percent"]

    def test_qpsk_runs_at_peak(self, capsys, tmp_path):
        csv = tmp_path / "qpsk.csv"
        csv.write_text("i,q\n1,1\n-1,1\n-1,-1\n1,-1\n")
        code, out, _ = run(capsys, "qam", "--constellation", str(csv))
        assert code == 0
        assert all(p["alpha"] == 1 for p in json.loads(out)["plans"])

    def test_output_files(self, capsys, tmp_path):
        plans = tmp_path / "plans.json"
        received = tmp_path / "received.csv"
        code, out, _ = run(capsys, "qam", "--constellation", reference_path("qam16.csv"),
                           "--plans-out", str(plans), "--received-out", str(received))
        assert code == 0
        assert "evm_rms_percent" in json.loads(out)
        assert len(json.loads(plans.read_text())["plans"]) == 16
        assert len(csv_rows(received.read_text())) == 16

    def test_circuit_mode_requires_params(self, capsys):
        code, _, err = run(capsys, "qam", "--constellation", reference_path("qam16.csv"),
                           "--predistort", "circuit")
        assert code == 2 and "circuit" in json.loads(err)["error"]


class TestVerify:
    def test_designed_schedule_passes(self, capsys):
        code, out, _ = run(capsys, "verify", *DESIGN_20, "--alpha-db", "-6")
        assert code == 0
        assert "all checks passed" in out

    def test_oracle_does_not_read_the_pulse_table(self, capsys, monkeypatch):
        # the analytic coefficients of a loaded schedule read it through
        # array_model.pulse_table and the DFT oracle reads the paths, so a
        # flattening that widens every pulse by 0.1% must fail the oracle check
        def widened(elements):
            onsets, widths, rotation = pulse_table(elements)
            return onsets, widths * 1.001, rotation

        monkeypatch.setattr(array_model, "pulse_table", widened)
        code, out, _ = run(capsys, "verify", "--elements", "8", "--paths", "8",
                           "--alpha-db", "-6")
        assert code == 1
        assert "FAIL  analytic vs DFT oracle" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert {c["name"] for c in doc["checks"]} == {
            "schedule validation", "harmonic suppression", "analytic vs DFT oracle",
        }

    def test_hand_edited_offset_fails_suppression(self, capsys, tmp_path):
        # at peak duty the width factor alone hides a broken offset, so edit
        # a backed-off schedule where only the -1/3 rule protects m = -3
        sched = tmp_path / "s.json"
        assert main(["design", "--alpha-db", "-6", "--out", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        # replace the opposed-pair offset -1/3 with -0.30 on every element
        for element in doc["elements"]:
            by_phase = {p["phase_deg"]: p for p in element["paths"]}
            t1 = by_phase[0]["onset_pos_norm"]
            for deg, shift in ((-180, -0.30), (-270, -0.30 - 0.25)):
                by_phase[deg]["onset_pos_norm"] = (t1 + shift) % 1.0
                by_phase[deg]["onset_neg_norm"] = (t1 + shift + 0.5) % 1.0
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", "--schedule", str(sched), "--json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["harmonic suppression"]["passed"] is False
        assert "m=-3" in checks["harmonic suppression"]["detail"]

    def test_steer_angle_beyond_endfire_fails_validation(self, capsys, tmp_path):
        # design rejects the angle, so the document is edited by hand
        sched = tmp_path / "s.json"
        assert main(["design", "--out", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        doc["theta_deg"] = 95
        sched.write_text(json.dumps(doc))
        capsys.readouterr()
        code, out, _ = run(capsys, "verify", "--schedule", str(sched), "--json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["schedule validation"]["passed"] is False
        assert "steer angle 95 deg outside (-90, 90)" in checks["schedule validation"]["detail"]

    def test_coarse_sampling_uses_relaxed_tolerance(self, capsys):
        code, out, _ = run(capsys, "verify", "--samples", "256", "--json")
        assert code == 0
        oracle = next(c for c in json.loads(out)["checks"]
                      if c["name"] == "analytic vs DFT oracle")
        assert oracle["passed"] is True
        assert "tolerance 2.621e-01" in oracle["detail"]

    def test_sample_count_with_vacuous_tolerance_is_rejected(self, capsys):
        # oracle_tolerance(163) >= 1 would accept an all-zero estimate
        assert cli.oracle_tolerance(163) >= 1 > cli.oracle_tolerance(164)
        code, out, err = run(capsys, "verify", "--samples", "163")
        assert code == 2 and out == ""
        assert "[164, " in json.loads(err)["error"]
        code, out, _ = run(capsys, "verify", "--samples", "164")
        assert code == 0, out

    def test_all_zero_oracle_fails_at_the_least_sample_count(self, capsys, monkeypatch):
        def zeros(element, samples, m_max):
            return dict.fromkeys(range(-m_max, m_max + 1), 0j)

        monkeypatch.setattr(cli, "envelope_dft_coefficients", zeros)
        code, out, _ = run(capsys, "verify", "--samples", "164", "--m-max", "20")
        assert code == 1
        assert "FAIL  analytic vs DFT oracle: max relative error 1.000e+00" in out

    def test_element_without_paths_fails_every_check(self, capsys, tmp_path):
        # |A_1| = 0 at the empty element: the suppression ratios are 0/0 and
        # the oracle has no scale; both must report FAIL, not a vacuous PASS
        sched = tmp_path / "s.json"
        assert main(["design", "--out", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        doc["elements"][2]["paths"] = []
        sched.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--schedule", str(sched), "--json")
        assert code == 1
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert checks["harmonic suppression"]["passed"] is False
        assert "nan" in checks["harmonic suppression"]["detail"]
        assert checks["analytic vs DFT oracle"]["passed"] is False
        assert "nan" in checks["analytic vs DFT oracle"]["detail"]

    def test_schedule_without_any_path_fails_in_text_mode(self, capsys, tmp_path):
        sched = tmp_path / "s.json"
        assert main(["design", "--out", str(sched)]) == 0
        doc = json.loads(sched.read_text())
        for element in doc["elements"]:
            element["paths"] = []
        sched.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--schedule", str(sched))
        assert code == 1
        assert [line.split()[0] for line in out.splitlines()] == ["FAIL"] * 3 + ["verification"]

    def test_m_max_must_clear_nyquist(self, capsys):
        code, _, err = run(capsys, "verify", "--samples", "256", "--m-max", "128")
        assert code == 2 and "--m-max" in json.loads(err)["error"]
