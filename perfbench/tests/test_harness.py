"""Tests of the benchmark harness itself: span accounting, statistics, checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workload  # noqa: E402
from tracing import Tracer, median, nesting_gap, self_times, tail  # noqa: E402


# ------------------------------------------------------------ span accounting

NESTED = [
    ["op", 0.0, 10.0, -1],
    ["harmonic_analysis.total_power", 1.0, 4.0, 0],
    ["array_model.envelope_segments", 2.0, 3.0, 1],
    ["schedule_design.design_schedule", 5.0, 9.0, 0],
    ["op", 20.0, 22.0, -1],
]


def test_self_time_is_duration_minus_children():
    assert self_times(NESTED) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_nested_self_times_add_up_to_root_time():
    assert nesting_gap(NESTED, self_times(NESTED)) == 0.0


def test_children_outside_their_parent_show_as_a_nesting_gap():
    spans = [["op", 0.0, 10.0, -1], ["a.f", 5.0, 15.0, 0], ["a.g", 6.0, 7.0, 0]]
    selfs = self_times(spans)
    assert selfs[0] == 5.0  # overlapping children are counted once, clipped at 10
    assert nesting_gap(spans, selfs) == pytest.approx(0.6)


def test_tracer_records_parent_links_and_counts():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "m.inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "m.outer")
    assert outer(1) == 4 and tracer.spans == []  # disabled: nothing recorded
    tracer.enabled = True
    root = tracer.open("op")
    outer(1)
    tracer.close(root)
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("op", -1), ("m.outer", 0), ("m.inner", 1)]
    assert tracer.counters["m.outer.calls"] == 1


def test_layer_metrics_shares_cover_the_operation():
    counters = {"harmonic_analysis.total_power.calls": 1,
                "harmonic_analysis.total_power.pairs": 6}
    m, gap = workload.layer_metrics(NESTED, counters, 1, ops=2, import_s=0.1)
    assert gap == 0.0
    shares = {k: v for k, (v, unit) in m.items() if k.startswith("share.")}
    assert sum(shares.values()) == pytest.approx(100.0)
    assert m["cli.unattributed_s"][0] == pytest.approx((3.0 + 2.0) / 2)
    assert m["harmonic_analysis.total_power.self_s"][0] == pytest.approx(1.0)
    assert m["harmonic_analysis.total_power.us_per_pair"][0] == pytest.approx(2e6 / 6)
    assert m["circuit_model.pbo_sweep.calls"][0] == 0


# ----------------------------------------------------------------- statistics

def test_tail_is_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0)
    assert tail(list(range(11))) == (0, 100.0 / 11)


def test_tail_of_ten_or_fewer_is_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 2, 3]) == 2.5


# ---------------------------------------------------------------- determinism

def test_same_seed_gives_same_operations():
    for name in workload.CLASSES:
        a = workload.plan_cycle(name, 7, 3)
        assert a == workload.plan_cycle(name, 7, 3)
        assert a != workload.plan_cycle(name, 8, 3)
        sizes = sorted(tuple(sorted((k, op[k]) for k in workload.CLASSES[name][0])) for op in a)
        assert sizes == sorted(tuple(sorted(c.items())) for c in workload.CLASSES[name])
        assert workload.sequence_hash(a) == workload.sequence_hash(workload.plan_cycle(name, 7, 3))


# ------------------------------------------------------ corrupted results fail

SMALL = {"n": 4, "paths": 4, "theta_deg": 12.5, "alpha_db": -3.0, "key": "t"}


def test_array_study_checks_pass_on_a_real_result():
    runner = workload.Runner("array_study", seed=1)
    runner.execute(SMALL)
    assert (runner.attempted, runner.failed) == (1, 0)


def test_power_sum_above_total_counts_as_failed():
    runner = workload.Runner("array_study", seed=1)
    spectrum, side, pattern = runner.impl.run(SMALL)
    bad = dataclasses.replace(spectrum, total_power=0.5 * spectrum.total_power)
    runner.impl.run = lambda op: (bad, side, pattern)
    runner.execute(SMALL)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "Parseval" in runner.messages[0]


def test_exception_counts_as_failed():
    runner = workload.Runner("backoff_qam", seed=1)
    runner.execute({"n": 4, "paths": 5, "qam": 16, "theta_deg": 0.0, "predistort": "on",
                    "circuit": workload.CIRCUIT_FILES[0], "key": "t"})
    assert runner.failed == 1 and "path_count" in runner.messages[0]


def test_back_off_curve_must_increase():
    runner = workload.Runner("backoff_qam", seed=1)
    op = {"n": 4, "paths": 4, "qam": 16, "theta_deg": 5.0, "predistort": "circuit",
          "circuit": workload.CIRCUIT_FILES[1], "key": "t"}
    rows, constellation = runner.impl.run(op)
    assert runner.impl.check(op, (rows, constellation))[0] == []
    swapped = [rows[1], rows[0], *rows[2:]]
    assert runner.impl.check(op, (swapped, constellation))[0]


def _session(pattern_bytes: bytes) -> dict:
    done = {step: subprocess.CompletedProcess([], 0, stdout=f"{step}\n".encode())
            for step in workload.CLI_STEPS}
    done["pattern"] = subprocess.CompletedProcess([], 0, stdout=pattern_bytes)
    done["verify"] = subprocess.CompletedProcess([], 0, stdout=b"PASS x\nall checks passed\n")
    return done


def test_one_changed_cli_byte_counts_as_failed():
    runner = workload.Runner("cli_pipeline", seed=workload.DEFAULT_SEED)
    try:
        good = _session(b"theta_deg,m_1_db\n-90,-3.5\n")
        problems, digests = runner.impl.check({}, good)
        assert problems == []
        runner.golden = {"t": digests}
        runner.impl.run = lambda op: _session(b"theta_deg,m_1_db\n-90,-3.6\n")
        runner.execute({"key": "t"})
        assert runner.failed == 1 and "golden pattern" in runner.messages[0]
        runner.impl.run = lambda op: good
        runner.execute({"key": "t"})
        assert runner.failed == 1
    finally:
        runner.close()


def test_failed_cli_step_or_verify_counts_as_failed():
    runner = workload.Runner("cli_pipeline", seed=1)
    try:
        session = _session(b"x\n")
        session["efficiency"] = subprocess.CompletedProcess([], 2, stdout=b"")
        assert runner.impl.check({}, session)[0] == ["efficiency: exit code 2"]
        session = _session(b"x\n")
        session["verify"] = subprocess.CompletedProcess([], 1, stdout=b"verification FAILED\n")
        assert len(runner.impl.check({}, session)[0]) == 2
    finally:
        runner.close()


def test_golden_scalars_compare_to_relative_tolerance():
    want = {"total_power": 2.0, "design": hashlib.sha256(b"a").hexdigest()}
    ok = {"total_power": 2.0 * (1 + 1e-13), "design": want["design"]}
    assert workload.golden_problems(ok, want) == []
    assert workload.golden_problems(dict(ok, total_power=2.0 * (1 + 1e-11)), want)
    assert workload.golden_problems(dict(ok, total_power=float("nan")), want)
