"""One benchmark workload in a fresh process: set up, run operations, check them.

Usage (normally started by ``run.py``, which sets ``PYTHONPATH`` to the
checkout's ``src`` and pins BLAS/OpenMP threads to 1)::

    python3 perfbench/workload.py --workload array_study --seed 0 \
        --phase measure --seconds 20

Phases:

``setup``    import switchbeam, generate inputs, run one untimed warm-up
             operation, then write ``ready`` to stdout and exit.
``measure``  set up as above, write ``ready``, then run whole cycles of
             operations, untraced, until ``--seconds`` have passed and at
             least ``MIN_CYCLES`` cycles are done.
``trace``    set up, run cycles untraced until half of ``--seconds`` have
             passed, then run the same cycles again with every public
             switchbeam function wrapped in spans.

Each operation's inputs come from ``--seed`` alone.  A cycle holds the
workload's fixed multiset of input sizes in a seeded order, so every run
covers the same size mix whatever the seed.  The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = ROOT / "src" / "switchbeam" / "reference"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from tracing import COUNT_ONLY, Tracer, median, nesting_gap, self_times  # noqa: E402

DEFAULT_SEED = 0
SPEED_OF_LIGHT = 299_792_458.0
F0, FP, SPACING_WL = 77e9, 1e9, 0.5
M_MAX = 25
SUPPRESSION_TOL = 1e-12
PARSEVAL_SLACK = 1e-12
GOLDEN_RTOL = 1e-12
PATTERN_HARMONICS = (1, -3, 5, -7)
PATTERN_STEP_DEG = 0.25
#: Back-off grid: 10*log10(alpha) from -10 dB to 0 dB in 0.1 dB steps.
ALPHA_DB_GRID = tuple(k / 10.0 for k in range(-100, 1))
CIRCUIT_FILES = ("circuit_params_200mhz.json", "circuit_params_2ghz.json")
CLI_STEPS = ("design", "pattern", "efficiency", "qam", "verify")
#: A run (each pass of a traced run) ends at a cycle boundary, but is cut
#: mid-cycle once it reaches this multiple of --seconds.
HARD_STOP = 3.0

#: Layer functions whose metrics are reported even when a workload never
#: calls them.
LAYER_FUNCTIONS = (
    "schedule_design.design_schedule", "array_model.validate",
    "array_model.envelope_filtered_samples", "harmonic_analysis.coefficient_vector",
    "harmonic_analysis.harmonic_power", "harmonic_analysis.total_power",
    "harmonic_analysis.compute_spectrum", "harmonic_analysis.array_factor",
    "harmonic_analysis.sideband_level", "harmonic_analysis.radiation_pattern",
    "harmonic_analysis.envelope_dft_coefficients", "circuit_model.pbo_sweep",
    "circuit_model.circuit_efficiency", "modulation.predistort_alpha",
    "modulation.plan_constellation", "modulation.simulate_constellation",
    "formats.schedule_to_doc", "formats.schedule_from_doc", "formats.dump_json",
    "formats.write_csv",
)


def _weighted(*pairs) -> list[dict]:
    return [size for size, weight in pairs for _ in range(weight)]


#: Input sizes of one cycle, smallest first, with repeats.  An order
#: statistic taken from a few operations, or at the gap between two sizes,
#: swings with host noise.  The repeats put the median and the tail operation
#: of a run inside a size that occurs many times: 32- and 64-element arrays,
#: 8- and 16-element 8-path back-off sweeps, and 16-element CLI sessions.
CLASSES = {
    "array_study": _weighted(
        ({"n": 32, "paths": 4}, 14), ({"n": 32, "paths": 8}, 14),
        ({"n": 64, "paths": 4}, 6), ({"n": 64, "paths": 8}, 6),
        ({"n": 128, "paths": 4}, 1), ({"n": 128, "paths": 8}, 1),
        ({"n": 256, "paths": 4}, 1), ({"n": 256, "paths": 8}, 1)),
    "backoff_qam": _weighted(*(
        ({"n": n, "paths": p, "qam": q}, w)
        for n, p, w in ((4, 4, 1), (4, 8, 1), (8, 4, 1), (8, 8, 2), (16, 4, 1), (16, 8, 3))
        for q in (16, 64, 256))),
    "cli_pipeline": _weighted(
        ({"n": 5, "paths": 4}, 1), ({"n": 5, "paths": 8}, 1),
        ({"n": 16, "paths": 4}, 2), ({"n": 16, "paths": 8}, 2),
        ({"n": 32, "paths": 4}, 1), ({"n": 32, "paths": 8}, 1)),
}
#: A measuring run holds at least this many cycles: one array-study cycle
#: takes longer than --seconds, the other workloads' cycles about half of it.
MIN_CYCLES = {"array_study": 1, "backoff_qam": 2, "cli_pipeline": 2}


# ------------------------------------------------------------------ inputs

def _draw(workload: str, size: dict, rng: random.Random) -> dict:
    op = dict(size, theta_deg=round(rng.uniform(-60.0, 60.0), 3))
    if workload == "array_study":
        op["alpha_db"] = round(rng.uniform(-10.0, 0.0), 3)
    elif workload == "backoff_qam":
        op["predistort"] = rng.choice(("on", "circuit"))
        op["circuit"] = rng.choice(CIRCUIT_FILES)
    else:
        op["alpha_db"] = round(rng.uniform(-10.0, 0.0), 3)
        op["qam"] = rng.choice((16, 64, 256))
        op["predistort"] = rng.choice(("on", "circuit"))
        op["circuit"] = rng.choice(CIRCUIT_FILES)
    return op


def plan_cycle(workload: str, seed: int, cycle: int) -> list[dict]:
    """The operations of one cycle: the workload's sizes in seeded order."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    sizes = list(CLASSES[workload])
    rng.shuffle(sizes)
    return [dict(_draw(workload, s, rng), key=f"c{cycle}.{i}") for i, s in enumerate(sizes)]


def warmup_op(workload: str, seed: int) -> dict:
    """The untimed warm-up operation, of the smallest size."""
    rng = random.Random(f"{workload}:{seed}:warmup")
    return dict(_draw(workload, CLASSES[workload][0], rng), key="warmup")


def qam_points(order: int) -> list[complex]:
    side = math.isqrt(order)
    levels = range(-(side - 1), side, 2)
    return [complex(i, q) for i in levels for q in levels]


def sequence_hash(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b))


def golden_problems(scalars: dict, golden: dict) -> list[str]:
    """Compare an operation's scalars or digests with their recorded values."""
    out = []
    for name, want in golden.items():
        got = scalars.get(name)
        if isinstance(want, str):
            if got != want:
                out.append(f"golden {name}: digest changed")
        elif not (finite(got) and _close(got, want)):
            out.append(f"golden {name}: {got!r} != {want!r}")
    return out


# --------------------------------------------------------- library workloads

class Library:
    """Runs array_study and backoff_qam operations through the public API."""

    def __init__(self, workload: str):
        import numpy as np
        import switchbeam as sb

        self.np, self.sb, self.workload = np, sb, workload
        self.theta = np.deg2rad(np.arange(-90.0, 90.0 + PATTERN_STEP_DEG / 2, PATTERN_STEP_DEG))
        self.alphas = [10.0 ** (db / 10.0) for db in ALPHA_DB_GRID]
        self.circuits = {
            name: sb.CircuitParams.from_dict(json.loads((REFERENCE / name).read_text()))
            for name in CIRCUIT_FILES
        }
        self.constellations = {q: qam_points(q) for q in (16, 64, 256)}

    def config(self, op: dict):
        return self.sb.ArrayConfig(
            n_elements=op["n"], element_spacing=SPACING_WL * SPEED_OF_LIGHT / F0,
            carrier_freq=F0, pulse_freq=FP, path_count=op["paths"])

    def run(self, op: dict):
        sb = self.sb
        cfg = self.config(op)
        steer = math.radians(op["theta_deg"])
        if self.workload == "array_study":
            schedule = sb.design_schedule(cfg, steer, 10.0 ** (op["alpha_db"] / 10.0))
            spectrum = sb.compute_spectrum(schedule, m_max=M_MAX)
            side = sb.sideband_level(schedule, m_max=M_MAX)
            pattern = sb.radiation_pattern(schedule, PATTERN_HARMONICS, self.theta)
            return spectrum, side, pattern
        circuit = self.circuits[op["circuit"]]
        rows = sb.pbo_sweep(cfg, circuit, steer, self.alphas)
        plans = sb.plan_constellation(self.constellations[op["qam"]], True,
                                      circuit if op["predistort"] == "circuit" else None)
        return rows, sb.simulate_constellation(plans, cfg, steer)

    def check(self, op: dict, result) -> tuple[list[str], dict]:
        """Output checks that hold for any seed, and the scalars goldens compare."""
        np = self.np
        problems = []
        if self.workload == "array_study":
            spectrum, side, pattern = result
            total = spectrum.total_power
            power_sum = math.fsum(spectrum.powers.values())
            if not (finite(total) and total > 0):
                problems.append(f"total power {total!r} not positive")
            if not power_sum <= total * (1 + PARSEVAL_SLACK):
                problems.append(f"Parseval: tabulated {power_sum!r} exceeds total {total!r}")
            if not 0 < spectrum.efficiency <= 1:
                problems.append(f"efficiency {spectrum.efficiency!r} outside (0, 1]")
            a1 = np.abs(spectrum.coefficients[1].per_element)
            with np.errstate(divide="ignore", invalid="ignore"):
                worst = max(float(np.max(np.abs(spectrum.coefficients[m].per_element) / a1))
                            for m in self.sb.suppressed_harmonics(op["paths"], M_MAX))
            if not worst < SUPPRESSION_TOL:
                problems.append(f"suppression: |A_m|/|A_1| = {worst!r}")
            levels = np.concatenate([pattern.levels_db[m] for m in PATTERN_HARMONICS])
            if not (finite(side) and np.all(np.isfinite(levels))):
                problems.append("non-finite sideband level or pattern")
            scalars = {"total_power": total, "power_sum": power_sum,
                       "efficiency": spectrum.efficiency, "sideband_db": side,
                       "pattern_db_sum": math.fsum(levels.tolist())}
            return problems, scalars
        rows, constellation = result
        pbo = [r.pbo_db for r in rows]
        if not all(finite(p) for p in pbo):
            problems.append("non-finite pbo_db")
        elif not all(b > a for a, b in zip(pbo, pbo[1:])):
            problems.append("pbo_db does not increase with alpha")
        if not all(0 < r.zeta_harm <= 1 and 0 < r.eta <= 1 for r in rows):
            problems.append("efficiency outside (0, 1]")
        if not finite(constellation.evm_rms_percent):
            problems.append(f"EVM {constellation.evm_rms_percent!r} not finite")
        scalars = {"pbo_db_sum": math.fsum(pbo),
                   "zeta_harm_sum": math.fsum(r.zeta_harm for r in rows),
                   "eta_sum": math.fsum(r.eta for r in rows),
                   "evm_rms_percent": constellation.evm_rms_percent}
        return problems, scalars


# -------------------------------------------------------------- CLI workload

class Cli:
    """Runs a designer session, one fresh interpreter per CLI step."""

    def __init__(self):
        self.work = OUT / f"cli-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        for q in (16, 64, 256):
            rows = [f"{z.real:g},{z.imag:g}" for z in qam_points(q)]
            (self.work / f"qam{q}.csv").write_text("i,q\n" + "\n".join(rows) + "\n")
        self.tracer: Tracer | None = None
        self.import_s: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def steps(self, op: dict) -> list[tuple[str, list[str]]]:
        design = ["--elements", str(op["n"]), "--paths", str(op["paths"]),
                  "--theta-deg", str(op["theta_deg"])]
        circuit = str(REFERENCE / op["circuit"])
        schedule = str(self.work / "schedule.json")
        qam = ["qam", *design, "--constellation", str(self.work / f"qam{op['qam']}.csv"),
               "--predistort", op["predistort"]]
        if op["predistort"] == "circuit":
            qam += ["--circuit", circuit]
        return [
            ("design", ["design", *design, "--alpha-db", str(op["alpha_db"]), "--out", schedule]),
            ("pattern", ["pattern", "--schedule", schedule]),
            ("efficiency", ["efficiency", *design, "--circuit", circuit]),
            ("qam", qam),
            ("verify", ["verify", "--schedule", schedule]),
        ]

    def run(self, op: dict):
        result = {}
        for step, args in self.steps(op):
            if self.tracer is None:
                cmd = [sys.executable, "-m", "switchbeam.cli", *args]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE)
            else:
                proc = self._run_traced(step, args)
            result[step] = proc
            if step == "design" and proc.returncode == 0:
                result["schedule_file"] = (self.work / "schedule.json").read_bytes()
            if proc.returncode != 0:
                break
        return result

    def _run_traced(self, step: str, args: list[str]):
        tracer = self.tracer
        spans_file = self.work / "spans.json"
        spans_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "cli_runner.py"), str(spans_file), *args]
        idx = tracer.open("cli." + step)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE)
        finally:
            tracer.close(idx)
        if spans_file.exists():
            child = json.loads(spans_file.read_text())
            base = len(tracer.spans)
            for name, start, end, parent in child["spans"]:
                tracer.spans.append([name, start, end, idx if parent < 0 else parent + base])
                if name == "cli.import":
                    self.import_s.append(end - start)
            tracer.counters.update(child["counters"])
            tracer.distinct_schedules += child["distinct_schedules"]
        return proc

    def check(self, op: dict, result) -> tuple[list[str], dict]:
        problems = []
        for step in CLI_STEPS:
            proc = result.get(step)
            if proc is None:
                problems.append(f"{step}: not run")
            elif proc.returncode != 0:
                problems.append(f"{step}: exit code {proc.returncode}")
        verify = result.get("verify")
        if verify is not None and not verify.stdout.decode(errors="replace").rstrip().endswith(
                "all checks passed"):
            problems.append("verify: checks did not all pass")
        scalars = {step: hashlib.sha256(result[step].stdout).hexdigest()
                   for step in CLI_STEPS if step in result}
        if "schedule_file" in result:
            scalars["schedule_file"] = hashlib.sha256(result["schedule_file"]).hexdigest()
        return problems, scalars


# ------------------------------------------------------------------- runner

class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        if workload == "cli_pipeline":
            self.import_s = None  # each CLI child imports switchbeam itself
            self.impl = Cli()
        else:
            t0 = time.perf_counter()
            import switchbeam  # noqa: F401
            self.import_s = time.perf_counter() - t0
            self.impl = Library(workload)
        goldens = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.golden = goldens.get(workload, {}) if seed == DEFAULT_SEED else {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.executed: list[dict] = []
        self.tracer: Tracer | None = None

    def trace(self) -> Tracer:
        """Wrap the public switchbeam functions; later operations are traced."""
        self.tracer = Tracer()
        self.tracer.install()
        if isinstance(self.impl, Cli):
            self.impl.tracer = self.tracer
        return self.tracer

    def execute(self, op: dict) -> tuple[float, dict]:
        """Run and check one operation; returns its wall time and scalars.

        An exception, a failed check or a golden mismatch fails the operation.
        """
        self.attempted += 1
        self.executed.append(op)
        tracer = self.tracer
        if tracer is not None:
            root = tracer.open("op")
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = self.impl.run(op)
            error = None
        except Exception as exc:  # an operation failure, counted and reported
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            tracer.close(root)
            tracer.end_unit()
        if error is None:
            problems, scalars = self.impl.check(op, result)
            if op["key"] in self.golden:
                problems += golden_problems(scalars, self.golden[op["key"]])
        else:
            problems, scalars = [error], {}
        if problems:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{op['key']}: " + "; ".join(problems))
        return elapsed, scalars

    def cycles(self, seconds: float, limit: float, at_least: int = 1,
               count: int | None = None) -> tuple[list[float], int]:
        """Run whole cycles until ``seconds`` have passed and at least
        ``at_least`` cycles are done, or exactly ``count`` cycles; stop
        mid-cycle after ``limit`` seconds."""
        times = []
        start = time.perf_counter()
        cycle = 0
        while True:
            for op in plan_cycle(self.workload, self.seed, cycle):
                times.append(self.execute(op)[0])
                if time.perf_counter() - start > limit:
                    return times, cycle + 1
            cycle += 1
            if count is not None and cycle >= count:
                return times, cycle
            if (count is None and cycle >= at_least
                    and time.perf_counter() - start >= seconds):
                return times, cycle

    def close(self) -> None:
        if isinstance(self.impl, Cli):
            self.impl.close()


def peak_rss_mb() -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def layer_metrics(spans, counters, distinct_schedules: int, ops: int,
                  import_s: float) -> tuple[dict, float]:
    """Per-layer metrics per traced operation, and the span nesting gap.

    Span ``op`` is one operation; ``cli.<step>`` is one CLI child's wall
    time.  Their self time is the time no switchbeam span covers.
    """
    selfs = self_times(spans)
    glue = {"op"} | {"cli." + s for s in CLI_STEPS}
    by_name: dict[str, float] = {}
    by_layer: dict[str, float] = {}
    step_ms: dict[str, list[float]] = {}
    for (name, start, end, parent), s in zip(spans, selfs):
        by_name[name] = by_name.get(name, 0.0) + s
        layer = "unattributed" if name in glue else name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + s
        if name in glue and name != "op":
            step_ms.setdefault(name, []).append(1e3 * (end - start))
    op_total = sum(end - start for name, start, end, parent in spans if name == "op")
    c = Counter(counters)
    m: dict[str, tuple[float, str]] = {}
    called = {key[:-len(".calls")] for key in c if key.endswith(".calls")}
    for name in sorted((called | set(by_name) | set(LAYER_FUNCTIONS)) - glue):
        m[name + ".calls"] = (c[name + ".calls"] / ops, "count")
        if name not in COUNT_ONLY:
            m[name + ".self_s"] = (by_name.get(name, 0.0) / ops, "s")
    for key in ("harmonic_analysis.path_coefficients", "harmonic_analysis.total_power.pairs",
                "harmonic_analysis.array_factor.points"):
        m[key] = (c[key] / ops, "count")
    m["formats.bytes_out"] = (c["formats.bytes_out"] / ops, "bytes")
    tp_calls = c["harmonic_analysis.total_power.calls"]
    m["harmonic_analysis.total_power.repeat_ratio"] = (
        tp_calls / distinct_schedules if distinct_schedules else 0.0, "ratio")
    for name, work, scale, rate, unit in (
            ("total_power", "total_power.pairs", 1e6, "us_per_pair", "us"),
            ("coefficient_vector", "path_coefficients", 1e9, "ns_per_path_coefficient", "ns"),
            ("array_factor", "array_factor.points", 1e9, "ns_per_point", "ns")):
        spent = by_name.get("harmonic_analysis." + name, 0.0)
        done = c["harmonic_analysis." + work]
        m[f"harmonic_analysis.{name}.{rate}"] = (scale * spent / done if done else 0.0, unit)
    m["cli.import_s"] = (import_s, "s")
    m["cli.unattributed_s"] = (by_layer.get("unattributed", 0.0) / ops, "s")
    for step in CLI_STEPS:
        samples = step_ms.get("cli." + step)
        m[f"cli.{step}.p50_ms"] = (median(samples) if samples else 0.0, "ms")
    for layer in sorted(by_layer):
        m[f"share.{layer}"] = (100.0 * by_layer[layer] / op_total if op_total else 0.0, "%")
    return m, nesting_gap(spans, selfs)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(CLASSES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)

    runner = Runner(args.workload, args.seed)
    limit = HARD_STOP * args.seconds
    try:
        runner.execute(warmup_op(args.workload, args.seed))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        if args.phase == "setup":
            out = {}
        elif args.phase == "measure":
            times, cycles = runner.cycles(args.seconds, limit,
                                          at_least=MIN_CYCLES[args.workload])
            out = {"op_s": times, "cycles": cycles, "peak_rss_mb": peak_rss_mb()}
        else:
            untraced, cycles = runner.cycles(args.seconds / 2, limit)
            tracer = runner.trace()
            traced, _ = runner.cycles(args.seconds / 2, limit, count=cycles)
            import_s = (median(runner.impl.import_s) if isinstance(runner.impl, Cli)
                        else runner.import_s)
            metrics, gap = layer_metrics(tracer.spans, tracer.counters,
                                         tracer.distinct_schedules, len(traced), import_s)
            overhead = 100.0 * (sum(traced) / sum(untraced[:len(traced)]) - 1.0)
            metrics["trace.overhead_pct"] = (overhead, "%")
            out = {"op_s": untraced, "traced_op_s": traced, "cycles": cycles,
                   "nesting_gap": gap, "layer_metrics": metrics}
        out.update(attempted=runner.attempted, failed=runner.failed,
                   messages=runner.messages, ops_sha256=sequence_hash(runner.executed[1:]))
        sys.stdout.write(json.dumps(out) + "\n")
    finally:
        runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
