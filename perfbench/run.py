"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload array_study --seed 0 --seconds 20 --trace 0

Every workload is a closed loop with a single caller.  Each run starts the
workload in fresh processes (``workload.py``) with BLAS/OpenMP threads
pinned to 1 and ``PYTHONPATH`` set to this checkout's ``src``.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median over
several fresh processes of the time from process start to the first timed
operation; the other metrics come from one measuring process.
``--trace 1`` prints the per-layer metrics of a traced run, with the tracing
overhead against an untraced pass over the same operations.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record of the run is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import median, tail  # noqa: E402

WORKLOADS = ("array_study", "backoff_qam", "cli_pipeline")
#: Extra fresh processes that only set up, so setup_s is a median.
SETUP_PROBES = 5
#: A child that has not finished in this many seconds is killed.
CHILD_TIMEOUT = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def declared(kind: str) -> dict:
    """Metric names and units that BENCHMARK.json declares for ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(workload: str, seed: int, phase: str, seconds: float) -> tuple[float, dict]:
    """Run one workload process; returns its set-up time and its result.

    The child gets its own process group, which is killed (with any CLI
    grandchildren) if it outlives ``CHILD_TIMEOUT`` or the parent is
    interrupted.
    """
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--phase", phase, "--seconds", str(seconds)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          start_new_session=True) as proc:
        def kill():
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)

        watchdog = threading.Timer(CHILD_TIMEOUT, kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            kill()
    if ready != b"ready\n" or proc.returncode != 0:
        raise SystemExit(f"{workload} {phase} process failed (exit {proc.returncode})")
    return setup_s, json.loads(rest.decode().strip().splitlines()[-1])


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: "1" for v in THREAD_VARS}, "platform": platform.platform()}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [spawn(workload, seed, "setup", seconds)[0] for _ in range(SETUP_PROBES)]
    setup_s, result = spawn(workload, seed, "measure", seconds)
    setups.append(setup_s)
    times = result["op_s"]
    tail_s, pct = tail(times)
    result.update(setup_samples_s=setups, tail_percentile=pct)
    result["metrics"] = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * median(times),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def per_layer(workload: str, seed: int, seconds: float, names) -> dict:
    _, result = spawn(workload, seed, "trace", seconds)
    layer = result.pop("layer_metrics")
    result["all_layer_metrics"] = layer
    result["metrics"] = {name: layer[name][0] for name in names}
    result["traced_ops_per_s"] = len(result["traced_op_s"]) / sum(result["traced_op_s"])
    result["untraced_ops_per_s"] = len(result["op_s"]) / sum(result["op_s"])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="switchbeam benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "switchbeam" / "__init__.py").is_file():
        sys.stderr.write(f"no switchbeam sources under {SRC}\n")
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    OUT.mkdir(exist_ok=True)

    units = declared("per_layer" if args.trace else "end_to_end")
    if args.trace:
        result = per_layer(args.workload, args.seed, args.seconds, units)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    correct = result["failed"] == 0 and result.get("nesting_gap", 0.0) < 1e-9
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, correct=correct, machine=machine())
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n")

    ops = result["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"cycles {result['cycles']}")
    print(f"operations {ops} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / ops:.4g}), sequence sha256 {result['ops_sha256']}")
    for message in result["messages"]:
        print(f"  FAILED {message}")
    if args.trace:
        print(f"tracing overhead {result['all_layer_metrics']['trace.overhead_pct'][0]:.2f} %: "
              f"{result['traced_ops_per_s']:.4g} traced vs "
              f"{result['untraced_ops_per_s']:.4g} untraced ops/s")
        print(f"span nesting: self times cover traced op time to {result['nesting_gap']:.2e}")
        for name, (value, unit) in sorted(result["all_layer_metrics"].items()):
            mark = "" if name in units else "   (record only)"
            print(f"  {name:<62} {value:.6g} {unit}{mark}")
    else:
        m = result["metrics"]
        for name, unit in units.items():
            print(f"  {name:<12} {m[name]:.6g} {unit}")
        print(f"  op_tail_ms is p{result['tail_percentile']:.4g} of {len(result['op_s'])} ops; "
              f"setup_s is the median of {len(result['setup_samples_s'])} processes")
    print(f"record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": ops, "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
