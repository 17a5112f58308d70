"""One-off stage table: library stages and ``verify`` at N x paths.

Usage, from the repository root::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/stage_table.py

Times ``total_power``, ``compute_spectrum`` (|m| <= 101), ``sideband_level``
(m_max = 25), ``pbo_sweep`` (101 alpha points, -10..0 dB) and the CLI
``verify`` subcommand (fresh interpreter, default flags) at N in {5, 64, 256}
and 4 or 8 paths, best of 3 (one run when a single run exceeds 10 s), and
writes ``perfbench/stage_table.md`` with the ROADMAP baseline beside each
4-path row.  Takes several minutes: ``pbo_sweep`` at N = 256 runs the O(N^2)
total power 101 times.
"""

import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import switchbeam as sb

HERE = Path(__file__).resolve().parent
SIZES = [(n, p) for n in (5, 64, 256) for p in (4, 8)]
STAGES = ("total_power", "compute_spectrum", "sideband_level", "pbo_sweep", "verify")
#: The open-items baseline in ROADMAP.md (best of 3, 2-core machine), in
#: seconds, keyed by (stage, N); its path count is not stated.
BASELINE = {
    ("total_power", 5): 1.1e-3, ("total_power", 64): 77e-3, ("total_power", 256): 1.26,
    ("compute_spectrum", 5): 49e-3, ("compute_spectrum", 64): 0.51,
    ("compute_spectrum", 256): 3.5,
    ("sideband_level", 5): 0.43, ("sideband_level", 64): 1.1, ("sideband_level", 256): 2.8,
    ("pbo_sweep", 5): 151e-3, ("verify", 256): 4.6,
}
#: Measured/baseline ratios outside this band are recorded as disagreements.
AGREE = (0.67, 1.5)


def best_time(fn, repeats=3, single_above=10.0) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        if best > single_above:
            break
    return best


def stage_runs(n: int, paths: int) -> dict:
    cfg = sb.ArrayConfig(n, 0.5 * 299_792_458.0 / 77e9, 77e9, 1e9, path_count=paths)
    steer = math.radians(20.0)
    schedule = sb.design_schedule(cfg, steer, 1.0)
    alphas = [10.0 ** (k / 100.0) for k in range(-100, 1)]
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    verify = [sys.executable, "-m", "switchbeam.cli", "verify", "--elements", str(n),
              "--paths", str(paths)]
    return {
        "total_power": lambda: sb.total_power(schedule),
        "compute_spectrum": lambda: sb.compute_spectrum(schedule),
        "sideband_level": lambda: sb.sideband_level(schedule, m_max=25),
        "pbo_sweep": lambda: sb.pbo_sweep(cfg, None, steer, alphas),
        "verify": lambda: subprocess.run(verify, env=env, check=True, stdout=subprocess.DEVNULL),
    }


def fmt(seconds: float) -> str:
    return f"{seconds * 1e3:.3g} ms" if seconds < 1 else f"{seconds:.3g} s"


def main() -> None:
    rows = []
    for n, paths in SIZES:
        runs = stage_runs(n, paths)
        for stage in STAGES:
            t = best_time(runs[stage])
            rows.append((stage, n, paths, t))
            print(f"{stage:<17} N={n:<4} paths={paths}  {fmt(t)}", flush=True)
    lines = [
        "# Stage table",
        "",
        f"Written by `perfbench/stage_table.py`. Machine: {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}, NumPy {np.__version__}, threads pinned to 1 "
        "by the caller; shared host, no CPU pinning. Best of 3 wall-clock runs "
        "(one run where a single run exceeds 10 s).",
        "",
        "| Stage | N | paths | measured | ROADMAP baseline | measured / baseline |",
        "|---|---|---|---|---|---|",
    ]
    disagreements = []
    for stage, n, paths, t in rows:
        base = BASELINE.get((stage, n)) if paths == 4 else None
        ratio = t / base if base else None
        lines.append(f"| `{stage}` | {n} | {paths} | {fmt(t)} | "
                     f"{fmt(base) if base else ''} | {f'{ratio:.2f}' if ratio else ''} |")
        if ratio and not AGREE[0] <= ratio <= AGREE[1]:
            disagreements.append(f"- `{stage}` at N={n}: {fmt(t)} measured against "
                                 f"{fmt(base)} in the baseline ({ratio:.2f}x).")
    lines += ["", "Disagreements with the baseline (ratio outside "
              f"{AGREE[0]}-{AGREE[1]}); the numbers are left as measured:", ""]
    lines += disagreements or ["- none"]
    (HERE / "stage_table.md").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
