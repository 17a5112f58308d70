"""Record the default seed's golden outputs into ``perfbench/golden.json``.

Usage, from the repository root::

    OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 perfbench/record_golden.py

Runs the warm-up operation and the first ``CYCLES`` cycles of every workload
at ``DEFAULT_SEED`` and stores, per operation key, the library scalars or the
SHA-256 digests of every CLI step's stdout (and of the saved schedule).  Runs
at the default seed then fail any operation whose output moved by more than
1e-12 relative, or by one CLI byte.  Re-record only when an output change is
intended.
"""

import json

import workload

CYCLES = 2


def main() -> None:
    golden = {}
    for name in workload.CLASSES:
        runner = workload.Runner(name, workload.DEFAULT_SEED)
        runner.golden = {}
        try:
            ops = [workload.warmup_op(name, workload.DEFAULT_SEED)]
            for cycle in range(CYCLES):
                ops += workload.plan_cycle(name, workload.DEFAULT_SEED, cycle)
            golden[name] = {op["key"]: runner.execute(op)[1] for op in ops}
            if runner.failed:
                raise SystemExit(f"{name}: checks failed: {runner.messages}")
        finally:
            runner.close()
        print(f"{name}: {len(golden[name])} operations recorded")
    workload.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
