"""Run one switchbeam CLI command with every public function traced.

Usage: ``python3 perfbench/cli_runner.py SPANS_JSON <switchbeam cli args...>``

Behaves like ``python -m switchbeam.cli`` (same stdout bytes, same exit
code) and additionally writes the child's spans, counters and distinct
schedule count to ``SPANS_JSON``.  Span times use ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so the parent can nest
these spans inside its own.
"""

import json
import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import switchbeam.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.spans.append(["cli.import", t0, t1, -1])
    tracer.enabled = True
    try:
        code = sys.modules["switchbeam.cli"].main(argv)
    finally:
        tracer.enabled = False
        tracer.end_unit()
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters,
                       "distinct_schedules": tracer.distinct_schedules}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
