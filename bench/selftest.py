"""Self-test of the benchmark harness.

Usage, from the repository root:  python3 bench/selftest.py

At a tiny size, every workload must run with no failures in both the
timed and the traced mode and print every metric BENCHMARK.json names;
then every operation's output is deliberately corrupted and each one
must be counted as failed.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    lib = run.Library()
    tmp = run.ROOT / ".bench_tmp" / f"selftest-{os.getpid()}"
    tmp.mkdir(parents=True)
    problems = []
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(lib, run.ROOT, tmp)
            tally, metrics, _ = run.timed_run(lib, workload, 7, 0, tiny=True)
            if not tally.attempted or tally.failed:
                problems.append(f"{name}: {tally.failed} of {tally.attempted} clean operations failed {tally.problems}")
            if set(metrics) != end_to_end:
                problems.append(f"{name}: timed metrics {sorted(metrics)} != {sorted(end_to_end)}")
            tally, _, _ = run.timed_run(lib, workload, 7, 0, tiny=True, corrupt=True)
            if not tally.attempted or tally.failed != tally.attempted:
                problems.append(f"{name}: only {tally.failed} of {tally.attempted} corrupted outputs counted as failed")
            tally, metrics, _ = run.traced_run(lib, workload, 7, 0, tiny=True)
            if not tally.attempted or tally.failed:
                problems.append(f"{name}: traced run failed {tally.problems}")
            if set(metrics) != per_layer:
                problems.append(f"{name}: traced metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ per_layer)}")
            print(f"selftest {name}: ok so far" if not problems else f"selftest {name}: {len(problems)} problems")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            tmp.parent.rmdir()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
