#!/usr/bin/env python3
"""Self-test of scripts/bench_diff.py's gate on disappearing metrics.

The committed BENCH_suvm.json diffed against itself must pass. A copy of it
with one gated leaf deleted must fail (exit 1) and name that leaf, so a bench
block that stops emitting a metric cannot pass the gate silently.

Usage: bench_diff_selftest.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIFF = ROOT / "scripts" / "bench_diff.py"
BASELINE = ROOT / "BENCH_suvm.json"

# (subtree, leaf) pairs of gated metrics: a latency percentile and a speedup.
DROPPED = (("major_fault_cycles", "p99"), ("parallel_fault", "speedup"))


def bench_diff(baseline, candidate):
    return subprocess.run(
        [sys.executable, str(BENCH_DIFF), str(baseline), str(candidate)],
        capture_output=True, text=True)


def main():
    failures = []
    same = bench_diff(BASELINE, BASELINE)
    if same.returncode != 0:
        failures.append(f"self-diff exited {same.returncode}:\n{same.stderr}")
    doc = json.loads(BASELINE.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        for subtree, leaf in DROPPED:
            copy = json.loads(json.dumps(doc))
            del copy[subtree][leaf]
            candidate = Path(tmp) / f"missing_{leaf}.json"
            candidate.write_text(json.dumps(copy), encoding="utf-8")
            result = bench_diff(BASELINE, candidate)
            name = f"{subtree}.{leaf}"
            if result.returncode != 1:
                failures.append(f"missing {name}: exited {result.returncode}, "
                                f"want 1:\n{result.stdout}")
            elif name not in result.stderr:
                failures.append(f"missing {name}: not listed:\n{result.stderr}")
    for failure in failures:
        print(f"bench_diff_selftest: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("bench_diff_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
