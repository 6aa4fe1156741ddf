#!/usr/bin/env python3
"""Self-test of scripts/validate_bench.py's timeline-truth gate.

The committed BENCH_rpc.json and BENCH_suvm.json must pass. Two copies of
BENCH_suvm.json in the shape of counters copied in at export time must fail:
one with every suvm.major_faults delta moved into the last window (the
window's rate kept consistent), which must name the first window whose
suvm.major_fault_cycles samples lost their counter delta; and one with a
gauge dropped from a single window, which must name that gauge.

Usage: validate_bench_selftest.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALIDATE = ROOT / "scripts" / "validate_bench.py"
BASELINES = (ROOT / "BENCH_rpc.json", ROOT / "BENCH_suvm.json")
COUNTER = "suvm.major_faults"
HISTOGRAM = "suvm.major_fault_cycles"


def validate(path):
    return subprocess.run([sys.executable, str(VALIDATE), str(path)],
                          capture_output=True, text=True)


def deltas_in_last_window(doc):
    """Moves every COUNTER delta into the last window; returns the position
    of the first window the validator must reject."""
    windows = doc["timeline"]["windows"]
    total = sum(w["counters"].pop(COUNTER, {}).get("delta", 0)
                for w in windows)
    last = windows[-1]
    duration = last["end_tsc"] - last["start_tsc"]
    last["counters"][COUNTER] = {"delta": total,
                                 "rate_per_mcycle": total * 1e6 / duration}
    for i, w in enumerate(windows):
        if w["histograms"].get(HISTOGRAM, {}).get("count", 0) > 1:
            return i
    raise SystemExit("validate_bench_selftest: baseline has no fault samples")


def main():
    failures = []
    for path in BASELINES:
        result = validate(path)
        if result.returncode != 0:
            failures.append(f"{path.name} exited {result.returncode}:\n"
                            f"{result.stderr}")
    doc = json.loads(BASELINES[1].read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        moved = json.loads(json.dumps(doc))
        first_bad = deltas_in_last_window(moved)
        gauge = sorted(doc["metrics"]["gauges"])[0]
        dropped = json.loads(json.dumps(doc))
        dropped["timeline"]["windows"][3]["gauges"].pop(gauge, None)
        cases = (
            ("deltas_in_last_window", moved,
             f"timeline.windows[{first_bad}] "),
            ("gauge_dropped", dropped, "timeline.windows[3] "),
        )
        for name, copy, want in cases:
            candidate = Path(tmp) / f"{name}.json"
            candidate.write_text(json.dumps(copy), encoding="utf-8")
            result = validate(candidate)
            if result.returncode != 1:
                failures.append(f"{name}: exited {result.returncode}, want 1:"
                                f"\n{result.stdout}{result.stderr}")
            elif want not in result.stderr:
                failures.append(f"{name}: '{want}' not named:\n"
                                f"{result.stderr}")
            elif name == "gauge_dropped" and gauge not in result.stderr:
                failures.append(f"{name}: gauge '{gauge}' not named:\n"
                                f"{result.stderr}")
    for failure in failures:
        print(f"validate_bench_selftest: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("validate_bench_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
