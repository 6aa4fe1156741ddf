#!/usr/bin/env python3
"""Self-test of scripts/validate_trace.py --require-worker-child.

The gate must find the cross-boundary link for single and batched calls
alike: an rpc.worker_exec span on a worker track parented by an rpc.call span
on the enclave track, and one parented by an rpc.call_batch span. Three small
synthetic traces: one with both links must pass; one without the batch link,
and one whose batch child sits on the enclave's own track, must fail and name
rpc.call_batch.

Usage: validate_trace_selftest.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VALIDATE = ROOT / "scripts" / "validate_trace.py"
ENCLAVE_TID = 0
WORKER_TID = 1000


def span(name, sid, parent, tid, ts):
    return {"ph": "X", "name": name, "pid": 1, "tid": tid, "ts": ts,
            "dur": 10, "args": {"id": sid, "parent": parent}}


def trace(batch_child_tid):
    """A call and a batch on the enclave track, each with a worker child;
    batch_child_tid None leaves the batch without one."""
    events = [
        span("rpc.call", 1, 0, ENCLAVE_TID, 0),
        span("rpc.worker_exec", 2, 1, WORKER_TID, 0),
        span("rpc.call_batch", 3, 0, ENCLAVE_TID, 100),
    ]
    if batch_child_tid is not None:
        events.append(span("rpc.worker_exec", 4, 3, batch_child_tid, 100))
    return {"traceEvents": events}


def validate(path):
    return subprocess.run(
        [sys.executable, str(VALIDATE), "--require-worker-child", str(path)],
        capture_output=True, text=True)


def main():
    cases = (
        ("both_links", trace(WORKER_TID), 0),
        ("no_batch_link", trace(None), 1),
        ("batch_child_on_enclave_track", trace(ENCLAVE_TID), 1),
    )
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, want in cases:
            candidate = Path(tmp) / f"{name}.json"
            candidate.write_text(json.dumps(doc), encoding="utf-8")
            result = validate(candidate)
            if result.returncode != want:
                failures.append(f"{name}: exited {result.returncode}, want "
                                f"{want}:\n{result.stdout}{result.stderr}")
            elif want != 0 and "rpc.call_batch" not in result.stderr:
                failures.append(f"{name}: rpc.call_batch not named:\n"
                                f"{result.stderr}")
    for failure in failures:
        print(f"validate_trace_selftest: FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("validate_trace_selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
