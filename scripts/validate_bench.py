#!/usr/bin/env python3
"""Validates BENCH_*.json baseline files emitted by the bench binaries.

Checks (per file):
  * parses as JSON, schema_version == 2, mode in {smoke, full}
  * the timeline block (schema v2) is present and internally consistent:
    positive window_cycles, non-empty windows with monotonically increasing
    indices and end_tsc, per-window counter deltas/rates that agree, ordered
    histogram percentiles, and well-formed SLO evaluations
  * the timeline windows are true: in every retained window, each paired
    counter present in the file (suvm.major_faults, suvm.minor_faults,
    rpc.calls) moves with its latency histogram (suvm.major_fault_cycles,
    suvm.minor_fault_cycles, rpc.call_cycles) — delta and sample count differ
    by at most 1, the one event a cut may split on a one-CPU machine — and
    every gauge of the final snapshot is present in every retained window
  * latency_cycles has count > 0 and p50 <= p95 <= p99
  * every embedded histogram block is internally consistent
  * metrics.counters is present, non-empty, and strictly non-negative
    (levels that may legally decrease live in metrics.gauges)
  * metrics.gauges is present and holds integers (negative allowed)
  * rpc_baseline: the hostile profile pair is present, the breaker run
    reports its self-healing counters, and the breaker's p99 does not
    exceed the static-budget p99 (the tail-latency cap the breaker buys)
  * rpc_baseline: the async_batch profile is present, batched dispatch is
    >= 1.5x the serial cycles-per-call, the rpc.batch_size histogram was
    recorded, and the split late-completion counter family is exported
  * rpc_baseline: the hostile boundary profile is present with
    rejected_inputs > 0 and iago_rejects > 0 (the Iago validation layer
    fired), while the benign main snapshot holds boundary.rejected_inputs
    and boundary.double_fetch_races at exactly zero (no false rejects on an
    honest host)
  * suvm_baseline: the quarantine counters are present in the snapshot
  * suvm_baseline: the parallel paging counter family
    (suvm.fault_coalesced, suvm.gate_wait_cycles) is present
  * suvm_baseline: the parallel_fault block is present with per-thread-count
    sub-blocks, and its 1->4 thread speedup is >= 1.8x (crypto escaped the
    paging gate's serial slice)
  * suvm_baseline: in the request_step profile (4 threads, several reads
    plus non-gated work per turn) the paging-gate wait per major fault is at
    most one fault-logic slice — a thread is charged only for gate sections
    that overlap its own in virtual time

Exits non-zero with a message naming the offending file/field, so tier1.sh
fails on malformed or empty output.
"""

import json
import sys

# (counter, histogram) pairs that count the same events: one counter
# increment and one histogram sample per fault or call.
PAIRED = (
    ("suvm.major_faults", "suvm.major_fault_cycles"),
    ("suvm.minor_faults", "suvm.minor_fault_cycles"),
    ("rpc.calls", "rpc.call_cycles"),
)


def check_latency_block(path: str, name: str, block: dict) -> None:
    for key in ("count", "mean", "p50", "p95", "p99"):
        if key not in block:
            fail(f"{path}: {name} is missing '{key}'")
    if block["count"] <= 0:
        fail(f"{path}: {name}.count must be > 0, got {block['count']}")
    if not (block["p50"] <= block["p95"] <= block["p99"]):
        fail(
            f"{path}: {name} percentiles not ordered: "
            f"p50={block['p50']} p95={block['p95']} p99={block['p99']}"
        )


def fail(msg: str) -> None:
    print(f"validate_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_timeline(path: str, doc: dict) -> None:
    tl = doc.get("timeline")
    if not isinstance(tl, dict):
        fail(f"{path}: schema v2 requires a 'timeline' block")
    for key in ("window_cycles", "windows_recorded", "windows_dropped",
                "windows"):
        if key not in tl:
            fail(f"{path}: timeline is missing '{key}'")
    if tl["window_cycles"] <= 0:
        fail(f"{path}: timeline.window_cycles must be > 0")
    windows = tl["windows"]
    if not isinstance(windows, list) or not windows:
        fail(f"{path}: timeline.windows is missing or empty — the sampler "
             f"never cut a window (workload too short for window_cycles?)")
    if tl["windows_recorded"] < len(windows):
        fail(f"{path}: timeline.windows_recorded < exported window count")
    prev_index, prev_end = -1, -1
    for i, w in enumerate(windows):
        where = f"timeline.windows[{i}]"
        for key in ("index", "start_tsc", "end_tsc", "counters", "gauges",
                    "histograms", "slo"):
            if key not in w:
                fail(f"{path}: {where} is missing '{key}'")
        if w["index"] <= prev_index:
            fail(f"{path}: {where}.index not strictly increasing")
        if w["end_tsc"] <= prev_end:
            fail(f"{path}: {where}.end_tsc not strictly increasing")
        if w["start_tsc"] > w["end_tsc"]:
            fail(f"{path}: {where} has start_tsc > end_tsc")
        prev_index, prev_end = w["index"], w["end_tsc"]
        duration = w["end_tsc"] - w["start_tsc"]
        for name, c in w["counters"].items():
            if c.get("delta", -1) < 0:
                fail(f"{path}: {where}.counters[{name}].delta negative")
            rate = c.get("rate_per_mcycle")
            if duration > 0:
                expect = c["delta"] * 1e6 / duration
                if rate is None or abs(rate - expect) > max(1e-6, expect * 1e-3):
                    fail(f"{path}: {where}.counters[{name}] rate {rate} "
                         f"disagrees with delta/duration {expect}")
        for name, h in w["histograms"].items():
            if h.get("count", 0) <= 0:
                fail(f"{path}: {where}.histograms[{name}] has count <= 0 "
                     f"(empty histogram deltas must be omitted)")
            if not (h["p50"] <= h["p95"] <= h["p99"]):
                fail(f"{path}: {where}.histograms[{name}] percentiles "
                     f"not ordered")
        for j, e in enumerate(w["slo"]):
            for key in ("rule", "value", "threshold", "violated"):
                if key not in e:
                    fail(f"{path}: {where}.slo[{j}] is missing '{key}'")
            if not isinstance(e["violated"], bool):
                fail(f"{path}: {where}.slo[{j}].violated must be a bool")


def check_timeline_truth(path: str, doc: dict) -> None:
    """Each window holds what happened in it, not what was copied in later."""
    metrics = doc["metrics"]
    pairs = [(c, h) for c, h in PAIRED
             if c in metrics["counters"] and h in metrics.get("histograms", {})]
    for i, w in enumerate(doc["timeline"]["windows"]):
        where = f"timeline.windows[{i}] (index {w['index']})"
        for counter, hist in pairs:
            delta = w["counters"].get(counter, {}).get("delta", 0)
            count = w["histograms"].get(hist, {}).get("count", 0)
            if abs(delta - count) > 1:
                fail(f"{path}: {where}: {counter} delta {delta} does not "
                     f"match {hist} count {count}")
        for name in metrics["gauges"]:
            if name not in w["gauges"]:
                fail(f"{path}: {where} is missing gauge '{name}'")


def check_rpc_hostile(path: str, doc: dict) -> None:
    hostile = doc.get("hostile")
    if not isinstance(hostile, dict):
        fail(f"{path}: rpc_baseline is missing the hostile profile pair")
    for profile in ("static", "breaker"):
        block = hostile.get(profile)
        if not isinstance(block, dict) or "latency_cycles" not in block:
            fail(f"{path}: hostile.{profile}.latency_cycles missing")
        check_latency_block(
            path, f"hostile.{profile}.latency_cycles", block["latency_cycles"]
        )
    for key in ("breaker_opens", "breaker_short_circuits", "breaker_probes"):
        if key not in hostile["breaker"]:
            fail(f"{path}: hostile.breaker is missing '{key}'")
    if hostile["breaker"]["breaker_opens"] <= 0:
        fail(f"{path}: hostile.breaker never opened the breaker")
    static_p99 = hostile["static"]["latency_cycles"]["p99"]
    breaker_p99 = hostile["breaker"]["latency_cycles"]["p99"]
    if breaker_p99 > static_p99:
        fail(
            f"{path}: breaker p99 ({breaker_p99}) exceeds static-budget "
            f"p99 ({static_p99}) — the breaker is not capping spin cost"
        )


def check_rpc_boundary(path: str, doc: dict) -> None:
    boundary = doc.get("boundary")
    if not isinstance(boundary, dict):
        fail(f"{path}: rpc_baseline is missing the hostile boundary profile")
    for key in ("rejected_inputs", "double_fetch_races", "iago_rejects"):
        if key not in boundary:
            fail(f"{path}: boundary is missing '{key}'")
        if not isinstance(boundary[key], int) or boundary[key] < 0:
            fail(f"{path}: boundary.{key} must be a non-negative integer")
    if boundary["rejected_inputs"] <= 0:
        fail(
            f"{path}: boundary.rejected_inputs is 0 under the hostile "
            f"profile — the Iago validation layer never fired"
        )
    if boundary["iago_rejects"] <= 0:
        fail(f"{path}: boundary.iago_rejects is 0 under the hostile profile")
    # The benign main run must not reject anything: a false positive at the
    # boundary layer would silently turn honest host results into errors.
    counters = doc["metrics"]["counters"]
    for key in ("boundary.rejected_inputs", "boundary.double_fetch_races"):
        if key not in counters:
            fail(f"{path}: metrics.counters is missing '{key}'")
        if counters[key] != 0:
            fail(
                f"{path}: benign profile has {key}={counters[key]} — the "
                f"boundary layer rejected honest host results"
            )


def check_rpc_async_batch(path: str, doc: dict) -> None:
    ab = doc.get("async_batch")
    if not isinstance(ab, dict):
        fail(f"{path}: rpc_baseline is missing the async_batch profile")
    for key in ("serial_cycles_per_call", "batch_cycles_per_call", "speedup",
                "fallback_ocalls", "batch_size_hist"):
        if key not in ab:
            fail(f"{path}: async_batch is missing '{key}'")
    if ab["serial_cycles_per_call"] <= 0 or ab["batch_cycles_per_call"] <= 0:
        fail(f"{path}: async_batch cycles-per-call must be positive")
    if ab["speedup"] < 1.5:
        fail(
            f"{path}: async_batch speedup {ab['speedup']} < 1.5x — batched "
            f"submission is not amortizing the exit-less rendezvous"
        )
    check_latency_block(path, "async_batch.batch_size_hist",
                        ab["batch_size_hist"])


def check_suvm_parallel(path: str, doc: dict) -> None:
    counters = doc["metrics"]["counters"]
    for key in ("suvm.fault_coalesced", "suvm.gate_wait_cycles"):
        if key not in counters:
            fail(f"{path}: metrics.counters is missing '{key}'")

    pf = doc.get("parallel_fault")
    if not isinstance(pf, dict):
        fail(f"{path}: suvm_baseline is missing the parallel_fault profile")
    for block in ("threads_1", "threads_2", "threads_4"):
        sub = pf.get(block)
        if not isinstance(sub, dict):
            fail(f"{path}: parallel_fault.{block} missing")
        for key in ("threads", "measured_reads", "major_faults",
                    "fault_coalesced", "gate_wait_cycles", "clock_cycles",
                    "cycles_per_fault"):
            if key not in sub:
                fail(f"{path}: parallel_fault.{block} is missing '{key}'")
        if sub["major_faults"] <= 0:
            fail(f"{path}: parallel_fault.{block} took no major faults")
        if sub["cycles_per_fault"] <= 0:
            fail(f"{path}: parallel_fault.{block}.cycles_per_fault must be "
                 f"positive")
    if "speedup" not in pf:
        fail(f"{path}: parallel_fault is missing 'speedup'")
    if pf["speedup"] < 1.8:
        fail(
            f"{path}: parallel_fault speedup {pf['speedup']} < 1.8x — the "
            f"paging gate is serializing more than the fault-logic slice "
            f"(crypto back inside the critical section?)"
        )
    req = pf.get("request_step")
    if not isinstance(req, dict):
        fail(f"{path}: parallel_fault.request_step missing")
    for key in ("reads_per_step", "work_cycles", "fault_logic_cycles",
                "gate_wait_per_fault", "threads_4"):
        if key not in req:
            fail(f"{path}: parallel_fault.request_step is missing '{key}'")
    sub = req["threads_4"]
    if sub.get("major_faults", 0) <= 0:
        fail(f"{path}: parallel_fault.request_step took no major faults")
    wait_per_fault = sub["gate_wait_cycles"] / sub["major_faults"]
    if wait_per_fault > req["fault_logic_cycles"]:
        fail(
            f"{path}: request_step gate wait {wait_per_fault:.1f} cycles per "
            f"major fault exceeds the {req['fault_logic_cycles']}-cycle "
            f"fault-logic slice — the paging gate is charging waits for "
            f"sections that never overlapped the faulting thread's own"
        )


def validate(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    if doc.get("schema_version") != 2:
        fail(f"{path}: schema_version must be 2, got {doc.get('schema_version')}")
    if doc.get("mode") not in ("smoke", "full"):
        fail(f"{path}: mode must be smoke|full, got {doc.get('mode')}")
    if not doc.get("bench"):
        fail(f"{path}: missing bench name")
    if not isinstance(doc.get("workload"), dict) or not doc["workload"]:
        fail(f"{path}: missing/empty workload")

    if "latency_cycles" not in doc:
        fail(f"{path}: missing latency_cycles")
    check_latency_block(path, "latency_cycles", doc["latency_cycles"])
    # Any other top-level histogram blocks ride the same checks (zero-count
    # blocks are allowed for optional subsystems, ordering still must hold).
    for key, value in doc.items():
        if key == "latency_cycles" or not isinstance(value, dict):
            continue
        if {"p50", "p95", "p99"} <= value.keys() and value.get("count", 0) > 0:
            check_latency_block(path, key, value)

    check_timeline(path, doc)

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: missing metrics snapshot")
    counters = metrics.get("counters")
    if not isinstance(counters, dict) or not counters:
        fail(f"{path}: metrics.counters is missing or empty")
    if any(not isinstance(v, int) or v < 0 for v in counters.values()):
        fail(f"{path}: metrics.counters has non-integer or negative values")
    gauges = metrics.get("gauges")
    if not isinstance(gauges, dict):
        fail(f"{path}: metrics.gauges is missing (gauge migration regressed?)")
    if any(not isinstance(v, int) for v in gauges.values()):
        fail(f"{path}: metrics.gauges has non-integer values")
    check_timeline_truth(path, doc)

    if doc["bench"] == "rpc_baseline":
        check_rpc_hostile(path, doc)
        check_rpc_async_batch(path, doc)
        check_rpc_boundary(path, doc)
        if "rpc.breaker_state" not in gauges:
            fail(f"{path}: metrics.gauges is missing 'rpc.breaker_state'")
        for key in (
            # Split late-completion family (stale-generation drops vs
            # abandoned-slot self-recycles) plus the liveness-fix counters;
            # an inline manager exports them at zero.
            "rpc.stale_completions",
            "rpc.abandoned_recycles",
            "rpc.abandoned_slots",
            "rpc.terminal_abandons",
            "rpc.abandoned_scrubs",
        ):
            if key not in counters:
                fail(f"{path}: metrics.counters is missing '{key}'")
        hists = metrics.get("histograms")
        if not isinstance(hists, dict) or "rpc.batch_size" not in hists:
            fail(f"{path}: metrics.histograms is missing 'rpc.batch_size'")
    if doc["bench"] == "suvm_baseline":
        for key in (
            "suvm.pages_quarantined",
            "suvm.pages_restored",
            # Crash-consistency counters (zero when the profile ran without
            # crash_consistency, but the keys must exist: their absence means
            # Suvm stopped listing the recovery block).
            "suvm.journal_appends",
            "suvm.journal_commits",
            "suvm.checkpoints",
            "suvm.host_crashes",
            "suvm.recovery.attempts",
            "suvm.recovery.pages_verified",
            "suvm.recovery.pages_quarantined",
            "suvm.recovery.journal_replayed",
            "suvm.recovery.journal_torn",
            "suvm.recovery.rollbacks_detected",
        ):
            if key not in counters:
                fail(f"{path}: metrics.counters is missing '{key}'")
        for key in ("suvm.epc_pp_in_use", "suvm.epc_pp_target",
                    "suvm.journal_bytes"):
            if key not in gauges:
                fail(f"{path}: metrics.gauges is missing '{key}'")
        check_suvm_parallel(path, doc)

    print(f"validate_bench: OK: {path} ({doc['bench']}, {doc['mode']}, "
          f"{len(counters)} counters, {len(gauges)} gauges, "
          f"{len(doc['timeline']['windows'])} timeline windows)")


def main() -> None:
    if len(sys.argv) < 2:
        fail("usage: validate_bench.py <bench.json> [...]")
    for path in sys.argv[1:]:
        validate(path)


if __name__ == "__main__":
    main()
