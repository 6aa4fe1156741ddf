#!/usr/bin/env python3
"""Validates a Chrome trace-event JSON emitted by the span tracer.

Checks, per track (pid, tid):
  * duration-event phases balance: every "B" has a matching "E" (the span
    exporter only emits "X"/"i"/"M", but hand-written traces stay checkable);
  * timestamps are monotonically non-decreasing in file order ("X"/"B"/"E"/"i"
    events; metadata carries no timestamp);
  * "X" events have a non-negative dur;
  * counter events ("C") carry a numeric args.value.
Globally:
  * every instant event ("i") that references a span (args.span_id != 0)
    points at an "X" span that exists in the file;
  * every "X" span's args.parent (when nonzero) exists too.

--require-worker-child additionally asserts the cross-boundary causal link
the exit-less RPC path promises, for single and batched calls alike: at least
one "rpc.worker_exec" complete event whose args.parent is an "rpc.call" span
on a *different* track, and at least one whose parent is such an
"rpc.call_batch" span.

--timeline-from=<json> cross-checks the trace's "C" (counter-track) events
against the time-series windows they were exported from: every C event named
"timeline.<metric>" at ts T must match a window with end_tsc == T whose
counter delta (or gauge level) for <metric> equals args.value. The file may
be a bare timeline block (the .timeline.json sibling the baseline benches
write) or a whole BENCH document with a "timeline" key.

Usage: validate_trace.py [--require-worker-child] [--timeline-from=<json>]
                         trace.json [more.json ...]
"""

import json
import sys


def fail(path, msg):
    print(f"validate_trace: {path}: {msg}", file=sys.stderr)
    sys.exit(1)


def validate(path, require_worker_child, timeline=None):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "no traceEvents")

    span_ids = {}       # args.id -> event, for "X" events
    open_stacks = {}    # (pid, tid) -> count of unmatched "B"
    last_ts = {}        # (pid, tid) -> last seen timestamp
    instants = []
    counters = []       # "C" counter-track samples
    timed = 0

    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph is None:
            fail(path, f"event {i} has no phase")
        if ph == "M":
            continue
        track = (ev.get("pid"), ev.get("tid"))
        if ph in ("X", "B", "E", "i", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)):
                fail(path, f"event {i} ({ph}) has no numeric ts")
            if track in last_ts and ts < last_ts[track]:
                fail(path, f"event {i}: ts {ts} < {last_ts[track]} on track "
                           f"{track} (per-track timestamps must not decrease)")
            last_ts[track] = ts
            timed += 1
        if ph == "B":
            open_stacks[track] = open_stacks.get(track, 0) + 1
        elif ph == "E":
            if open_stacks.get(track, 0) <= 0:
                fail(path, f"event {i}: 'E' with no open 'B' on track {track}")
            open_stacks[track] -= 1
        elif ph == "X":
            if ev.get("dur", 0) < 0:
                fail(path, f"event {i}: negative dur")
            sid = ev.get("args", {}).get("id")
            if sid:
                if sid in span_ids:
                    fail(path, f"event {i}: duplicate span id {sid}")
                span_ids[sid] = ev
        elif ph == "i":
            instants.append((i, ev))
        elif ph == "C":
            value = ev.get("args", {}).get("value")
            if not isinstance(value, (int, float)):
                fail(path, f"event {i}: 'C' without numeric args.value")
            counters.append((i, ev))

    for track, depth in open_stacks.items():
        if depth != 0:
            fail(path, f"track {track}: {depth} unmatched 'B' event(s)")
    if timed == 0:
        fail(path, "no timed events")

    for i, ev in enumerate(events):
        if ev.get("ph") != "X":
            continue
        parent = ev.get("args", {}).get("parent", 0)
        if parent and parent not in span_ids:
            fail(path, f"event {i}: parent span {parent} not in trace")
    for i, ev in instants:
        sid = ev.get("args", {}).get("span_id", 0)
        if sid and sid not in span_ids:
            fail(path, f"instant event {i}: span_id {sid} not in trace")

    if require_worker_child:
        linked = {"rpc.call": 0, "rpc.call_batch": 0}
        for sid, ev in span_ids.items():
            if ev.get("name") != "rpc.worker_exec":
                continue
            parent = span_ids.get(ev.get("args", {}).get("parent", 0))
            if (parent is not None and parent.get("name") in linked
                    and parent.get("tid") != ev.get("tid")):
                linked[parent["name"]] += 1
        for name, count in linked.items():
            if count == 0:
                fail(path, f"no rpc.worker_exec span with an {name} parent "
                           f"on another track (cross-boundary propagation "
                           f"broken)")

    if timeline is not None:
        check_counter_tracks(path, counters, timeline)

    print(f"validate_trace: {path}: OK "
          f"({len(span_ids)} spans, {len(instants)} instants, "
          f"{len(counters)} counter samples, {len(last_ts)} tracks)")


def check_counter_tracks(path, counters, timeline):
    """Every C event must equal the window value it was exported from."""
    windows = timeline.get("windows", [])
    by_end = {w["end_tsc"]: w for w in windows}
    if not counters:
        fail(path, "--timeline-from given but the trace has no 'C' events")
    checked = 0
    for i, ev in counters:
        name = ev.get("name", "")
        if not name.startswith("timeline."):
            continue
        metric = name[len("timeline."):]
        ts = ev["ts"]
        w = by_end.get(ts)
        if w is None:
            fail(path, f"counter event {i} ({name}) at ts {ts} matches no "
                       f"timeline window end_tsc")
        value = ev["args"]["value"]
        c = w.get("counters", {}).get(metric)
        if c is not None:
            if c["delta"] != value:
                fail(path, f"counter event {i} ({name}) value {value} != "
                           f"window {w['index']} delta {c['delta']}")
        elif metric in w.get("gauges", {}):
            if w["gauges"][metric] != value:
                fail(path, f"counter event {i} ({name}) value {value} != "
                           f"window {w['index']} gauge {w['gauges'][metric]}")
        else:
            fail(path, f"counter event {i} ({name}) has no matching counter "
                       f"or gauge in window {w['index']}")
        checked += 1
    if checked == 0:
        fail(path, "no timeline.* counter events to cross-check")


def main(argv):
    require_worker_child = False
    timeline = None
    paths = []
    for arg in argv[1:]:
        if arg == "--require-worker-child":
            require_worker_child = True
        elif arg.startswith("--timeline-from="):
            tl_path = arg[len("--timeline-from="):]
            with open(tl_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
            # Accept a whole BENCH document or a bare timeline block.
            timeline = doc.get("timeline", doc)
            if "windows" not in timeline:
                print(f"validate_trace: {tl_path}: no timeline windows",
                      file=sys.stderr)
                return 1
        else:
            paths.append(arg)
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        validate(path, require_worker_child, timeline)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
