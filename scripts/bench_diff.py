#!/usr/bin/env python3
"""Diffs two BENCH_*.json files and gates on regressions.

Usage:
    bench_diff.py [--threshold 0.10] [--all] baseline.json candidate.json

Compares the *scale-invariant* numeric leaves of the two documents — latency
percentiles/means, cycles-per-call figures, and speedups — and prints the
per-metric % delta for each. Exits nonzero when any metric regressed by more
than --threshold (fractional, default 0.10 = 10%), or when a compared leaf of
the baseline is missing from the candidate (each one is listed: a gate that
loses a metric must not pass silently); improvements are printed but never
fatal.

Why only scale-invariant keys: smoke and full runs execute very different
operation counts, so raw counts (counters, op totals, timeline windows)
differ by construction and a cross-mode diff of them is meaningless.
Percentiles of per-op latency and cycles-per-call ratios are what the
paper's claims are made of, and they are comparable across modes. The
committed baselines happen to be smoke-mode (CI diffs same-mode, where the
deterministic simulation is byte-identical), but the restriction keeps a
full-vs-smoke diff honest too. --all widens the comparison to every shared
numeric leaf (same-mode diffing only).

Direction: most compared metrics are latency-like (higher = worse). Keys
ending in "speedup" are throughput-like (lower = worse) and the delta sign is
inverted accordingly.
"""

import argparse
import json
import sys

# Leaf key names that are comparable across smoke/full modes. Matched against
# the last component of the dotted path.
LATENCY_LIKE_SUFFIXES = ("p50", "p95", "p99", "mean")
LATENCY_LIKE_EXACT = (
    "serial_cycles_per_call",
    "batch_cycles_per_call",
    "cycles_per_call",
    "cycles_per_op",
)
THROUGHPUT_LIKE_EXACT = ("speedup",)

# Subtrees that are run-shaped (raw counts, window contents, ring tails):
# never comparable across modes, and noisy even same-mode.
EXCLUDED_PREFIXES = ("metrics.", "timeline.", "trace.")
EXCLUDED_KEYS = ("schema_version", "count", "sum")


def collect(doc, prefix=""):
    """Flattens numeric leaves into {dotted.path: float}."""
    out = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}{key}"
            if isinstance(value, (dict, list)):
                out.update(collect(value, f"{path}."))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                out[path] = float(value)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            out.update(collect(value, f"{prefix}{i}."))
    return out


def comparable(path, widen):
    if any(path.startswith(p) for p in EXCLUDED_PREFIXES):
        return False
    leaf = path.rsplit(".", 1)[-1]
    if leaf in EXCLUDED_KEYS:
        return False
    if widen:
        return True
    return (
        leaf.endswith(LATENCY_LIKE_SUFFIXES)
        or leaf in LATENCY_LIKE_EXACT
        or leaf in THROUGHPUT_LIKE_EXACT
    )


def lower_is_worse(path):
    return path.rsplit(".", 1)[-1] in THROUGHPUT_LIKE_EXACT


def main():
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json files, fail on regressions")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression gate (default 0.10)")
    parser.add_argument("--all", action="store_true",
                        help="compare every shared numeric leaf, not just the "
                             "scale-invariant set (same-mode diffing only)")
    args = parser.parse_args()

    docs = []
    for path in (args.baseline, args.candidate):
        try:
            with open(path, encoding="utf-8") as f:
                docs.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: FAIL: {path}: {e}", file=sys.stderr)
            return 1
    base, cand = (collect(d) for d in docs)

    gated = sorted(p for p in base if comparable(p, args.all))
    shared = [p for p in gated if p in cand]
    missing = [p for p in gated if p not in cand]
    if not shared:
        print("bench_diff: FAIL: no comparable metrics shared between "
              f"{args.baseline} and {args.candidate}", file=sys.stderr)
        return 1

    regressions = []
    width = max(len(p) for p in shared)
    for path in shared:
        b, c = base[path], cand[path]
        if b == 0.0:
            # No baseline signal: print but never gate (a 0 -> nonzero jump
            # has no defined percentage).
            delta_str = "   n/a" if c == 0.0 else "  new!"
            print(f"  {path:<{width}}  {b:>14.1f} -> {c:>14.1f}  {delta_str}")
            continue
        delta = (c - b) / b
        regressed = (-delta if lower_is_worse(path) else delta)
        # ">= threshold" with an epsilon: a hand-degraded exactly-10% p99
        # regression must trip a 0.10 gate.
        fatal = regressed + 1e-12 >= args.threshold
        marker = " REGRESSION" if fatal else ""
        print(f"  {path:<{width}}  {b:>14.1f} -> {c:>14.1f}  "
              f"{delta * 100.0:+8.2f}%{marker}")
        if fatal:
            regressions.append((path, delta))

    if missing:
        print(f"bench_diff: FAIL: {len(missing)} baseline metric(s) missing "
              f"from {args.candidate}:", file=sys.stderr)
        for path in missing:
            print(f"bench_diff:   {path}", file=sys.stderr)
    if regressions:
        print(f"bench_diff: FAIL: {len(regressions)} metric(s) regressed "
              f"beyond {args.threshold * 100.0:.1f}% "
              f"({args.baseline} -> {args.candidate}):", file=sys.stderr)
        for path, delta in regressions:
            print(f"bench_diff:   {path}: {delta * 100.0:+.2f}%",
                  file=sys.stderr)
    if missing or regressions:
        return 1
    print(f"bench_diff: OK: {len(shared)} metrics within "
          f"{args.threshold * 100.0:.1f}% "
          f"({args.baseline} -> {args.candidate})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
