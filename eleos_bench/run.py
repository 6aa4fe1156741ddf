#!/usr/bin/env python3
"""The Eleos end-to-end benchmark: builds bench_eleos from source, runs it,
checks its outputs and reports the metrics named in BENCHMARK.json.

    python3 eleos_bench/run.py --workload kv_get --seed 1 --seconds 6 --trace 0
    python3 eleos_bench/run.py --seed 1 --repeat 5 --out results.json
    python3 eleos_bench/run.py --smoke

Every metric prints as `workload metric value unit`. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; an untraced run (--trace 0) reports the end-to-end metrics, a
traced run (--trace 1) the per-layer ones. Without --workload every workload
runs and metric names are prefixed `workload/`. The exit code is nonzero when
a build or run fails, an output is wrong or a metric is missing.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CATALOGUE["workloads"]]
END_TO_END = [m["name"] for m in CATALOGUE["end_to_end"]]
PER_LAYER = [m["name"] for m in CATALOGUE["per_layer"]]

# setup_s is the median over the set-ups of an untraced run: the measuring
# process's own and those of processes that stop after warm-up, at least
# SETUPS in all and more until they add up to SETUP_SAMPLE_S seconds, so a
# set-up of a fraction of a second is not at the mercy of process start.
SETUPS = 3
SETUP_SAMPLE_S = 3.0
# A process that runs longer than this is killed and the run fails.
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    # Build outputs go under $CARGO_TARGET_DIR when it is set, else under
    # .bench_build; a relative path is taken from the repository root.
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(base)
    return (path if path.is_absolute() else ROOT / path) / "eleos_bench"


def build():
    out = build_dir()
    steps = []
    # A configure that failed leaves a cache but no build system behind.
    if not any((out / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j3", "--target",
                  "bench_eleos"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("eleos_bench: build failed: " + " ".join(cmd))
    return out / "bench_eleos"


def no_aslr_prefix():
    # Some virtual-cycle charges depend on heap addresses (KvCache metadata),
    # so address-space randomisation would make virtual metrics differ
    # between processes. Run without it where the kernel allows.
    if shutil.which("setarch") is None:
        return []
    prefix = ["setarch", platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], capture_output=True)
    return prefix if probe.returncode == 0 else []


def invoke(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit("eleos_bench: timed out: " + " ".join(cmd))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("eleos_bench: exit %d: %s" %
                         (proc.returncode, " ".join(cmd)))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("eleos_bench: no output: " + " ".join(cmd))
    return json.loads(lines[-1])


def run_workload(binary, prefix, workload, seed, seconds, trace, smoke):
    """One run of one workload: the binary's result, with setup_s replaced by
    the median over SETUPS set-ups when untraced."""
    cmd = prefix + [str(binary), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    setups = []
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        folded = traces / (workload + ".folded")
        cmd += ["--trace", "--folded", str(folded)]
        log("folded stacks: %s" % folded)
    elif not smoke:
        while len(setups) < SETUPS - 1 or sum(setups) < SETUP_SAMPLE_S:
            setups.append(invoke(cmd + ["--setup-only"])["setup_s"])
    result = invoke(cmd)
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    return result


def select(result, names):
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        raise SystemExit("eleos_bench: %s did not report %s" %
                         (result["workload"], ", ".join(missing)))
    return {n: {"value": result["metrics"][n]["value"],
                "unit": result["metrics"][n]["unit"]} for n in names}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args):
    binary = Path(args.binary) if args.binary else build()
    prefix = no_aslr_prefix()
    workloads = [args.workload] if args.workload else WORKLOADS
    names = PER_LAYER if args.trace else END_TO_END
    runs = {w: [] for w in workloads}
    correct, attempted, failed = True, 0, 0
    for _ in range(args.repeat):
        for w in workloads:
            result = run_workload(binary, prefix, w, args.seed, args.seconds,
                                  args.trace, smoke=False)
            runs[w].append(select(result, names))
            correct = correct and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            if result["notes"]:
                log("%s notes: %s" % (w, json.dumps(result["notes"])))

    summary = {}
    for w in workloads:
        for n in names:
            values = [r[n]["value"] for r in runs[w]]
            unit = runs[w][0][n]["unit"]
            q1, med, q3 = quartiles(values)
            summary.setdefault(w, {})[n] = {
                "median": med, "q1": q1, "q3": q3, "unit": unit,
                "values": values}
            if args.repeat == 1:
                print("%s %s %.6g %s" % (w, n, med, unit))
            else:
                print("%s %s %.6g %s (q1 %.6g, q3 %.6g, n=%d)" %
                      (w, n, med, unit, q1, q3, len(values)))

    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {"sets": []}
        doc["sets"].append({
            "seed": args.seed, "seconds": args.seconds,
            "trace": bool(args.trace), "repeat": args.repeat,
            "correct": correct, "attempted": attempted, "failed": failed,
            "workloads": summary})
        out.write_text(json.dumps(doc, indent=1) + "\n")
        log("results appended to %s" % out)

    def key(w, n):
        return n if args.workload else "%s/%s" % (w, n)
    metrics = {key(w, n): {"value": summary[w][n]["median"],
                           "unit": summary[w][n]["unit"]}
               for w in workloads for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def smoke(args):
    """All workloads at smoke sizes, untraced and traced, checked against
    each other and against the catalogue."""
    binary = Path(args.binary) if args.binary else build()
    prefix = no_aslr_prefix()
    problems = []
    catalogue = set(END_TO_END) | set(PER_LAYER)
    for w in WORKLOADS:
        plain = run_workload(binary, prefix, w, args.seed, 0, False, True)
        traced = run_workload(binary, prefix, w, args.seed, 0, True, True)
        for r in (plain, traced):
            if not r["correct"] or r["failed"]:
                problems.append("%s: %d failed requests (trace=%s)" %
                                (w, r["failed"], r["trace"]))
        pm, tm = plain["metrics"], traced["metrics"]
        for n in END_TO_END:
            if n not in pm:
                problems.append("%s: untraced run lacks %s" % (w, n))
        for n in PER_LAYER:
            if n not in tm:
                problems.append("%s: traced run lacks %s" % (w, n))
        unnamed = (set(pm) | set(tm)) - catalogue
        if unnamed:
            problems.append("%s: metrics missing from BENCHMARK.json: %s" %
                            (w, ", ".join(sorted(unnamed))))
        for n in sorted(set(pm) & set(tm)):
            if pm[n]["virtual"] and pm[n]["value"] != tm[n]["value"]:
                problems.append("%s: %s is %r untraced but %r traced" %
                                (w, n, pm[n]["value"], tm[n]["value"]))
        parts = ["sim.transitions_cycles_per_req", "crypto.cycles_per_req",
                 "rpc.cycles_per_req", "suvm.cycles_per_req",
                 "sgx.paging_cycles_per_req", "sim.cache_cycles_per_req",
                 "sim.app_cycles_per_req"]
        for r in (plain, traced):
            c = r["cycles"]
            if sum(c["by_category"]) + c["app"] != c["total"]:
                problems.append("%s: cycle categories do not sum to total" % w)
            total = sum(r["metrics"][p]["value"] for p in parts)
            whole = r["metrics"]["sim.cycles_per_req"]["value"]
            if abs(total - whole) > 1e-9 * whole:
                problems.append("%s: per-request categories sum to %r, not %r"
                                % (w, total, whole))
        print("%s ok: sim_kops %.6g, traced spans dropped %d" %
              (w, pm["sim_kops"]["value"],
               tm["trace.spans_dropped"]["value"]))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=CATALOGUE["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; prints median and quartiles")
    parser.add_argument("--out", help="append this set of results to a JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, traced and untraced, self-checking")
    parser.add_argument("--binary", help="a built bench_eleos (skips the build)")
    args = parser.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return smoke(args) if args.smoke else measure(args)


if __name__ == "__main__":
    sys.exit(main())
