#!/usr/bin/env python3
"""The Oasis benchmark.

    python3 oasisbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds oasis_bench (oasisbench/CMakeLists.txt,
into .bench_build/), runs one workload closed-loop for --seconds, judges
every op, prints the results digest, exact work counts and the model's
error against the paper, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced variant
and reports the per-layer metrics, writing its spans to
.bench_out/<workload>-seed<n>.spans.json. oasisbench/metrics.json defines
every metric.
"""

import argparse
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import analysis  # noqa: E402

WORKLOADS = ("paper_rack_sweep", "datacenter_day", "policy_oracle_checked")
BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures and builds; both steps are near no-ops once up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", bench_dir, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "oasis_bench", "-j", jobs]]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return None
    return os.path.join(BUILD_DIR, "oasis_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    binary = build(bench_dir)
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "%s-seed%d.spans.json" % (args.workload, args.seed))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", spans_path]
    # Every configuration is set in code: no OASIS_* knob reaches oasis_bench.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OASIS_")}
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("oasis_bench timed out")
        return 1
    if result.returncode != 0:
        log("oasis_bench exited with status %d" % result.returncode)
        return 1
    raw = json.loads(result.stdout)
    ops = raw["ops"]

    failed, failure_lines = analysis.judge(ops)
    for line in failure_lines:
        log("FAILED " + line)
    inputs_stable = len(set(raw["input_digests"])) == 1
    if not inputs_stable:
        log("set-up did not rebuild identical inputs: %s" % raw["input_digests"])

    spec = analysis.load_spec()
    headline = analysis.end_to_end(raw)
    timed = sum(1 for o in ops if o["cycle"] >= 0)
    print("workload %s seed %d: %d ops (%d timed, %d failed), %d cycles"
          % (args.workload, args.seed, len(ops), timed, failed, len(raw["cycles"])))
    print("results digest: %s" % analysis.results_digest(ops))
    counts = analysis.work_counts(ops)
    print("work counts: " + ", ".join("%s=%d" % kv for kv in counts.items()))
    shape, savings = analysis.verification_savings(ops)
    print("model vs paper: oasis-greedy weekday savings %.1f%% on the %s rack vs Fig 8's %.0f%% "
          "on 30x30+4 (error %+.1f pts); otherwise unvalidated: the trace is synthetic"
          % (100 * savings, shape, 100 * analysis.PAPER_WEEKDAY_SAVINGS,
             100 * (savings - analysis.PAPER_WEEKDAY_SAVINGS)))

    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        values = analysis.per_layer(raw, spans)
        names = spec["per_layer"]
        print("traced run: %d spans -> %s" % (len(spans), spans_path))
        for line in analysis.self_time_table(raw, spans):
            print(line)
    else:
        values = headline
        names = spec["end_to_end"]
    metrics = {}
    for name, value in values.items():
        # The only name outside the spec is a short run's extra op_ms tail.
        entry = names.get(name, spec["end_to_end"]["op_ms.p90"])
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print("  %-44s %16.6g %-9s %s" % (name, value, entry["unit"], entry["kind"]))
    correct = (failed == 0 and inputs_stable and len(ops) > 0
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
