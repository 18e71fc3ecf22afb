#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--write]

Run from the root of a checkout. For every workload it makes --runs
timed runs, each with another seed (1, 2, ...), and deals them
alternately into two interleaved sets, A B A B .... Per end-to-end
metric it reports the median, the quartiles and the spread (quartile
distance over the median, as statistics.quantiles(values, n=4) gives
them) of all runs, and the shift of set B's median against set A's.
It then checks:

  * every run is correct with zero failed units;
  * the spread of every metric except setup_s is below its bound in
    BENCHMARK.json (the aim is a third of it), and set B's median is
    not worse than set A's by more than the bound;
  * a traced run of seed 1 emits every per-layer metric, with the same
    output digest and exact results (data_loss_ppm, quality_db) as the
    untraced run of seed 1;
  * a held-out seed, run untraced and traced, gives the same metric
    sets, zero failed units, equal digests in both modes, and every
    timing metric inside its bound of the median of all runs.

With --write the figures, the verdict and the host fingerprint (CPU
count, CPU model, build type) are saved to perfbench/baseline.json.
Exits 1 if a check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 7919


def run(workload, seed, trace):
    """One benchmark run: (info line, result object)."""
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                "--seconds", str(SPEC["run_seconds"]),
                                "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("steadiness: %s seed %d trace %d exited %d"
                 % (workload, seed, trace, proc.returncode))
    info = json.loads(lines[-2].split(" ", 1)[1])
    return info, json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def host_fingerprint():
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "build_type": "Release",
            "run_seconds": SPEC["run_seconds"]}


def check_result(workload, label, result, names, problems):
    if not result["correct"] or result["failed"] != 0:
        problems.append("%s %s: %d of %d units failed" % (
            workload, label, result["failed"], result["attempted"]))
    if set(result["metrics"]) != names:
        problems.append("%s %s: metric set differs by %s" % (
            workload, label, sorted(names ^ set(result["metrics"]))))


def check_workload(workload, runs, problems):
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    layers = {m["name"] for m in SPEC["per_layer"]}
    results = []
    infos = {}
    for i in range(runs):
        seed = i + 1
        infos[seed], result = run(workload, seed, 0)
        check_result(workload, "seed %d" % seed, result, set(e2e), problems)
        results.append(result)
        print("  %s seed %d done" % (workload, seed), file=sys.stderr)

    report = {}
    for name, metric in e2e.items():
        values = [r["metrics"][name]["value"] for r in results]
        total = summary(values)
        a = statistics.median(values[0::2])
        b = statistics.median(values[1::2])
        sign = 1.0 if metric["better"] == "lower" else -1.0
        shift = sign * (b - a) / a
        report[name] = dict(total, median_a=a, median_b=b, worse_shift=shift,
                            bound=metric["bound"])
        if name != "setup_s" and total["spread"] >= metric["bound"]:
            problems.append("%s %s: spread %.4f >= bound %.2f" % (
                workload, name, total["spread"], metric["bound"]))
        if shift > metric["bound"]:
            problems.append("%s %s: set B median worse by %.4f > bound %.2f"
                            % (workload, name, shift, metric["bound"]))

    info, traced = run(workload, 1, 1)
    check_result(workload, "traced seed 1", traced, layers, problems)
    if info != infos[1]:
        problems.append("%s traced seed 1: digest or exact results differ "
                        "from the untraced run" % workload)
    trace_report = {k: v["value"] for k, v in traced["metrics"].items()}

    held_info, held = run(workload, HELD_OUT_SEED, 0)
    check_result(workload, "held-out seed", held, set(e2e), problems)
    held_traced_info, held_traced = run(workload, HELD_OUT_SEED, 1)
    check_result(workload, "held-out seed traced", held_traced, layers,
                 problems)
    if held_info != held_traced_info:
        problems.append("%s held-out seed: digest or exact results differ "
                        "between modes" % workload)
    held_report = {}
    for name, metric in e2e.items():
        value = held["metrics"].get(name, {}).get("value", 0.0)
        deviation = (value - report[name]["median"]) / report[name]["median"]
        held_report[name] = {"value": value, "deviation": deviation}
        if name != "peak_rss_mb" and abs(deviation) > metric["bound"]:
            problems.append("%s held-out seed %s: %.4f off the median, "
                            "bound %.2f" % (workload, name, deviation,
                                            metric["bound"]))
    return {"end_to_end": report, "traced_seed1": trace_report,
            "held_out_seed": {"seed": HELD_OUT_SEED, "metrics": held_report,
                              "exact": held_info},
            "exact": {str(k): v for k, v in infos.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="timed runs per workload, one seed each")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--write", action="store_true",
                        help="save the figures to perfbench/baseline.json")
    args = parser.parse_args()

    problems = []
    workloads = {}
    for workload in args.workloads.split(","):
        workloads[workload] = check_workload(workload, args.runs, problems)
        for name, r in workloads[workload]["end_to_end"].items():
            print("%-16s %-13s median %.4g [%.4g, %.4g] spread %.4f | "
                  "A %.4g B %.4g worse shift %+.4f (bound %.2f)"
                  % (workload, name, r["median"], r["q1"], r["q3"],
                     r["spread"], r["median_a"], r["median_b"],
                     r["worse_shift"], r["bound"]))
        traced = workloads[workload]["traced_seed1"]
        print("%-16s ledger.unexplained_pct %.2f trace.overhead_pct %.2f"
              % (workload, traced["ledger.unexplained_pct"],
                 traced["trace.overhead_pct"]))

    for problem in problems:
        print("PROBLEM: " + problem)
    if args.write:
        doc = {"host": host_fingerprint(), "runs_per_workload": args.runs,
               "held_out_seed": HELD_OUT_SEED, "ok": not problems,
               "problems": problems, "workloads": workloads}
        (ROOT / "perfbench" / "baseline.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
