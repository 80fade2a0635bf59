#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Run from the root of a checkout.  Runs perfbench/run.py once per workload and
seed, then prints, for every metric, the median and the spread between the
first and third quartile as a share of the median (statistics.quantiles with
n=4), next to the metric's bound in BENCHMARK.json.  It fails when

  * a run fails or reports correct = false,
  * a run's metric names differ from BENCHMARK.json's (seeds must not change
    the metric set), or
  * an end-to-end spread, setup_s's included, exceeds its bound.

A spread above a third of its bound is flagged "wide".  With --repeat-seed N
it also reruns seed N traced and untraced and checks that the virtual-clock
fingerprint is identical across the runs of one commit.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                      proc.returncode))
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2])
    return result, provenance


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--repeat-seed", type=int, default=0)
    args = ap.parse_args()

    section = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in section]
    bounds = {m["name"]: m.get("bound") for m in section}
    ok = True
    for workload in args.workloads.split(","):
        values = {n: [] for n in names}
        fingerprints = {}
        for seed in parse_seeds(args.seeds):
            result, prov = run_once(workload, seed, args.seconds, args.trace)
            got = sorted(result["metrics"])
            if not result["correct"] or got != sorted(names):
                print("%s seed %d: correct=%s, metrics %s" %
                      (workload, seed, result["correct"], got))
                ok = False
            for n in names:
                if n in result["metrics"]:
                    values[n].append(result["metrics"][n]["value"])
            fingerprints[seed] = prov["provenance"]["virtual_fingerprint"]
            print("%s seed %d: %d passes, fingerprint %s\n  %s" %
                  (workload, seed, prov["provenance"]["passes"],
                   fingerprints[seed],
                   " ".join("%s=%.4g" % (n, result["metrics"][n]["value"])
                            for n in names if n in result["metrics"])),
                  flush=True)
        print("%-40s %14s %8s %7s" % (workload, "median", "spread", "bound"))
        for n in names:
            v = values[n]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[n]
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, ok = "OVER", False
                elif spread > bound / 3:
                    flag = "wide"
            print("  %-38s %14.6g %8.4f %7s %s" %
                  (n, med, spread, "" if bound is None else bound, flag))
        if args.repeat_seed:
            seed = args.repeat_seed
            for trace in (0, 1):
                _, prov = run_once(workload, seed, args.seconds, trace)
                fp = prov["provenance"]["virtual_fingerprint"]
                same = fp == fingerprints.get(seed, fp)
                print("  repeat seed %d trace %d: fingerprint %s %s" %
                      (seed, trace, fp, "same" if same else "DIFFERENT"))
                ok = ok and same
                fingerprints.setdefault(seed, fp)
    print("OK" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
