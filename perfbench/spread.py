#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the untraced benchmark once per seed on each workload and prints, per
metric, the median, the quartiles and the spread (Q3 - Q1) / median, with
the machine fingerprint and the host slowdown of every run. Run from the
repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads dense_fit,mixed_rw] [--out FILE]
    python3 perfbench/spread.py --seeds 11 --repeat 10 [--out FILE]

`--repeat N` runs each seed N times, for the spread of one fixed input.

    python3 perfbench/spread.py --compare A.json B.json

compares two records of the same code: for every workload and metric, how
far B's median is from A's, and whether it is worse by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

BENCH = json.load(open("BENCHMARK.json"))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed):
    cmd = BENCH["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 3:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    fingerprint = json.loads(lines[0])["fingerprint"]
    host = json.loads(lines[1])
    return fingerprint, host, json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def compare(path_a, path_b):
    a, b = (json.load(open(p)) for p in (path_a, path_b))
    better = {m["name"]: m["better"] for m in BENCH["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    worst = 0.0
    for workload, rec in b["workloads"].items():
        for name, row in rec["metrics"].items():
            base = a["workloads"][workload]["metrics"][name]["median"]
            gap = row["median"] / base - 1
            worse = gap if better[name] == "lower" else -gap
            worst = max(worst, worse / bounds[name])
            flag = "  <-- worse by more than its bound" if worse > bounds[name] else ""
            print(f"{workload:13} {name:22} {base:14.6g} -> {row['median']:14.6g}"
                  f"  {gap:+7.2%}  bound {bounds[name]:.2f}{flag}")
    print(f"largest worsening / bound: {worst:.2f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    runs = [s for s in args.seeds for _ in range(args.repeat)]
    record = {"seeds": runs, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values, slowdowns = {}, []
        for seed in runs:
            fingerprint, host, result = run(workload, seed)
            record["fingerprint"] = {k: v for k, v in fingerprint.items() if k != "seed"}
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} failed")
            slowdowns.append(host["host_slowdown"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            row = summary(vs)
            share = row["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            rows[name] = row
            flag = "  <-- above a third of its bound" if share > 1 / 3 else ""
            print(f"{workload:13} {name:22} median {row['median']:14.6g}"
                  f"  spread {row['spread']:7.2%}"
                  f"  bound {bounds[name]:.2f}{flag}", flush=True)
        record["workloads"][workload] = {"metrics": rows, "host_slowdown": slowdowns}
        print(f"{workload:13} host slowdown per run: "
              + " ".join(f"{s:.3f}" for s in slowdowns), flush=True)
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
