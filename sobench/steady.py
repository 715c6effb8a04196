#!/usr/bin/env python3
"""Runs the benchmark repeatedly and writes its steadiness record.

Run from the repository root:

    python3 sobench/steady.py --runs 10                 # every workload
    python3 sobench/steady.py --runs 5 --workloads sweep_cluster

Each run uses another seed. For every workload and end-to-end metric the
record gives the median, quartiles (statistics.quantiles, n=4), min, max
and the quartile spread as a share of the median, next to the metric's
bound in BENCHMARK.json; host.spin_ms and the generator lateness are
recorded the same way, with host.steal_pct (the share of CPU time the
hypervisor gave to other guests during the run). The record is written to sobench/STEADINESS.md
(and the raw values to sobench/steadiness.json) unless --out is given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    cmd = ["bash", os.path.join("sobench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    diag = {}
    for line in lines:
        if line.startswith("sobench: diagnostics "):
            diag = json.loads(line[len("sobench: diagnostics "):])
    values = {k: v["value"] for k, v in res["metrics"].items()}
    for k in ("host.spin_ms", "host.steal_pct", "gen.late_p90_ms"):
        if k in diag:
            values[k] = diag[k]
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return values, elapsed


def summarize(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(xs), "max": max(xs),
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", default=os.path.join(HERE, "STEADINESS.md"))
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    diags = ["host.spin_ms", "host.steal_pct", "gen.late_p90_ms"]
    units.update({"host.spin_ms": "ms", "host.steal_pct": "%", "gen.late_p90_ms": "ms"})

    raw = {}
    for w in args.workloads.split(","):
        raw[w] = {"values": {}, "elapsed_s": []}
        for i in range(args.runs):
            values, elapsed = run_once(w, args.seed + i, args.seconds)
            raw[w]["elapsed_s"].append(elapsed)
            for k, v in values.items():
                raw[w]["values"].setdefault(k, []).append(v)
            print(f"{w} seed {args.seed + i}: " +
                  ", ".join(f"{k}={v:.4g}" for k, v in sorted(values.items())), flush=True)

    lines = [
        "# Steadiness record",
        "",
        f"{args.runs} runs per workload of `bash sobench/run.sh --seconds {args.seconds} --trace 0`, "
        f"seeds {args.seed}..{args.seed + args.runs - 1}, generated by `python3 sobench/steady.py`. "
        f"Host: {os.cpu_count()} CPUs ({platform_cpu()}). "
        "Spread is (q3 - q1) / median; the benchmark is steady when every spread but "
        "setup_s's stays under a third of its bound.",
        "",
        "| workload | metric | unit | median | q1 | q3 | min | max | spread | bound |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for w, data in raw.items():
        for k in list(bounds) + diags:
            if k not in data["values"]:
                continue
            s = summarize(data["values"][k])
            data.setdefault("summary", {})[k] = s
            bound = f"{bounds[k]:.2f}" if k in bounds else "not gated"
            lines.append(f"| {w} | {k} | {units[k]} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} | "
                         f"{s['min']:.4g} | {s['max']:.4g} | {s['spread']:.3f} | {bound} |")
        lines.append(f"| {w} | run wall time | s | {statistics.median(data['elapsed_s']):.1f} | | | "
                     f"{min(data['elapsed_s']):.1f} | {max(data['elapsed_s']):.1f} | | |")
    with open(args.out, "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(os.path.dirname(args.out), "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1, sort_keys=True)
    print("\n".join(lines))


def platform_cpu():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown CPU"


if __name__ == "__main__":
    main()
