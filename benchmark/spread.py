#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric: the evidence behind which
of them BENCHMARK.json bounds.

    python3 benchmark/spread.py [RUNS] [WORKLOAD ...] > benchmark/results/spread.txt

Runs the untraced half of each workload RUNS times (default 10), each time
with another seed, from the repository root, and prints for each metric its
values, their median and the distance between the first and third quartile
as a share of the median. A metric may be bounded only if that share stays
well inside its bound on every workload.
"""
import json
import statistics
import subprocess
import sys
import tempfile

args = sys.argv[1:]
runs = int(args.pop(0)) if args and args[0].isdigit() else 10
manifest = json.load(open("BENCHMARK.json"))
names = args or [w["name"] for w in manifest["workloads"]]
bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}

with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=".") as tmp:
    exe = tmp + "/benchmark"
    subprocess.run(["go", "build", "-o", exe, "./benchmark"], check=True)
    for name in names:
        values = {}
        for seed in range(1, runs + 1):
            out = "%s/%s-%d.json" % (tmp, name, seed)
            subprocess.run([exe, "--workload", name, "--seed", str(seed), "--trace", "0", "-out", out],
                           check=True, stdout=subprocess.DEVNULL)
            for metric, v in json.load(open(out))["workloads"][0]["end_to_end"].items():
                values.setdefault(metric, []).append(v["value"])
        print("== %s, seeds 1-%d" % (name, runs))
        for metric, vs in values.items():
            if None in vs or not statistics.median(vs):
                print("  %-22s %s on this workload" % (metric, "null" if None in vs else "zero"))
                continue
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            gate = "bound %.2f" % bounds[metric] if metric in bounds else "not bounded"
            print("  %-22s median %-12.6g spread %.3f  (%s)  %s"
                  % (metric, med, (q[2] - q[0]) / med, gate, " ".join("%.5g" % v for v in vs)))
        sys.stdout.flush()
