#!/usr/bin/env python3
"""Records the benchmark's seed baseline into perfbench/baseline.json.

Usage (from the repository root):

    python3 perfbench/baseline.py [--out FILE]

For every workload in BENCHMARK.json it runs perfbench/run.py once per seed
1-10 with --trace 0, each in its own process. It then reports, per
end-to-end metric, the median, the quartiles (statistics.quantiles(values,
n=4)) and the spread (q3 - q1) / median, against the metric's bound in
BENCHMARK.json. It also makes one traced run for the per-layer share table.
Last, it repeats the first seed and checks that the three quality metrics
come out identical. All of it goes into one file, recorded in one call.
Exits non-zero when a run fails, a spread exceeds its bound, or the repeat
differs.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUALITY = ("enc_sim_geomean", "states_total", "area_geomean")
SEEDS = list(range(1, 11))
# A seed none of the recorded runs used, kept for re-checking later claims
# on inputs they were not tuned on.
HELD_OUT_SEED = 1000


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("baseline: %s seed %d trace %d failed (exit %d)"
                 % (workload, seed, trace, proc.returncode))
    result = json.loads(lines[-1])
    print("%s seed %d trace %d: %s" % (workload, seed, trace,
          {k: round(v["value"], 4) for k, v in result["metrics"].items()}
          if not trace else "ok"), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    model = ""
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    out = {"cpus": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
           "run_seconds": seconds, "seeds": SEEDS, "held_out_seed": HELD_OUT_SEED,
           "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in SEEDS]
        metrics = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            within = spread <= bounds[name]
            ok = ok and within
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4),
                             "bound": bounds[name], "within_bound": within}
            print("  %-16s median %12.5f  spread %.4f  bound %.2f%s"
                  % (name, median, spread, bounds[name], "" if within else "  EXCEEDS"))
        repeat = run(workload, SEEDS[0], seconds, 0)
        deterministic = all(repeat[q] == runs[0][q] for q in QUALITY)
        ok = ok and deterministic
        traced = run(workload, SEEDS[0], seconds, 1)
        shares = {k: round(v, 2) for k, v in traced.items() if k.endswith(".share_pct")}
        out["workloads"][workload] = {
            "end_to_end": metrics,
            "quality_repeat_identical": deterministic,
            "traced_seed": SEEDS[0],
            "share_pct_of_cell_time": shares,
            "per_layer": {k: round(v, 6) for k, v in traced.items()},
        }
        print("  repeat of seed %d identical on %s: %s" % (SEEDS[0], ", ".join(QUALITY),
                                                           deterministic))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
