#!/usr/bin/env python3
"""Runs the benchmark once per seed and summarises each end-to-end metric.

    python3 perfbench/spread.py --workload social --seeds 0-9 [--out FILE]

Run from the root of a checkout. Prints one line per run, then for each
metric its median, quartiles (as statistics.quantiles(values, n=4)) and
spread = (q3 - q1) / median, the figure the benchmark's bounds are checked
against. With --out, also writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seeds, help="N or LO-HI")
    ap.add_argument("--seconds", default="1", help="passed to run.py (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--out")
    a = ap.parse_args()

    values, runs = {}, []
    for seed in a.seeds:
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", a.workload, "--seed", str(seed),
                            "--seconds", a.seconds, "--trace", "0"], capture_output=True, text=True)
        if r.returncode != 0:
            sys.exit(f"seed {seed} failed:\n{r.stderr[-3000:]}")
        lines = r.stdout.splitlines()
        result = json.loads(lines[-1])
        passes = " | ".join(l for l in lines if l.startswith("passes "))
        runs.append({"seed": seed, "passes": passes, **result})
        print(a.workload, seed, passes, json.dumps(result), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    summary = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(xs)}
        print(f"{a.workload} {name}: median={med:.4f} q1={q1:.4f} q3={q3:.4f} spread={(q3 - q1) / med:.4f} n={len(xs)}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "metrics": summary, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
