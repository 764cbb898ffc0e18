"""Repeat the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 101-110 --out perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, and reports
per metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread: the interquartile distance as a share of the median. With ``--out``
the summary, every run's result and the environment stamp go to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    env = next(json.loads(line[len("# env "):]) for line in lines if line.startswith("# env "))
    notes = [line[2:] for line in lines if line.startswith("# ") and not line.startswith("# env ")]
    return {**json.loads(lines[-1]), "notes": notes}, env


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_list, default=seed_list("101-110"),
                   help="inclusive range such as 101-110")
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[kind]}
    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, env = run(workload, seed, args.seconds, args.trace)
            report["env"] = env
            runs.append({"seed": seed, **result})
            print(f"# {workload} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  flush=True)
        summary = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in bounds}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            bound = bounds[name]
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:<12} {name:<28} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.4f}" + (f" (bound {bound})" if bound else "") + flag)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
