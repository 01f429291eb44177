#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steadiness.py [--workloads a,b] [--runs-per-set 5]
                                    [--first-seed 1] [--seconds S]

Runs each workload as two interleaved sets of untraced runs (A1 B1 A2 B2
...), every run with its own seed, through perfbench/run.py. For every
end-to-end metric of BENCHMARK.json it prints each set's median and
quartiles and its spread (interquartile distance / median), and whether the
two sets agree within the metric's bound: each set's spread is within the
bound and the two medians differ by at most the bound, in either direction.
Every metric is held to this, setup_s included. It also prints the spread
over all runs of a workload against a third of the bound, the margin the
benchmark is tuned to. Exit status 0 iff every metric of every workload
agrees and every run passed.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs-per-set", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs_per_set < 2:
        parser.error("--runs-per-set must be at least 2")

    ok = True
    seed = args.first_seed
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for _ in range(args.runs_per_set):
            for name in ("A", "B"):
                metrics = run_once(workload, seed, args.seconds)
                print(f"{workload} set {name} seed {seed}: "
                      + (json.dumps(metrics) if metrics else "FAILED"),
                      flush=True)
                seed += 1
                if metrics is None:
                    ok = False
                else:
                    sets[name].append(metrics)
        if min(len(s) for s in sets.values()) < 2:
            print(f"{workload}: too few passing runs to compare")
            ok = False
            continue
        print(f"\n{workload}: {args.runs_per_set} runs per set, "
              f"{args.seconds} s each")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = []
            stats = {}
            for set_name, runs in sets.items():
                q1, med, q3, sp = spread([r[name] for r in runs])
                stats[set_name] = (med, sp)
                row.append(f"{set_name}: median {med:.6g} "
                           f"[{q1:.6g}, {q3:.6g}] spread {sp:.3f}")
            a, b = stats["A"][0], stats["B"][0]
            moved = (b - a) / a
            agree = (all(sp <= bound for _, sp in stats.values())
                     and abs(moved) <= bound)
            _, _, _, pooled = spread([r[name] for s in sets.values() for r in s])
            margin = "ok" if pooled < bound / 3 else "WIDE"
            ok = ok and agree
            print(f"  {name:16s} bound {bound:.2f}  " + "  |  ".join(row)
                  + f"  |  B vs A {moved:+.3f}  all-runs spread {pooled:.3f}"
                  f" ({margin})  -> {'agree' if agree else 'DISAGREE'}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main(sys.argv[1:])
