#!/usr/bin/env python3
"""Steadiness report for the siqsim benchmark.

Runs every workload of BENCHMARK.json once per seed, for its
run_seconds, alternating the workload order from one seed to the next.
For each end-to-end metric it reports the median, quartiles,
inter-quartile spread and max/min spread, each as a share of the
median, next to the metric's bound from BENCHMARK.json. Every spread,
setup_s included, must stay within its bound.
Seed sets are separated by ';'. With two sets, the second set's
medians are compared with the first's (the two-sets-agree check); a
second set of seeds never used while tuning doubles as the held-out
check. With --traced the first N seeds of set 1 also get a --trace 1
run: the report adds the tracing overhead (traced minus untraced
end-to-end figures) and checks that the per-layer counts of two traced
runs of one seed are equal.

    python3 perfbench/steady.py --seeds '1-10;301-310' --traced 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {p.returncode}:\n"
                         f"{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced_e2e = None
    for ln in lines:
        if ln.startswith("# traced e2e "):
            traced_e2e = json.loads(ln[len("# traced e2e "):])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    print(f"  {workload:13s} seed {seed:3d} trace {trace} "
          f"{wall:5.1f}s attempted {result['attempted']} "
          f"failed {result['failed']}", file=sys.stderr, flush=True)
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": wall, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "values": values, "units": units,
            "traced_e2e": traced_e2e and {
                k: v["value"] for k, v in traced_e2e["metrics"].items()}}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("nan"),
            "range_share": (max(values) - min(values)) / med
            if med else float("nan"),
            "n": len(values)}


def worse_share(first, second, better):
    """How much worse `second` is than `first`, as a share of first."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10",
                    help="seed sets, e.g. '1-10;101-110'")
    ap.add_argument("--traced", type=int, default=0, metavar="N",
                    help="also trace the first N seeds of set 1")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = [seed_list(t) for t in args.seeds.split(";")]
    seeds = sets[0]
    nsets = len(sets)
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for s in range(nsets):
        print(f"set {s + 1}", file=sys.stderr)
        for i, seed in enumerate(sets[s]):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                r = run_once(w, seed, seconds, 0)
                r["set"] = s
                runs.append(r)
                if s == 0 and i < args.traced:
                    r = run_once(w, seed, seconds, 1)
                    r["set"] = s
                    runs.append(r)
    if args.traced:
        for w in workloads:  # a second traced run of the first seed
            r = run_once(w, seeds[0], seconds, 1)
            r["set"] = -1
            runs.append(r)

    failed = sum(r["failed"] for r in runs)
    print(f"# Steadiness: seed sets {args.seeds}, {seconds:g} s per "
          f"run; failed operations over all runs: {failed}\n")
    ok = True
    for w in workloads:
        print(f"## {w}\n")
        print("| metric | unit | set | median | q1 | q3 | IQR/median |"
              " max-min/median | bound | IQR < bound/3 |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        medians = {}
        for name, m in e2e.items():
            for s in range(nsets):
                vals = [r["values"][name] for r in runs
                        if r["workload"] == w and r["trace"] == 0 and
                        r["set"] == s]
                st = spread(vals)
                medians.setdefault(name, []).append(st["median"])
                tight = st["iqr_share"] < m["bound"] / 3
                ok = ok and st["iqr_share"] <= m["bound"]
                print(f"| {name} | {m['unit']} | {s + 1} | "
                      f"{st['median']:.4g} | {st['q1']:.4g} | "
                      f"{st['q3']:.4g} | {st['iqr_share']:.3f} | "
                      f"{st['range_share']:.3f} | {m['bound']} | "
                      f"{'yes' if tight else 'NO'} |")
        if nsets > 1:
            print("\n| metric | set 2 worse than set 1 by | bound | agree |")
            print("|---|---|---|---|")
            for name, m in e2e.items():
                d = worse_share(medians[name][0], medians[name][1],
                                m["better"])
                agree = d <= m["bound"]
                ok = ok and agree
                print(f"| {name} | {d:+.3f} | {m['bound']} | "
                      f"{'yes' if agree else 'NO'} |")
        if args.traced:
            print("\n| metric | traced minus untraced (median share) |")
            print("|---|---|")
            for name in e2e:
                diffs = []
                for r in runs:
                    if (r["workload"] != w or r["trace"] != 1 or
                            r["set"] != 0):
                        continue
                    base = next(u for u in runs
                                if u["workload"] == w and u["trace"] == 0
                                and u["set"] == 0 and u["seed"] == r["seed"])
                    b = base["values"][name]
                    diffs.append((r["traced_e2e"][name] - b) / b)
                print(f"| {name} | {statistics.median(diffs):+.3f} |")
            a = next(r for r in runs if r["workload"] == w and
                     r["trace"] == 1 and r["set"] == 0 and
                     r["seed"] == seeds[0])
            b = next(r for r in runs if r["workload"] == w and
                     r["set"] == -1)
            counts = [k for k, u in a["units"].items() if u == "count"]
            diff = [k for k in counts if a["values"][k] != b["values"][k]]
            ok = ok and not diff
            print(f"\nPer-layer counts, two traced runs of seed {seeds[0]}: "
                  f"{len(counts) - len(diff)}/{len(counts)} equal"
                  + (f"; differ: {', '.join(diff)}" if diff else "") + "\n")
            print("| per-layer metric | unit | seed "
                  f"{seeds[0]} run 1 | run 2 |")
            print("|---|---|---|---|")
            for k in a["values"]:
                print(f"| {k} | {a['units'][k]} | {a['values'][k]:.6g} | "
                      f"{b['values'][k]:.6g} |")
        print()
    print("Verdict:", "steady" if ok and failed == 0 else "NOT steady")
    return 0 if ok and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
