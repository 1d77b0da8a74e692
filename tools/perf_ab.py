#!/usr/bin/env python3
"""Paired A/B comparison of the perfbench benchmark: parent rev vs head.

Usage, from the repository root:

    python3 tools/perf_ab.py --parent HEAD~1 --pairs 10

The parent revision's files are extracted with `git archive` into
`.perf_ab/parent-src/` (an archive registers nothing in `.git`, so an
interrupted run leaves nothing to prune). Head is this checkout's
working tree. Each side builds `perfbench/siqbench` from its own
sources into its own CARGO_TARGET_DIR under `.perf_ab/`, so the two
builds never share objects. Then, for every workload of BENCHMARK.json,
the tool alternates `perfbench/run.py` runs of the two sides for N
pairs at the benchmark's `run_seconds` (pair i runs both sides with
seed 1 + i; which side goes first alternates, so a slow phase of the
host does not always land on one side).

For each workload it prints, per end-to-end metric of BENCHMARK.json:
the median of head/parent ratios with their min and max, how many
pairs head won, and whether the median improvement exceeds the
interquartile range of the parent's runs. It also prints the failed
and attempted operation counts of each side and whether the grid and
serve digests of head equal the parent's in every pair. Every raw run
is written to `.perf_ab/runs.json`. Nothing under perfbench/ is
changed.
"""

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perf_ab"


def load_build(src: Path, tag: str):
    """The build() function of <src>/perfbench/run.py."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_run_{tag}", src / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.build


def extract(rev: str, dest: Path) -> None:
    """The files of @p rev, fresh in @p dest."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def run_once(src: Path, out: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One perfbench run; its e2e JSON plus the printed digests."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(out))
    proc = subprocess.run(
        [sys.executable, str(src / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=src, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digests"] = {
        parts[2]: parts[3] for parts in
        (ln.split() for ln in lines if ln.startswith("# digest "))
        if len(parts) == 4}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload: str, pairs, metrics) -> None:
    print(f"\n== {workload}: {len(pairs)} pairs")
    print(f"{'metric':<20} {'parent med':>12} {'head med':>12} "
          f"{'ratio med':>10} {'min':>8} {'max':>8} {'wins':>6} "
          f"{'> IQR':>6}")
    for m in metrics:
        name = m["name"]
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        ratios = [h / p if p else float("nan")
                  for p, h in zip(par, head)]
        lower = m["better"] == "lower"
        wins = sum((h < p) if lower else (h > p)
                   for p, h in zip(par, head))
        q1, q3 = quartiles(par)
        gain = (statistics.median(par) - statistics.median(head)
                if lower else
                statistics.median(head) - statistics.median(par))
        print(f"{name:<20} {statistics.median(par):>12.4g} "
              f"{statistics.median(head):>12.4g} "
              f"{statistics.median(ratios):>10.3f} {min(ratios):>8.3f} "
              f"{max(ratios):>8.3f} {wins:>3}/{len(pairs):<2} "
              f"{'yes' if gain > q3 - q1 else 'no':>6}")
    for side in ("parent", "head"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        print(f"{side} failed operations: {failed} of {attempted}")
    for kind in sorted({k for p in pairs for k in p["parent"]["digests"]}):
        same = all(p["parent"]["digests"].get(kind) ==
                   p["head"]["digests"].get(kind) for p in pairs)
        first = pairs[0]
        print(f"digest {kind}: "
              f"{'equal in every pair' if same else 'DIFFERENT'}; "
              f"seed {first['seed']}: parent "
              f"{first['parent']['digests'].get(kind)}, head "
              f"{first['head']['digests'].get(kind)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD~1",
                    help="parent revision (default HEAD~1)")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_src = WORK / "parent-src"
    extract(args.parent, parent_src)
    sides = {"parent": (parent_src, WORK / "build-parent"),
             "head": (ROOT, WORK / "build-head")}
    for tag, (src, out) in sides.items():
        print(f"building {tag} from {src}", file=sys.stderr)
        load_build(src, tag)(src, out)
    results = {}
    for wl in (w["name"] for w in bench["workloads"]):
        pairs = []
        for i in range(args.pairs):
            order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
            pair = {"seed": 1 + i}
            for tag in order:
                src, out = sides[tag]
                pair[tag] = run_once(src, out, wl, 1 + i,
                                     bench["run_seconds"])
                print(f"{wl} pair {i + 1}/{args.pairs} {tag} done",
                      file=sys.stderr)
            pairs.append(pair)
        results[wl] = pairs
        (WORK / "runs.json").write_text(json.dumps(results, indent=1))
        report(wl, pairs, bench["end_to_end"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
