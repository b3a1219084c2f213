#!/usr/bin/env python3
"""Steadiness tooling for the sweep benchmark.

Take a set of runs (N seeds per workload) and save them:

    python3 perfbench/steady.py run --runs 10 --out set-a.json [--workload W ...]
        [--first-seed 1]

Each run is `run.py --trace 0` for BENCHMARK.json's run_seconds.

Summarize a saved set, per workload and metric: median, quartiles,
min/max and the quartile spread as a share of the median, checked
against the metric's bound from BENCHMARK.json:

    python3 perfbench/steady.py show set-a.json

Compare two sets taken apart in time: the shift of each median, and
whether it exceeds the metric's bound in either direction:

    python3 perfbench/steady.py compare set-a.json set-b.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def bounds():
    """{metric: (bound, better)} for the end-to-end metrics."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles
    gives the quartiles (its default 'exclusive' method)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def take(args):
    spec = json.loads(BENCHMARK.read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = {"runs": {}}
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            vals = " ".join(f"{k}={v['value']:.5g}"
                            for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: failed {result['failed']} {vals}",
                  flush=True)
        out["runs"][w] = runs
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    show_set(out)


def series(runs):
    names = runs[0]["metrics"].keys()
    return {n: [r["metrics"][n]["value"] for r in runs] for n in names}


def show_set(data):
    b = bounds()
    ok = True
    for w, runs in data["runs"].items():
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, {failed} failed operations")
        print(f"  {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}")
        for name, vals in series(runs).items():
            med, q1, q3, sp = spread(vals)
            bound = b.get(name, (None,))[0]
            flag = ""
            if bound is not None:
                if sp > bound:
                    flag, ok = "  OVER BOUND", False
                elif sp > bound / 3:
                    flag = "  over bound/3"
            print(f"  {name:<14} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{min(vals):11.5g} {max(vals):11.5g} {sp:7.2%} "
                  f"{bound if bound is not None else '-':>6}{flag}")
    return ok


def compare(a, b):
    bd = bounds()
    ok = True
    for w in a["runs"]:
        if w not in b["runs"]:
            continue
        sa, sb = series(a["runs"][w]), series(b["runs"][w])
        print(f"\n{w}:")
        for name in sa:
            ma, mb = statistics.median(sa[name]), statistics.median(sb[name])
            shift = (mb - ma) / ma if ma else 0.0
            bound, better = bd.get(name, (None, None))
            flag = ""
            if bound is not None and abs(shift) > bound:
                worse = (shift > 0) == (better == "lower")
                flag = f"  {'WORSE' if worse else 'BETTER'} BEYOND BOUND"
                ok = False
            print(f"  {name:<14} {ma:11.5g} -> {mb:11.5g} {shift:+8.2%} "
                  f"(bound {bound}){flag}")
    return ok


def main(argv):
    p = argparse.ArgumentParser(allow_abbrev=False, description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--out", required=True)
    r.add_argument("--workload", action="append")
    r.add_argument("--first-seed", type=int, default=1)
    s = sub.add_parser("show")
    s.add_argument("file")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.cmd == "run":
        take(args)
        return 0
    if args.cmd == "show":
        return 0 if show_set(json.loads(Path(args.file).read_text())) else 1
    a = json.loads(Path(args.first).read_text())
    b = json.loads(Path(args.second).read_text())
    return 0 if compare(a, b) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
