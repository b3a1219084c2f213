#!/usr/bin/env python3
"""Regenerate perfbench/reference/digests.tsv.

    python3 perfbench/make_reference.py

Runs every job set of the three workloads once (submission order is the
identity; the digests do not depend on it) plus the full-length detailed
grid that ipc_err_pct compares against, checks that repeated runs of a
job agree and that each job's stall categories sum to its timed cycles,
and writes one row per (set, job id). Rerun this only when a change is
meant to alter simulated results, and say so in the change.
"""

import argparse
import sys

import run

SETS_BY_WORKLOAD = {**run.SWEEP_SETS, "full-reference": ("full",)}


def main(argv):
    argparse.ArgumentParser(allow_abbrev=False,
                            description=__doc__).parse_args(argv)
    exe = run.build()
    order = list(range(run.GRID_JOBS))
    digests = {}
    for workload, sets in SETS_BY_WORKLOAD.items():
        run_dir = run.ROOT / ".bench_build" / "reference" / workload
        report = run.run_chperf(exe, workload, order, run_dir, 0, 0,
                                setup_reps=1, timeout=3600)
        for row in report["rows"]:
            key = (row[0], row[1])
            if not row[2] or row[7] != row[8]:
                sys.exit(f"{key}: job failed or stall sum broken: {row}")
            d = run.row_digest(row)
            if digests.setdefault(key, d) != d:
                sys.exit(f"{key}: runs disagree: {digests[key]} vs {d}")
        got = {k[0] for k in digests}
        if not set(sets) <= got:
            sys.exit(f"{workload}: missing job sets {set(sets) - got}")
    run.REFERENCE.parent.mkdir(exist_ok=True)
    with open(run.REFERENCE, "w") as f:
        f.write("# set\tid\t" + "\t".join(run.DIGEST_FIELDS) + "\n")
        for key in sorted(digests):
            d = digests[key]
            f.write("\t".join(key + tuple(d[c] for c in run.DIGEST_FIELDS))
                    + "\n")
    print(f"wrote {len(digests)} digests to {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
