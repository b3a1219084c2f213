#!/usr/bin/env python3
"""Sweep benchmark driver (see perfbench/README.md).

    python3 perfbench/run.py --workload detailed-2m --seed 1 --seconds 30 --trace 0

Builds perfbench/chperf from source into .bench_build/ at the checkout
root, runs one workload's sweep with a pinned environment, checks every
job against perfbench/reference/digests.tsv and prints, as the last line
of standard output, one JSON object with keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference" / "digests.tsv"

WORKLOADS = ("detailed-2m", "sampled-full", "store-cycle")
SETUP_REPS = 15
# Untraced chperf processes per run (README.md, "Measured steadiness").
REPEATS = 3
GRID_JOBS = 75
# Job sets of each workload's timed sweep; the first is compared with the
# full-length detailed reference for ipc_err_pct.
SWEEP_SETS = {
    "detailed-2m": ("d2m",),
    "sampled-full": ("sfull",),
    "store-cycle": ("sc1", "sc2"),
}
CHPERF_TIMEOUT_S = 170
# Least tracing.accounted_frac a traced run may report (README.md).
MIN_ACCOUNTED_FRAC = 0.9

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "sim_mips": "MIPS",
    "job_p50_s": "s",
    "job_p85_s": "s",
    "peak_rss_mib": "MiB",
    "ipc_err_pct": "%",
    "store_mib": "MiB",
    "rerun_s": "s",
}

PER_LAYER = {
    "workloads.compile_ms": "ms",
    "workloads.compiles": "count",
    "emu.mips": "MIPS",
    "trace.capture_ms": "ms",
    "trace.capture_mips": "MIPS",
    "trace.replay_mips": "MIPS",
    "trace.bytes_per_inst": "B/inst",
    "trace.mib": "MiB",
    "runner.capture_wait_ms": "ms",
    "runner.worker_idle_frac": "fraction",
    "runner.trace_cache.hit_ratio": "fraction",
    "runner.metrics_write_ms": "ms",
    "uarch.detailed.self_ms": "ms",
    "uarch.detailed_mips": "MIPS",
    "uarch.sampled.self_ms": "ms",
    "uarch.warm_mips": "MIPS",
    "uarch.sampled.timed_frac": "fraction",
    "uarch.fast.self_ms": "ms",
    "uarch.fast_mips": "MIPS",
    "store.result_save_ms": "ms",
    "store.result_load_ms": "ms",
    "store.trace_save_ms": "ms",
    "store.trace_load_ms": "ms",
    "store.result_hit_ratio": "fraction",
    "store.trace_hit_ratio": "fraction",
    "store.result_bytes": "bytes",
    "store.trace_bytes": "bytes",
    "tracing.accounted_frac": "fraction",
    "tracing.overhead_pct": "%",
}

# Digest columns compared against the reference, in report-row order.
DIGEST_FIELDS = ("exited", "exit", "insts", "cycles", "stall", "ipc")


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


# ---------------------------------------------------------------------------
# Arguments


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="run.py", allow_abbrev=False,
        description="Run one workload of the sweep benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=_nonneg_int)
    p.add_argument("--seconds", required=True, type=_seconds)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def _nonneg_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return v


def _seconds(text):
    v = int(text)
    if not 1 <= v <= 600:
        raise argparse.ArgumentTypeError("must be in [1, 600]")
    return v


# ---------------------------------------------------------------------------
# Seeded submission order


def permutation(n, seed):
    """Deterministic Fisher-Yates permutation of range(n) from a
    splitmix64 stream, independent of Python's random module."""
    state = (seed * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & (2**64 - 1)

    def nxt():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return z ^ (z >> 31)

    out = list(range(n))
    for i in range(n - 1, 0, -1):
        j = nxt() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# Statistics


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    if not values or not 0 < p <= 100:
        raise ValueError("percentile needs values and 0 < p <= 100")
    s = sorted(values)
    return s[max(1, math.ceil(p / 100 * len(s))) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile's rank."""
    return n - max(1, math.ceil(p / 100 * n))


# ---------------------------------------------------------------------------
# Digests


def load_reference(path=REFERENCE):
    """{(set, id): {field: text}} from the committed TSV."""
    ref = {}
    with open(path) as f:
        for line in f:
            if not line.strip() or line.startswith("#"):
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 2 + len(DIGEST_FIELDS):
                raise BenchError(f"{path}: malformed row: {line!r}")
            ref[(cols[0], cols[1])] = dict(zip(DIGEST_FIELDS, cols[2:]))
    return ref


def row_digest(row):
    """The comparable digest fields of one report row, as text."""
    _set, _id, _ok, exited, code, insts, cycles, stall, _target, ipc = \
        row[:10]
    return dict(zip(DIGEST_FIELDS, (str(exited), str(code), str(insts),
                                    str(cycles), str(stall), ipc)))


def check_rows(rows, ref, expected):
    """Count failed rows. A row fails on a job error, a broken stall-sum
    invariant, a missing reference or any digest mismatch; an expected
    (set, id) that never ran counts as one more failure. Returns
    (attempted, failed, messages)."""
    failed = 0
    msgs = []
    seen = set()
    for row in rows:
        key = (row[0], row[1])
        seen.add(key)
        why = None
        if not row[2]:
            why = "job error: " + row[11]
        elif row[7] != row[8]:
            why = f"stall sum {row[7]} != timed cycles {row[8]}"
        elif key not in ref:
            why = "no reference digest"
        elif row_digest(row) != ref[key]:
            why = f"digest {row_digest(row)} != reference {ref[key]}"
        if why:
            failed += 1
            if len(msgs) < 10:
                msgs.append(f"{key[0]} {key[1]}: {why}")
    missing = [k for k in expected if k not in seen]
    for k in missing[:10]:
        msgs.append(f"{k[0]} {k[1]}: never ran")
    return len(rows) + len(missing), failed + len(missing), msgs


def check_same(rows_a, rows_b):
    """Keys whose first digest differs between two runs of the same jobs."""
    first_a, first_b = {}, {}
    for rows, first in ((rows_a, first_a), (rows_b, first_b)):
        for row in rows:
            first.setdefault((row[0], row[1]), row_digest(row))
    return sorted(k for k in first_a.keys() | first_b.keys()
                  if first_a.get(k) != first_b.get(k))


# ---------------------------------------------------------------------------
# Build and run


def bench_env(run_dir):
    """The environment chperf runs in: every CH_* variable the library
    reads is pinned or cleared, and HOME points into the run directory so
    the default store root (~/.cache/clockhands) is never touched."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CH_")}
    env.update({
        "CH_TRACE_CACHE_MB": "1024",
        "CH_EMU_ENGINE": "threaded",
        "CH_STORE_DIR": str(run_dir / "store"),
        "HOME": str(run_dir / "home"),
        "TMPDIR": str(run_dir / "tmp"),
    })
    return env


def build():
    """Configure (once) and build chperf in Release; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources missing under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "chperf",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env, timeout=850).returncode != 0:
                tail = log.read_text()[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return BUILD / "chperf"


def run_chperf(exe, workload, order, run_dir, seconds, trace,
               setup_reps=SETUP_REPS, timeout=CHPERF_TIMEOUT_S):
    out = run_dir / ("traced.json" if trace else "report.json")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "--workload", workload,
           "--order", ",".join(map(str, order)),
           "--setup-reps", str(setup_reps), "--seconds", str(seconds),
           "--trace", str(trace), "--dir", str(run_dir), "--out", str(out)]
    proc = subprocess.run(cmd, env=bench_env(run_dir), timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise BenchError(f"chperf exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    with open(out) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(reports, ref, workload):
    """End-to-end metrics over the untraced processes of one run: the
    median of their sweeps, setups, reruns, RSS and store sizes, and
    per-job percentiles over the pooled jobs of every sweep."""
    sweeps = [r["rows"][:r["sweep_rows"]] for r in reports]
    sweep_s = statistics.median(r["sweep_s"] for r in reports)
    walls = [row[10] / 1000 for rows in sweeps for row in rows]
    p85 = 85
    if samples_beyond(len(walls), p85) < 10:
        raise BenchError(f"{len(walls)} jobs leave fewer than 10 samples "
                         f"beyond p{p85}")
    primary = SWEEP_SETS[workload][0]
    errs = []
    for row in sweeps[0]:
        if row[0] != primary:
            continue
        full = ref.get(("full", row[1]))
        if full is None:
            raise BenchError(f"no full-length reference for {row[1]}")
        truth = float(full["ipc"])
        errs.append(abs(float(row[9]) - truth) / truth * 100)
    return {
        "setup_s": statistics.median(
            s for r in reports for s in r["setup_s"]),
        "sweep_s": sweep_s,
        "sim_mips": sum(row[5] for row in sweeps[0]) / sweep_s / 1e6,
        "job_p50_s": percentile(walls, 50),
        "job_p85_s": percentile(walls, p85),
        "peak_rss_mib": statistics.median(
            r["peak_rss_kib"] for r in reports) / 1024,
        "ipc_err_pct": statistics.mean(errs),
        "store_mib": statistics.median(
            r["store_bytes"] for r in reports) / 2**20,
        "rerun_s": statistics.median(
            s for r in reports for s in r["rerun_s"]),
    }


def expected_keys(ref, workload):
    sets = SWEEP_SETS[workload]
    return [k for k in ref if k[0] in sets]


def main(argv):
    args = parse_args(argv)
    try:
        ref = load_reference()
        exe = build()
        run_dir = ROOT / ".bench_build" / "runs" / args.workload
        order = permutation(GRID_JOBS, args.seed)
        t0 = time.monotonic()
        # Each untraced process sweeps once in an equal share of
        # --seconds; the run pools their jobs and takes medians.
        share = max(1, args.seconds // REPEATS)
        reports = [run_chperf(exe, args.workload, order, run_dir, share, 0)
                   for _ in range(REPEATS)]
        attempted, failed, msgs = 0, 0, []
        for report in reports:
            a, f, m = check_rows(report["rows"], ref,
                                 expected_keys(ref, args.workload))
            attempted, failed, msgs = attempted + a, failed + f, msgs + m
        e2e = end_to_end(reports, ref, args.workload)
        report = reports[0]
        print(f"build {report['build_type']} ({report['compiler']}), "
              f"{report['threads']} worker threads, nproc "
              f"{report['nproc']}, workload {args.workload}, seed "
              f"{args.seed}")
        for name, unit in END_TO_END.items():
            print(f"  {name:<14} {e2e[name]:14.6g} {unit}")
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
        if args.trace:
            traced = run_chperf(exe, args.workload, order, run_dir,
                                share, 1)
            a, f, m = check_rows(traced["rows"], ref,
                                 expected_keys(ref, args.workload))
            attempted += a
            failed += f
            msgs += m
            diff = check_same(report["rows"], traced["rows"])
            failed += len(diff)
            msgs += [f"{k[0]} {k[1]}: traced digest differs from untraced"
                     for k in diff[:10]]
            layers = dict(traced["layers"])
            # The span accounting is one more checked operation.
            attempted += 1
            if layers["tracing.accounted_frac"] < MIN_ACCOUNTED_FRAC:
                failed += 1
                msgs.append(f"tracing.accounted_frac "
                            f"{layers['tracing.accounted_frac']:.3f} < "
                            f"{MIN_ACCOUNTED_FRAC}")
            layers["tracing.overhead_pct"] = (
                (traced["sweep_s"] - e2e["sweep_s"]) / e2e["sweep_s"] * 100)
            print(f"per-layer (traced sweep_s {traced['sweep_s']:.4g} s "
                  f"beside untraced {e2e['sweep_s']:.4g} s):")
            for name, unit in PER_LAYER.items():
                print(f"  {name:<28} {layers[name]:14.6g} {unit}")
            metrics = {k: {"value": layers[k], "unit": u}
                       for k, u in PER_LAYER.items()}
        for msg in msgs:
            print("FAILED " + msg, file=sys.stderr)
        print(f"wall {time.monotonic() - t0:.1f} s, {attempted} jobs "
              f"checked, {failed} failed")
    except (BenchError, OSError, subprocess.TimeoutExpired, KeyError,
            ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
