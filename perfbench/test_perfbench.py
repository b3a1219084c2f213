#!/usr/bin/env python3
"""Tests of the benchmark's own code (no build, no simulation).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run
import steady


def row(set_, id_, ipc="1.5", stall=100, target=100, ok=1, insts=2000):
    return [set_, id_, ok, 0, 0, insts, 100, stall, target, ipc, 12.5,
            "" if ok else "boom"]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(run.percentile(vals, 50), 50)
        self.assertEqual(run.percentile(vals, 85), 85)
        self.assertEqual(run.percentile(vals, 100), 100)
        self.assertEqual(run.percentile([7.0], 85), 7.0)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)
        with self.assertRaises(ValueError):
            run.percentile([1], 0)

    def test_ten_samples_beyond_rule(self):
        # 75 jobs: p85 is rank 64, leaving 11 samples beyond it; p86
        # leaves exactly 10 and p87 only 9.
        self.assertEqual(run.samples_beyond(75, 85), 11)
        self.assertEqual(run.samples_beyond(75, 86), 10)
        self.assertEqual(run.samples_beyond(75, 87), 9)
        self.assertEqual(run.samples_beyond(150, 85), 22)
        self.assertEqual(run.samples_beyond(10, 85), 1)

    def test_sweep_p85_needs_ten_beyond(self):
        report = {"rows": [row("d2m", f"j{i}") for i in range(20)],
                  "sweep_rows": 20, "sweep_s": 1.0, "setup_s": [1.0],
                  "peak_rss_kib": 1024, "store_bytes": 1,
                  "rerun_s": [1.0]}
        ref = {("full", f"j{i}"): {"ipc": "1.5"} for i in range(20)}
        with self.assertRaises(run.BenchError):
            run.end_to_end([report], ref, "detailed-2m")


class DigestTest(unittest.TestCase):
    def setUp(self):
        self.rows = [row("d2m", "a", ipc="1.25"), row("d2m", "b")]
        self.ref = {("d2m", "a"): run.row_digest(self.rows[0]),
                    ("d2m", "b"): run.row_digest(self.rows[1])}

    def test_all_match(self):
        self.assertEqual(run.check_rows(self.rows, self.ref, self.ref)[:2],
                         (2, 0))

    def test_corrupted_reference_row_fails(self):
        self.ref[("d2m", "a")] = dict(self.ref[("d2m", "a")],
                                      cycles="101")
        attempted, failed, msgs = run.check_rows(self.rows, self.ref,
                                                 self.ref)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("d2m a", msgs[0])

    def test_missing_reference_error_and_stall_fail(self):
        rows = self.rows + [row("d2m", "c"), row("d2m", "a", ok=0),
                            row("d2m", "b", stall=99)]
        self.assertEqual(run.check_rows(rows, self.ref, self.ref)[:2],
                         (5, 3))

    def test_job_that_never_ran_fails(self):
        expected = list(self.ref) + [("d2m", "z")]
        self.assertEqual(run.check_rows(self.rows, self.ref, expected)[:2],
                         (3, 1))

    def test_reference_file_round_trip(self):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "digests.tsv"
            d0 = run.row_digest(self.rows[0])
            path.write_text("# header\nd2m\ta\t" +
                            "\t".join(d0[c] for c in run.DIGEST_FIELDS) +
                            "\n")
            self.assertEqual(run.load_reference(path), {("d2m", "a"): d0})
            path.write_text("d2m\ta\t0\n")
            with self.assertRaises(run.BenchError):
                run.load_reference(path)

    def test_traced_rows_compared_with_untraced(self):
        traced = [row("d2m", "a", ipc="1.25"), row("d2m", "b", ipc="9")]
        self.assertEqual(run.check_same(self.rows, traced), [("d2m", "b")])
        self.assertEqual(run.check_same(self.rows, self.rows), [])


class ArgsTest(unittest.TestCase):
    def parse(self, *argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return run.parse_args(list(argv))

    def test_accepts_driver_flags(self):
        a = self.parse("--workload", "store-cycle", "--seed", "7",
                       "--seconds", "20", "--trace", "1")
        self.assertEqual((a.workload, a.seed, a.seconds, a.trace),
                         ("store-cycle", 7, 20, 1))

    def test_rejects_unknown_and_bad_values(self):
        base = ["--workload", "detailed-2m", "--seed", "1", "--seconds",
                "20", "--trace", "0"]
        bad = [
            base + ["--jobs", "4"],
            ["--workload", "nope"] + base[2:],
            base[:3] + ["-1"] + base[4:],
            base[:3] + ["x"] + base[4:],
            base[:5] + ["0"] + base[6:],
            base[:7] + ["2"],
            base[:6],
            ["--work", "detailed-2m"] + base[2:],
        ]
        for argv in bad:
            with self.subTest(argv=argv), self.assertRaises(SystemExit):
                self.parse(*argv)


class PermutationTest(unittest.TestCase):
    def test_deterministic_permutation(self):
        for seed in (0, 1, 2, 12345, 2**40):
            p = run.permutation(75, seed)
            self.assertEqual(sorted(p), list(range(75)))
            self.assertEqual(p, run.permutation(75, seed))
        self.assertNotEqual(run.permutation(75, 1), run.permutation(75, 2))
        self.assertEqual(run.permutation(1, 9), [0])

    def test_known_order(self):
        # Pins the generator so the same seed keeps giving the same
        # submission order across versions of this script.
        self.assertEqual(run.permutation(8, 1), [1, 4, 6, 2, 5, 3, 0, 7])


class ConfigTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        spec = json.loads(steady.BENCHMARK.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_spread_uses_statistics_quartiles(self):
        med, q1, q3, sp = steady.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(sp, 1.0)

    def test_compare_fails_on_shift_either_way(self):
        def one_set(sweep_s):
            return {"runs": {"w": [{"metrics": {
                "sweep_s": {"value": v, "unit": "s"}}} for v in sweep_s]}}

        base = one_set([10.0, 10.0, 10.0])
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertTrue(steady.compare(base, one_set([11.0] * 3)))
            self.assertFalse(steady.compare(base, one_set([13.0] * 3)))
            self.assertFalse(steady.compare(base, one_set([7.0] * 3)))

    def test_env_pins_library_variables(self):
        polluted = {"CH_PIPE_TRACE": "x.kanata", "CH_TRACE_CACHE_MB": "1",
                    "CH_EMU_ENGINE": "switch", "CH_STORE_DIR": "/nope"}
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.dict(os.environ, polluted):
            env = run.bench_env(Path(d))
        self.assertEqual(env["CH_TRACE_CACHE_MB"], "1024")
        self.assertNotIn("CH_PIPE_TRACE", env)
        self.assertEqual(env["CH_EMU_ENGINE"], "threaded")
        self.assertTrue(env["HOME"].startswith(d))
        self.assertTrue(env["CH_STORE_DIR"].startswith(d))


if __name__ == "__main__":
    unittest.main()
