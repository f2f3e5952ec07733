"""The benchmark's own tests:

  python3 -m unittest discover -s perfbench/tests

test_harness_selftest builds and runs the C++ self-tests
(perfbench_selftest) in the benchmark's build directory.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import build  # noqa: E402
import script  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import verify  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_samples_beyond_p99(self):
        # p99 is only a measured tail from 1000 samples on.
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(2400, 99), 24)
        self.assertEqual(stats.samples_beyond(1, 99), 0)

    def test_median(self):
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([5, 1, 3]), 3)

    def test_rejects_empty(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)
        with self.assertRaises(ValueError):
            stats.hd_percentile([], 99)

    def test_beta_cdf(self):
        self.assertAlmostEqual(stats.beta_cdf(0.3, 1, 1), 0.3)
        self.assertAlmostEqual(stats.beta_cdf(0.5, 2, 2), 0.5)
        # Beta(2, 3): 1 - (1-x)^4 - 4x(1-x)^3.
        self.assertAlmostEqual(stats.beta_cdf(0.2, 2, 3),
                               1 - 0.8 ** 4 - 4 * 0.2 * 0.8 ** 3)
        self.assertEqual(stats.beta_cdf(0.0, 990.99, 10.01), 0.0)
        self.assertEqual(stats.beta_cdf(1.0, 990.99, 10.01), 1.0)

    def test_harrell_davis(self):
        # On an evenly spaced sample it is the interpolated quantile.
        values = list(range(1, 1001))
        self.assertAlmostEqual(stats.hd_percentile(values, 99), 990.5, 6)
        self.assertAlmostEqual(stats.hd_percentile(values, 50), 500.5, 6)
        self.assertEqual(stats.hd_percentile([7.0], 99), 7.0)
        self.assertAlmostEqual(stats.hd_percentile([5.0] * 40, 99), 5.0)

    def test_harrell_davis_steadier_than_nearest_rank_at_a_gap(self):
        # A tail of pairs (a slow request and the one queued behind it),
        # one of which (2600) lost its queued request: when one more
        # queued request (of 3000) escapes its pair, the nearest-rank p99
        # (the 11th-slowest of 1000) drops to the next pair, while the
        # Harrell-Davis estimate moves by a fraction of that.
        pairs = [7000, 6000, 4500, 3200, 3000, 2600, 1750, 1350, 700, 650]
        tail = [x for x in pairs for _ in range(2)]
        tail.remove(2600)
        before = [10.0] * (1000 - len(tail)) + tail
        after = list(before)
        after[after.index(3000)] = 10.0
        nr = [stats.percentile(v, 99) for v in (before, after)]
        hd = [stats.hd_percentile(v, 99) for v in (before, after)]
        self.assertEqual(nr, [2600, 1750])
        self.assertLess(abs(hd[0] - hd[1]) / hd[0],
                        0.5 * abs(nr[0] - nr[1]) / nr[0])


class PoolTimeline(unittest.TestCase):
    def test_two_workers_with_a_drain(self):
        # Two workers, sweep [0, 10]; cells (queued, start, end).
        cells = [(0.0, 0.0, 4.0), (0.0, 0.0, 6.0), (0.0, 4.0, 8.0)]
        t = spans.pool_timeline([(2, 0.0, 10.0, cells)])
        self.assertAlmostEqual(t["busy_frac"], 14.0 / 20.0)
        # Queue empty from t=4: 2 workers x 6 s, of which 2 + 4 busy.
        self.assertAlmostEqual(t["drain_idle_s"], 6.0)
        self.assertAlmostEqual(t["queue_wait_s"], 4.0 / 3.0)

    def test_serial_sweep_is_fully_busy(self):
        cells = [(0.0, 0.0, 1.0), (0.0, 1.0, 3.0)]
        t = spans.pool_timeline([(1, 0.0, 3.0, cells)])
        self.assertAlmostEqual(t["busy_frac"], 1.0)
        self.assertAlmostEqual(t["drain_idle_s"], 0.0)

    def test_resumed_sweep_has_capacity_but_no_cells(self):
        t = spans.pool_timeline([(4, 0.0, 1.0, []),
                                 (1, 1.0, 2.0, [(1.0, 1.0, 2.0)])])
        self.assertAlmostEqual(t["busy_frac"], 1.0 / 5.0)


class SelfTime(unittest.TestCase):
    def test_children_and_child_ns(self):
        s = [
            {"id": 1, "parent": 0, "layer": "runtime", "t0": 0, "t1": 100},
            {"id": 2, "parent": 1, "layer": "sim", "t0": 10, "t1": 30,
             "child_ns": 5},
            {"id": 3, "parent": 1, "layer": "sim", "t0": 20, "t1": 50},
        ]
        self_s = spans.self_times(s)
        self.assertAlmostEqual(self_s["runtime"] * 1e9, 60)
        self.assertAlmostEqual(self_s["sim"] * 1e9, 15 + 30)
        self.assertAlmostEqual(self_s["sched"] * 1e9, 5)

    def test_covered_clips_and_merges(self):
        self.assertEqual(spans.covered([(0, 5), (3, 8), (20, 30)], 2, 25), 11)


class Verification(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.mkdtemp()
        self.csv = os.path.join(self.dir, "fig15.csv")
        with open(self.csv, "w") as f:
            f.write("figure,scheduler,procs,misses\n"
                    "fig15,AFS,1,100\nfig15,AFS,2,23\n")
        with open(self.csv, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        self.reference = {"csv_sha256": {"fig15.csv": digest},
                          "fig15_miss_total": 123}

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_accepts_the_reference_output(self):
        cells, failed, problems = verify.check_csvs(
            self.dir, ["fig15.csv"], self.reference)
        self.assertEqual((cells, failed, problems), (2, 0, []))
        self.assertIsNone(verify.check_fig15_misses(self.dir, self.reference))

    def test_rejects_an_altered_csv(self):
        with open(self.csv, "a") as f:
            f.write("fig15,GSS,1,0\n")
        cells, failed, problems = verify.check_csvs(
            self.dir, ["fig15.csv"], self.reference)
        self.assertEqual((cells, failed), (3, 3))
        self.assertIn("sha256", problems[0])

    def test_rejects_an_altered_miss_total(self):
        with open(self.csv, "w") as f:
            f.write("figure,scheduler,procs,misses\nfig15,AFS,1,124\n")
        self.assertIn("!= pinned 123",
                      verify.check_fig15_misses(self.dir, self.reference))

    def test_missing_csv_fails(self):
        os.unlink(self.csv)
        cells, failed, problems = verify.check_csvs(
            self.dir, ["fig15.csv"], self.reference)
        self.assertEqual(failed, 1)
        self.assertIn("missing", problems[0])

    def test_warm_answer_must_match_cold(self):
        book = verify.AnswerBook()
        with open(self.csv, "rb") as f:
            cold = f.read()
        self.assertIsNone(book.check("req", [cold]))
        self.assertIsNone(book.check("req", [cold]))
        self.assertIn("differs", book.check("req", [cold + b"x\n"]))

    def test_accesses_from_serialized_results(self):
        path = os.path.join(self.dir, "a.cell")
        with open(path, "w") as f:
            f.write("afs-cell-v1\nhits 10\nmisses 5\ninval 3\nend\n")
        self.assertEqual(verify.simulated_accesses([path, path]), 30)

    def test_shipped_reference(self):
        ref = verify.load_reference()
        self.assertEqual(len(ref["csv_sha256"]), 29)
        self.assertEqual(ref["fig15_miss_total"], 17019558)


class Script(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a, b = tempfile.mktemp(), tempfile.mktemp()
        try:
            script.write(a, script.generate(7))
            script.write(b, script.generate(7))
            with open(a, "rb") as fa, open(b, "rb") as fb:
                self.assertEqual(fa.read(), fb.read())
        finally:
            for p in (a, b):
                if os.path.exists(p):
                    os.unlink(p)
        self.assertNotEqual(script.generate(7), script.generate(8))

    def test_mix_and_coverage(self):
        lines = script.generate(3)
        self.assertEqual(len(lines), 1000)
        objs = [json.loads(x) for x in lines]
        verbs = [o["verb"] for o in objs]
        self.assertTrue(set(verbs) <= {"run", "grid", "stats"})
        self.assertEqual(verbs.count("stats"), script.STATS)
        self.assertEqual(verbs.count("grid"), script.GRID_COLD
                         + script.GRID_OVERLAP + script.GRID_REPEAT)
        asked = [o["ids"][0] for o in objs if o["verb"] == "run"]
        for rid in script.RUN_IDS:
            extra = script.TABLE_ASKS if rid in script.TABLE_IDS else 0
            self.assertEqual(asked.count(rid), script.RUN_ASKS + extra)
        # Every overlapping or repeated grid subsets an earlier one.
        self.assertGreaterEqual(len(script.subset_of(lines)),
                                script.GRID_OVERLAP + script.GRID_REPEAT)
        # Only the grids are the seed's: run requests and their order
        # are the same on every seed.
        other = script.generate(4)
        self.assertEqual([x for x in lines if '"grid"' not in x],
                         [x for x in other if '"grid"' not in x])
        self.assertEqual([i for i, x in enumerate(lines) if '"grid"' in x],
                         [i for i, x in enumerate(other) if '"grid"' in x])
        # Most requests repeat or overlap earlier ones.
        repeats = len(lines) - len(set(lines))
        self.assertGreater(repeats, len(lines) // 2)


class GridOverlap(unittest.TestCase):
    HEADER = "figure,scheduler,procs,time,speedup,misses\n"
    LINES = [
        '{"verb":"grid","kernel":"sor:64,4","machine":"iris",'
        '"schedulers":"AFS,GSS","procs":"2,4"}',
        '{"verb":"run","ids":["fig03"]}',
        '{"verb":"grid","kernel":"sor:64,4","machine":"iris",'
        '"schedulers":"GSS","procs":"4"}',
        '{"verb":"grid","kernel":"sor:64,4","machine":"ksr1",'
        '"schedulers":"GSS","procs":"4"}',
    ]

    def answers(self):
        return {
            0: self.HEADER + "grid,AFS,2,449.0,1.822,72\n"
                             "grid,AFS,4,241.5,3.388,88\n"
                             "grid,GSS,2,512.3,1.598,196\n"
                             "grid,GSS,4,306.5,2.671,271\n",
            2: self.HEADER + "grid,GSS,4,306.5,2.671,271\n",
            3: self.HEADER + "grid,GSS,4,301.0,2.700,250\n",
        }

    def test_parents(self):
        # A different machine is not a subset.
        self.assertEqual(script.subset_of(self.LINES), {2: 0})

    def test_accepts_matching_rows(self):
        self.assertEqual(verify.check_grids(
            self.LINES, self.answers(), script.subset_of(self.LINES)), {})

    def test_rejects_a_changed_row(self):
        answers = self.answers()
        answers[2] = answers[2].replace("271", "270")
        problems = verify.check_grids(self.LINES, answers,
                                      script.subset_of(self.LINES))
        self.assertEqual(list(problems), [2])
        self.assertIn("differs from the earlier grid", problems[2])

    def test_rejects_a_missing_or_repeated_cell(self):
        answers = self.answers()
        answers[0] = answers[0].replace("grid,GSS,2,512.3,1.598,196\n", "")
        answers[3] += "grid,GSS,4,301.0,2.700,250\n"
        problems = verify.check_grids(self.LINES, answers,
                                      script.subset_of(self.LINES))
        self.assertEqual(sorted(problems), [0, 3])


class BuildRefusal(unittest.TestCase):
    def meta(self, **kw):
        m = {"build_type": "Release", "flags": "-O3 -DNDEBUG",
             "sanitize": "OFF", "tsan": "OFF"}
        m.update(kw)
        return m

    def test_release_is_measured(self):
        self.assertIsNone(build.refusal(self.meta()))
        self.assertIsNone(build.refusal(self.meta(build_type="RelWithDebInfo")))

    def test_debug_and_sanitizer_builds_are_refused(self):
        self.assertIn("Debug", build.refusal(self.meta(build_type="Debug")))
        self.assertIsNotNone(build.refusal(self.meta(build_type="")))
        self.assertIn("sanitizer", build.refusal(self.meta(sanitize="ON")))
        self.assertIn("sanitizer", build.refusal(self.meta(tsan="ON")))
        self.assertIn("sanitizer", build.refusal(
            self.meta(flags="-O2 -fsanitize=address")))


class HarnessSelfTest(unittest.TestCase):
    def test_harness_selftest(self):
        root = build.repo_root()
        build_dir = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(os.path.dirname(build_dir), exist_ok=True)
        build.build(build_dir, os.path.join(root, ".bench_build",
                                            "build.log"),
                    targets=["perfbench_selftest"])
        run = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                             capture_output=True, text=True, timeout=600)
        self.assertEqual(run.returncode, 0, run.stdout[-2000:])


if __name__ == "__main__":
    unittest.main()
