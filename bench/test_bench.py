"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import sys
import unittest
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from hnbundles import canon, cli, rootsys  # noqa: E402


def head(workload, seed, n=300):
    inputs = workloads.WORKLOADS[workload].inputs
    return list(islice(inputs(seed), n))


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(head(name, 7), head(name, 7))

    def test_other_seed_other_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertNotEqual(head(name, 7), head(name, 8))

    def test_oracle_and_hull_inputs_never_repeat(self):
        for name in ("canon_oracle", "hull_query"):
            with self.subTest(workload=name):
                items = head(name, 3, 3000)
                self.assertEqual(len(items), len(set(items)))

    def test_cli_block_shares_are_fixed(self):
        block = head("cli_mix", 5, workloads.BLOCK)
        invalid = [kind for kind, _, params in block if params is None]
        self.assertEqual(sorted(invalid), sorted(workloads.INVALID))

    def test_cli_runs_time_whole_blocks(self):
        # so every run, and each half of a traced run, meets the known
        # defect equally often whatever the seed
        w = workloads.WORKLOADS["cli_mix"]
        self.assertEqual(w.warm, 0)
        self.assertEqual(w.ops % (2 * workloads.BLOCK), 0)
        for seed in (1, 2):
            ops = head("cli_mix", seed, w.ops)
            defects = [k for k, _, _ in ops if k == workloads.KNOWN_DEFECT]
            self.assertEqual(len(defects), w.ops // workloads.BLOCK)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0,100] has children a [10,40] and b [50,90]; a has c [15,25]
        start = [0, 10, 15, 50]
        end = [100, 40, 25, 90]
        parent = [-1, 0, 1, 0]
        self.assertEqual(spans.self_times(start, end, parent), [30, 20, 10, 40])

    def test_self_times_sum_to_root_duration(self):
        start = [0, 1, 2, 3, 10]
        end = [20, 9, 8, 4, 15]
        parent = [-1, 0, 1, 2, 0]
        own = spans.self_times(start, end, parent)
        self.assertEqual(sum(own), end[0] - start[0])
        self.assertTrue(all(x >= 0 for x in own))


class Patching(unittest.TestCase):
    def test_every_binding_is_traced_then_restored(self):
        before = (canon.weyl_orbit, rootsys.weyl_orbit, cli.canonical_reduction)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(canon.weyl_orbit, before[0])
            self.assertIs(canon.weyl_orbit, rootsys.weyl_orbit)
            tracer.active = True
            tracer.op_id = 0
            family = rootsys.GroupFamily("sp", 4)
            tracer.span("bench.op", canon.ad_degree_max_oracle, family, (2, 1))
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertEqual((canon.weyl_orbit, rootsys.weyl_orbit,
                          cli.canonical_reduction), before)
        summary = tracer.summary()
        self.assertEqual(summary["canon.ad_degree_max_oracle"][0], 1)
        # 2^2 parabolics times the 8 points of the orbit of (2, 1)
        self.assertEqual(len(tracer.children_of("canon.ad_degree_max_oracle",
                                                "canon.ad_degree")), 32)
        self.assertNotIn("rootsys.evaluate", summary)


if __name__ == "__main__":
    unittest.main()
