"""Self-test of the benchmark's own arithmetic.

    python3 perfbench/selftest.py

Covers self time on span trees (including scalar submits nested in frame
spans), percentiles with their beyond-counts, the result printer, the
host-speed conversion, and the supervisor's clean-up of orphaned
processes.  Needs only numpy, not the
program.
"""

import json
import os
import subprocess
import sys
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from report import (  # noqa: E402
    Ledger,
    load_spec,
    percentile,
    quartile_spread,
    result_line,
)
from tracing import Tracer, layer_totals, nested_calls, self_times  # noqa: E402


def _cols(rows):
    """Span columns from (name, start, end, parent, count) rows."""
    return {
        "name": np.array([r[0] for r in rows], dtype=object),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "group": np.zeros(len(rows), dtype=np.int64),
        "count": np.array([r[4] for r in rows], dtype=np.int64),
    }


class SelfTimeTest(unittest.TestCase):
    def test_tree(self):
        # 0 stage [0, 10]
        #   1 frame [1, 5]: 2 submit [1, 2], 3 submit [2, 4] -> 4 recal [2, 3]
        #   5 frame [6, 9], no children
        cols = _cols(
            [
                ("stage.server", 0, 10, -1, 0),
                (layers.FRAME, 1, 5, 0, 32),
                (layers.SUBMIT, 1, 2, 1, 0),
                (layers.SUBMIT, 2, 4, 1, 0),
                ("serve.recal", 2, 3, 3, 0),
                (layers.FRAME, 6, 9, 0, 32),
            ]
        )
        own = self_times(cols["parent"], cols["end"] - cols["start"])
        np.testing.assert_allclose(own, [3, 1, 1, 1, 1, 3])
        totals = layer_totals(cols)
        self.assertEqual(totals[layers.FRAME]["calls"], 2)
        self.assertEqual(totals[layers.FRAME]["busy_s"], 7.0)
        self.assertEqual(totals[layers.FRAME]["self_s"], 4.0)
        self.assertEqual(totals[layers.FRAME]["requests"], 64)
        self.assertEqual(totals[layers.SUBMIT]["self_s"], 2.0)
        self.assertEqual(nested_calls(cols, layers.SUBMIT, {layers.FRAME}), 2)
        self.assertEqual(layers._fast_path_frac(cols, layers.FRAME), 1 - 2 / 64)

    def test_subset_reindexes_parents(self):
        cols = _cols(
            [
                ("stage.replay", 0, 4, -1, 0),
                (layers.REPLAY, 1, 3, 0, 10),
                ("stage.server", 5, 9, -1, 0),
                (layers.FRAME, 6, 8, 2, 32),
                (layers.SUBMIT, 6, 7, 3, 0),
            ]
        )
        sub = layers._subset(cols, np.array([False, False, True, True, True]))
        self.assertEqual(sub["parent"].tolist(), [-1, 0, 1])
        self.assertEqual(layers._fast_path_frac(sub, layers.FRAME), 1 - 1 / 32)

    def test_tracer_records_nesting_and_restores(self):
        class Kernel:
            def frame(self, requests):
                return [self.submit(r) for r in requests]

            def submit(self, request):
                return request * 2

        original = Kernel.frame
        tracer = Tracer()
        tracer.wrap(Kernel, "frame", layers.FRAME, count=lambda self, reqs: len(reqs))
        tracer.wrap(Kernel, "submit", layers.SUBMIT)
        with tracer.span("stage.server", "server#0"):
            self.assertEqual(Kernel().frame([1, 2, 3]), [2, 4, 6])
        tracer.restore()
        self.assertIs(Kernel.frame, original)
        cols = tracer.columns()
        self.assertEqual(
            cols["name"].tolist(),
            ["stage.server", layers.FRAME] + [layers.SUBMIT] * 3,
        )
        self.assertEqual(cols["parent"].tolist(), [-1, 0, 1, 1, 1])
        self.assertEqual(cols["count"].tolist(), [0, 3, 0, 0, 0])
        self.assertTrue((cols["end"] >= cols["start"]).all())
        self.assertEqual(layers._fast_path_frac(cols, layers.FRAME), 0.0)

    def test_chrome_trace(self):
        import tempfile

        tracer = Tracer()
        with tracer.span("stage.flow", "flow#0"):
            with tracer.span("core.flow"):
                pass
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.json")
            self.assertEqual(tracer.write_chrome(path, {"seed": 1}), 2)
            with open(path) as handle:
                trace = json.load(handle)
        events = trace["traceEvents"]
        self.assertEqual([e["ph"] for e in events], ["X", "X"])
        self.assertEqual(events[1]["args"]["parent"], 0)
        self.assertEqual(events[1]["args"]["id"], "flow#0")


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_and_beyond(self):
        values = list(range(100, 0, -1))
        self.assertEqual(percentile(values, 50), (50, 50))
        self.assertEqual(percentile(values, 99), (99, 1))
        self.assertEqual(percentile(values, 100), (100, 0))

    def test_ties_are_not_beyond(self):
        self.assertEqual(percentile([1, 1, 1, 2], 50), (1, 1))
        self.assertEqual(percentile([5] * 10, 99), (5, 0))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1.0], 0)

    def test_quartile_spread(self):
        # statistics.quantiles (exclusive) of 1..8: 2.25, 4.5, 6.75.
        self.assertAlmostEqual(quartile_spread(list(range(1, 9))), 1.0)


class PrinterTest(unittest.TestCase):
    def setUp(self):
        self.spec = load_spec(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))

    def test_every_metric_with_unit(self):
        for key in ("end_to_end", "per_layer"):
            metrics = self.spec[key]
            values = {m["name"]: 1.5 for m in metrics}
            line = json.loads(result_line(metrics, values, True, 3, 0))
            self.assertEqual(
                set(line), {"correct", "attempted", "failed", "metrics"}
            )
            self.assertEqual(
                line["metrics"],
                {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in metrics},
            )

    def test_missing_metric_is_an_error(self):
        metrics = self.spec["end_to_end"]
        values = {m["name"]: 1.0 for m in metrics[1:]}
        with self.assertRaises(KeyError):
            result_line(metrics, values, True, 1, 0)

    def test_ledger_counts_failures(self):
        ledger = Ledger()
        ledger.record("a", True)
        ledger.record("a", False, "bad")
        ledger.record_many("b", 10, 2)
        self.assertEqual((ledger.attempted, ledger.failed), (12, 3))
        self.assertIn("a: attempted 2, succeeded 1, failed 1", ledger.describe())


class HostMeterTest(unittest.TestCase):
    def setUp(self):
        self.affinity = os.sched_getaffinity(0)

    def tearDown(self):
        os.sched_setaffinity(0, self.affinity)

    def test_scale_is_inverse_mean_slowness_of_the_bracketing_probes(self):
        slow = {}  # CPU -> slowness its next probe reports

        def fake_probe():
            (cpu,) = os.sched_getaffinity(0)
            return tuple(t * slow[cpu] for t in hostspeed.REFERENCE_S)

        if len(self.affinity) < 2:
            self.skipTest("needs two CPUs")
        first, second = sorted(self.affinity)[:2]
        with mock.patch.object(hostspeed, "probe", fake_probe):
            slow.update({first: 1.0, second: 2.0})
            meter = hostspeed.HostMeter()
            self.assertEqual(os.sched_getaffinity(0), {first})
            slow.update({first: 3.0, second: 4.0})
            # The benchmark's CPU alone: probes of 1.0 and 3.0.
            self.assertAlmostEqual(meter.scale(), 1 / 2.0)
            slow.update({first: 1.0, second: 2.0})
            # With the worker's CPU: 3.0 and 1.0 here, 4.0 and 2.0 there.
            self.assertAlmostEqual(meter.scale(fleet=True), 1 / 2.5)
        self.assertEqual(os.sched_getaffinity(0), {first})


class ReapTest(unittest.TestCase):
    def test_orphaned_grandchild_is_stopped_and_reaped(self):
        # The shell exits at once; its background sleep is orphaned and
        # re-parented to this process, the subreaper.
        run._become_subreaper()
        shell = subprocess.run(
            ["sh", "-c", "sleep 60 >/dev/null & echo $!"],
            stdout=subprocess.PIPE,
            text=True,
        )
        orphan = int(shell.stdout)
        self.assertIn(orphan, run._children())
        run._reap_descendants()
        self.assertEqual(run._children(), [])
        self.assertFalse(os.path.exists(f"/proc/{orphan}"))


if __name__ == "__main__":
    unittest.main()
