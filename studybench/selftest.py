"""Fast self-test of the benchmark's own arithmetic and metric extraction.

    python3 studybench/selftest.py

Checks the self-time arithmetic of the span recorder on a scripted clock,
the conversion of the reference clock,
the tagging and accounting of a traced run of a tiny study, the report
checks and metric extraction of run.py on tiny study and probe outputs, and
that BENCHMARK.json lists the metrics run.py prints.  Takes a few seconds;
it is not part of the repository's test suite.
"""

import json
import shutil
import signal
import sys
import time
import unittest
import unittest.mock
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".studybench_out" / "selftest"

TINY_STUDY = replace(WORKLOADS["convection-k0"], name="tiny-study", target_frac=1.0,
                     config_text="""
[grid]
nx = 17
nt = 13
[schedule]
m_max = 2
[network]
width0 = 4
[optimizer]
max_iters = 12
restarts = 1
""")

TINY_PROBE = replace(WORKLOADS["probe"], name="tiny-probe", target_frac=1.0,
                     config_text="""
[probe]
widths = 4, 8, 16
train_iters = 200
""")


class ScriptedClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7]
        rec = spans.Recorder(clock=ScriptedClock([0, 1, 4, 5, 6, 7, 9, 10]))
        a = rec.enter("harness.run_convergence_study")
        b = rec.enter("mlp.Tape", "fit")
        rec.exit(b)
        c = rec.enter("optimizer.minimize")
        d = rec.enter("harness.fit_closure")
        rec.exit(d)
        rec.exit(c)
        rec.exit(a)
        self.assertEqual(rec.selfs, [3, 3, 3, 1])
        self.assertEqual(rec.parents, [-1, 0, 0, 2])
        self.assertEqual(sum(rec.selfs), rec.ends[0] - rec.starts[0])
        layers = spans.layer_metrics(rec)
        self.assertEqual(layers["harness.self_s"], 4)
        self.assertEqual(layers["mlp.fit.forward_s"], 3)
        self.assertEqual(layers["optimizer.self_s"], 3)
        self.assertEqual(sum(layers[n] for n in spans.SELF_BUCKETS), 10)

    def test_exception_still_closes_span(self):
        rec = spans.Recorder(clock=ScriptedClock([0, 2]))

        def boom():
            raise ValueError

        with self.assertRaises(ValueError):
            rec.wrap(boom, "objective.r0_value")()
        self.assertEqual(rec.selfs, [2])
        self.assertEqual(rec._stack, [])

    def test_report_spans_counted_once(self):
        # save_dataset [0,4] calls write_field_csv [1,3]; line_chart [5,6]
        rec = spans.Recorder(clock=ScriptedClock([0, 1, 3, 4, 5, 6]))
        s = rec.enter("measurement.save_dataset")
        w = rec.enter("grid.write_field_csv")
        rec.exit(w)
        rec.exit(s)
        rec.exit(rec.enter("svg.line_chart"))
        self.assertEqual(spans.layer_metrics(rec)["harness.report_s"], 5)

    def test_stage_target(self):
        stage = worker.Stage()
        stage.start = -1
        for now, value in enumerate((10.0, 12.0, 9.0, 7.9, 7.0, 6.0)):
            stage.observe(value, now)
        self.assertEqual((stage.first, stage.best), (10.0, 6.0))
        self.assertEqual(stage.times, [0, 2, 3, 4, 5])
        # half the distance from 10 to 6 left: at or below 8
        self.assertEqual(stage.time_to_target(0.8, 0.5), 4)
        # a quarter left: at or below 7
        self.assertEqual(stage.time_to_target(0.8, 0.25), 5)
        self.assertEqual(stage.time_to_target(0.8, 0.0), 6)
        # counted in the seconds of `ref`
        self.assertEqual(stage.time_to_target(0.8, 0.5, lambda t: 2 * t), 8)
        # a stage that never fell to the fraction misses its target
        self.assertIsNone(stage.time_to_target(0.5, 0.5))
        self.assertIsNone(worker.Stage().time_to_target(0.9, 0.05))

    def test_reference_clock(self):
        clock = refclock.ReferenceClock(perf=ScriptedClock([]))
        self.assertEqual(clock.reference(3.5), 3.5)   # no kernel run: unscaled
        ref = refclock.REF_KERNEL_S
        # kernel runs at work times 0, 1, 2, 3: at reference speed for the
        # first two, then twice as slow, so a work second counts half
        clock.marks = [0.0, 1.0, 2.0, 3.0]
        clock.kernel_s = [ref, ref, 2 * ref, 2 * ref]
        with unittest.mock.patch.object(refclock, "SMOOTH", 1):
            self.assertEqual(clock.reference(1.0), 1.0)
            self.assertEqual(clock.reference(1.5), 1.25)
            self.assertEqual(clock.reference(3.0), 2.0)
            self.assertEqual(clock.reference(5.0), 3.0)   # last rate beyond
            self.assertEqual(clock.reference(-1.0), -1.0)  # first rate before

    def test_kernel_time_left_out(self):
        # a kernel run from wall 2 to 3 is not work: work reads 1, 2, then 3
        clock = refclock.ReferenceClock(perf=ScriptedClock([1, 2, 3, 3, 4]))
        self.assertEqual(clock.now(), 1)
        clock.calibrate()
        self.assertEqual((clock.marks, clock.kernel_s, clock.paused), ([2], [1], 1))
        self.assertEqual(clock.now(), 3)

    def test_percentile_nearest_rank(self):
        vals = list(range(1, 101))
        self.assertEqual(spans._percentile(vals, 0.5), 50)
        self.assertEqual(spans._percentile(vals, 0.99), 99)
        self.assertEqual(spans._percentile([], 0.5), 0.0)


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)
        cls.results = {}
        for wl in (TINY_STUDY, TINY_PROBE):
            for trace in (False, True):
                out = SCRATCH / f"{wl.name}-{int(trace)}"
                cls.results[wl.name, trace] = worker.run_workload(
                    wl, 1, str(out), trace, t0=time.perf_counter())

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_tracing_restores_program(self):
        from smlpde import harness, mlp, optimizer
        self.assertIs(harness.minimize, optimizer.minimize)
        self.assertEqual(mlp.Tape.__init__.__qualname__, "Tape.__init__")
        self.assertFalse(hasattr(harness.make_closure, "__wrapped__"))

    def test_outputs_identical_with_and_without_tracing(self):
        for name in ("tiny-study", "tiny-probe"):
            plain = Path(self.results[name, False]["report"]).read_bytes()
            traced = Path(self.results[name, True]["report"]).read_bytes()
            self.assertEqual(plain, traced, name)

    def test_study_accounting(self):
        res = self.results["tiny-study", True]
        layers = res["layers"]
        total = layers["trace.import_s"] + layers["trace.unattributed_s"] + sum(
            layers[n] for n in spans.SELF_BUCKETS)
        self.assertAlmostEqual(total, res["work_wall_s"], places=9)
        self.assertLess(layers["trace.unattributed_s"], 0.02 * res["work_wall_s"])
        calls = res["closure_calls"]
        self.assertEqual(layers["objective.closure_samples"], calls)
        # one residual tape per experiment per call on all nt*nx nodes
        self.assertEqual(layers["mlp.residual.rows"], calls * 3 * 13 * 17)
        self.assertEqual(layers["mlp.box.rows"], calls * 33 * 33)
        self.assertGreater(layers["mlp.fit.rows"], 0)
        self.assertEqual(layers["harness.prefit_closure_calls"],
                         res["prefit_closure_calls"])
        self.assertGreater(layers["harness.prefit_s"], 0)
        self.assertGreater(layers["harness.report_s"], 0)
        self.assertEqual(layers["ground_truth.simulate_calls"], 3)
        self.assertGreater(layers["grid.stencil_builds"], calls)
        self.assertEqual(layers["optimizer.failed"], 0)
        # run.py adds the overhead, which needs an untraced execution
        self.assertEqual(set(run.PER_LAYER) - set(layers), {"trace.overhead_frac"})

    def test_probe_accounting(self):
        res = self.results["tiny-probe", True]
        layers = res["layers"]
        self.assertEqual(layers["objective.closure_samples"], 0)
        self.assertEqual(layers["mlp.residual.rows"] + layers["mlp.box.rows"], 0)
        self.assertGreater(layers["mlp.fit.rows"], 0)
        self.assertEqual(res["closure_calls"], self.results["tiny-probe", False]
                         ["closure_calls"])

    def test_short_executions(self):
        # a study stops at its first objective closure call
        res = worker.run_workload(TINY_STUDY, 1, str(SCRATCH / "short-study"), False,
                                  short=True, t0=time.perf_counter())
        self.assertEqual(set(res), {"workload", "seed", "short", "setup_s",
                                    "work_setup_s"})
        # the probe stops at its first fit closure call
        res = worker.run_workload(TINY_PROBE, 1, str(SCRATCH / "short-probe"), False,
                                  short=True, t0=time.perf_counter())
        self.assertEqual(set(res), {"workload", "seed", "short", "setup_s",
                                    "work_setup_s"})

    def test_started_clock(self):
        # the kernel runs while the workload runs and stops with it
        clock = refclock.ReferenceClock()
        clock.start()
        res = worker.run_workload(TINY_STUDY, 1, str(SCRATCH / "clocked"), False,
                                  t0=clock.now(), clock=clock)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(res["kernel_runs"], 0)
        self.assertEqual(res["kernel_runs"], len(clock.kernel_s))
        self.assertLess(res["work_setup_s"], res["work_wall_s"])
        self.assertLess(res["setup_s"], res["wall_s"])
        self.assertEqual(Path(res["report"]).read_bytes(),
                         Path(self.results["tiny-study", False]["report"]).read_bytes())

    def test_end_to_end_values(self):
        for key, res in self.results.items():
            self.assertLess(0, res["setup_s"], key)
            self.assertLess(res["setup_s"], res["wall_s"], key)
            self.assertIsNotNone(res["tt_target_s"], key)
            self.assertLessEqual(res["tt_target_s"], res["wall_s"], key)
            self.assertGreater(res["peak_rss_mb"], 0, key)
            self.assertEqual(res["minimize_failed"], 0, key)

    def test_report_checks_and_quality(self):
        for wl, cols in ((TINY_STUDY, 5), (TINY_PROBE, 2)):
            res = self.results[wl.name, False]
            rows = run.read_rows(res["report"])
            self.assertEqual(run.check_rows(rows, res["expected_rows"]), [])
            self.assertNotEqual(run.check_rows(rows, res["expected_rows"] + 1), [])
            self.assertEqual(len(run.quality_metrics(wl, rows)), cols)
        bad = [dict(rows[0], status="diverged(x)", sup_error="nan")]
        self.assertEqual(len(run.check_rows(bad, 1)), 2)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            bench = json.load(fh)
        e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
        self.assertEqual(e2e, list(run.END_TO_END))
        layers = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        self.assertEqual(layers, [(n, run.layer_unit(n)) for n in run.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
