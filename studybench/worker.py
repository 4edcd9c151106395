"""One execution of one workload, in a fresh process.

    python worker.py --workload NAME --seed N --out DIR --result FILE [--trace]
    python worker.py --workload NAME --seed N --out DIR --result FILE --gradcheck
    python worker.py --workload NAME --seed N --out DIR --result FILE --short

The workload clock starts at the top of this file, before numpy and smlpde
are imported, so set-up time includes the imports.  The end-to-end hooks
are two wrappers bound over `harness.make_closure` and `harness.minimize`;
they count closure calls and failed minimizations and record when the best
objective value of each stage improved.  With --trace every public smlpde
function also records spans (see spans.py), and the spans are written to
DIR at the end.  With --short the workload stops at its first timed
closure call, which gives one more set-up sample at a fraction of the cost.
Every time is taken on the work clock of refclock.py, which leaves out the
calibration kernel it interleaves; wall_s, setup_s and tt_target_s are
reported in its reference seconds, and the raw work-clock times beside them.
The result is one JSON object written to FILE.
"""

import time

T0 = time.perf_counter()

from refclock import ReferenceClock  # noqa: E402

CLOCK = ReferenceClock()
if __name__ == "__main__":
    CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter  # noqa: E402

from smlpde import harness  # noqa: E402
from smlpde.errors import BoxViolationError, DivergedError  # noqa: E402

from spans import SELF_BUCKETS, Recorder, install_tracing, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402


def _quiet(*_args, **_kwargs):
    pass


class Stage:
    """One closure's calls: when the first began, the value it returned,
    and the time and value of every later improvement of the best value."""

    __slots__ = ("start", "first", "best", "times", "bests")

    def __init__(self):
        self.start = None
        self.first = None
        self.best = math.inf
        self.times = []
        self.bests = []

    def observe(self, value, now):
        if self.first is None:
            self.first = value
        if value < self.best:
            self.best = value
            self.times.append(now)
            self.bests.append(value)

    def time_to_target(self, frac, gap, ref=float):
        """Seconds from the stage's first call until its best value had
        closed all but `gap` of the distance from its first value to its
        last best value; None if the stage never fell to frac times its
        first value.  `ref` maps a clock reading to the seconds the result
        is counted in."""
        if self.first is None or self.best > frac * self.first:
            return None
        target = self.best + gap * (self.first - self.best)
        for now, value in zip(self.times, self.bests):
            if value <= target:
                return ref(now) - ref(self.start)
        return None


class StopShort(Exception):
    """Ends a --short execution once its samples are taken."""


class Hooks:
    """Counters behind the end-to-end metrics.

    `timed` is the closure kind whose first call ends set-up and whose
    stages define time-to-target: "objective" for a study, "fit" for the
    probe.  With a recorder, every closure call is also a span, and an
    objective closure publishes its box samples so tapes can be tagged.
    """

    def __init__(self, timed, rec=None, short=False, clock=time.perf_counter):
        self.timed = timed
        self.rec = rec
        self.short = short
        self.clock = clock
        self.calls = Counter()
        self.stages = []
        self.first_call = None
        self.minimize_calls = 0
        self.minimize_failed = 0
        self.iterations = 0
        self._fit_source = None
        self._fit_closure = None

    def closure(self, fg, kind, box=None):
        stage = Stage()
        timed = kind == self.timed
        if timed:
            self.stages.append(stage)
        rec, clock, calls = self.rec, self.clock, self.calls
        span = "objective.closure" if kind == "objective" else "harness.fit_closure"

        def wrapped(x):
            if timed and stage.start is None:
                stage.start = clock()
                if self.first_call is None:
                    self.first_call = stage.start
                    if self.short:
                        raise StopShort
            calls[kind] += 1
            if rec is None:
                out = fg(x)
            else:
                if box is not None:
                    rec.boxes.append(box)
                frame = rec.enter(span)
                try:
                    out = fg(x)
                finally:
                    rec.exit(frame)
                    if box is not None:
                        rec.boxes.pop()
            stage.observe(out[0], clock())
            return out

        wrapped.bench_closure = True
        return wrapped

    def install(self, module):
        make_closure, minimize = module.make_closure, module.minimize

        def hooked_make_closure(problem, layout):
            return self.closure(make_closure(problem, layout), "objective",
                                problem.box.samples)

        def hooked_minimize(x0, fg, config):
            if not getattr(fg, "bench_closure", False):
                # a fit closure; one fit passes the same closure to every stage
                if fg is not self._fit_source:
                    self._fit_source = fg
                    self._fit_closure = self.closure(fg, "fit")
                fg = self._fit_closure
            self.minimize_calls += 1
            try:
                res = minimize(x0, fg, config)
            except (DivergedError, BoxViolationError):
                self.minimize_failed += 1
                raise
            self.iterations += res.iterations
            return res

        module.make_closure = hooked_make_closure
        module.minimize = hooked_minimize

        def restore():
            module.make_closure, module.minimize = make_closure, minimize
        return restore


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def run_workload(workload, seed, out_dir, trace, short=False, t0=T0, clock=None):
    """Run one workload in this process; returns the result dictionary.

    Times are taken on `clock`, a ReferenceClock whose work clock counts
    from the same origin as t0.  A clock that was never started has no
    kernel runs, and its reference seconds are its work seconds.
    """
    clock = clock or ReferenceClock()
    now, ref = clock.now, clock.reference
    rec = Recorder(clock=now) if trace else None
    restore_tracing = install_tracing(rec) if trace else None
    t_traced = now()
    study = workload.entry == "study"
    hooks = Hooks("objective" if study else "fit", rec, short, clock=now)
    restore_hooks = hooks.install(harness)
    try:
        cfg = build_config(workload, seed, out_dir)
        if study:
            harness.run_convergence_study(cfg, echo=_quiet)
            expected_rows = cfg["schedule"]["m_max"]
            report = os.path.join(out_dir, "report.csv")
        else:
            harness.approximation_probe(cfg, echo=_quiet)
            expected_rows = len(cfg["probe"]["widths"])
            report = os.path.join(out_dir, "probe.csv")
    except StopShort:
        return {"workload": workload.name, "seed": seed, "short": True,
                "setup_s": ref(hooks.first_call) - ref(t0),
                "work_setup_s": hooks.first_call - t0}
    finally:
        t_end = now()
        clock.stop()
        restore_hooks()
        if restore_tracing is not None:
            restore_tracing()

    def to_target(ref):
        times = [stage.time_to_target(workload.target_frac, workload.gap, ref)
                 for stage in hooks.stages[workload.target_stages]]
        return sum(times) if times and None not in times else None

    reached = hooks.first_call is not None
    result = {
        "workload": workload.name, "seed": seed, "trace": bool(trace),
        "wall_s": ref(t_end) - ref(t0),
        "setup_s": ref(hooks.first_call) - ref(t0) if reached else None,
        "tt_target_s": to_target(ref),
        "work_wall_s": t_end - t0,
        "work_setup_s": hooks.first_call - t0 if reached else None,
        "work_tt_target_s": to_target(float),
        "kernel_runs": len(clock.kernel_s),
        "kernel_ms_median": 1e3 * statistics.median(clock.kernel_s)
        if clock.kernel_s else None,
        "closure_calls": hooks.calls[hooks.timed],
        "prefit_closure_calls": hooks.calls["fit"] if study else 0,
        "minimize_calls": hooks.minimize_calls,
        "minimize_failed": hooks.minimize_failed,
        "iterations": hooks.iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "expected_rows": expected_rows,
        "report": report,
    }
    if trace:
        layers = layer_metrics(rec)
        layers["optimizer.iterations"] = hooks.iterations
        layers["optimizer.minimize_calls"] = hooks.minimize_calls
        layers["optimizer.failed"] = hooks.minimize_failed
        layers["harness.prefit_closure_calls"] = result["prefit_closure_calls"]
        layers["trace.wall_s"] = result["work_wall_s"]
        layers["trace.import_s"] = t_traced - t0
        layers["trace.unattributed_s"] = result["work_wall_s"] - layers["trace.import_s"] \
            - sum(layers[name] for name in SELF_BUCKETS)
        result["layers"] = layers
        rec.write(os.path.join(out_dir, "spans.csv.gz"))
    result["env"] = environment()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gradcheck", action="store_true")
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.gradcheck:
        CLOCK.stop()
        cfg = build_config(workload, args.seed, args.out)
        result = {"gradcheck_err": harness.gradcheck_from_config(cfg, echo=_quiet)}
    else:
        result = run_workload(workload, args.seed, args.out, args.trace,
                              args.short, clock=CLOCK)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
