"""Study benchmark: runs one workload and prints its metrics.

    python3 studybench/run.py --workload convection-k0 --seed 1 --seconds 40 --trace 0

Every execution of the workload runs in a fresh process (worker.py) with a
single BLAS thread.  Executions repeat, all on the same seed, until
--seconds have passed (at least MIN_REPS of them); every timing is the
median over executions, in the reference seconds of refclock.py.  When
set-up is short next to a whole execution, as on the probe, short
executions (see worker.py) fill SHORT_SHARE of each round and add set-up
samples.  With --trace 1 the executions alternate between untraced and
traced, and the per-layer metrics are medians over the traced ones.
After the executions the outputs are checked: one finite `ok` row per
scale (or probe width), byte-identical report files and identical closure
counts across executions, and, for a study, the finite-difference gradient
check of the workload's config.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics.  Working files
go to .studybench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3          # untraced executions of a --trace 0 run
MIN_PAIRS = 2         # untraced/traced pairs of a --trace 1 run
SHORT_SHARE = 0.15    # of each untraced execution's time, for short executions
HARD_LIMIT_S = 170.0  # the whole run, children included
GRADCHECK_TOL = 1e-4

# (name, unit, better): the gated end-to-end metrics, in BENCHMARK.json order
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("tt_target_s", "s", "lower"),
    ("closure_calls", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# The same times on the work clock, in seconds as they passed; printed, not gated
WORK_TIMES = ("work_wall_s", "work_setup_s", "work_tt_target_s")

# Output quality, deterministic for a seed; printed, not gated (see README.md)
QUALITY = {
    "study": (("final_total", "total"), ("final_e_f", "e_f"),
              ("final_grad_sup_err", "grad_sup_err"),
              ("final_state_err", "state_err"),
              ("final_param_err", "param_err")),
    "probe": (("probe_sup_err", "sup_error"),
              ("probe_grad_sup_err", "grad_sup_err")),
}

PER_LAYER = (
    "mlp.residual.forward_s", "mlp.residual.input_grad_s", "mlp.residual.vjp_s",
    "mlp.residual.rows",
    "mlp.box.forward_s", "mlp.box.input_grad_s", "mlp.box.vjp_s", "mlp.box.rows",
    "mlp.fit.forward_s", "mlp.fit.input_grad_s", "mlp.fit.vjp_s", "mlp.fit.rows",
    "mlp.other_s", "mlp.tapes", "mlp.deriv_calls", "mlp.gflop_computed",
    "objective.closure_ms_p50", "objective.closure_ms_p99",
    "objective.closure_samples", "objective.self_s", "objective.r0_s",
    "objective.pack_s", "objective.unpack_s", "objective.other_s",
    "optimizer.iterations", "optimizer.minimize_calls", "optimizer.failed",
    "optimizer.self_s",
    "harness.prefit_s", "harness.prefit_closure_calls", "harness.report_s",
    "harness.self_s",
    "ground_truth.simulate_calls", "ground_truth.make_dataset_s",
    "ground_truth.self_s",
    "physics.apply_calls", "physics.apply_s", "physics.other_s",
    "measurement.calls", "measurement.apply_s", "measurement.adjoint_s",
    "measurement.other_s",
    "grid.stencil_builds", "grid.stencil_s", "grid.other_s",
    "svg.self_s", "config.self_s",
    "trace.wall_s", "trace.import_s", "trace.unattributed_s",
    "trace.overhead_frac", "trace.spans",
)


def layer_unit(name):
    if name.endswith("_frac"):
        return "1"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gflop_computed"):
        return "GFLOP"
    return "count"


def child_env():
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


class Runner:
    """Starts worker processes one at a time, within the run's time limit."""

    def __init__(self, workload, seed, run_dir, start):
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.start = start
        self.env = child_env()
        self.errors = []

    def execute(self, name, *flags):
        out = self.run_dir / name
        result_path = self.run_dir / f"{name}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload.name, "--seed", str(self.seed),
               "--out", str(out), "--result", str(result_path), *flags]
        budget = HARD_LIMIT_S - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=max(budget, 1.0),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{name}: no result within the run's time limit")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"{name}: exit {proc.returncode}: {' | '.join(tail)}")
            return None
        with open(result_path) as fh:
            return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_rows(rows, expected):
    """One row per scale or width, every number finite, every status ok."""
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} report rows, expected {expected}")
    for row in rows:
        if row.get("status") != "ok":
            problems.append(f"row status {row.get('status')!r}")
        for key, value in row.items():
            if key == "status":
                continue
            if not math.isfinite(float(value)):
                problems.append(f"non-finite {key} = {value}")
    return problems


def quality_metrics(workload, rows):
    if workload.entry == "study":
        row = rows[-1]
    else:
        row = max(rows, key=lambda r: int(r["width"]))
    return {name: float(row[col]) for name, col in QUALITY[workload.entry]}


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def summarize(workload, reps, traced, shorts, gradcheck, runner):
    """Checks and metrics of a finished set of executions."""
    problems = list(runner.errors)
    plain = [r for r in reps if not r["trace"]]
    if not plain or any(r["setup_s"] is None for r in reps):
        problems.append("no untraced execution reached a closure call")
        return problems, {}, {}, 1, 0
    if traced is not None and not traced:
        problems.append("no traced execution finished")
    reports = [Path(r["report"]).read_bytes() for r in reps]
    if any(rep != reports[0] for rep in reports[1:]):
        problems.append("report files differ between executions of one seed")
    if len({r["closure_calls"] for r in reps}) != 1:
        problems.append("closure counts differ between executions of one seed")
    rows = read_rows(reps[0]["report"])
    problems += check_rows(rows, reps[0]["expected_rows"])
    if gradcheck is not None:
        if gradcheck.get("gradcheck_err") is None:
            problems.append("gradient check did not finish")
        elif not gradcheck["gradcheck_err"] < GRADCHECK_TOL:
            problems.append(f"gradient check error {gradcheck['gradcheck_err']:.3g} "
                            f">= {GRADCHECK_TOL:g}")
    attempted = sum(r["minimize_calls"] for r in reps)
    missed = sum(1 for r in reps if r["tt_target_s"] is None)
    failed = sum(r["minimize_failed"] for r in reps) + missed
    metrics = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": median_of(plain + shorts, "setup_s"),
        # an execution that missed its target counts as taking the whole run
        "tt_target_s": statistics.median(
            r["tt_target_s"] if r["tt_target_s"] is not None else r["wall_s"]
            for r in plain),
        "closure_calls": median_of(plain, "closure_calls"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
    }
    work = {name: statistics.median(r[name] for r in plain if r[name] is not None)
            for name in WORK_TIMES if any(r[name] is not None for r in plain)}
    work["kernel_ms_median"] = median_of(plain, "kernel_ms_median")
    extra = quality_metrics(workload, rows) if not problems else {}
    extra["fail_frac"] = sum(r["minimize_failed"] for r in reps) / max(attempted, 1)
    extra["target_misses"] = missed
    if traced:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = \
            median_of(traced, "wall_s") / metrics["wall_s"] - 1.0
        extra["layers"] = layers
    extra["work"] = work
    return problems, metrics, extra, max(attempted, 1), failed


def print_table(title, entries):
    print(title)
    for name, value, unit, better in entries:
        print(f"  {name:30s} {value:>16.6g} {unit:6s} {better}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="study benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    if not (ROOT / "src" / "smlpde" / "__init__.py").is_file():
        print(f"error: no smlpde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = ROOT / ".studybench_out" / workload.name / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, args.seed, run_dir, start)

    reps, traced, shorts = [], ([] if args.trace else None), []
    deadline = start + args.seconds
    while True:
        is_traced = bool(args.trace) and len(reps) % 2 == 1
        flags = ("--trace",) if is_traced else ()
        t = time.perf_counter()
        res = runner.execute(f"rep{len(reps)}", *flags)
        if res is None:
            break
        res["elapsed_s"] = time.perf_counter() - t
        reps.append(res)
        if is_traced:
            traced.append(res)
        elif not args.trace and res["setup_s"] is not None:
            spent, cost = 0.0, res["setup_s"]
            while spent + cost <= SHORT_SHARE * res["elapsed_s"]:
                t = time.perf_counter()
                extra = runner.execute(f"short{len(shorts)}", "--short")
                if extra is None:
                    break
                cost = time.perf_counter() - t
                spent += cost
                shorts.append(extra)
            res["elapsed_s"] += spent
        if args.trace:
            done = len(reps) % 2 == 0 and len(reps) // 2 >= MIN_PAIRS
            step = median_of(reps[-2:], "elapsed_s") * 2
        else:
            done = len(reps) >= MIN_REPS
            step = median_of(reps, "elapsed_s")
        if done and time.perf_counter() + step > deadline:
            break
    gradcheck = None
    if workload.entry == "study" and not runner.errors:
        gradcheck = runner.execute("gradcheck", "--gradcheck") or {}

    problems, metrics, extra, attempted, failed = summarize(
        workload, reps, traced, shorts, gradcheck, runner)
    env = reps[0]["env"] if reps else {}
    summary = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
               "executions": len(reps), "problems": problems, "env": env,
               "shorts": shorts,
               "metrics": metrics, "extra": extra, "gradcheck": gradcheck,
               "reps": [{k: v for k, v in r.items() if k not in ("layers", "env")}
                        for r in reps]}
    with open(run_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for short_dir in run_dir.glob("short*"):
        if short_dir.is_dir():
            shutil.rmtree(short_dir)
    for rep_dir in run_dir.glob("rep*"):
        if rep_dir.is_dir():
            for path in rep_dir.iterdir():
                if path.name not in ("report.csv", "probe.csv", "spans.csv.gz"):
                    path.unlink()

    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}, {len(reps)} executions "
          f"({len(traced) if traced is not None else 0} traced, "
          f"{len(shorts)} short), "
          f"env {json.dumps(env, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if gradcheck:
        print(f"gradient check: max relative error {gradcheck['gradcheck_err']:.3g}")
    if args.trace:
        layers = extra.get("layers", {})
        out = {name: layers.get(name, 0.0) for name in PER_LAYER}
        print_table("per-layer metrics (median over traced executions):",
                    [(n, v, layer_unit(n), "lower") for n, v in out.items()])
        units = {name: layer_unit(name) for name in PER_LAYER}
    else:
        out = metrics
        units = {name: unit for name, unit, _ in END_TO_END}
        print_table("end-to-end metrics (median over executions):",
                    [(n, metrics.get(n, math.nan), u, b) for n, u, b in END_TO_END])
        print_table("work-clock seconds and kernel time (median over untraced "
                    "executions; not gated):",
                    [(k, v, "ms" if k.endswith("_ms_median") else "s", "lower")
                     for k, v in extra.get("work", {}).items()])
        print_table("output quality for this seed and failures (reported, not gated):",
                    [(k, v, "count" if k == "target_misses" else "1", "lower")
                     for k, v in extra.items() if k not in ("work", "layers")])
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": out.get(name, 0.0), "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
