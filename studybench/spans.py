"""In-memory span recorder wrapped around the public functions of smlpde.

`install_tracing` replaces every public module-level function and every
public method of every class defined in an smlpde module with a wrapper
that records one span per call: name, tag, start, end and the index of
the span that caused it.  Nothing inside the program changes; the wrappers
live here and are bound over the program's names at run time, including
the names other modules imported with `from .x import y`.

Network tapes get dedicated wrappers.  A tape built inside an objective
closure on the problem's `box.samples` is tagged `box`, any other tape
inside a closure `residual`, and every tape outside a closure (prefit,
probe fits, reporting) `fit`.  The three tape operations (forward,
input-gradient sweep, parameter VJP) record rows and a computed flop count.

Self time is a span's duration minus the time its child spans cover; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
import time
from collections import Counter

MODULES = ("config", "grid", "measurement", "physics", "mlp", "objective",
           "optimizer", "ground_truth", "harness", "svg")


class Recorder:
    """Spans in parallel lists; a span's self time is set when it ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.tags = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.selfs = []
        self.counts = Counter()
        self.boxes = []        # box samples of the enclosing objective closures
        self._stack = []       # [span index, time covered by children]

    def enter(self, name, tag=None):
        idx = len(self.names)
        self.names.append(name)
        self.tags.append(tag)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0.0)
        self.selfs.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        self.starts.append(self.clock())
        return frame

    def exit(self, frame):
        end = self.clock()
        idx, covered = frame
        self._stack.pop()
        duration = end - self.starts[idx]
        self.ends[idx] = end
        self.selfs[idx] = duration - covered
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, fn, name):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = rec.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(frame)

        return traced

    def write(self, path):
        """Gzipped CSV, one span per line, in order of entry."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,tag,parent,start,end,self\n")
            for i in range(len(self.names)):
                fh.write(f"{i},{self.names[i]},{self.tags[i] or ''},"
                         f"{self.parents[i]},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.selfs[i]!r}\n")


def _tape_macs(params):
    sizes = params.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _wrap_tape(rec, mlp):
    tape = mlp.Tape
    init, sweep, vjp = tape.__init__, tape._input_grad_sweep, tape.param_vjp

    def traced_init(self, params, Z):
        if not rec.boxes:
            tag = "fit"
        else:
            tag = "box" if Z is rec.boxes[-1] else "residual"
        self.bench_tag = tag
        frame = rec.enter("mlp.Tape", tag)
        try:
            init(self, params, Z)
        finally:
            rec.exit(frame)
        rows = self.A[0].shape[0]
        rec.counts["mlp.tapes"] += 1
        rec.counts[f"mlp.{tag}.rows"] += rows
        rec.counts["mlp.flop"] += 2 * rows * _tape_macs(params)

    def traced_sweep(self):
        if self._cs is not None:
            return sweep(self)
        frame = rec.enter("mlp.input_grad", self.bench_tag)
        try:
            return sweep(self)
        finally:
            rec.exit(frame)
            rec.counts["mlp.flop"] += 2 * self.A[0].shape[0] * _tape_macs(self.params)

    def traced_vjp(self, val_seeds=None, grad_seeds=None, want_input_grad=False):
        frame = rec.enter("mlp.param_vjp", self.bench_tag)
        try:
            return vjp(self, val_seeds, grad_seeds, want_input_grad)
        finally:
            rec.exit(frame)
            sweeps = 2 if grad_seeds is not None else 1
            rec.counts["mlp.flop"] += \
                4 * sweeps * self.A[0].shape[0] * _tape_macs(self.params)

    return [(tape, "__init__", traced_init),
            (tape, "_input_grad_sweep", traced_sweep),
            (tape, "param_vjp", traced_vjp)]


def _count_calls(rec, fn, key):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def install_tracing(rec):
    """Bind span wrappers over smlpde's public callables; returns an undo
    function that restores every original binding."""
    mods = {name: importlib.import_module(f"smlpde.{name}") for name in MODULES}
    mlp = mods["mlp"]
    patches = _wrap_tape(rec, mlp)
    # activations are leaves of the tape operations: counted, not spanned
    act = mlp.Activation
    patches.append((act, "deriv", _count_calls(rec, act.deriv, "mlp.deriv_calls")))
    patches.append((act, "deriv2", _count_calls(rec, act.deriv2, "mlp.deriv_calls")))
    special = {(owner, attr) for owner, attr, _ in patches}
    special |= {(act, attr) for attr in vars(act)}
    wrapped = {}   # id(original) -> (original, wrapper)
    for mname, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, meth in list(vars(obj).items()):
                    if mattr.startswith("_") or not inspect.isfunction(meth) \
                            or (obj, mattr) in special:
                        continue
                    patches.append((obj, mattr, rec.wrap(
                        meth, f"{mname}.{obj.__name__}.{mattr}")))
            elif callable(obj):
                wrapped[id(obj)] = (obj, rec.wrap(obj, f"{mname}.{attr}"))
    # rebind the wrapped functions under every name any module holds them by
    holders = list(mods.values()) + [importlib.import_module("smlpde")]
    for mod in holders:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                patches.append((mod, attr, hit[1]))
    undo = []
    for owner, attr, new in patches:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore():
        for owner, attr, old in reversed(undo):
            setattr(owner, attr, old)
    return restore


# --- aggregation ------------------------------------------------------------------

# Every span lands in exactly one of these self-time buckets, so the buckets
# plus the untraced remainder add up to the traced wall time.
SELF_BUCKETS = (
    "mlp.residual.forward_s", "mlp.residual.input_grad_s", "mlp.residual.vjp_s",
    "mlp.box.forward_s", "mlp.box.input_grad_s", "mlp.box.vjp_s",
    "mlp.fit.forward_s", "mlp.fit.input_grad_s", "mlp.fit.vjp_s", "mlp.other_s",
    "objective.self_s", "objective.r0_s", "objective.pack_s",
    "objective.unpack_s", "objective.other_s",
    "optimizer.self_s", "harness.self_s", "ground_truth.self_s",
    "physics.apply_s", "physics.other_s",
    "measurement.apply_s", "measurement.adjoint_s", "measurement.other_s",
    "grid.stencil_s", "grid.other_s", "svg.self_s", "config.self_s",
)

_TAPE_OPS = {"mlp.Tape": "forward_s", "mlp.input_grad": "input_grad_s",
             "mlp.param_vjp": "vjp_s"}
_NAMED = {
    "objective.closure": "objective.self_s",
    "objective.r0_value": "objective.r0_s",
    "objective.VarLayout.pack": "objective.pack_s",
    "objective.VarLayout.pack_grads": "objective.pack_s",
    "objective.VarLayout.unpack": "objective.unpack_s",
    "physics.apply_physics_array": "physics.apply_s",
    "measurement.MeasurementOp.apply_array": "measurement.apply_s",
    "measurement.MeasurementOp.adjoint_array": "measurement.adjoint_s",
    "grid.Grid.space_derivative_matrix": "grid.stencil_s",
    "grid.Grid.time_derivative_matrix": "grid.stencil_s",
    "grid.first_difference_matrix": "grid.stencil_s",
    "grid.second_difference_matrix": "grid.stencil_s",
}
_CATCH_ALL = {"mlp": "mlp.other_s", "objective": "objective.other_s",
              "optimizer": "optimizer.self_s", "harness": "harness.self_s",
              "ground_truth": "ground_truth.self_s", "physics": "physics.other_s",
              "measurement": "measurement.other_s", "grid": "grid.other_s",
              "svg": "svg.self_s", "config": "config.self_s"}

# Spans whose inclusive time is reported as the harness's reporting cost.
REPORT_SPANS = frozenset((
    "harness.f_sup_error", "harness.grad_sup_error", "harness.state_error",
    "harness.param_error", "measurement.save_dataset", "grid.write_field_csv",
    "mlp.write_params_csv", "svg.line_chart"))


def bucket_of(name, tag):
    op = _TAPE_OPS.get(name)
    if op is not None:
        return f"mlp.{tag}.{op}"
    named = _NAMED.get(name)
    if named is not None:
        return named
    return _CATCH_ALL[name.split(".", 1)[0]]


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def layer_metrics(rec):
    """Self-time buckets, inclusive layer times and counts of one traced run."""
    out = {name: 0.0 for name in SELF_BUCKETS}
    counts = Counter()
    closure_ms = []
    inclusive = Counter()
    names, tags, parents = rec.names, rec.tags, rec.parents
    for i, name in enumerate(names):
        out[bucket_of(name, tags[i])] += rec.selfs[i]
        counts[name] += 1
        duration = rec.ends[i] - rec.starts[i]
        if name == "objective.closure":
            closure_ms.append(1e3 * duration)
        elif name in ("harness.prefit_net_to_residual",
                      "ground_truth.make_dataset"):
            inclusive[name] += duration
        elif name in REPORT_SPANS:
            p = parents[i]
            while p >= 0 and names[p] not in REPORT_SPANS:
                p = parents[p]
            if p < 0:
                inclusive["report"] += duration
    closure_ms.sort()
    c = rec.counts
    out.update({
        "mlp.residual.rows": c["mlp.residual.rows"],
        "mlp.box.rows": c["mlp.box.rows"],
        "mlp.fit.rows": c["mlp.fit.rows"],
        "mlp.tapes": c["mlp.tapes"],
        "mlp.deriv_calls": c["mlp.deriv_calls"],
        "mlp.gflop_computed": c["mlp.flop"] / 1e9,
        "objective.closure_ms_p50": _percentile(closure_ms, 0.50),
        "objective.closure_ms_p99": _percentile(closure_ms, 0.99),
        "objective.closure_samples": len(closure_ms),
        "harness.prefit_s": inclusive["harness.prefit_net_to_residual"],
        "harness.report_s": inclusive["report"],
        "ground_truth.simulate_calls": counts["ground_truth.simulate"],
        "ground_truth.make_dataset_s": inclusive["ground_truth.make_dataset"],
        "physics.apply_calls": counts["physics.apply_physics_array"],
        "measurement.calls": counts["measurement.MeasurementOp.apply_array"]
        + counts["measurement.MeasurementOp.adjoint_array"],
        "grid.stencil_builds": counts["grid.Grid.space_derivative_matrix"]
        + counts["grid.Grid.time_derivative_matrix"],
        "trace.spans": len(names),
    })
    return out
