"""Experiment orchestration: the scale-indexed convergence study and the
network approximation probe.

The convergence study runs, for m = 1..m_max, the full minimization with

    lambda_m = lambda0 * growth^m        (residual & data-side weight)
    mu_m     = mu0 * growth^m            (measurement weight)
    nu_m     = nu0 * nu_decay^(-m)       (parameter-norm weight)
    noise_m  = noise0 / m                (relative noise level)
    width_m  = width0 * m                (hidden width of every network)
    tau_m    = tau0 / m                  (smooth-max temperature)

and warm-starts each scale from the previous solution, widening the
networks without changing the represented function.  Reported per scale:
the final objective breakdown, the sup error of the learned term on the
jet points visited by the ground truth, its gradient-sup mismatch, and
discrete state/parameter errors.  stops.csv records how every start of
every scale ended: the optimizer's stop reason, or `diverged: <message>`
with empty cells, and the iterations taken, the value reached, the closure
calls made, the sup-norm of the final gradient and `best`, 1 for the start
whose point the scale's report row and the next warm start carry and 0
for the others.  Each iteration and the evaluated start run one backward
pass, so closure_calls - iterations - 1 counts the rejected line-search
trials, whose backward pass never ran.  The report row of a scale whose
every start diverged reads NaN in its breakdown, error and psi_hat
columns.  Every table is written by grid.write_csv, the one place the CSV
format is decided: 17 significant digits, so identical configurations
reproduce byte-identical files, and one line ending.  The run manifest
timings.json, beside report.csv, holds what is not reproducible: the wall
seconds of every scale and the objective closure calls of its starts that
did not diverge, the process's peak resident MB after set-up and after
each scale's report row, the config text, the Python and numpy versions,
and whether the heap was pinned.  The probe writes the same manifest,
with the wall seconds, fit-closure calls and peak resident MB of every
width, as probe_timings.json, so that a study and a probe sharing an
output directory keep both.  Where Python has no resource module the
peaks read null.

The study and gradcheck_from_config share one reference set-up
(_reference): the grid, the ground truth, its trajectory (simulated once),
the trajectory's jet stack (taken once), the box derived from that stack
and tau0.  The stack holds the visited jet points the report's errors are
taken on.  They also share the builder of scale m's schedule row,
dataset (which owns K_m) and objective (_scale) and that of a scale's
fresh starts (_first_starts), so the gradient check audits the point
where the study's first minimization starts.  A scale's layer sizes are
set once (network_sizes): its report row's width, its fresh starts and the
widened warm start all read them.  Outside the objective and
fit closures every network is evaluated through one mlp.Tape per
(experiment, network), and f_sup_error reads both of its errors off that
one tape.  The prefit and the probe's fits run their adaptive stages
through one loop (_adaptive_stages), which hands the fit's one closure to
every stage.

Every minimization goes through this module's globals make_closure and
minimize: each objective closure is made by harness.make_closure, and
every optimizer run, of an objective or a fit closure, is a call of
harness.minimize.  The benchmark (studybench/worker.py) binds its
closure-call counts, stage times and failure counts over these two names,
so a closure made or minimized by any other path would go uncounted.

Every entry point (run_convergence_study, approximation_probe,
gradcheck_from_config) is wrapped by _entry_point, which pins two process
settings and gives the caller's ufunc buffer back when the entry point
returns or raises.  First, it fixes the C allocator's thresholds
(_pin_heap).  Each closure call allocates and frees numpy temporaries of
0.1-1 MB.  Under glibc's dynamic thresholds these blocks are mmapped, or
trimmed off the top of the heap, and handed back to the kernel on free,
until the thresholds happen to rise; every call then page-faults its
buffers in again, and a study spent about a third of its time in minor
faults, by an amount that depended on the order of earlier allocations.
Pinned at glibc's own ceilings, freed blocks stay in the heap and are
reused, also by the next, wider scale: the study does not trim the heap
between scales, since a trim left its peak resident size unchanged.
This is glibc-only: where the C library has no mallopt the pin does
nothing.  Merely importing this module leaves the allocator alone.
Second, it sets numpy's ufunc buffer to _UFUNC_BUFSIZE = 256 elements.
At numpy 2.4's default of 8,192 elements, an elementwise broadcast with a
(w, 1) or (1, B) operand costs about three times more while two of its
B-long rows fit into the buffer, probably because numpy then merges rows
and copies the stride-0 operand into its buffer.  The tapes make such a
broadcast in every bias add, in the last hidden layer's
d = W_{L-1}^T * sigma' and in the output layer's W^T * bar_P, and the
prefit's 1,536 rows, the box tapes' 1,089 and 4,096 and the probe's 129
all sit below the 4,097 rows from which the default buffer stops merging.
On a 2-core Xeon, (w, 1) * (w, B) takes about 95 us at (24, 4,096) with
the default buffer and 30 us pinned, and 12 us against 4 us at
(8, 1,536).  256 holds fewer than two rows of the smallest batch the
program fixes itself, the probe's 129 fit points, and is a multiple of
16, as numpy requires.  The price is paid by buffered casts: the relu and
leaky-relu slope, a bool -> float cast, takes 62 us at (24, 4,096)
instead of 45 us.  Elementwise ufuncs give the same bits however numpy
chunks them, so every output is unchanged.
tools/ufunc_buffer.py prints these timings for the numpy installed.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import sys
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import mlp
from .config import ExperimentConfig, build_grid, build_gt_spec, format_config
from .errors import BoxViolationError, ConfigError, DivergedError
from .grid import Grid, jet_features, write_csv, write_field_csv, write_json
from .ground_truth import (GroundTruthSpec, f_true, f_true_deriv, make_dataset,
                           simulate)
from .measurement import MeasurementOp, save_dataset
from .objective import (ObjectiveBreakdown, Problem, UBox, VarLayout, Vars,
                        Weights, derive_ubox, make_closure)
from .optimizer import OptimConfig, finite_diff_gradcheck, minimize
from .physics import n_param_slots, residual, residual_columns
from .svg import line_chart

try:
    import resource
except ImportError:  # no resource module (Windows)
    resource = None


# glibc's mallopt parameter numbers (malloc.h) and its own limits: 32 MiB is
# the 64-bit ceiling of the dynamic mmap threshold, and the dynamic rule keeps
# the trim threshold at twice the mmap threshold.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
# numpy's ufunc buffer, in elements, while an entry point runs: under two
# rows of the probe's 129 fit points, and a multiple of 16 as numpy requires
_UFUNC_BUFSIZE = 256


def _pin_heap() -> bool:
    """Fix glibc's mmap and trim thresholds at their dynamic ceilings, so
    freed closure temporaries stay in the heap; True if both mallopt calls
    succeeded, False (changing nothing) where there is no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    done = [mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
            mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)]
    return all(done)


def _entry_point(entry):
    """entry, run with the heap pinned (_pin_heap) and numpy's ufunc buffer
    at _UFUNC_BUFSIZE elements; the caller's buffer is restored when it
    returns or raises (np.errstate does not restore it on numpy 1.x)."""
    @functools.wraps(entry)
    def pinned(*args, **kwargs):
        _pin_heap()
        old = np.setbufsize(_UFUNC_BUFSIZE)
        try:
            return entry(*args, **kwargs)
        finally:
            np.setbufsize(old)
    return pinned


def _peak_rss_mb():
    """The process's peak resident size so far in MB (getrusage's
    ru_maxrss, KiB on Linux and bytes on macOS), or None where there is no
    resource module."""
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _output_dir(cfg: ExperimentConfig) -> str:
    """[output] dir, created if missing.  A path that cannot be a directory
    (it names a file, or lies under one) is a ConfigError, raised before
    any work."""
    out_dir = cfg["output"]["dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[output] dir {out_dir!r} cannot be created: "
                          f"{exc.strerror}") from None
    return out_dir


def network_sizes(cfg: ExperimentConfig, input_dim: int, m: int):
    net = cfg["network"]
    width = net["width0"] * m
    return [input_dim] + [width] * (net["depth"] - 1) + [1]


def init_state_from_data(ds) -> np.ndarray:
    """Warm start for the states: measured data, the nodes a subsampling
    operator drops filled by linear interpolation between the kept columns,
    then one light binomial smoothing pass in space."""
    u = ds.y.copy()
    grid = ds.grid
    if ds.op.kind == "subsample":
        keep = np.flatnonzero(np.diag(ds.op.matrix))
        for row in u.reshape(-1, grid.nx):
            row[:] = np.interp(grid.x, grid.x[keep], row[keep])
    sm = u.copy()
    sm[..., 1:-1] = 0.25 * u[..., :-2] + 0.5 * u[..., 1:-1] + 0.25 * u[..., 2:]
    return sm


def f_sup_error(nets, z_visited: np.ndarray, f_name: str):
    """(e_f, grad_sup_err) of the networks on the visited jet points.

    e_f is the max over visited jet points of |f_theta - f_true| (f_true
    reads the state value, column 1 of the jet layout).  grad_sup_err is
    | max over visited jet points of |grad_z f_theta| - sup of |f_true'| |,
    the true sup taken on a 513-point lattice spanning the smallest to the
    largest state value of the whole stack.

    z_visited is the (L, rows, dim) stack jet_features returns.  Each
    network runs one tape per experiment, which gives both maxima, so the
    largest tape holds one experiment's rows and its input gradients; a
    maximum is exact in any order, so the results have the bits of one
    tape over all L * rows rows."""
    u_vals = z_visited[..., 1]
    u_lattice = np.linspace(float(u_vals.min()), float(u_vals.max()), 513)
    true_sup = float(np.max(np.abs(f_true_deriv(f_name)(u_lattice))))
    worst = fit_sup = 0.0
    for z in z_visited:
        target = f_true(f_name)(z[:, 1])
        for net in nets:
            tape = mlp.Tape(net, z)
            worst = max(worst, float(np.max(np.abs(tape.values - target))))
            fit_sup = max(fit_sup, float(np.max(np.abs(tape.input_grads))))
            del tape   # before the next tape is built
    return worst, abs(fit_sup - true_sup)


def state_error(grid: Grid, u: np.ndarray, u_true: np.ndarray) -> float:
    return float(np.sqrt(np.sum(grid.node_weights() * (u - u_true) ** 2)))


def param_error(grid: Grid, phi: np.ndarray, phi_true: np.ndarray) -> float:
    wx = grid.space_weights()
    return float(np.sqrt(np.sum(wx * (phi - phi_true) ** 2)))


@dataclass
class ScaleRow:
    m: int
    lam: float
    mu: float
    nu: float
    noise: float
    tau: float
    width: int
    breakdown: object
    e_f: float
    grad_sup_err: float
    state_err: float
    param_err: float
    psi_hat: float
    iterations: int
    status: str

    # report.csv's columns: the fields in order, the breakdown's spread out
    CSV_HEADER = ("m", "lambda", "mu", "nu", "noise", "tau", "width",
                  *ObjectiveBreakdown.CSV_HEADER, "e_f", "grad_sup_err",
                  "state_err", "param_err", "psi_hat", "iterations", "status")

    def cells(self) -> list:
        return [self.m, self.lam, self.mu, self.nu, self.noise, self.tau,
                self.width, *self.breakdown.cells(), self.e_f,
                self.grad_sup_err, self.state_err, self.param_err,
                self.psi_hat, self.iterations, self.status]


TAU0_FACTOR = 0.1


@dataclass
class _Reference:
    """The configured experiment's reference set-up, shared by the study
    and the gradient check: the grid, the ground truth, its trajectory
    u_true (L, 1, nt, nx), the jet stack z_visited (L, nt*nx, dim) of every
    (t, jets) point that trajectory visits, the box derived from it, and
    tau0."""

    grid: Grid
    spec: GroundTruthSpec
    u_true: np.ndarray
    z_visited: np.ndarray
    box: UBox
    tau0: float


def _reference(cfg: ExperimentConfig) -> _Reference:
    """Simulate the reference trajectory once and take its jets once."""
    grid = build_grid(cfg)
    spec = build_gt_spec(cfg)
    u_true = simulate(spec, grid)
    z_visited = jet_features(grid, spec.kappa, u_true)
    box = derive_ubox(grid, z_visited, cfg["weights"]["box_margin"])
    # tau0 = TAU0_FACTOR * hard gradient-sup of the scale-1 initial network
    net = mlp.init_params(network_sizes(cfg, box.dim, 1),
                          mlp.Activation(cfg["network"]["activation"]),
                          cfg["network"]["init_seed"])
    est = float(np.max(np.abs(mlp.Tape(net, box.samples).input_grads)))
    return _Reference(grid, spec, u_true, z_visited, box,
                      max(TAU0_FACTOR * est, 1e-6))


def initial_phi_estimate(grid: Grid, kind: str, u_init: np.ndarray) -> np.ndarray:
    """Closed-form ridge start for the parameter fields.

    For a convection term the residual is linear in the velocity nodewise:
    projecting du/dt onto du/dx column by column gives a cheap, stable first
    guess (the reaction part of the residual biases it, but the optimizer
    only needs a starting point on the right side of zero)."""
    phi = np.zeros(u_init.shape[:2] + (n_param_slots(kind), grid.nx))
    if kind != "convection":
        return phi
    # on the whole (L, N, nt, nx) stack; each (l, n) slice gets the bits
    # it would get alone
    dtu = grid.time_derivative_matrix() @ u_init
    ux = u_init @ grid.space_derivative_matrix(1).T
    wt = grid.time_weights()[:, None]
    num = np.sum(wt * dtu * ux, axis=-2)
    den = np.sum(wt * ux * ux, axis=-2)
    ridge = 0.1 * np.max(den, axis=-1, keepdims=True) + 1e-12
    phi[:, :, 0] = num / (den + ridge)
    return phi


def _lsq_closure(net, Z, y):
    """Closure over flat parameters shaped like net: the mean squared error
    of the network at the inputs Z against y, its gradient as a deferred
    parameter VJP, and the error again as aux.  The mean is np.mean's own
    pairwise sum and division by the row count, without its Python
    wrapper."""
    n = y.size

    def fg(flat):
        params = mlp.unflatten_params(flat, net)
        tape = mlp.Tape(params, Z)
        diff = tape.values - y
        loss = float(np.add.reduce(diff * diff) / n)
        return loss, lambda: tape.param_vjp(2.0 * diff / n)[0], loss

    return fg


def prefit_rows(grid: Grid, kappa: int, kind: str, u_init: np.ndarray,
                phi_init: np.ndarray):
    """The prefit's least-squares rows, built once per scale for every
    restart: (Z, ys), Z the jets of the initialized states at the nodes the
    PDE governs and ys[n] equation n's apparent residual du/dt - physics
    there, both stacked over experiments, thinned to about 1500 rows and
    contiguous."""
    interior = residual_columns(kind)
    feats = jet_features(grid, kappa, u_init)
    Z = feats.reshape(-1, grid.nt, grid.nx, feats.shape[-1])[:, :, interior]
    Z = Z.reshape(-1, feats.shape[-1])
    stride = max(1, Z.shape[0] // 1500)
    resid = residual(grid, kind, u_init, phi_init)[..., interior]
    ys = [np.ascontiguousarray(resid[:, n].reshape(-1)[::stride])
          for n in range(u_init.shape[1])]
    return np.ascontiguousarray(Z[::stride]), ys


def prefit_net_to_residual(net, Z: np.ndarray, y: np.ndarray,
                           iters: int = 800) -> "mlp.MlpParams":
    """Warm start for a network: least-squares fit to one equation's
    apparent residual y on its rows Z (prefit_rows).  Gives the optimizer a
    starting function of the right scale instead of asking it to climb out
    of the zero-function well."""
    res, _ = _adaptive_stages(_lsq_closure(net, Z, y), mlp.flatten_params(net),
                              iters, ((1e-2, 0.6), (3e-3, 0.4)))
    return mlp.unflatten_params(res.x, net)


def _adaptive_stages(fg, x, iters: int, stages):
    """Adaptive stages of a least-squares fit, each resuming the last:
    stage (rate, share) runs max(1, int(iters * share)) iterations at rate
    with no gradient tolerance.  Every stage is handed the one closure fg.
    Returns the last stage's OptResult and the closure calls of all."""
    calls = 0
    for rate, share in stages:
        x = minimize(x, fg, OptimConfig(max_iters=max(1, int(iters * share)),
                                        grad_tol=0.0, rate=rate))
        calls += x.calls
    return x, calls


# the study's step scale: _staged_minimize's adaptive stage runs at three
# times it, and the first trial of its Armijo descent is as long as one
# adaptive step at 0.3 times it
STUDY_RATE = 1e-3


def _staged_minimize(x0, fg, base: OptimConfig):
    """Minimize one scale: an adaptive stage, then an Armijo descent.

    The budget is max(max_iters, 2) closure calls, counted in calls because
    a descent iteration costs a varying number of them.  The adaptive stage
    runs at 3 * base.rate for 30% of max_iters (at least one step) and moves
    fast from the warm start, but its coordinate-wise normalized steps stay
    about as long as its rate, so at the kink of nu * |theta|_2 it circles
    theta = 0 instead of settling.

    The descent resumes from the adaptive result (its start costs no call
    but counts against its budget), so its monotone, backtracked steps
    shrink onto a kink.  Its first trial step, 0.3 * rate * sqrt(n) / |g|_2
    for n unknowns, is as long as one adaptive step at 0.3 * base.rate; a
    unit step overshoots where the objective is large (about 1e9 on a
    kappa = 1 Burgers study) and spends the budget backtracking.

    The trace is the concatenation over both stages and the iterations add
    up.
    """
    n_adaptive = max(1, int(base.max_iters * 0.3))
    first = minimize(x0, fg, OptimConfig(max_iters=n_adaptive,
                                         grad_tol=base.grad_tol,
                                         rate=base.rate * 3.0))
    budget = base.max_iters - n_adaptive
    gnorm = float(np.linalg.norm(first.grad))
    if first.converged or budget < 2 or gnorm == 0.0:
        return first
    step = 0.3 * base.rate * np.sqrt(first.x.size) / gnorm
    res = minimize(first, fg,
                   OptimConfig(max_iters=budget, grad_tol=base.grad_tol,
                               rate=step, method="gd_linesearch",
                               max_calls=budget))
    res.trace = first.trace + res.trace[1:]
    res.iterations += first.iterations
    res.calls += first.calls
    return res


def _scale(cfg: ExperimentConfig, ref: _Reference, m: int) -> Problem:
    """Scale m of the configured study: its objective over the reference
    set-up's box.  The Problem carries the scale's schedule row (lambda_m,
    mu_m, nu_m and tau_m in its weights, noise_m as its dataset's
    noise_level) and its dataset: the reference trajectory measured by K_m,
    the dataset's op, with noise seed data_seed + 1009 * m."""
    s, w, meas = cfg["schedule"], cfg["weights"], cfg["measurement"]
    weights = Weights(lam=s["lambda0"] * s["growth"] ** m,
                      mu=s["mu0"] * s["growth"] ** m,
                      nu=s["nu0"] * s["nu_decay"] ** (-m), q=w["q"], r=w["r"],
                      rho=w["rho"], param_norm_p=w["param_norm_p"],
                      tau=max(ref.tau0 / m, 1e-9))
    op = MeasurementOp(meas["family"], m, ref.grid)
    dataset = make_dataset(ref.u_true, op, meas["noise0"] / m,
                           meas["data_seed"] + 1009 * m)
    return Problem(dataset, ref.spec.kind, ref.spec.kappa, weights, ref.box)


def _first_starts(cfg: ExperimentConfig, ref: _Reference, problem: Problem,
                  sizes: list, restarts: int) -> list:
    """The fresh starts on problem, a scale with no warm start (scale 1, or
    a scale after one whose every start diverged): each holds the states
    initialized from the data, the ridge estimate of the parameter fields
    and, for start j, one network per equation n of the scale's layer sizes
    (network_sizes), seeded init_seed + 101 * j + n and prefitted to that
    equation's apparent residual on rows built once for all starts."""
    grid, kind = ref.grid, ref.spec.kind
    u_init = init_state_from_data(problem.dataset)
    phi_init = initial_phi_estimate(grid, kind, u_init)
    Z, ys = prefit_rows(grid, ref.spec.kappa, kind, u_init, phi_init)
    activation = mlp.Activation(cfg["network"]["activation"])
    seed = cfg["network"]["init_seed"]
    return [Vars(u_init, phi_init,
                 [prefit_net_to_residual(
                     mlp.init_params(sizes, activation, seed + 101 * j + n),
                     Z, y)
                  for n, y in enumerate(ys)])
            for j in range(restarts)]


@_entry_point
def run_convergence_study(cfg: ExperimentConfig, echo=print) -> list:
    """The study over m = 1..m_max; returns its report rows (ScaleRow), one
    per scale, as report.csv holds them."""
    t_start = time.perf_counter()
    ocfg = cfg["optimizer"]
    out_dir = _output_dir(cfg)

    # the reference trajectory, simulated once and measured at every scale
    ref = _reference(cfg)
    grid, spec, u_true = ref.grid, ref.spec, ref.u_true
    N = u_true.shape[1]
    phi_true = spec.phi_values(grid)
    setup_s = time.perf_counter() - t_start
    setup_peak = _peak_rss_mb()

    report = []  # one ScaleRow per scale
    stops = []   # how each start of each scale ended
    scales = []  # per scale: wall seconds to the end of its starts, calls
    prev_vars = None
    opt_config = OptimConfig(max_iters=ocfg["max_iters"],
                             grad_tol=ocfg["grad_tol"], rate=STUDY_RATE)
    for m in range(1, cfg["schedule"]["m_max"] + 1):
        t_scale = time.perf_counter()
        calls = 0
        problem = _scale(cfg, ref, m)
        save_dataset(problem.dataset, out_dir)
        sizes = network_sizes(cfg, ref.box.dim, m)
        w = problem.weights
        head = (m, w.lam, w.mu, w.nu, problem.dataset.noise_level, w.tau,
                sizes[1])
        if prev_vars is None:
            candidates = _first_starts(cfg, ref, problem, sizes,
                                       ocfg["restarts"])
        else:
            nets = [mlp.grow_params(prev_vars.nets[n], sizes,
                                    cfg["network"]["init_seed"] + 977 * m + n)
                    for n in range(N)]
            candidates = [Vars(prev_vars.u, prev_vars.phi, nets)]

        best = None   # (result, layout, stop row) of the best start
        status = "ok"
        for j, vars0 in enumerate(candidates):
            layout = VarLayout(vars0)
            fg = make_closure(problem, layout)
            try:
                res = _staged_minimize(layout.pack(vars0), fg, opt_config)
            except (DivergedError, BoxViolationError) as exc:
                status = f"diverged({exc})"
                stops.append([m, j, f"diverged: {exc}", "", "", "", "", ""])
                continue
            calls += res.calls
            # the best column is 0 until the scale's winner is known
            stop = [m, j, res.stop_reason, res.iterations, res.value,
                    res.calls, float(np.max(np.abs(res.grad))), 0]
            stops.append(stop)
            if best is None or res.value < best[0].value:
                best = (res, layout, stop)
        scale = {"m": m, "wall_s": time.perf_counter() - t_scale,
                 "closure_calls": calls}
        scales.append(scale)
        if best is None:
            # every start diverged: mark the row, keep the previous solution
            echo(f"[m={m}] optimization failed: {status}")
            nan = float("nan")
            failed = ObjectiveBreakdown(**{f.name: nan
                                           for f in fields(ObjectiveBreakdown)})
            row = ScaleRow(*head, failed, nan, nan, nan, nan, nan, 0, status)
        else:
            res, layout, stop = best
            stop[-1] = 1
            prev_vars = layout.unpack(res.x)
            write_csv(os.path.join(out_dir, f"trace_m{m}.csv"),
                      ("m", "iter", *ObjectiveBreakdown.CSV_HEADER),
                      ([m, it, *bd.cells()] for it, bd in enumerate(res.trace)))
            psi_hat = mlp.param_norm(prev_vars.nets, w.param_norm_p)[0]
            e_f, gse = f_sup_error(prev_vars.nets, ref.z_visited, spec.f_name)
            serr = state_error(grid, prev_vars.u, u_true)
            perr = param_error(grid, prev_vars.phi, phi_true)
            row = ScaleRow(*head, res.aux, e_f, gse, serr, perr, psi_hat,
                           res.iterations, "ok")
            echo(f"[m={m}] total={res.value:.6g} e_f={e_f:.4g} state_err="
                 f"{serr:.4g} param_err={perr:.4g} iters={res.iterations}")
        report.append(row)
        scale["peak_rss_mb"] = _peak_rss_mb()

    write_csv(os.path.join(out_dir, "report.csv"), ScaleRow.CSV_HEADER,
              (row.cells() for row in report))
    write_csv(os.path.join(out_dir, "stops.csv"),
              ("m", "start", "outcome", "iterations", "value", "closure_calls",
               "grad_inf", "best"), stops)
    _write_schedule_check(cfg, report, os.path.join(out_dir, "schedule_check.csv"))
    _write_error_chart(report, os.path.join(out_dir, "f_error.svg"))
    _write_final_vars(grid, prev_vars, out_dir)
    _write_timings(os.path.join(out_dir, "timings.json"), cfg,
                   {"setup_s": setup_s, "wall_s": time.perf_counter() - t_start,
                    "setup_peak_rss_mb": setup_peak, "scales": scales})
    return report


def _write_timings(path, cfg, timings: dict) -> None:
    """Run manifest: the timings, the config text, the Python and numpy
    versions, whether the heap is pinned (_pin_heap again: it re-applies the
    thresholds _entry_point set and reports whether they hold) and the
    ufunc buffer in force.  No study or probe imports scipy, so its version
    is not recorded."""
    write_json(path, {"config": format_config(cfg),
                      "versions": {"python": platform.python_version(),
                                   "numpy": np.__version__},
                      "heap_pinned": _pin_heap(),
                      "ufunc_bufsize": np.getbufsize(), **timings})


def _write_schedule_check(cfg, report: list, path) -> None:
    """Post-hoc schedule diagnostics: nu_m * psi_hat(m) should vanish and,
    given a probe slope estimate, lambda_m * m^(-beta_hat*q) should too."""
    beta_hat = cfg["schedule"]["beta_hat"]
    q = cfg["weights"]["q"]
    rows = []
    prev_nu_psi = None
    prev_rate = None
    for row in report:
        nu_psi = row.nu * row.psi_hat
        rate = row.lam * row.m ** (-beta_hat * q) if beta_hat > 0 else float("nan")
        flags = []
        if prev_nu_psi is not None and np.isfinite(nu_psi) and nu_psi > prev_nu_psi:
            flags.append("nu_psi_increased")
        if beta_hat > 0 and prev_rate is not None and rate > prev_rate:
            flags.append("lambda_rate_increased")
        prev_nu_psi = nu_psi if np.isfinite(nu_psi) else prev_nu_psi
        prev_rate = rate
        rows.append([row.m, row.lam, row.nu, row.psi_hat, nu_psi, rate,
                     ";".join(flags)])
    write_csv(path, ("m", "lambda_m", "nu_m", "psi_hat", "nu_psi",
                     "lambda_m_rate", "flag"), rows)


def _write_error_chart(report: list, path) -> None:
    rows = [r for r in report if np.isfinite(r.e_f)]
    if not rows:
        return
    ms = [r.m for r in rows]
    line_chart(path,
               [("f sup error", ms, [max(r.e_f, 1e-16) for r in rows]),
                ("state error", ms, [max(r.state_err, 1e-16) for r in rows]),
                ("parameter error", ms, [max(r.param_err, 1e-16) for r in rows])],
               title="errors vs measurement scale",
               xlabel="scale m", ylabel="error")


def _write_final_vars(grid: Grid, vars_, out_dir) -> None:
    if vars_ is None:
        return
    L, N = vars_.u.shape[0], vars_.u.shape[1]
    for l in range(L):
        for n in range(N):
            suffix = f"_n{n + 1}" if N > 1 else ""
            write_field_csv(grid, vars_.u[l, n],
                            os.path.join(out_dir, f"u_final_l{l + 1}{suffix}.csv"))
            for s in range(vars_.phi.shape[2]):
                path = os.path.join(out_dir,
                                    f"phi_final_l{l + 1}{suffix}_s{s + 1}.csv")
                write_csv(path, ("x", "value"), zip(grid.x, vars_.phi[l, n, s]))
    for n, net in enumerate(vars_.nets):
        mlp.write_params_csv(net,
                             os.path.join(out_dir, f"f_params_final_n{n + 1}.csv"),
                             os.path.join(out_dir, f"f_params_final_n{n + 1}.json"))


# --- approximation probe ---------------------------------------------------------


@dataclass
class ProbeRow:
    width: int
    sup_error: float
    grad_sup_fit: float
    grad_sup_true: float
    grad_sup_err: float
    param_norm: float
    status: str = "ok"


def fit_function_lsq(f_name: str, lo: float, hi: float, width: int, depth: int,
                     iters: int, seed: int, activation_kind: str = "tanh",
                     init_net=None):
    """Least-squares fit of a named scalar function on 129 points of [lo, hi];
    returns (net, sup error, fitted gradient sup, param 2-norm, closure
    calls), the first two on a finer lattice of 257 points.

    An optional init_net (e.g. a narrower fit, widened) seeds the training,
    which makes the error of nested widths decrease by construction."""
    fvec = f_true(f_name)
    z_fit = np.linspace(lo, hi, 129)[:, None]
    target = fvec(z_fit[:, 0])
    sizes = [1] + [width] * (depth - 1) + [1]
    if init_net is not None:
        net = mlp.grow_params(init_net, sizes, seed)
    else:
        net = mlp.init_params(sizes, mlp.Activation(activation_kind), seed)
    fg = _lsq_closure(net, z_fit, target)
    res, calls = _adaptive_stages(fg, mlp.flatten_params(net), iters,
                                  ((1e-2, 0.35), (3e-3, 0.25), (1e-3, 0.2)))
    # Armijo polish: the adaptive method plateaus at its step scale
    cfg = OptimConfig(max_iters=max(1, int(iters * 0.2)), grad_tol=1e-13,
                      rate=1.0, method="gd_linesearch")
    res = minimize(res, fg, cfg)
    calls += res.calls
    fitted = mlp.unflatten_params(res.x, net)
    # the readout layer is linear in its parameters: solve it exactly
    tape = mlp.Tape(fitted, z_fit)
    hidden = tape.A[-1].T
    design = np.concatenate([hidden, np.ones((hidden.shape[0], 1))], axis=1)
    gram = design.T @ design + 1e-12 * np.eye(design.shape[1])
    coef = np.linalg.solve(gram, design.T @ target)
    fitted.weights[-1] = coef[:-1][None, :]
    fitted.biases[-1] = coef[-1:]
    z_eval = np.linspace(lo, hi, 257)[:, None]
    tape = mlp.Tape(fitted, z_eval)
    sup_err = float(np.max(np.abs(tape.values - fvec(z_eval[:, 0]))))
    grad_fit = float(np.max(np.abs(tape.input_grads)))
    return fitted, sup_err, grad_fit, mlp.param_norm([fitted], 2.0)[0], calls


@_entry_point
def approximation_probe(cfg: ExperimentConfig, echo=print):
    """Fit networks of increasing width, of the study's depth and
    activation, to a library function and record how the uniform error, the
    gradient sup-norm, and the parameter norm scale."""
    t_start = time.perf_counter()
    p, net = cfg["probe"], cfg["network"]
    out_dir = _output_dir(cfg)
    lo, hi = p["interval_lo"], p["interval_hi"]
    u_dense = np.linspace(lo, hi, 2049)
    grad_true = float(np.max(np.abs(f_true_deriv(p["f_name"])(u_dense))))
    rows = []
    widths = []  # per width: wall seconds and fit-closure calls
    prev_net = None
    for width in p["widths"]:
        t_width = time.perf_counter()
        calls = None
        try:
            prev_net, sup_err, grad_fit, pnorm, calls = fit_function_lsq(
                p["f_name"], lo, hi, width, net["depth"], p["train_iters"],
                p["probe_seed"], net["activation"], init_net=prev_net)
            rows.append(ProbeRow(width, sup_err, grad_fit, grad_true,
                                 abs(grad_fit - grad_true), pnorm))
            echo(f"[width={width}] sup_err={sup_err:.4g} "
                 f"grad_sup={grad_fit:.4g} (true {grad_true:.4g})")
        except DivergedError as exc:
            prev_net = None
            rows.append(ProbeRow(width, float("nan"), float("nan"), grad_true,
                                 float("nan"), float("nan"), f"diverged({exc})"))
        widths.append({"width": width, "wall_s": time.perf_counter() - t_width,
                       "fit_calls": calls, "peak_rss_mb": _peak_rss_mb()})
    good = [r for r in rows if np.isfinite(r.sup_error) and r.sup_error > 0]
    if len(good) >= 2:
        xs = np.log([r.width for r in good])
        ys = np.log([r.sup_error for r in good])
        slope = np.polyfit(xs, ys, 1)[0]
        beta_hat = -float(slope)
    else:
        beta_hat = float("nan")
    write_csv(os.path.join(out_dir, "probe.csv"),
              [f.name for f in fields(ProbeRow)], (astuple(r) for r in rows))
    write_csv(os.path.join(out_dir, "probe_summary.csv"), ("beta_hat",),
              [(beta_hat,)])
    echo(f"fitted approximation-rate slope beta_hat = {beta_hat:.4g}")
    _write_timings(os.path.join(out_dir, "probe_timings.json"), cfg,
                   {"wall_s": time.perf_counter() - t_start, "widths": widths})
    return rows, beta_hat


@_entry_point
def gradcheck_from_config(cfg: ExperimentConfig, echo=print) -> float:
    """Finite-difference audit of the assembled objective gradient at the
    point where the study's first minimization starts.

    It builds what the study builds for that point, with the same
    builders: the reference set-up (_reference), the scale-1 objective and
    data (_scale) and the first of the scale-1 starts (_first_starts), its
    states from the data, its parameter fields from the ridge estimate and
    its networks seeded init_seed + n and prefitted.  No file is written."""
    ref = _reference(cfg)
    problem = _scale(cfg, ref, 1)
    vars0 = _first_starts(cfg, ref, problem,
                          network_sizes(cfg, ref.box.dim, 1), 1)[0]
    layout = VarLayout(vars0)
    fg = make_closure(problem, layout)
    err = finite_diff_gradcheck(layout.pack(vars0), fg, samples=60)
    echo(f"max relative gradient error over sampled coordinates: {err:.3g}")
    return err
