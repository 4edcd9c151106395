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
every scale ended: the optimizer's stop reason, or `diverged: <message>`,
with the iterations taken and the value reached.  All CSV output uses 17
significant digits so identical configurations reproduce byte-identical
files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import mlp
from .config import ExperimentConfig
from .errors import BoxViolationError, DivergedError
from .grid import Field, Grid, jet_features, write_field_csv
from .ground_truth import GroundTruthSpec, f_true, f_true_deriv, make_dataset
from .measurement import MeasurementOp, save_dataset
from .objective import (ObjectiveBreakdown, Problem, UBox, VarLayout, Vars,
                        Weights, derive_ubox, make_closure)
from .optimizer import OptimConfig, finite_diff_gradcheck, minimize
from .physics import PhysicalParams, n_param_slots, residual
from .svg import line_chart


def build_grid(cfg: ExperimentConfig) -> Grid:
    g = cfg["grid"]
    return Grid(nx=g["nx"], nt=g["nt"], x_lo=g["x_lo"], x_hi=g["x_hi"],
                t_end=g["t_end"])


def build_gt_spec(cfg: ExperimentConfig) -> GroundTruthSpec:
    gt = cfg["ground_truth"]
    slots = n_param_slots(gt["kind"])
    phi_profiles = []
    if slots:
        lists = [gt["phi1_profiles"], gt["phi2_profiles"]][:slots]
        for l in range(gt["n_experiments"]):
            phi_profiles.append([lst[l] for lst in lists])
    return GroundTruthSpec(kind=gt["kind"], f_name=gt["f_true"],
                           L=gt["n_experiments"], kappa=gt["kappa"],
                           phi_profiles=phi_profiles,
                           u0_profiles=list(gt["u0_profiles"]))


def schedule_values(cfg: ExperimentConfig, m: int):
    s = cfg["schedule"]
    lam = s["lambda0"] * s["growth"] ** m
    mu = s["mu0"] * s["growth"] ** m
    nu = s["nu0"] * s["nu_decay"] ** (-m)
    noise = cfg["measurement"]["noise0"] / m
    return lam, mu, nu, noise


def network_sizes(cfg: ExperimentConfig, input_dim: int, m: int):
    net = cfg["network"]
    width = net["width0"] * m
    return [input_dim] + [width] * (net["depth"] - 1) + [1]


def init_state_from_data(ds, op: MeasurementOp) -> np.ndarray:
    """Warm start for the states: measured data, subsampled nodes filled by
    linear interpolation, then one light binomial smoothing pass in space."""
    u = ds.y.copy()
    grid = ds.grid
    if op.kind == "subsample":
        keep = np.nonzero(op.mask > 0)[0]
        for l in range(u.shape[0]):
            for n in range(u.shape[1]):
                for it in range(grid.nt):
                    u[l, n, it] = np.interp(grid.x, grid.x[keep],
                                            u[l, n, it, keep])
    sm = u.copy()
    sm[..., 1:-1] = 0.25 * u[..., :-2] + 0.5 * u[..., 1:-1] + 0.25 * u[..., 2:]
    return sm


def f_sup_error(nets, z_visited: np.ndarray, f_name: str) -> float:
    """max over visited jet points of |f_theta - f_true| (f_true reads the
    state value, column 1 of the jet layout)."""
    target = f_true(f_name)(z_visited[:, 1])
    worst = 0.0
    for net in nets:
        vals = mlp.forward_batch(net, z_visited)
        worst = max(worst, float(np.max(np.abs(vals - target))))
    return worst


def grad_sup_error(nets, z_visited: np.ndarray, f_name: str) -> float:
    u_vals = z_visited[:, 1]
    u_lattice = np.linspace(float(u_vals.min()), float(u_vals.max()), 513)
    true_sup = float(np.max(np.abs(f_true_deriv(f_name)(u_lattice))))
    fit_sup = 0.0
    for net in nets:
        g = mlp.grad_input_batch(net, z_visited)
        fit_sup = max(fit_sup, float(np.max(np.abs(g))))
    return abs(fit_sup - true_sup)


def state_error(grid: Grid, u: np.ndarray, u_true: np.ndarray) -> float:
    wtx = grid.time_weights()[:, None] * grid.space_weights()[None, :]
    return float(np.sqrt(np.sum(wtx * (u - u_true) ** 2)))


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

    CSV_HEADER = ("m,lambda,mu,nu,noise,tau,width,total,residual,initial,"
                  "boundary,data,r0,f_lrho,f_gradsup,theta_norm,hard_gradsup,"
                  "e_f,grad_sup_err,state_err,param_err,psi_hat,iterations,status")

    def csv_row(self) -> str:
        bd = self.breakdown
        nums = [self.lam, self.mu, self.nu, self.noise, self.tau]
        head = [str(self.m)] + [f"{v:.17g}" for v in nums] + [str(self.width)]
        body = [bd.csv_row()]
        tail = [f"{v:.17g}" for v in (self.e_f, self.grad_sup_err,
                                      self.state_err, self.param_err,
                                      self.psi_hat)]
        return ",".join(head + body + tail + [str(self.iterations), self.status])


@dataclass
class ConvergenceReport:
    rows: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(ScaleRow.CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(row.csv_row() + "\n")


def _write_trace(path, m: int, trace) -> None:
    with open(path, "w") as fh:
        fh.write("m,iter," + type(trace[0]).csv_header() + "\n")
        for it, bd in enumerate(trace):
            fh.write(f"{m},{it}," + bd.csv_row() + "\n")


def _initial_tau(cfg: ExperimentConfig, box: UBox) -> float:
    """tau0 = factor * hard gradient-sup of the scale-1 initial network."""
    sizes = network_sizes(cfg, box.dim, 1)
    net = mlp.init_params(sizes, mlp.Activation(cfg["network"]["activation"]),
                          cfg["network"]["init_seed"])
    g = mlp.grad_input_batch(net, box.samples)
    est = float(np.max(np.abs(g)))
    return max(cfg["weights"]["tau0_factor"] * est, 1e-6)


def initial_phi_estimate(grid: Grid, kind: str, u_init: np.ndarray) -> np.ndarray:
    """Closed-form ridge start for the parameter fields.

    For a convection term the residual is linear in the velocity nodewise:
    projecting du/dt onto du/dx column by column gives a cheap, stable first
    guess (the reaction part of the residual biases it, but the optimizer
    only needs a starting point on the right side of zero)."""
    L, N = u_init.shape[0], u_init.shape[1]
    phi = np.zeros((L, N, n_param_slots(kind), grid.nx))
    if kind != "convection":
        return phi
    dtm = grid.time_derivative_matrix()
    d1 = grid.space_derivative_matrix(1)
    wt = grid.time_weights()
    for l in range(L):
        for n in range(N):
            dtu = dtm @ u_init[l, n]
            ux = u_init[l, n] @ d1.T
            num = np.sum(wt[:, None] * dtu * ux, axis=0)
            den = np.sum(wt[:, None] * ux * ux, axis=0)
            ridge = 0.1 * float(np.max(den)) + 1e-12
            phi[l, n, 0] = num / (den + ridge)
    return phi


def _lsq_closure(net, Z, y):
    """Closure over flat parameters shaped like net: the mean squared error
    of the network at the inputs Z against y, its gradient, and the error
    again as aux."""

    def fg(flat):
        params = mlp.unflatten_params(flat, net)
        tape = mlp.Tape(params, Z)
        diff = tape.values - y
        loss = float(np.mean(diff**2))
        bw, bb, _ = tape.param_vjp(val_seeds=2.0 * diff / diff.size)
        return loss, mlp.flatten_layers(bw, bb), loss

    return fg


def prefit_net_to_residual(net, grid: Grid, kappa: int, kind: str,
                           u_init: np.ndarray, phi_init, n: int,
                           iters: int = 800) -> "mlp.MlpParams":
    """Warm start for a network: least-squares fit to the apparent residual
    du/dt - physics of the initialized state, evaluated on its own jets.
    Gives the optimizer a starting function of the right scale instead of
    asking it to climb out of the zero-function well."""
    interior = slice(None) if kind == "none" else slice(1, -1)
    blocks = []
    targets = []
    for l in range(u_init.shape[0]):
        feats = jet_features(grid, kappa, u_init[l])
        blocks.append(feats.reshape(grid.nt, grid.nx, -1)[:, interior]
                      .reshape(-1, feats.shape[1]))
        resid = residual(grid, kind, u_init[l, n], phi_init.values[l, n])
        targets.append(resid[:, interior].reshape(-1))
    Z = np.concatenate(blocks, axis=0)
    y = np.concatenate(targets)
    stride = max(1, Z.shape[0] // 1500)
    Z, y = Z[::stride], y[::stride]
    fg = _lsq_closure(net, Z, y)
    res = mlp.flatten_params(net)
    for rate, frac in ((1e-2, 0.6), (3e-3, 0.4)):
        res = minimize(res, fg, OptimConfig(max_iters=max(1, int(iters * frac)),
                                            grad_tol=0.0, rate=rate))
    return mlp.unflatten_params(res.x, net)


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
    return res


def run_convergence_study(cfg: ExperimentConfig, echo=print) -> ConvergenceReport:
    grid = build_grid(cfg)
    spec = build_gt_spec(cfg)
    wcfg = cfg["weights"]
    ocfg = cfg["optimizer"]
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)

    N = spec.N
    phi_true = spec.phi_values(grid)

    # reference trajectory (simulated once through the first dataset build)
    op1 = MeasurementOp(cfg["measurement"]["family"], 1, grid)
    ds1, u_true = make_dataset(spec, grid, op1, 0.0, cfg["measurement"]["data_seed"])
    box = derive_ubox(ds1, grid, spec.kappa, N, wcfg["box_margin"],
                      points_per_axis=wcfg["box_points_per_axis"],
                      sample_budget=wcfg["box_sample_budget"])
    # all (t, jets) points of the reference trajectory, stacked over l
    z_visited = np.concatenate([jet_features(grid, spec.kappa, u_l)
                                for u_l in u_true])
    tau0 = _initial_tau(cfg, box)

    report = ConvergenceReport()
    stops = []   # how each start of each scale ended
    prev_vars = None
    activation = mlp.Activation(cfg["network"]["activation"])
    for m in range(1, cfg["schedule"]["m_max"] + 1):
        lam, mu, nu, noise = schedule_values(cfg, m)
        tau_m = max(tau0 / m, 1e-9)
        op = MeasurementOp(cfg["measurement"]["family"], m, grid)
        seed_m = cfg["measurement"]["data_seed"] + 1009 * m
        dataset, _ = make_dataset(spec, grid, op, noise, seed_m)
        save_dataset(dataset, out_dir)
        weights = Weights(lam=lam, mu=mu, nu=nu, q=wcfg["q"], r=wcfg["r"],
                          rho=wcfg["rho"], param_norm_p=wcfg["param_norm_p"],
                          tau=tau_m)
        problem = Problem(grid, dataset, op, spec.kind, spec.kappa, weights, box)
        sizes = network_sizes(cfg, box.dim, m)
        opt_config = OptimConfig(max_iters=ocfg["max_iters"],
                                 grad_tol=ocfg["grad_tol"], rate=ocfg["rate"])

        candidates = []
        if prev_vars is None:
            u_init = init_state_from_data(dataset, op)
            phi_init = PhysicalParams(
                spec.kind, grid,
                initial_phi_estimate(grid, spec.kind, u_init))
            for j in range(ocfg["restarts"]):
                nets = [prefit_net_to_residual(
                    mlp.init_params(sizes, activation,
                                    cfg["network"]["init_seed"] + 101 * j + n),
                    grid, spec.kappa, spec.kind, u_init, phi_init, n)
                    for n in range(N)]
                candidates.append(Vars(u_init.copy(), phi_init.copy(), nets))
        else:
            nets = [mlp.grow_params(prev_vars.nets[n], sizes,
                                    cfg["network"]["init_seed"] + 977 * m + n)
                    for n in range(N)]
            candidates.append(Vars(prev_vars.u.copy(), prev_vars.phi.copy(), nets))

        best = None
        status = "ok"
        iterations = 0
        trace = None
        for j, vars0 in enumerate(candidates):
            layout = VarLayout(vars0)
            fg = make_closure(problem, layout)
            try:
                res = _staged_minimize(layout.pack(vars0), fg, opt_config)
            except (DivergedError, BoxViolationError) as exc:
                status = f"diverged({exc})"
                stops.append([m, j, f"diverged: {exc}", "", ""])
                continue
            stops.append([m, j, res.stop_reason, res.iterations,
                          f"{res.value:.17g}"])
            if best is None or res.value < best[0]:
                best = (res.value, layout.unpack(res.x), res.aux, res.trace,
                        res.iterations)
        if best is None:
            # every start diverged: mark the row, keep the previous solution
            echo(f"[m={m}] optimization failed: {status}")
            row = ScaleRow(m, lam, mu, nu, noise, tau_m, sizes[1],
                           ObjectiveBreakdown(),
                           float("nan"), float("nan"), float("nan"),
                           float("nan"), float("nan"), 0, status)
            report.rows.append(row)
            continue
        _, vars_best, bd, trace, iterations = best
        prev_vars = vars_best
        _write_trace(os.path.join(out_dir, f"trace_m{m}.csv"), m, trace)

        psi_hat = mlp.param_norm(vars_best.nets, wcfg["param_norm_p"])[0]
        e_f = f_sup_error(vars_best.nets, z_visited, spec.f_name)
        gse = grad_sup_error(vars_best.nets, z_visited, spec.f_name)
        serr = state_error(grid, vars_best.u, u_true)
        perr = param_error(grid, vars_best.phi.values, phi_true.values)
        row = ScaleRow(m, lam, mu, nu, noise, tau_m, sizes[1], bd, e_f, gse,
                       serr, perr, psi_hat, iterations, "ok")
        report.rows.append(row)
        echo(f"[m={m}] total={bd.total:.6g} e_f={e_f:.4g} "
             f"state_err={serr:.4g} param_err={perr:.4g} iters={iterations}")

    report.write_csv(os.path.join(out_dir, "report.csv"))
    with open(os.path.join(out_dir, "stops.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "start", "outcome", "iterations", "value"])
        writer.writerows(stops)
    _write_schedule_check(cfg, report, os.path.join(out_dir, "schedule_check.csv"))
    _write_error_chart(report, os.path.join(out_dir, "f_error.svg"))
    _write_final_vars(grid, prev_vars, out_dir)
    return report


def _write_schedule_check(cfg, report: ConvergenceReport, path) -> None:
    """Post-hoc schedule diagnostics: nu_m * psi_hat(m) should vanish and,
    given a probe slope estimate, lambda_m * m^(-beta_hat*q) should too."""
    beta_hat = cfg["schedule"]["beta_hat"]
    q = cfg["weights"]["q"]
    lines = ["m,lambda_m,nu_m,psi_hat,nu_psi,lambda_m_rate,flag"]
    prev_nu_psi = None
    prev_rate = None
    for row in report.rows:
        nu_psi = row.nu * row.psi_hat
        rate = row.lam * row.m ** (-beta_hat * q) if beta_hat > 0 else float("nan")
        flags = []
        if prev_nu_psi is not None and np.isfinite(nu_psi) and nu_psi > prev_nu_psi:
            flags.append("nu_psi_increased")
        if beta_hat > 0 and prev_rate is not None and rate > prev_rate:
            flags.append("lambda_rate_increased")
        prev_nu_psi = nu_psi if np.isfinite(nu_psi) else prev_nu_psi
        prev_rate = rate
        lines.append(
            f"{row.m},{row.lam:.17g},{row.nu:.17g},{row.psi_hat:.17g},"
            f"{nu_psi:.17g},{rate:.17g}," + ";".join(flags))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_error_chart(report: ConvergenceReport, path) -> None:
    rows = [r for r in report.rows if np.isfinite(r.e_f)]
    if not rows:
        return
    ms = [r.m for r in rows]
    line_chart(path,
               [("f sup error", ms, [max(r.e_f, 1e-16) for r in rows]),
                ("state error", ms, [max(r.state_err, 1e-16) for r in rows]),
                ("parameter error", ms, [max(r.param_err, 1e-16) for r in rows])],
               title="errors vs measurement scale",
               xlabel="scale m", ylabel="error", logy=True)


def _write_final_vars(grid: Grid, vars_, out_dir) -> None:
    if vars_ is None:
        return
    L, N = vars_.u.shape[0], vars_.u.shape[1]
    for l in range(L):
        for n in range(N):
            suffix = f"_n{n + 1}" if N > 1 else ""
            write_field_csv(Field(grid, vars_.u[l, n]),
                            os.path.join(out_dir, f"u_final_l{l + 1}{suffix}.csv"))
    slots = vars_.phi.values.shape[2]
    for l in range(L):
        for n in range(N):
            for s in range(slots):
                path = os.path.join(out_dir, f"phi_final_l{l + 1}_s{s + 1}.csv")
                with open(path, "w") as fh:
                    fh.write("x,value\n")
                    for xv, pv in zip(grid.x, vars_.phi.values[l, n, s]):
                        fh.write(f"{xv:.17g},{pv:.17g}\n")
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
                     iters: int, seed: int, fit_points: int = 129,
                     eval_points: int = 257, activation_kind: str = "tanh",
                     init_net=None):
    """Least-squares fit of a named scalar function on [lo, hi]; returns
    (net, sup error, fitted gradient sup, param 2-norm) on a finer lattice.

    An optional init_net (e.g. a narrower fit, widened) seeds the training,
    which makes the error of nested widths decrease by construction."""
    fvec = f_true(f_name)
    z_fit = np.linspace(lo, hi, fit_points)[:, None]
    target = fvec(z_fit[:, 0])
    sizes = [1] + [width] * (depth - 1) + [1]
    if init_net is not None:
        net = mlp.grow_params(init_net, sizes, seed)
    else:
        net = mlp.init_params(sizes, mlp.Activation(activation_kind), seed)
    fg = _lsq_closure(net, z_fit, target)
    res = mlp.flatten_params(net)
    for rate, frac in ((1e-2, 0.35), (3e-3, 0.25), (1e-3, 0.2)):
        cfg = OptimConfig(max_iters=max(1, int(iters * frac)), grad_tol=0.0,
                          rate=rate)
        res = minimize(res, fg, cfg)
    # Armijo polish: the adaptive method plateaus at its step scale
    cfg = OptimConfig(max_iters=max(1, int(iters * 0.2)), grad_tol=1e-13,
                      rate=1.0, method="gd_linesearch")
    fitted = mlp.unflatten_params(minimize(res, fg, cfg).x, net)
    # the readout layer is linear in its parameters: solve it exactly
    tape = mlp.Tape(fitted, z_fit)
    hidden = tape.A[-1]
    design = np.concatenate([hidden, np.ones((hidden.shape[0], 1))], axis=1)
    gram = design.T @ design + 1e-12 * np.eye(design.shape[1])
    coef = np.linalg.solve(gram, design.T @ target)
    fitted.weights[-1] = coef[:-1][None, :]
    fitted.biases[-1] = coef[-1:]
    z_eval = np.linspace(lo, hi, eval_points)[:, None]
    sup_err = float(np.max(np.abs(mlp.forward_batch(fitted, z_eval)
                                  - fvec(z_eval[:, 0]))))
    grad_fit = float(np.max(np.abs(mlp.grad_input_batch(fitted, z_eval))))
    return fitted, sup_err, grad_fit, mlp.param_norm([fitted], 2.0)[0]


def approximation_probe(cfg: ExperimentConfig, echo=print):
    """Fit networks of increasing width to a library function and record how
    the uniform error, the gradient sup-norm, and the parameter norm scale."""
    p = cfg["probe"]
    out_dir = cfg["output"]["dir"]
    os.makedirs(out_dir, exist_ok=True)
    lo, hi = p["interval_lo"], p["interval_hi"]
    u_dense = np.linspace(lo, hi, 2049)
    grad_true = float(np.max(np.abs(f_true_deriv(p["f_name"])(u_dense))))
    rows = []
    prev_net = None
    for width in p["widths"]:
        try:
            prev_net, sup_err, grad_fit, pnorm = fit_function_lsq(
                p["f_name"], lo, hi, width, p["probe_depth"], p["train_iters"],
                p["probe_seed"], p["fit_points"], p["eval_points"],
                cfg["network"]["activation"], init_net=prev_net)
            rows.append(ProbeRow(width, sup_err, grad_fit, grad_true,
                                 abs(grad_fit - grad_true), pnorm))
            echo(f"[width={width}] sup_err={sup_err:.4g} "
                 f"grad_sup={grad_fit:.4g} (true {grad_true:.4g})")
        except DivergedError as exc:
            prev_net = None
            rows.append(ProbeRow(width, float("nan"), float("nan"), grad_true,
                                 float("nan"), float("nan"), f"diverged({exc})"))
    good = [r for r in rows if np.isfinite(r.sup_error) and r.sup_error > 0]
    if len(good) >= 2:
        xs = np.log([r.width for r in good])
        ys = np.log([r.sup_error for r in good])
        slope = np.polyfit(xs, ys, 1)[0]
        beta_hat = -float(slope)
    else:
        beta_hat = float("nan")
    with open(os.path.join(out_dir, "probe.csv"), "w") as fh:
        fh.write("width,sup_error,grad_sup_fit,grad_sup_true,grad_sup_err,"
                 "param_norm,status\n")
        for r in rows:
            fh.write(f"{r.width},{r.sup_error:.17g},{r.grad_sup_fit:.17g},"
                     f"{r.grad_sup_true:.17g},{r.grad_sup_err:.17g},"
                     f"{r.param_norm:.17g},{r.status}\n")
    with open(os.path.join(out_dir, "probe_summary.csv"), "w") as fh:
        fh.write("beta_hat\n")
        fh.write(f"{beta_hat:.17g}\n")
    echo(f"fitted approximation-rate slope beta_hat = {beta_hat:.4g}")
    return rows, beta_hat


def gradcheck_from_config(cfg: ExperimentConfig, echo=print) -> float:
    """Finite-difference audit of the assembled objective gradient at the
    scale-1 starting point of the configured experiment."""
    grid = build_grid(cfg)
    spec = build_gt_spec(cfg)
    wcfg = cfg["weights"]
    op = MeasurementOp(cfg["measurement"]["family"], 1, grid)
    lam, mu, nu, noise = schedule_values(cfg, 1)
    dataset, _ = make_dataset(spec, grid, op, noise,
                              cfg["measurement"]["data_seed"])
    box = derive_ubox(dataset, grid, spec.kappa, spec.N, wcfg["box_margin"],
                      points_per_axis=wcfg["box_points_per_axis"],
                      sample_budget=wcfg["box_sample_budget"])
    weights = Weights(lam=lam, mu=mu, nu=nu, q=wcfg["q"], r=wcfg["r"],
                      rho=wcfg["rho"], param_norm_p=wcfg["param_norm_p"],
                      tau=max(_initial_tau(cfg, box), 1e-4))
    problem = Problem(grid, dataset, op, spec.kind, spec.kappa, weights, box)
    nets = [mlp.init_params(network_sizes(cfg, box.dim, 1),
                            mlp.Activation(cfg["network"]["activation"]),
                            cfg["network"]["init_seed"] + n)
            for n in range(spec.N)]
    vars0 = Vars(init_state_from_data(dataset, op),
                 PhysicalParams(spec.kind, grid,
                                np.zeros((spec.L, spec.N,
                                          n_param_slots(spec.kind), grid.nx))),
                 nets)
    layout = VarLayout(vars0)
    fg = make_closure(problem, layout)
    err = finite_diff_gradcheck(layout.pack(vars0), fg,
                                samples=cfg["optimizer"]["gradcheck_samples"],
                                step=cfg["optimizer"]["gradcheck_step"])
    echo(f"max relative gradient error over sampled coordinates: {err:.3g}")
    return err
