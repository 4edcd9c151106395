"""Forward simulation of manufactured systems and the tiny-instance oracle.

simulate integrates  du/dt = physics(u, phi) + f_true(u)  by method of
lines: the package's spatial stencils in space, classical fourth-order
Runge-Kutta in time, with internal sub-stepping when an explicit stability
bound demands it.  Boundary nodes are held at the initial profile's values
whenever the physical term couples neighbours (for a pure reaction term
every node evolves independently, so no boundary condition applies).

limit_oracle solves the reduced constrained problem on a tiny grid with
full noiseless measurements: the state is pinned to the data, the unknown
function is represented nonparametrically by its values on the visited jet
points, and its gradient sup-norm is surrogated by pairwise divided
differences.  For a pure reaction system the residual identity determines
those values outright; with a convection term the parameter fields remain
free and are found by minimizing the strictly convex reduced objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergedError, OracleInfeasibleError
from .grid import Field, Grid, jet_features
from .measurement import Dataset, MeasurementOp, add_noise, boundary_trace
from .objective import r0_value, smooth_max, smooth_max_weights
from .physics import (PhysicalParams, apply_physics_array, n_param_slots,
                      zero_params)

F_TRUE_LIBRARY = {
    "zero": (lambda u: np.zeros_like(u), lambda u: np.zeros_like(u)),
    "cubic": (lambda u: u - u**3, lambda u: 1.0 - 3.0 * u**2),
    "sine": (np.sin, np.cos),
    "logistic": (lambda u: u * (1.0 - u), lambda u: 1.0 - 2.0 * u),
    "identity": (lambda u: u, lambda u: np.ones_like(u)),
    "decay": (lambda u: -u, lambda u: -np.ones_like(u)),
}


def f_true(name: str):
    if name not in F_TRUE_LIBRARY:
        raise ValueError(f"unknown ground-truth nonlinearity {name!r}")
    return F_TRUE_LIBRARY[name][0]


def f_true_deriv(name: str):
    return F_TRUE_LIBRARY[name][1]


def profile_array(spec: str, grid: Grid) -> np.ndarray:
    """Named spatial profiles `name:param` on [x_lo, x_hi].

    constant:a    -> a
    linear:a      -> a * (x-x_lo)/(x_hi-x_lo)
    sine:a        -> a * sin(pi * xhat)
    sinusoidal:a  -> a * sin(2 pi * xhat)
    bump:a        -> a * exp(-((xhat-0.5)/0.15)^2)
    """
    name, _, param = spec.partition(":")
    a = float(param) if param else 1.0
    xhat = (grid.x - grid.x_lo) / (grid.x_hi - grid.x_lo)
    if name == "constant":
        return np.full(grid.nx, a)
    if name == "linear":
        return a * xhat
    if name == "sine":
        return a * np.sin(np.pi * xhat)
    if name == "sinusoidal":
        return a * np.sin(2.0 * np.pi * xhat)
    if name == "bump":
        return a * np.exp(-(((xhat - 0.5) / 0.15) ** 2))
    raise ValueError(f"unknown profile {name!r}")


@dataclass
class GroundTruthSpec:
    kind: str
    f_name: str
    L: int
    kappa: int = 0
    N: int = 1
    phi_profiles: list = field(default_factory=list)   # per l: list per slot
    u0_profiles: list = field(default_factory=list)    # per l

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("need at least one experiment")
        slots = n_param_slots(self.kind)
        if slots and len(self.phi_profiles) != self.L:
            raise ValueError("one phi profile list per experiment required")
        for per_l in self.phi_profiles:
            if len(per_l) != slots:
                raise ValueError(f"kind {self.kind!r} needs {slots} profile(s) per l")
        if len(self.u0_profiles) != self.L:
            raise ValueError("one u0 profile per experiment required")
        if self.f_name not in F_TRUE_LIBRARY:
            raise ValueError(f"unknown nonlinearity {self.f_name!r}")

    def phi_values(self, grid: Grid) -> PhysicalParams:
        slots = n_param_slots(self.kind)
        vals = np.zeros((self.L, self.N, slots, grid.nx))
        for l in range(self.L):
            for s in range(slots):
                vals[l, :, s, :] = profile_array(self.phi_profiles[l][s], grid)
        return PhysicalParams(self.kind, grid, vals)


def _stable_substeps(spec: GroundTruthSpec, grid: Grid,
                     phi: PhysicalParams, u0_sup: float) -> int:
    """How many RK4 sub-steps one output step needs (safety factor 0.5)."""
    safety = 0.5
    dt_max = math.inf
    if spec.kind == "convection":
        speed = float(np.max(np.abs(phi.values))) if phi.values.size else 0.0
        if speed > 0:
            dt_max = safety * grid.dx / speed
    elif spec.kind == "diffusion_reaction":
        a_sup = float(np.max(np.abs(phi.values[:, :, 0, :])))
        if a_sup > 0:
            dt_max = safety * grid.dx**2 / (2.0 * a_sup)
    elif spec.kind == "burgers1d":
        if u0_sup > 0:
            dt_max = safety * grid.dx / (1.5 * u0_sup)
    if not math.isfinite(dt_max):
        return 1
    return max(1, math.ceil(grid.dt / dt_max))


def simulate(spec: GroundTruthSpec, grid: Grid) -> np.ndarray:
    """Method-of-lines trajectory of shape (L, N, nt, nx)."""
    if spec.N != 1:
        raise NotImplementedError("forward simulation supports N=1")
    fvec = f_true(spec.f_name)
    phi = spec.phi_values(grid)
    out = np.zeros((spec.L, spec.N, grid.nt, grid.nx))
    clamp = spec.kind != "none"
    for l in range(spec.L):
        u0 = profile_array(spec.u0_profiles[l], grid)
        u0_sup = float(np.max(np.abs(u0)))
        n_sub = _stable_substeps(spec, grid, phi, u0_sup)
        h = grid.dt / n_sub
        blow_up = 1e6 * (1.0 + u0_sup)
        u = u0.copy()
        out[l, 0, 0] = u

        def rhs(state):
            dudt = apply_physics_array(
                grid, spec.kind, state[None, :], phi.values[l, 0])[0] + fvec(state)
            if clamp:
                dudt[0] = 0.0
                dudt[-1] = 0.0
            return dudt

        for it in range(1, grid.nt):
            for _ in range(n_sub):
                k1 = rhs(u)
                k2 = rhs(u + 0.5 * h * k1)
                k3 = rhs(u + 0.5 * h * k2)
                k4 = rhs(u + h * k3)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > blow_up:
                raise DivergedError(
                    f"forward simulation diverged in experiment {l + 1} "
                    f"at time level {it}", it)
            out[l, 0, it] = u
    return out


def trajectory_jet_sup(grid: Grid, kappa: int, u: np.ndarray) -> float:
    """Largest |jet component| over all experiments, states, and nodes: the
    jet features without their time column."""
    return max(float(np.max(np.abs(jet_features(grid, kappa, u_l)[:, 1:])))
               for u_l in u)


def make_dataset(spec: GroundTruthSpec, grid: Grid, op: MeasurementOp,
                 noise_level: float, seed: int):
    """Simulate, measure, and perturb; returns (Dataset, true trajectory).

    Noise is added after measuring; for a subsampling operator the noisy
    field is masked again so that dropped nodes carry no data at all.
    """
    u_true = simulate(spec, grid)
    L, N = u_true.shape[0], u_true.shape[1]
    y = np.zeros_like(u_true)
    u0 = np.zeros((L, N, grid.nx))
    g_lo = np.zeros((L, N, grid.nt))
    g_hi = np.zeros((L, N, grid.nt))
    for l in range(L):
        for n in range(N):
            measured = Field(grid, op.apply_array(u_true[l, n]))
            noisy = add_noise(measured, noise_level, seed + l)
            vals = noisy.values
            if op.kind == "subsample":
                vals = op.apply_array(vals)
            y[l, n] = vals
            u0[l, n] = u_true[l, n, 0]
            g_lo[l, n], g_hi[l, n] = boundary_trace(Field(grid, u_true[l, n]))
    ds = Dataset(grid=grid, y=y, u0=u0, g_lo=g_lo, g_hi=g_hi,
                 noise_level=noise_level, seed=seed, op_kind=op.kind, m=op.m,
                 ref_jet_sup=trajectory_jet_sup(grid, spec.kappa, u_true))
    return ds, u_true


# --- reduced-problem oracle -----------------------------------------------------


@dataclass
class OracleResult:
    jet_points: np.ndarray       # (M, D) visited (t, jet) points
    f_values: np.ndarray         # (M,) nonparametric values of the unknown term
    phi: np.ndarray | None       # (L, N, slots, nx) or None when the kind has none
    value: float                 # reduced objective value
    divided_diff_sup: float      # hard sup of pairwise divided differences


def _oracle_pairs(z: np.ndarray, sep_tol: float):
    """Index pairs with well-separated jet points, plus coincident pairs."""
    m = z.shape[0]
    ii, jj = np.triu_indices(m, k=1)
    sep = np.max(np.abs(z[ii] - z[jj]), axis=1)
    good = sep > sep_tol
    return ii[good], jj[good], sep[good], ii[~good], jj[~good]


def limit_oracle(dataset: Dataset, kind: str, kappa: int = 0, rho: float = 2.0,
                 tie_seed: int = 0, max_nodes: int = 81,
                 dd_tau: float = 1e-3) -> OracleResult:
    """Reduced-problem minimizer with the state pinned to the measured data.

    Requires a tiny grid (<= max_nodes space-time nodes), full noiseless
    measurements, and kind `none` or `convection`.  The state part of the
    value is the objective's r0_value of the pinned state.
    """
    grid = dataset.grid
    if grid.nt * grid.nx > max_nodes:
        raise ValueError(f"oracle grids are capped at {max_nodes} nodes")
    if kind not in ("none", "convection"):
        raise ValueError("oracle supports kinds 'none' and 'convection'")
    if dataset.op_kind != "full" or dataset.noise_level != 0.0:
        raise ValueError("oracle needs full noiseless measurements")
    L, N = dataset.n_experiments, dataset.n_states
    if N != 1:
        raise NotImplementedError("oracle supports N=1")

    u = dataset.y[:, 0]                      # (L, nt, nx), pinned state
    dtm = grid.time_derivative_matrix()
    d1 = grid.space_derivative_matrix(1)
    wx = grid.space_weights()

    # With a coupling physical term the boundary columns are prescribed by
    # the boundary data, not by the PDE, so the residual identity is only
    # interpolated on interior nodes.
    keep = np.ones((grid.nt, grid.nx), dtype=bool)
    if kind != "none":
        keep[:, 0] = keep[:, -1] = False
    flat_keep = keep.reshape(-1)
    x_index = np.broadcast_to(np.arange(grid.nx), (grid.nt, grid.nx)) \
        .reshape(-1)[flat_keep]

    # visited jet points, stacked over experiments
    z = np.concatenate([jet_features(grid, kappa, y_l)[flat_keep]
                        for y_l in dataset.y])
    scale = max(1.0, float(np.max(np.abs(z))))
    sep_tol = 1e-9 * scale
    ii, jj, sep, ci, cj = _oracle_pairs(z, sep_tol)

    dt_u = np.stack([(dtm @ u[l]).reshape(-1)[flat_keep] for l in range(L)])
    ux = np.stack([(u[l] @ d1.T).reshape(-1)[flat_keep] for l in range(L)])
    # the objective's state norm of the pinned state (no parameter part)
    r0_state = r0_value(grid, kappa, dataset.y, zero_params("none", grid, L, N))

    def check_coincident(v, tol=1e-6):
        if ci.size:
            vdiff = np.abs(v[ci] - v[cj])
            worst = float(np.max(vdiff))
            if worst > tol * max(1.0, float(np.max(np.abs(v)))):
                raise OracleInfeasibleError(
                    "coincident jet points carry different residuals "
                    f"(mismatch {worst:.3g}); no single function interpolates them"
                )

    # tiny Huber width so |v_i - v_j| is differentiable at ties
    mu_abs = 1e-9 * scale

    def f_parts(v):
        lrho = float(np.mean(np.abs(v) ** rho))
        if ii.size:
            diff = v[ii] - v[jj]
            dd = np.sqrt(diff * diff + mu_abs * mu_abs) / sep
            dd_soft = smooth_max(dd, dd_tau)
            dd_hard = float(np.max(np.abs(diff) / sep))
        else:
            dd_soft = dd_hard = 0.0
        return lrho, dd_soft, dd_hard

    if kind == "none":
        v = dt_u.reshape(-1)
        check_coincident(v)
        lrho, dd_soft, dd_hard = f_parts(v)
        return OracleResult(jet_points=z, f_values=v, phi=None,
                            value=r0_state + lrho + dd_soft,
                            divided_diff_sup=dd_hard)

    # convection: minimize over the per-experiment velocity fields.  When
    # two nodes share one jet point, single-valuedness of the interpolated
    # function is an equality constraint; it enters as a stiff quadratic
    # penalty, and the strictly convex smooth problem goes to L-BFGS.
    from scipy.optimize import minimize as scipy_minimize

    n_phi = L * grid.nx
    coin_penalty = 1e6

    def unpack(xflat):
        return xflat.reshape(L, grid.nx)

    def value_and_grad(xflat):
        phi = unpack(xflat)
        v = (dt_u - phi[:, x_index] * ux).reshape(-1)
        lrho, dd_soft, _ = f_parts(v)
        value = r0_state + float(np.sum(wx * phi**2)) + lrho + dd_soft
        g_v = rho * np.abs(v) ** (rho - 1.0) * np.sign(v) / v.size
        if ii.size:
            diff = v[ii] - v[jj]
            smooth_abs = np.sqrt(diff * diff + mu_abs * mu_abs)
            dd = smooth_abs / sep
            omega = smooth_max_weights(dd, dd_tau)
            slope = diff / smooth_abs
            np.add.at(g_v, ii, omega * slope / sep)
            np.add.at(g_v, jj, -omega * slope / sep)
        if ci.size:
            cdiff = v[ci] - v[cj]
            value += coin_penalty * float(np.sum(cdiff**2))
            np.add.at(g_v, ci, 2.0 * coin_penalty * cdiff)
            np.add.at(g_v, cj, -2.0 * coin_penalty * cdiff)
        g_v_l = g_v.reshape(L, -1)
        g_phi = 2.0 * wx[None, :] * phi
        for l in range(L):
            g_phi[l] -= np.bincount(x_index, weights=g_v_l[l] * ux[l],
                                    minlength=grid.nx)
        return value, g_phi.reshape(-1)

    rng = np.random.default_rng(tie_seed)
    x0 = 0.1 * rng.standard_normal(n_phi)
    res = scipy_minimize(value_and_grad, x0, jac=True, method="L-BFGS-B",
                         options={"maxiter": 50000, "gtol": 1e-12, "ftol": 0.0,
                                  "maxcor": 30})
    phi = unpack(res.x)
    v = (dt_u - phi[:, x_index] * ux).reshape(-1)
    check_coincident(v, tol=1e-4)
    lrho, dd_soft, dd_hard = f_parts(v)
    value = r0_state + float(np.sum(wx * phi**2)) + lrho + dd_soft
    return OracleResult(jet_points=z, f_values=v,
                        phi=phi.reshape(L, N, 1, grid.nx),
                        value=value, divided_diff_sup=dd_hard)
