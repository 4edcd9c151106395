"""Forward simulation of manufactured systems and the tiny-instance oracle.

simulate integrates  du/dt = physics(u, phi) + f_true(u)  by method of
lines: the package's spatial stencils in space, classical fourth-order
Runge-Kutta in time, with internal sub-stepping when an explicit stability
bound demands it.  Boundary nodes are held at the initial profile's values
whenever the physical term couples neighbours (for a pure reaction term
every node evolves independently, so no boundary condition applies).
make_dataset measures a given trajectory, so a study simulates once and
measures the same trajectory at every scale; it takes no jets, since the
box is derived from the reference trajectory's jets (objective.derive_ubox).

limit_oracle solves the reduced constrained problem on a tiny grid with
full noiseless measurements: the state is pinned to the data, the unknown
function is represented nonparametrically by its values on the visited jet
points, and its gradient sup-norm is surrogated by pairwise divided
differences.  The values are physics.residual without f on the nodes the
PDE governs.  For a pure reaction system the residual identity determines
them outright; with a convection term the parameter fields remain free and
are found by minimizing the strictly convex reduced objective, whose
parameter gradient is physics.physics_vjp's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, OracleInfeasibleError
from .grid import Grid, jet_features
from .measurement import Dataset, MeasurementOp, add_noise
from .objective import r0_value, smooth_max
from .physics import (apply_physics_array, n_param_slots, physics_vjp,
                      residual, residual_columns)

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
    """The manufactured system: one experiment per initial profile, each
    parameter slot with one profile per experiment."""

    kind: str
    f_name: str
    kappa: int = 0
    phi_profiles: list = field(default_factory=list)   # per slot: per l
    u0_profiles: list = field(default_factory=list)    # per l

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("u0_profiles must name at least one experiment")
        slots = n_param_slots(self.kind)
        counts = [len(profiles) for profiles in self.phi_profiles]
        counts += [0] * (slots - len(counts))  # a slot given no list
        for s, count in enumerate(counts):
            need = self.L if s < slots else 0
            if count != need:
                raise ValueError(f"phi{s + 1}_profiles has {count} entries, "
                                 f"kind {self.kind!r} with {self.L} "
                                 f"u0_profiles needs {need}")
        f_true(self.f_name)

    @property
    def L(self) -> int:
        """The number of experiments: one per initial profile."""
        return len(self.u0_profiles)

    def phi_values(self, grid: Grid) -> np.ndarray:
        slots = n_param_slots(self.kind)
        vals = np.zeros((self.L, 1, slots, grid.nx))
        for s in range(slots):
            for l in range(self.L):
                vals[l, :, s, :] = profile_array(self.phi_profiles[s][l], grid)
        return vals


def _stable_substeps(spec: GroundTruthSpec, grid: Grid,
                     phi: np.ndarray, u0_sup: float) -> int:
    """How many RK4 sub-steps one output step needs (safety factor 0.5)."""
    safety = 0.5
    dt_max = math.inf
    if spec.kind == "convection":
        speed = float(np.max(np.abs(phi))) if phi.size else 0.0
        if speed > 0:
            dt_max = safety * grid.dx / speed
    elif spec.kind == "diffusion_reaction":
        a_sup = float(np.max(np.abs(phi[:, :, 0, :])))
        if a_sup > 0:
            dt_max = safety * grid.dx**2 / (2.0 * a_sup)
    elif spec.kind == "burgers1d":
        if u0_sup > 0:
            dt_max = safety * grid.dx / (1.5 * u0_sup)
    if not math.isfinite(dt_max):
        return 1
    return max(1, math.ceil(grid.dt / dt_max))


def simulate(spec: GroundTruthSpec, grid: Grid) -> np.ndarray:
    """Method-of-lines trajectory of one equation, shape (L, 1, nt, nx).
    A trajectory that blows up makes the config unusable: ConfigError."""
    fvec = f_true(spec.f_name)
    phi = spec.phi_values(grid)
    out = np.zeros((spec.L, 1, grid.nt, grid.nx))
    held = np.ones(grid.nx, dtype=bool)   # boundary nodes of a coupling term
    held[residual_columns(spec.kind)] = False
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
                grid, spec.kind, state[None, :], phi[l, 0])[0] + fvec(state)
            dudt[held] = 0.0
            return dudt

        for it in range(1, grid.nt):
            for _ in range(n_sub):
                k1 = rhs(u)
                k2 = rhs(u + 0.5 * h * k1)
                k3 = rhs(u + 0.5 * h * k2)
                k4 = rhs(u + h * k3)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > blow_up:
                raise ConfigError(
                    f"forward simulation diverged in experiment {l + 1} "
                    f"at time level {it}")
            out[l, 0, it] = u
    return out


def make_dataset(u_true: np.ndarray, op: MeasurementOp,
                 noise_level: float, seed: int) -> Dataset:
    """Measure with op and perturb the (L, N, nt, nx) trajectory u_true on
    op's grid, whose initial and boundary values the dataset carries
    exactly.

    Noise is added after measuring; for a subsampling operator the noisy
    field is masked again so that dropped nodes carry no data at all.
    """
    y = np.zeros_like(u_true)
    for l in range(u_true.shape[0]):
        for n in range(u_true.shape[1]):
            vals = add_noise(op.apply_array(u_true[l, n]), noise_level, seed + l)
            if op.kind == "subsample":
                vals = op.apply_array(vals)
            y[l, n] = vals
    return Dataset(op=op, y=y, u0=u_true[:, :, 0].copy(),
                   g_lo=u_true[..., 0].copy(), g_hi=u_true[..., -1].copy(),
                   noise_level=noise_level, seed=seed)


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


# the oracle's largest grid in space-time nodes, and the temperature of its
# smooth divided-difference sup
ORACLE_MAX_NODES = 81
ORACLE_DD_TAU = 1e-3


def limit_oracle(dataset: Dataset, kind: str, kappa: int = 0, rho: float = 2.0,
                 tie_seed: int = 0) -> OracleResult:
    """Reduced-problem minimizer with the state pinned to the measured data.

    Requires a tiny grid (<= ORACLE_MAX_NODES space-time nodes), full
    noiseless measurements, and kind `none` or `convection`.  The state
    part of the value is the objective's r0_value of the pinned state.
    """
    grid = dataset.grid
    if grid.nt * grid.nx > ORACLE_MAX_NODES:
        raise ValueError(f"oracle grids are capped at {ORACLE_MAX_NODES} nodes")
    if kind not in ("none", "convection"):
        raise ValueError("oracle supports kinds 'none' and 'convection'")
    if dataset.op.kind != "full" or dataset.noise_level != 0.0:
        raise ValueError("oracle needs full noiseless measurements")
    L, N = dataset.n_experiments, dataset.n_states
    if N != 1:
        raise NotImplementedError("oracle supports N=1")

    u = dataset.y[:, 0]                      # (L, nt, nx), pinned state
    wx = grid.space_weights()
    # the residual identity is only interpolated on the columns the PDE
    # governs
    keep = np.zeros((grid.nt, grid.nx), dtype=bool)
    keep[:, residual_columns(kind)] = True
    flat_keep = keep.reshape(-1)

    # visited jet points, stacked over experiments
    z = jet_features(grid, kappa, dataset.y)[:, flat_keep]
    z = z.reshape(-1, z.shape[-1])
    scale = max(1.0, float(np.max(np.abs(z))))
    sep_tol = 1e-9 * scale
    ii, jj, sep, ci, cj = _oracle_pairs(z, sep_tol)

    # the objective's state norm of the pinned state (no parameter part)
    r0_state = r0_value(grid, kappa, dataset.y, np.zeros((L, N, 0, grid.nx)))[0]

    def f_of(phi):
        """The values of the unknown term at the kept nodes: the residual
        without f under the (L, slots, nx) parameter fields phi."""
        return residual(grid, kind, u, phi).reshape(L, -1)[:, flat_keep] \
            .reshape(-1)

    # tiny Huber width so |v_i - v_j| is differentiable at ties
    mu_abs = 1e-9 * scale

    def f_parts(v):
        """Power norm, smooth and hard divided-difference sups of the
        values v, and the gradient of power norm plus smooth sup in v."""
        lrho = float(np.mean(np.abs(v) ** rho))
        g_v = rho * np.abs(v) ** (rho - 1.0) * np.sign(v) / v.size
        if not ii.size:
            return lrho, 0.0, 0.0, g_v
        diff = v[ii] - v[jj]
        smooth_abs = np.sqrt(diff * diff + mu_abs * mu_abs)
        dd_soft, omega = smooth_max(smooth_abs / sep, ORACLE_DD_TAU)
        slope = diff / smooth_abs
        np.add.at(g_v, ii, omega * slope / sep)
        np.add.at(g_v, jj, -omega * slope / sep)
        return lrho, dd_soft, float(np.max(np.abs(diff) / sep)), g_v

    # A pure reaction term leaves no free parameter: the values are the
    # residual itself.  With convection, minimize over the per-experiment
    # velocity fields.  When two nodes share one jet point, single-valuedness
    # of the interpolated function is an equality constraint; it enters as a
    # stiff quadratic penalty, and the strictly convex smooth problem goes to
    # L-BFGS.
    phi = np.zeros((L, 0, grid.nx))
    tol = 1e-6
    if kind == "convection":
        from scipy.optimize import minimize as scipy_minimize

        coin_penalty = 1e6

        def value_and_grad(xflat):
            phi = xflat.reshape(L, 1, grid.nx)
            v = f_of(phi)
            lrho, dd_soft, _, g_v = f_parts(v)
            value = r0_state + float(np.sum(wx * phi**2)) + lrho + dd_soft
            if ci.size:
                cdiff = v[ci] - v[cj]
                value += coin_penalty * float(np.sum(cdiff**2))
                np.add.at(g_v, ci, 2.0 * coin_penalty * cdiff)
                np.add.at(g_v, cj, -2.0 * coin_penalty * cdiff)
            # the values are the residual, du/dt - physics: seed its adjoint
            seeds = np.zeros((L, grid.nt * grid.nx))
            seeds[:, flat_keep] = g_v.reshape(L, -1)
            g_phi = 2.0 * wx * phi - physics_vjp(
                grid, kind, u, phi, seeds.reshape(u.shape))[1]
            return value, g_phi.reshape(-1)

        rng = np.random.default_rng(tie_seed)
        res = scipy_minimize(value_and_grad, 0.1 * rng.standard_normal(L * grid.nx),
                             jac=True, method="L-BFGS-B",
                             options={"maxiter": 50000, "gtol": 1e-12,
                                      "ftol": 0.0, "maxcor": 30})
        phi = res.x.reshape(L, 1, grid.nx)
        tol = 1e-4
    v = f_of(phi)
    if ci.size:
        worst = float(np.max(np.abs(v[ci] - v[cj])))
        if worst > tol * max(1.0, float(np.max(np.abs(v)))):
            raise OracleInfeasibleError(
                "coincident jet points carry different residuals "
                f"(mismatch {worst:.3g}); no single function interpolates them"
            )
    lrho, dd_soft, dd_hard, _ = f_parts(v)
    return OracleResult(jet_points=z, f_values=v,
                        phi=phi.reshape(L, N, 1, grid.nx) if phi.size else None,
                        value=r0_state + float(np.sum(wx * phi**2)) + lrho + dd_soft,
                        divided_diff_sup=dd_hard)
