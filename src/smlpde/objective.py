"""The full discretized learning objective and its exact gradient.

For experiments l = 1..L with states u^l (N equations each), parameter
fields phi^l, and one network per equation, the objective is

    sum_l [ lam * ( ||residual^l||_{q,2}^q
                    + ||u^l(0) - u0^l||_{L^2}^2
                    + ||trace(u^l) - g^l||_{L^2}^2 )
            + mu * ||K u^l - y^l||_{r,2}^r ]
    + r0(phi, u)                         (quadratic Tikhonov core)
    + sum_n vol(U) * mean_U |f_n|^rho    (power norm over the box U)
    + sum_n softmax_U |grad f_n|_inf     (smooth sup of the input gradient)
    + nu * ||theta||_p                   (vanishing parameter norm)

||.||_{q,2} is the nested trapezoidal norm (L^2 in space inside L^q in
time).  The box U is a zero-centered sup-ball in jet space whose radius
covers the time horizon plus a safety margin times the largest jet value
of the reference trajectory; a lattice (low dimension) or Halton set
(higher dimension) discretizes it.  The hard maximum of the gradient norm
is reported for diagnostics while the log-sum-exp surrogate with
temperature tau enters the optimized total.

Gradients with respect to every state node, parameter node, and network
weight are assembled in closed form (reverse mode through the stencil
matrices, the measurement operator, and the networks - including the
second-order sweep needed for the gradient-sup term).

_evaluate_core is the one implementation of every term: the network inputs
come from grid.jet_features, the residual from physics.residual, and the
parameter norm with its gradient from mlp.param_norm, so the study's
diagnostics and the limit oracle evaluate the same objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .errors import BoxViolationError
from .grid import Grid, jet_dimension, jet_features
from .measurement import Dataset, MeasurementOp
from .physics import PhysicalParams, residual


@dataclass(frozen=True)
class Weights:
    """Term weights and exponents of the objective."""

    lam: float = 1.0
    mu: float = 1.0
    nu: float = 0.0
    q: float = 2.0
    r: float = 2.0
    rho: float = 2.0
    param_norm_p: float = 2.0
    tau: float = 0.05

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0 or self.nu < 0:
            raise ValueError("term weights must be nonnegative")
        if self.q < 1 or self.r < 1:
            raise ValueError("exponents q, r must be >= 1")
        if not 1.0 < self.rho < math.inf:
            raise ValueError("rho must lie in (1, inf)")
        if self.param_norm_p < 1:
            raise ValueError("param_norm_p must be >= 1 or inf")
        if self.tau <= 0:
            raise ValueError("smooth-max temperature must be positive")


@dataclass(frozen=True)
class UBox:
    """Zero-centered sup-norm ball in jet space with a fixed sample set."""

    dim: int
    radius: float
    samples: np.ndarray          # (S, dim)
    quad_weights: np.ndarray     # (S,), sums to 1; quadrature for the power norm

    @property
    def volume(self) -> float:
        return (2.0 * self.radius) ** self.dim


def build_box(dim: int, radius: float, points_per_axis: int = 33,
              sample_budget: int = 4096) -> UBox:
    """Deterministic sample set: trapezoid lattice for dim <= 2, Halton above."""
    if dim < 1 or radius <= 0:
        raise ValueError("box needs dim >= 1 and positive radius")
    if dim <= 2:
        axis = np.linspace(-radius, radius, points_per_axis)
        w1 = np.full(points_per_axis, 1.0 / (points_per_axis - 1))
        w1[0] = w1[-1] = 0.5 / (points_per_axis - 1)
        if dim == 1:
            samples = axis[:, None]
            weights = w1
        else:
            xx, yy = np.meshgrid(axis, axis, indexing="ij")
            samples = np.stack([xx.reshape(-1), yy.reshape(-1)], axis=1)
            weights = np.multiply.outer(w1, w1).reshape(-1)
    else:
        from scipy.stats import qmc

        unit = qmc.Halton(d=dim, scramble=False).random(sample_budget)
        samples = (2.0 * unit - 1.0) * radius
        weights = np.full(sample_budget, 1.0 / sample_budget)
    weights = weights / weights.sum()
    samples = np.ascontiguousarray(samples)
    samples.setflags(write=False)
    weights.setflags(write=False)
    return UBox(dim=dim, radius=radius, samples=samples, quad_weights=weights)


def derive_ubox(dataset: Dataset, grid: Grid, kappa: int, n_states: int,
                margin: float, jet_sup: float | None = None,
                points_per_axis: int = 33, sample_budget: int = 4096) -> UBox:
    """Box radius = t_end + margin * (jet sup of the reference trajectory)."""
    if margin < 1.1:
        raise ValueError(f"margin must be >= 1.1, got {margin}")
    bound = jet_sup if jet_sup is not None else dataset.ref_jet_sup
    if bound is None:
        raise ValueError("no jet sup-norm bound available for the box radius")
    dim = 1 + n_states * jet_dimension(kappa)
    radius = grid.t_end + margin * float(bound)
    return build_box(dim, radius, points_per_axis, sample_budget)


def smooth_max(values, tau: float) -> float:
    """tau * log sum exp(v/tau), shifted for stability.

    Brackets the hard maximum: max <= smooth_max <= max + tau*log(n).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("smooth_max of an empty list")
    top = float(np.max(v))
    return top + tau * float(np.log(np.sum(np.exp((v - top) / tau))))


def smooth_max_weights(values, tau: float) -> np.ndarray:
    """Gradient of smooth_max w.r.t. the entries (a softmax)."""
    v = np.asarray(values, dtype=float)
    e = np.exp((v - np.max(v)) / tau)
    return e / e.sum()


def state_norm_order(kappa: int) -> int:
    """Spatial derivative order of the quadratic state norm.

    Containing the visited jets in the regularization box requires a sup
    bound on every jet component; on a 1D interval the Sobolev embedding
    gives that control from one extra derivative, so the norm reaches order
    kappa+1 (capped at the second-order stencils the grid provides).  This
    also prices grid-scale state oscillations that a smoothing measurement
    operator cannot see.
    """
    return min(kappa + 1, 2)


def r0_value(grid: Grid, kappa: int, u: np.ndarray, phi: PhysicalParams) -> float:
    """Quadratic core: spatial L^2 of the parameter fields plus the squared
    discrete state norm (state, time derivative, spatial derivatives up to
    state_norm_order(kappa))."""
    wt = grid.time_weights()
    wx = grid.space_weights()
    wtx = wt[:, None] * wx[None, :]
    dtm = grid.time_derivative_matrix()
    total = float(np.sum(wx * phi.values**2)) if phi.values.size else 0.0
    order_max = state_norm_order(kappa)
    mats = {o: grid.space_derivative_matrix(o) for o in range(1, order_max + 1)}
    L, N = u.shape[0], u.shape[1]
    for l in range(L):
        for n in range(N):
            field_ = u[l, n]
            total += float(np.sum(wtx * field_**2))
            total += float(np.sum(wtx * (dtm @ field_) ** 2))
            for order in range(1, order_max + 1):
                total += float(np.sum(wtx * (field_ @ mats[order].T) ** 2))
    return total


@dataclass
class ObjectiveBreakdown:
    """Every term of the objective; total is their exact sum.  hard_gradsup
    is a diagnostic (the true maximum behind the smooth surrogate)."""

    total: float = 0.0
    residual_term: float = 0.0
    initial_term: float = 0.0
    boundary_term: float = 0.0
    data_term: float = 0.0
    r0_term: float = 0.0
    f_lrho_term: float = 0.0
    f_gradsup_term: float = 0.0
    theta_norm_term: float = 0.0
    hard_gradsup: float = 0.0

    PART_NAMES = ("residual_term", "initial_term", "boundary_term", "data_term",
                  "r0_term", "f_lrho_term", "f_gradsup_term", "theta_norm_term")

    def parts(self):
        return [getattr(self, name) for name in self.PART_NAMES]

    @staticmethod
    def csv_header():
        return ("total,residual,initial,boundary,data,r0,"
                "f_lrho,f_gradsup,theta_norm,hard_gradsup")

    def csv_row(self):
        vals = [self.total] + self.parts() + [self.hard_gradsup]
        return ",".join(f"{v:.17g}" for v in vals)


@dataclass
class Vars:
    """The joint optimization variable: states, parameter fields, networks."""

    u: np.ndarray                  # (L, N, nt, nx)
    phi: PhysicalParams
    nets: list

    def copy(self) -> "Vars":
        return Vars(self.u.copy(), self.phi.copy(), [n.copy() for n in self.nets])


@dataclass
class Grads:
    u: np.ndarray
    phi: np.ndarray
    nets: np.ndarray    # all network parameters, flat in pack order


@dataclass
class Problem:
    """Everything fixed during one minimization."""

    grid: Grid
    dataset: Dataset
    op: MeasurementOp
    kind: str
    kappa: int
    weights: Weights
    box: UBox


def _check_box(box: UBox, feats: np.ndarray) -> None:
    worst = float(np.max(np.abs(feats)))
    if worst > box.radius * (1.0 + 1e-12) + 1e-12:
        raise BoxViolationError(
            f"visited jet point left the box: |z|_inf = {worst:.6g} exceeds "
            f"radius {box.radius:.6g}; enlarge the margin"
        )


def _power_weight(wt, wx, vec_sq_slice, exponent, scale):
    """Derivative prefactor of  scale * sum_t wt * S_t^(e/2)  w.r.t. the field,
    divided by the field entry: scale*e*wt*S^{(e-2)/2}*wx  (see _norm_pow)."""
    if exponent == 2.0:
        s_fac = np.ones_like(vec_sq_slice)
    else:
        with np.errstate(divide="ignore"):
            s_fac = np.where(vec_sq_slice > 0.0,
                             vec_sq_slice ** ((exponent - 2.0) / 2.0), 0.0)
    return scale * exponent * (wt * s_fac)[:, None] * wx[None, :]


def _norm_pow(wt, wx, fields, exponent):
    """sum_t wt * (sum_{n,x} wx * field_n^2)^(e/2) for a stack of (nt,nx)."""
    s = np.zeros(fields.shape[1])
    for f in fields:
        s += (f * f) @ wx
    return float(np.sum(wt * s ** (exponent / 2.0))), s


def _evaluate_core(vars_: Vars, problem: Problem, want_grad: bool):
    """The objective breakdown at vars_, and with want_grad its Grads."""
    grid, ds, op = problem.grid, problem.dataset, problem.op
    w, box, kind, kappa = problem.weights, problem.box, problem.kind, problem.kappa
    u = vars_.u
    L, N = u.shape[0], u.shape[1]
    if ds.y.shape[:2] != (L, N):
        raise ValueError("dataset and variables disagree on (L, N)")
    if len(vars_.nets) != N:
        raise ValueError(f"{len(vars_.nets)} networks for {N} equations")
    want_grad = bool(want_grad)
    if want_grad and (w.q < 2 or w.r < 2 or w.rho < 2):
        raise ValueError("gradient path requires exponents q, r, rho >= 2")

    wt = grid.time_weights()
    wx = grid.space_weights()
    wtx = wt[:, None] * wx[None, :]
    # The PDE residual lives on the open spatial domain: with a coupling
    # physical term the boundary columns are governed by the boundary data
    # (simulated trajectories hold them fixed), so the residual quadrature
    # skips them; a pure reaction term evolves every node, so all columns
    # count.
    wx_res = wx.copy()
    if kind != "none":
        wx_res[0] = wx_res[-1] = 0.0
    dtm = grid.time_derivative_matrix()
    d1 = grid.space_derivative_matrix(1)
    d2 = grid.space_derivative_matrix(2)
    jet_mats = [None, d1, d2]

    bd = ObjectiveBreakdown()
    g_u = np.zeros_like(u) if want_grad else None
    g_phi = np.zeros_like(vars_.phi.values) if want_grad else None
    # flat parameter gradient per network; the first VJP sets its shape
    g_nets = [0.0] * N if want_grad else None

    # --- per-experiment data-fit and residual terms -------------------------
    for l in range(L):
        feats = jet_features(grid, kappa, u[l])
        _check_box(box, feats)

        tapes = [mlp.Tape(net, feats) for net in vars_.nets]
        resid = np.stack([
            residual(grid, kind, u[l, n], vars_.phi.values[l, n],
                     tapes[n].values.reshape(grid.nt, grid.nx))
            for n in range(N)])
        res_val, res_s = _norm_pow(wt, wx_res, resid, w.q)
        bd.residual_term += w.lam * res_val

        diff0 = u[l, :, 0, :] - ds.u0[l]
        bd.initial_term += w.lam * float(np.sum(diff0**2 @ wx))

        dlo = u[l, :, :, 0] - ds.g_lo[l]
        dhi = u[l, :, :, -1] - ds.g_hi[l]
        bd.boundary_term += w.lam * float(np.sum((dlo**2 + dhi**2) @ wt))

        meas = np.stack([op.apply_array(u[l, n]) for n in range(N)])
        ddiff = meas - ds.y[l]
        data_val, data_s = _norm_pow(wt, wx, ddiff, w.r)
        bd.data_term += w.mu * data_val

        if want_grad:
            wres = _power_weight(wt, wx_res, res_s, w.q, w.lam)
            wdat = _power_weight(wt, wx, data_s, w.r, w.mu)
            for n in range(N):
                rw = wres * resid[n]
                # d/dt block and measurement block
                g_u[l, n] += dtm.T @ rw
                g_u[l, n] += op.adjoint_array(wdat * ddiff[n])
                # physics block
                if kind == "convection":
                    phi_n = vars_.phi.values[l, n, 0]
                    g_u[l, n] -= (rw * phi_n[None, :]) @ d1
                    g_phi[l, n, 0] -= np.sum(rw * (u[l, n] @ d1.T), axis=0)
                elif kind == "diffusion_reaction":
                    a = vars_.phi.values[l, n, 0]
                    c = vars_.phi.values[l, n, 1]
                    ax = d1 @ a
                    ux = u[l, n] @ d1.T
                    uxx = u[l, n] @ d2.T
                    g_u[l, n] -= (rw * a[None, :]) @ d2
                    g_u[l, n] -= (rw * ax[None, :]) @ d1
                    g_u[l, n] -= rw * c[None, :]
                    g_phi[l, n, 0] -= np.sum(rw * uxx, axis=0)
                    g_phi[l, n, 0] -= d1.T @ np.sum(rw * ux, axis=0)
                    g_phi[l, n, 1] -= np.sum(rw * u[l, n], axis=0)
                elif kind == "burgers1d":
                    ux = u[l, n] @ d1.T
                    g_u[l, n] += rw * ux + (rw * u[l, n]) @ d1
                # initial / boundary blocks
                g_u[l, n, 0, :] += 2.0 * w.lam * wx * diff0[n]
                g_u[l, n, :, 0] += 2.0 * w.lam * wt * dlo[n]
                g_u[l, n, :, -1] += 2.0 * w.lam * wt * dhi[n]
                # network blocks: residual depends on f through -f(feats)
                bw, bb, _ = tapes[n].param_vjp(val_seeds=(-rw).reshape(-1))
                g_nets[n] = g_nets[n] + mlp.flatten_layers(bw, bb)
                # chain rule into the jet features of every state
                gin = tapes[n].input_grads   # (nodes, D)
                col = 1
                for k in range(N):
                    for order in range(kappa + 1):
                        # residual = ... - f, so the seed carries the minus
                        seed_field = (rw.reshape(-1) * (-gin[:, col])) \
                            .reshape(grid.nt, grid.nx)
                        if order == 0:
                            g_u[l, k] += seed_field
                        else:
                            g_u[l, k] += seed_field @ jet_mats[order]
                        col += 1

    # --- quadratic core ------------------------------------------------------
    bd.r0_term = r0_value(grid, kappa, u, vars_.phi)
    if want_grad:
        g_phi += 2.0 * wx[None, None, None, :] * vars_.phi.values
        for l in range(L):
            for n in range(N):
                f_ = u[l, n]
                g_u[l, n] += 2.0 * wtx * f_
                g_u[l, n] += dtm.T @ (2.0 * wtx * (dtm @ f_))
                for order in range(1, state_norm_order(kappa) + 1):
                    g_u[l, n] += (2.0 * wtx * (f_ @ jet_mats[order].T)) @ jet_mats[order]

    # --- box terms ------------------------------------------------------------
    hard_sup = 0.0
    for n, net in enumerate(vars_.nets):
        if net.input_dim != box.dim:
            raise ValueError(f"network input dim {net.input_dim} != box dim {box.dim}")
        tape = mlp.Tape(net, box.samples)
        vals = tape.values
        bd.f_lrho_term += box.volume * float(
            np.sum(box.quad_weights * np.abs(vals) ** w.rho))
        gin = tape.input_grads
        comp = np.argmax(np.abs(gin), axis=1)
        gnorm = np.abs(gin[np.arange(gin.shape[0]), comp])
        bd.f_gradsup_term += smooth_max(gnorm, w.tau)
        hard_sup = max(hard_sup, float(np.max(gnorm)))
        if want_grad:
            val_seeds = box.volume * box.quad_weights * w.rho \
                * np.abs(vals) ** (w.rho - 1.0) * np.sign(vals)
            omega = smooth_max_weights(gnorm, w.tau)
            sgn = np.sign(gin[np.arange(gin.shape[0]), comp])
            sgn[sgn == 0.0] = 1.0
            grad_seeds = np.zeros_like(gin)
            grad_seeds[np.arange(gin.shape[0]), comp] = omega * sgn
            bw, bb, _ = tape.param_vjp(val_seeds=val_seeds, grad_seeds=grad_seeds)
            g_nets[n] = g_nets[n] + mlp.flatten_layers(bw, bb)
    bd.hard_gradsup = hard_sup

    # --- parameter norm --------------------------------------------------------
    theta_norm, g_theta = mlp.param_norm(vars_.nets, w.param_norm_p)
    bd.theta_norm_term = w.nu * theta_norm

    bd.total = float(sum(bd.parts()))
    if not want_grad:
        return bd, None
    g_nets = np.concatenate(g_nets)
    if w.nu > 0:
        g_nets += w.nu * g_theta
    return bd, Grads(g_u, g_phi, g_nets)


# --- flat packing for the optimizer --------------------------------------------


class VarLayout:
    """Bijection between a Vars object and one flat float vector."""

    def __init__(self, template: Vars):
        self.u_shape = template.u.shape
        self.phi_shape = template.phi.values.shape
        self.phi_kind = template.phi.kind
        self.grid = template.phi.grid
        self.net_templates = [n.copy() for n in template.nets]
        self.u_size = int(np.prod(self.u_shape))
        self.phi_size = int(np.prod(self.phi_shape))
        self.net_sizes = [mlp.flatten_params(n).size for n in template.nets]
        self.size = self.u_size + self.phi_size + sum(self.net_sizes)

    def pack(self, vars_: Vars) -> np.ndarray:
        parts = [vars_.u.reshape(-1), vars_.phi.values.reshape(-1)]
        parts += [mlp.flatten_params(n) for n in vars_.nets]
        return np.concatenate(parts) if parts else np.zeros(0)

    def unpack(self, x: np.ndarray) -> Vars:
        if x.size != self.size:
            raise ValueError("flat vector length mismatch")
        u = x[:self.u_size].reshape(self.u_shape).copy()
        pos = self.u_size
        phi_vals = x[pos:pos + self.phi_size].reshape(self.phi_shape).copy()
        pos += self.phi_size
        nets = []
        for tmpl, size in zip(self.net_templates, self.net_sizes):
            nets.append(mlp.unflatten_params(x[pos:pos + size].copy(), tmpl))
            pos += size
        return Vars(u, PhysicalParams(self.phi_kind, self.grid, phi_vals), nets)

    def pack_grads(self, grads: Grads) -> np.ndarray:
        return np.concatenate([grads.u.reshape(-1), grads.phi.reshape(-1),
                               grads.nets])


def make_closure(problem: Problem, layout: VarLayout):
    """Objective closure x -> (value, flat gradient, breakdown)."""

    def fg(x: np.ndarray):
        vars_ = layout.unpack(x)
        bd, grads = _evaluate_core(vars_, problem, want_grad=True)
        return bd.total, layout.pack_grads(grads), bd

    return fg
