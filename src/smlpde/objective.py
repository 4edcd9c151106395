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

States u (L, N, nt, nx) and parameter fields phi (L, N, slots, nx) are
plain arrays.  Gradients with respect to every state node, parameter node,
and network weight are assembled in closed form (reverse mode through the
stencil matrices, the measurement operator, and the networks - including
the second-order sweep needed for the gradient-sup term) and returned flat
in VarLayout's pack order; Weights keeps every exponent >= 2.

_evaluate_core is the one implementation of every term, and one function
gives each term's value with its gradient: physics.residual with
physics.physics_vjp, grid._norm_pow, r0_value, smooth_max and
mlp.param_norm; the network inputs come from grid.jet_features.  The
study's diagnostics, the limit oracle and measurement.operator_gap evaluate
the same objects.  A residual tape takes one reverse pass, a value-seeded
VJP that also returns the input adjoints; only the box tapes run the
input-gradient sweep, since the gradient-sup term needs the input gradients.

An evaluation works on the whole (L, N, nt, nx) state stack at once.  It
fetches the stencils from the grid, takes D_t u, D_x u and, where kappa,
the r0 order or the physics needs it, D_xx u once each as broadcast
matmuls, and hands those arrays to the jets, the physics term, the
residual, r0 and the physics adjoint, which all take leading axes; the
measurement operator and its adjoint run once on the stack.  Each slice of
a stacked product or reduction gets the bits it would get alone, and each
term still adds its experiments' parts in order, so with N = 1 the value
and the gradient are those of a loop over experiments.  With N >= 2 the
jet adjoints of one experiment's N tapes are summed before the chain rule,
which may round differently.  Only the networks keep one tape per
(experiment, network) on all nt*nx nodes: one tape over all L experiments
would reassociate the weight-gradient sums, and at width 24 each of its
(width, L*nt*nx) arrays would hold 2.4 MB, more than a 2 MB L2 cache.
What depends only on the grid and the kind is built once per Problem:
the residual quadrature's spatial weights.

An evaluation is a forward pass and a deferred backward pass.  The forward
pass builds the jets, checks the box, builds every tape, runs the box
tapes' input-gradient sweeps (the gradient-sup value needs them) and
computes every term of the breakdown, with the gradient mlp.param_norm
returns alongside its value.  It hands back backward, a callable that runs
everything that only feeds the gradient: the residual and data-fit
weights, the d/dt, measurement and physics adjoints, the initial and
boundary blocks, both kinds of parameter VJP, the chain rule into the
jets, r0's gradient (r0_value returns it as its own deferred callable) and
the box seeds.  backward performs the operations of a single pass in the
same order, so the gradient is bit for bit the same.  Until it runs, every
tape and the derivative stacks are held; it drops each stack once its last
reader has run.  Each tape's one VJP frees the tape's hidden layers as its
reverse sweep passes them, writing sigma' over the activations of a
residual tape, so a VJP holds at most one hidden layer more than its tape
did when it started (mlp.Tape.param_vjp); backward then drops each
experiment's residual tapes, with their batch and output rows, once their
VJPs are added, and each box tape once its VJP has run.  So a line-search
trial that is rejected pays for its value only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import mlp
from .errors import BoxViolationError
from .grid import (Grid, _norm_pow, jet_features, space_derivatives,
                   trapezoid_weights)
from .measurement import Dataset
from .physics import physics_order, physics_vjp, residual, residual_columns


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
        if self.q < 2 or self.r < 2 or not 2.0 <= self.rho < math.inf:
            raise ValueError("exponents q, r, rho must be >= 2, rho finite")
        if self.param_norm_p < 1:
            raise ValueError("param_norm_p must be >= 1 or inf")
        if self.tau <= 0:
            raise ValueError("smooth-max temperature must be positive")


@dataclass(frozen=True)
class UBox:
    """Zero-centered sup-norm ball in jet space with a fixed sample set."""

    radius: float
    samples: np.ndarray          # (S, dim)
    quad_weights: np.ndarray     # (S,), sums to 1; quadrature for the power norm

    @property
    def dim(self) -> int:
        """The jet-space dimension: the samples' column count."""
        return self.samples.shape[1]

    @property
    def volume(self) -> float:
        return (2.0 * self.radius) ** self.dim


def _halton(dim: int, n: int) -> np.ndarray:
    """The first n points, from index 0, of the unscrambled Halton sequence
    in [0, 1)^dim: coordinate k is the radical inverse of the index in the
    k-th prime base, its digits summed from the least significant up."""
    primes = []
    p = 2
    while len(primes) < dim:
        if all(p % q for q in primes):
            primes.append(p)
        p += 1
    out = np.zeros((n, dim))
    for k, base in enumerate(primes):
        q = np.arange(n)
        scale = 1.0 / base
        while q.any():
            out[:, k] += (q % base) * scale
            scale /= base
            q //= base
    return out


def build_box(dim: int, radius: float, points_per_axis: int = 33,
              sample_budget: int = 4096) -> UBox:
    """Deterministic sample set: trapezoid lattice for dim <= 2, Halton above."""
    if dim < 1 or radius <= 0:
        raise ValueError("box needs dim >= 1 and positive radius")
    if dim <= 2:
        axis = np.linspace(-radius, radius, points_per_axis)
        w1 = trapezoid_weights(points_per_axis, 1.0 / (points_per_axis - 1))
        lattice = np.meshgrid(*[axis] * dim, indexing="ij")
        samples = np.stack([c.reshape(-1) for c in lattice], axis=1)
        weights = functools.reduce(np.multiply.outer, [w1] * dim).reshape(-1)
    else:
        unit = _halton(dim, sample_budget)
        samples = (2.0 * unit - 1.0) * radius
        weights = np.full(sample_budget, 1.0 / sample_budget)
    weights = weights / weights.sum()
    samples = np.ascontiguousarray(samples)
    samples.setflags(write=False)
    weights.setflags(write=False)
    return UBox(radius=radius, samples=samples, quad_weights=weights)


# the smallest margin derive_ubox accepts ([weights] box_margin)
MIN_BOX_MARGIN = 1.1


def derive_ubox(grid: Grid, z_ref: np.ndarray, margin: float) -> UBox:
    """The box around the reference trajectory's jets z_ref (jet_features'
    rows, any leading axes): radius t_end + margin * the largest |jet
    component| outside the time column, dimension z_ref.shape[-1]."""
    if margin < MIN_BOX_MARGIN:
        raise ValueError(f"margin must be >= {MIN_BOX_MARGIN}, got {margin}")
    radius = grid.t_end + margin * float(np.max(np.abs(z_ref[..., 1:])))
    return build_box(z_ref.shape[-1], radius)


def smooth_max(values, tau: float):
    """tau * log sum exp(v/tau), shifted for stability, and its gradient
    with respect to the entries (a softmax).

    The value brackets the hard maximum: max <= smooth_max <= max + tau*log(n).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("smooth_max of an empty list")
    top = float(np.max(v))
    e = np.exp((v - top) / tau)
    total = np.sum(e)
    return top + tau * float(np.log(total)), e / total


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


def r0_value(grid: Grid, kappa: int, u: np.ndarray, phi: np.ndarray,
             ut=None, du=None):
    """Quadratic core: spatial L^2 of the parameter fields phi plus the squared
    discrete state norm (state, time derivative, spatial derivatives up to
    state_norm_order(kappa)) of the (L, N, nt, nx) states u.  ut = D_t u and
    du (grid.space_derivatives), if given, are reused.  Returns (value,
    backward), backward a zero-argument callable that returns the gradients
    (g_u, g_phi) from the value's own derivative stacks."""
    wx = grid.space_weights()
    wtx = grid.node_weights()
    dtm = grid.time_derivative_matrix()
    order = state_norm_order(kappa)
    mats = [grid.space_derivative_matrix(o) for o in range(1, order + 1)]
    if ut is None:
        ut = dtm @ u
    du = space_derivatives(grid, u, order, du)[:order]
    total = float(np.sum(wx * phi**2)) if phi.size else 0.0
    # one weighted sum per (l, n) slice and component, added slice by slice
    sums = np.stack([np.sum(wtx * v**2, axis=(-2, -1))
                     for v in (u, ut, *du)], axis=-1)
    for part in sums.reshape(-1).tolist():
        total += part

    def backward():
        g_u = 2.0 * wtx * u
        g_u += dtm.T @ (2.0 * wtx * ut)
        for v, mat in zip(du, mats):
            g_u += (2.0 * wtx * v) @ mat
        return g_u, 2.0 * wx * phi

    return total, backward


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

    def parts(self):
        return [getattr(self, name) for name in self.PART_NAMES]

    def cells(self) -> list:
        return [self.total, *self.parts(), self.hard_gradsup]


# the terms are the *_term fields; the columns of cells(), in the report and
# the per-iteration traces, are the fields in order, named without _term
ObjectiveBreakdown.PART_NAMES = tuple(
    f.name for f in fields(ObjectiveBreakdown) if f.name.endswith("_term"))
ObjectiveBreakdown.CSV_HEADER = tuple(
    f.name.removesuffix("_term") for f in fields(ObjectiveBreakdown))


@dataclass
class Vars:
    """The joint optimization variable: the states and the parameter fields
    as plain arrays, and one network per equation."""

    u: np.ndarray                  # (L, N, nt, nx)
    phi: np.ndarray                # (L, N, slots, nx)
    nets: list


@dataclass
class Problem:
    """Everything fixed during one minimization.  The dataset owns the grid
    and the measurement operator (dataset.grid, dataset.op).

    The residual quadrature's spatial weights (wx_res, zero off the
    residual columns), which every evaluation reads, are built once from the
    grid and the kind."""

    dataset: Dataset
    kind: str
    kappa: int
    weights: Weights
    box: UBox
    wx_res: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        wx = self.dataset.grid.space_weights()
        cols = residual_columns(self.kind)
        self.wx_res = np.zeros_like(wx)
        self.wx_res[cols] = wx[cols]


def _check_box(box: UBox, feats: np.ndarray) -> None:
    """Raise for the first experiment of the (L, rows, dim) jet stack whose
    jets leave the box, quoting that experiment's largest entry."""
    limit = box.radius * (1.0 + 1e-12) + 1e-12
    for worst in np.max(np.abs(feats), axis=(-2, -1)).tolist():
        if worst > limit:
            raise BoxViolationError(
                f"visited jet point left the box: |z|_inf = {worst:.6g} exceeds "
                f"radius {box.radius:.6g}; enlarge the margin"
            )


def _power_weight(wt, wx, vec_sq, exponent, scale):
    """Derivative prefactor of  scale * sum_t wt * S_t^(e/2)  w.r.t. the field,
    divided by the field entry: scale*e*wt*S^{(e-2)/2}*wx (see grid._norm_pow),
    shape (..., nt, nx) for inner sums S of shape (..., nt), and 0 where
    S_t = 0 (there the field vanishes on wx's support)."""
    with np.errstate(divide="ignore"):
        t_fac = wt * np.where(vec_sq > 0.0,
                              vec_sq ** ((exponent - 2.0) / 2.0), 0.0)
    return scale * exponent * t_fac[..., None] * wx


def _evaluate_core(vars_: Vars, problem: Problem):
    """The objective breakdown at vars_ and its backward pass: a
    zero-argument callable, run at most once, that returns the gradient
    flat in VarLayout's pack order (states, parameter fields, then the
    networks) as a fresh vector."""
    ds = problem.dataset
    grid, op = ds.grid, ds.op
    w, box, kind, kappa = problem.weights, problem.box, problem.kind, problem.kappa
    u, phi = vars_.u, vars_.phi
    L, N = u.shape[0], u.shape[1]
    nt, nx = grid.nt, grid.nx
    wt, wx = grid.time_weights(), grid.space_weights()
    # every state derivative any term reads, once over the whole stack
    dtm = grid.time_derivative_matrix()
    order = max(kappa, state_norm_order(kappa), physics_order(kind))
    mats = [grid.space_derivative_matrix(o) for o in range(1, order + 1)]
    ut = dtm @ u
    du = [u @ mat.T for mat in mats]

    # --- forward: every term's value ---------------------------------------
    feats = jet_features(grid, kappa, u, du)
    _check_box(box, feats)
    # one residual tape per (experiment, network), on all nt*nx nodes
    tapes = [[mlp.Tape(net, feats[l]) for net in vars_.nets] for l in range(L)]
    f = np.array([[tape.values for tape in row] for row in tapes])
    resid = residual(grid, kind, u, phi, f.reshape(u.shape), ut=ut, du=du)
    res_vals, res_s = _norm_pow(wt, problem.wx_res, resid, w.q)
    ddiff = op.apply_array(u) - ds.y
    data_vals, data_s = _norm_pow(wt, wx, ddiff, w.r)
    diff0 = u[:, :, 0, :] - ds.u0
    dlo = u[:, :, :, 0] - ds.g_lo
    dhi = u[:, :, :, -1] - ds.g_hi
    init_vals = np.sum(diff0**2 @ wx, axis=-1)
    bdry_vals = np.sum((dlo**2 + dhi**2) @ wt, axis=-1)

    bd = ObjectiveBreakdown()
    # each term adds its experiments' parts in order
    bd.residual_term = sum(w.lam * v for v in res_vals.tolist())
    bd.initial_term = sum(w.lam * v for v in init_vals.tolist())
    bd.boundary_term = sum(w.lam * v for v in bdry_vals.tolist())
    bd.data_term = sum(w.mu * v for v in data_vals.tolist())
    bd.r0_term, r0_backward = r0_value(grid, kappa, u, phi, ut=ut, du=du)

    def box_terms(n, net):
        """Network n's power norm and smooth gradient sup over the box, added
        into bd; returns the VJP that adds their parameter gradient."""
        tape = mlp.Tape(net, box.samples)
        vals = tape.values
        bd.f_lrho_term += box.volume * float(
            np.sum(box.quad_weights * np.abs(vals) ** w.rho))
        gin = tape.input_grads
        mag = np.abs(gin)
        gnorm = np.max(mag, axis=1)
        soft_sup, omega = smooth_max(gnorm, w.tau)
        bd.f_gradsup_term += soft_sup
        bd.hard_gradsup = max(bd.hard_gradsup, float(np.max(gnorm)))

        def vjp(g_nets):
            val_seeds = box.volume * box.quad_weights * w.rho \
                * np.abs(vals) ** (w.rho - 1.0) * np.sign(vals)
            rows = np.arange(gin.shape[0])
            comp = np.argmax(mag, axis=1)
            sgn = np.sign(gin[rows, comp])
            sgn[sgn == 0.0] = 1.0
            grad_seeds = np.zeros_like(gin)
            grad_seeds[rows, comp] = omega * sgn
            g_net, _ = tape.param_vjp(val_seeds=val_seeds, grad_seeds=grad_seeds)
            g_nets[n] = g_nets[n] + g_net

        return vjp

    box_vjps = [box_terms(n, net) for n, net in enumerate(vars_.nets)]
    theta_norm, g_theta = mlp.param_norm(vars_.nets, w.param_norm_p)
    bd.theta_norm_term = w.nu * theta_norm
    bd.total = float(sum(bd.parts()))

    # --- backward: the gradient, on demand ---------------------------------
    ran = False

    def backward():
        nonlocal ran, du, resid, ddiff, r0_backward
        if ran:
            raise RuntimeError("the backward pass of an evaluation runs once")
        ran = True
        g_u = np.zeros_like(u)
        g_phi = np.zeros_like(phi)
        wres = _power_weight(wt, problem.wx_res, res_s[:, None], w.q, w.lam)
        wdat = _power_weight(wt, wx, data_s[:, None], w.r, w.mu)
        rw = wres * resid
        # d/dt block and measurement block
        g_u += dtm.T @ rw
        g_u += op.adjoint_array(wdat * ddiff)
        resid = ddiff = None
        g_phys_u, g_phys_phi = physics_vjp(grid, kind, u, phi, rw, du=du)
        du = None
        g_u -= g_phys_u
        g_phi -= g_phys_phi
        del g_phys_u, g_phys_phi
        # initial / boundary blocks
        g_u[:, :, 0, :] += 2.0 * w.lam * wx * diff0
        g_u[:, :, :, 0] += 2.0 * w.lam * wt * dlo
        g_u[:, :, :, -1] += 2.0 * w.lam * wt * dhi
        # network blocks: the residual holds -f(feats), so the value seeds
        # carry the minus; one reverse pass per tape gives the weight
        # adjoints and those of the network inputs, whose jet columns
        # collect per experiment
        seeds = (-rw).reshape(L, N, nt * nx)
        g_nets = [0.0] * N   # flat gradient per network; the first VJP sets its shape
        g_jets = np.empty((L, N * (kappa + 1), nt * nx))
        for l in range(L):
            for n in range(N):
                g_net, g_in = tapes[l][n].param_vjp(val_seeds=seeds[l, n],
                                                    want_input_grad=True)
                g_nets[n] = g_nets[n] + g_net
                if n == 0:
                    g_jets[l] = g_in.T[1:]
                else:
                    g_jets[l] += g_in.T[1:]
            # the experiment's tapes go as soon as their VJPs are added
            tapes[l] = None
        # chain rule into the jet features [t, jet(u_1), ..., jet(u_N)]
        g_jets = g_jets.reshape(L, N, kappa + 1, nt, nx)
        g_u += g_jets[:, :, 0]
        for o in range(1, kappa + 1):
            g_u += g_jets[:, :, o] @ mats[o - 1]
        del g_jets, rw, seeds
        r0_g_u, r0_g_phi = r0_backward()
        r0_backward = None
        g_u += r0_g_u
        g_phi += r0_g_phi
        # a box VJP is dropped as soon as it has run, which frees its tape
        while box_vjps:
            box_vjps.pop(0)(g_nets)
        g_nets = np.concatenate(g_nets)
        if w.nu > 0:
            g_nets += w.nu * g_theta
        return np.concatenate([g_u.reshape(-1), g_phi.reshape(-1), g_nets])

    return bd, backward


# --- flat packing for the optimizer --------------------------------------------


class VarLayout:
    """Bijection between a Vars object and one flat float vector."""

    def __init__(self, template: Vars):
        self.u_shape = template.u.shape
        self.phi_shape = template.phi.shape
        self.net_templates = list(template.nets)
        self.u_size = int(np.prod(self.u_shape))
        self.phi_size = int(np.prod(self.phi_shape))
        self.net_sizes = [n._layout[0] for n in template.nets]
        self.size = self.u_size + self.phi_size + sum(self.net_sizes)

    def pack(self, vars_: Vars) -> np.ndarray:
        parts = [vars_.u.reshape(-1), vars_.phi.reshape(-1)]
        parts += [mlp.flatten_params(n) for n in vars_.nets]
        return np.concatenate(parts)

    def unpack(self, x: np.ndarray) -> Vars:
        if x.size != self.size:
            raise ValueError("flat vector length mismatch")
        u = x[:self.u_size].reshape(self.u_shape).copy()
        pos = self.u_size
        phi = x[pos:pos + self.phi_size].reshape(self.phi_shape).copy()
        pos += self.phi_size
        nets = []
        for tmpl, size in zip(self.net_templates, self.net_sizes):
            nets.append(mlp.unflatten_params(x[pos:pos + size].copy(), tmpl))
            pos += size
        return Vars(u, phi, nets)


def make_closure(problem: Problem, layout: VarLayout):
    """Objective closure x -> (value, backward pass, breakdown), the
    backward pass a callable returning the flat gradient.  The layout is
    checked against the problem here, once: its (L, N) against the
    dataset's, one network per equation, each taking the box's dimension."""
    L, N = layout.u_shape[:2]
    if problem.dataset.y.shape[:2] != (L, N):
        raise ValueError("dataset and variables disagree on (L, N)")
    if len(layout.net_templates) != N:
        raise ValueError(f"{len(layout.net_templates)} networks for {N} equations")
    for net in layout.net_templates:
        if net.input_dim != problem.box.dim:
            raise ValueError(f"network input dim {net.input_dim} != box dim "
                             f"{problem.box.dim}")

    def fg(x: np.ndarray):
        bd, backward = _evaluate_core(layout.unpack(x), problem)
        return bd.total, backward, bd

    return fg
