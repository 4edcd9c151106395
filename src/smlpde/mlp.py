"""Fully connected feed-forward networks with hand-rolled reverse mode.

A network maps R^{n_0} -> R: every hidden layer applies z -> sigma(W z + b),
the final layer is affine with no activation.  For a batch of inputs (one
per row) the module provides

  * forward_batch    -- the outputs,
  * grad_input_batch -- the gradients of the output w.r.t. each input,
  * Tape.param_vjp   -- the parameter gradient of any linear functional of
                        (value, input-gradient), and optionally its input
                        gradient.  A gradient seed needs one extra adjoint
                        sweep through the input-gradient computation and
                        sigma''; it is what makes the gradient-sup
                        regularizer differentiable in the weights.

A tape computes sigma' of each hidden layer at most once, on the first
input-gradient sweep or VJP that needs it, and sigma'' at most once, on
the first gradient-seeded VJP; later sweeps and VJPs on the same tape
reuse them.  Activation.slope and Activation.curvature take the stored
activation a = sigma(z) along with z, so tanh needs no further tanh
evaluation: sigma' = 1 - a*a and sigma'' = -2*a*sigma', the same
expressions Activation.deriv and deriv2 evaluate.

The tape writes in place where the fresh-temporary form would allocate
(b added into A @ W^T, 1 - a*a in a*a's buffer, sigma' and sigma'' scaling
fresh products) and keeps every product's operation order, so its outputs
are bit-identical to that form.  Output-layer products with a (B, 1)
factor are broadcasts.  Bias gradients sum with einsum, which adds the rows
of a C-contiguous block of two or more columns in sum(axis=0)'s order, only
faster; a one-column block (the output layer's, or a hidden layer of width
1) keeps sum(axis=0), which sums it pairwise.

Parameters are validated where they enter: MlpParams checks each layer's
shape and finiteness at construction (init_params, grow_params, copy), and
unflatten_params, which fit and objective closures call on every
evaluation, checks the flat vector once, for its length against the
template and for finiteness, instead of re-checking every layer.

The theoretical Lipschitz constant  L_sigma^{depth-1} * prod_l |W_l|_inf
(induced infinity norm, i.e. max row sum) is exposed as lipschitz_bound.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

LEAKY_SLOPE = 0.01

ACTIVATION_KINDS = ("tanh", "softplus", "relu", "leaky-relu", "requ")


@dataclass(frozen=True)
class Activation:
    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def value(self, z):
        if self.kind == "tanh":
            return np.tanh(z)
        if self.kind == "softplus":
            # stable log(1 + e^z)
            return np.logaddexp(0.0, z)
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        if self.kind == "leaky-relu":
            return np.where(z > 0, z, LEAKY_SLOPE * z)
        return np.where(z > 0, z, 0.0) ** 2  # requ

    def deriv(self, z):
        return self.slope(z, self.value(z))

    def deriv2(self, z):
        a = self.value(z)
        return self.curvature(z, a, self.slope(z, a))

    def slope(self, z, a):
        """sigma'(z), given a = sigma(z); tanh reads it off a."""
        if self.kind == "tanh":
            s = a * a
            return np.subtract(1.0, s, out=s if np.ndim(s) else None)
        if self.kind == "softplus":
            return 1.0 / (1.0 + np.exp(-z))
        if self.kind == "relu":
            # subgradient at the kink fixed to 0 for determinism
            return np.where(z > 0, 1.0, 0.0)
        if self.kind == "leaky-relu":
            return np.where(z > 0, 1.0, LEAKY_SLOPE)
        return 2.0 * np.maximum(z, 0.0)  # requ

    def curvature(self, z, a, slope):
        """sigma''(z), given a = sigma(z) and slope = sigma'(z)."""
        if self.kind == "tanh":
            return -2.0 * a * slope
        if self.kind == "softplus":
            return slope * (1.0 - slope)
        if self.kind in ("relu", "leaky-relu"):
            return np.zeros_like(np.asarray(z, dtype=float))
        return np.where(z > 0, 2.0, 0.0)  # requ

    def lipschitz_on(self, interval) -> float:
        """Lipschitz constant of sigma on [lo, hi]."""
        lo, hi = interval
        if hi < lo:
            raise ValueError("empty interval")
        if self.kind == "requ":
            return 2.0 * max(0.0, hi)
        return 1.0


@dataclass
class MlpParams:
    """Weights and biases of one network; output dimension is 1.

    Construction checks every layer: shapes that chain, an output of
    dimension 1 and finite entries.  unflatten_params builds its networks
    without these per-layer checks: it checks the flat vector once (length
    and finiteness) and takes the shapes from an already checked template.
    """

    weights: list
    biases: list
    activation: Activation

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise ValueError("weights/biases must be nonempty and aligned")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        prev = None
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise ValueError("layer shape mismatch")
            if prev is not None and w.shape[1] != prev:
                raise ValueError("layer sizes do not chain")
            prev = w.shape[0]
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter entries")
        if self.weights[-1].shape[0] != 1:
            raise ValueError("output dimension must be 1")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1],) + tuple(w.shape[0] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def depth(self) -> int:
        return len(self.weights)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases], self.activation)


def init_params(layer_sizes, activation: Activation, seed: int) -> MlpParams:
    """Uniform weights in +-1/sqrt(fan_in), zero biases, deterministic."""
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(n_in)
        ws.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        bs.append(np.zeros(n_out))
    return MlpParams(ws, bs, activation)


def grow_params(params: MlpParams, new_sizes, seed: int) -> MlpParams:
    """Widen a network without changing the function it represents.

    Old units keep their weights.  New units receive random incoming
    weights (so they have nonzero gradients and can start training) but all
    weights OUT of a new unit are zero, which keeps the represented
    function bit-identical at the handoff.
    """
    old_sizes = params.layer_sizes
    if len(new_sizes) != len(old_sizes):
        raise ValueError("growth must preserve depth")
    if new_sizes[0] != old_sizes[0] or new_sizes[-1] != old_sizes[-1]:
        raise ValueError("growth must preserve input/output dimensions")
    if any(n < o for n, o in zip(new_sizes, old_sizes)):
        raise ValueError("growth cannot shrink a layer")
    rng = np.random.default_rng(seed)
    ws, bs = [], []
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        n_out_old, n_in_old = w.shape
        n_in_new = new_sizes[li]
        n_out_new = new_sizes[li + 1]
        bound = 1.0 / math.sqrt(n_in_new)
        nw = np.zeros((n_out_new, n_in_new))
        nw[:n_out_old, :n_in_old] = w
        if n_out_new > n_out_old:
            # new units: random incoming weights, zero bias
            nw[n_out_old:, :] = rng.uniform(-bound, bound,
                                            size=(n_out_new - n_out_old, n_in_new))
        # columns feeding FROM new units of the previous layer stay zero
        nb = np.zeros(n_out_new)
        nb[:n_out_old] = b
        ws.append(nw)
        bs.append(nb)
    return MlpParams(ws, bs, params.activation)


class Tape:
    """Forward + input-gradient sweep for a batch of inputs, kept for VJPs."""

    def __init__(self, params: MlpParams, Z: np.ndarray):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != params.input_dim:
            raise ValueError(
                f"input batch shape {Z.shape} incompatible with n_0={params.input_dim}"
            )
        self.params = params
        act = params.activation
        L = params.depth
        A = [Z]
        P = []
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            pre = A[-1] @ w.T
            pre += b
            P.append(pre)
            if i < L - 1:
                A.append(act.value(pre))
        self.A, self.P = A, P
        self.values = P[-1][:, 0].copy()
        self._cs = None
        self._ds = None
        self._slopes = None
        self._curvatures = None

    def _hidden_slopes(self):
        """sigma'(P[i]) of every hidden layer i."""
        if self._slopes is None:
            act = self.params.activation
            self._slopes = [act.slope(p, a) for p, a in zip(self.P, self.A[1:])]
        return self._slopes

    def _hidden_curvatures(self):
        """sigma''(P[i]) of every hidden layer i."""
        if self._curvatures is None:
            act = self.params.activation
            self._curvatures = [act.curvature(p, a, s) for p, a, s in
                                zip(self.P, self.A[1:], self._hidden_slopes())]
        return self._curvatures

    def _input_grad_sweep(self):
        if self._cs is not None:
            return
        weights = self.params.weights
        sp = self._hidden_slopes()
        L = len(weights)
        B = self.A[0].shape[0]
        ds = [None] * L
        cs = [None] * L
        ds[L - 1] = np.ones((B, 1))
        for i in range(L - 1, -1, -1):
            # every row of ones((B, 1)) @ W_{L-1} is W_{L-1}'s one row, which
            # broadcasting reads; only the input gradient needs all B rows
            cs[i] = weights[i] if 0 < i == L - 1 else ds[i] @ weights[i]
            if i > 0:
                ds[i - 1] = cs[i] * sp[i - 1]
        self._cs, self._ds = cs, ds

    @property
    def input_grads(self) -> np.ndarray:
        self._input_grad_sweep()
        return self._cs[0]

    def param_vjp(self, val_seeds=None, grad_seeds=None, want_input_grad=False):
        """Parameter gradient of sum_b [val_seeds_b * f(z_b)
        + grad_seeds_b . grad_z f(z_b)]; either seed block may be None.

        Each adjoint buffer takes its first contribution by assignment and
        later ones by addition; a buffer no seed reaches is returned as
        zeros.
        """
        weights = self.params.weights
        L = len(weights)
        sp = self._hidden_slopes()
        bar_W = [None] * L
        bar_b = [None] * L
        bar_P = [None] * L

        if grad_seeds is not None:
            self._input_grad_sweep()
            spp = self._hidden_curvatures()
            bar_c = np.asarray(grad_seeds, dtype=float)
            for i in range(L):
                # cs[i] = ds[i] @ W_i
                bar_W[i] = self._ds[i].T @ bar_c
                if i < L - 1:
                    # ds[i] = cs[i+1] * sigma'(P[i])
                    bar_d = bar_c @ weights[i].T
                    bar_c = bar_d * sp[i]
                    bar_d *= self._cs[i + 1]
                    bar_d *= spp[i]
                    bar_P[i] = bar_d

        if val_seeds is not None:
            bar_P[L - 1] = np.array(val_seeds, dtype=float).reshape(-1, 1)

        bar_Z = None
        for i in range(L - 1, -1, -1):
            if bar_P[i] is None:
                continue
            _accumulate(bar_W, i, bar_P[i].T @ self.A[i])
            bar_b[i] = _column_sums(bar_P[i])
            if i > 0:
                back = (bar_P[i] * weights[i] if i == L - 1
                        else bar_P[i] @ weights[i])
                back *= sp[i - 1]
                _accumulate(bar_P, i - 1, back)
            elif want_input_grad:
                bar_Z = bar_P[0] @ weights[0]
        for i in range(L):
            if bar_W[i] is None:
                bar_W[i] = np.zeros_like(weights[i])
            if bar_b[i] is None:
                bar_b[i] = np.zeros_like(self.params.biases[i])
        if want_input_grad and bar_Z is None:
            bar_Z = np.zeros_like(self.A[0])
        return bar_W, bar_b, bar_Z


def _column_sums(x):
    """x.sum(axis=0), bit for bit; einsum where its order is the same."""
    if x.shape[1] < 2 or not x.flags.c_contiguous:
        return x.sum(axis=0)
    return np.einsum("ij->j", x)


def _accumulate(buffers, i, x):
    """buffers[i] += x, where a buffer that is still None takes x itself."""
    if buffers[i] is None:
        buffers[i] = x
    else:
        buffers[i] += x


def forward_batch(params: MlpParams, Z) -> np.ndarray:
    return Tape(params, Z).values


def grad_input_batch(params: MlpParams, Z) -> np.ndarray:
    return Tape(params, Z).input_grads.copy()


def lipschitz_bound(params: MlpParams, l_sigma: float) -> float:
    """L_sigma^(depth-1) times the product of induced inf-norms of the weights."""
    if l_sigma <= 0:
        raise ValueError("activation Lipschitz constant must be positive")
    prod = 1.0
    for w in params.weights:
        prod *= float(np.max(np.sum(np.abs(w), axis=1)))
    return l_sigma ** (params.depth - 1) * prod


def flatten_layers(weights, biases) -> np.ndarray:
    """Layer arrays (or their gradients) as one vector: W_1, b_1, W_2, ..."""
    return np.concatenate([x.ravel() for pair in zip(weights, biases) for x in pair])


def flatten_params(params: MlpParams) -> np.ndarray:
    return flatten_layers(params.weights, params.biases)


def unflatten_params(flat: np.ndarray, template: MlpParams) -> MlpParams:
    """The network shaped like template whose layers are views of flat.

    flat is checked once, for its length and with one finiteness test over
    all entries.  The layer shapes come from the template, which was
    checked when it was built, so MlpParams' per-layer checks are skipped.
    """
    flat = np.asarray(flat, dtype=float)
    layers = list(zip(template.weights, template.biases))
    if flat.size != sum(w.size + b.size for w, b in layers):
        raise ValueError("flat vector length does not match template")
    if not np.isfinite(flat).all():
        raise ValueError("non-finite parameter entries")
    ws, bs = [], []
    pos = 0
    for w, b in layers:
        ws.append(flat[pos:pos + w.size].reshape(w.shape))
        pos += w.size
        bs.append(flat[pos:pos + b.size].reshape(b.shape))
        pos += b.size
    params = MlpParams.__new__(MlpParams)
    params.weights, params.biases = ws, bs
    params.activation = template.activation
    return params


def param_norm(nets, p: float = 2.0):
    """l^p norm of all weights and biases of the networks, flattened into
    one vector in pack order, and its gradient in the same layout.

    Where the norm has a kink the gradient is one subgradient: zero at
    theta = 0, and for p = inf a signed unit at the first largest entry.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    flat = np.concatenate([flatten_params(net) for net in nets])
    mag = np.abs(flat)
    grad = np.zeros_like(flat)
    if p == math.inf:
        top = int(np.argmax(mag))
        grad[top] = np.sign(flat[top])
        return float(mag[top]), grad
    norm = float(np.sum(mag ** p) ** (1.0 / p))
    if norm > 0.0:
        grad = np.sign(flat) * mag ** (p - 1.0) / norm ** (p - 1.0)
    return norm, grad


def write_params_csv(params: MlpParams, csv_path, meta_path) -> None:
    """Flat `layer,row,col,value` CSV (bias entries use col=-1) plus a meta file."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["layer", "row", "col", "value"])
        for li, (wm, bv) in enumerate(zip(params.weights, params.biases), start=1):
            for r in range(wm.shape[0]):
                for c in range(wm.shape[1]):
                    w.writerow([li, r, c, f"{wm[r, c]:.17g}"])
            for r in range(bv.shape[0]):
                w.writerow([li, r, -1, f"{bv[r]:.17g}"])
    with open(meta_path, "w") as fh:
        json.dump({"layer_sizes": list(params.layer_sizes),
                   "activation": params.activation.kind}, fh, indent=1)
        fh.write("\n")
