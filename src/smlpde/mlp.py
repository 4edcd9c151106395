"""Fully connected feed-forward networks with hand-rolled reverse mode.

A network maps R^{n_0} -> R: every hidden layer applies z -> sigma(W z + b),
the final layer is affine with no activation.  Every evaluation of a
network goes through one Tape over a batch of inputs (one per row):

  * Tape.values      -- the outputs, from the forward pass,
  * Tape.input_grads -- the gradients of the output w.r.t. each input,
  * Tape.param_vjp   -- the parameter gradient of any linear functional of
                        (value, input-gradient), and optionally its input
                        gradient.  A gradient seed needs one extra adjoint
                        sweep through the input-gradient computation and
                        sigma''; it is what makes the gradient-sup
                        regularizer differentiable in the weights.

A caller that needs both the outputs and the input gradients of the same
rows reads both off one tape.

The tape is feature-major.  Callers pass and receive batches one input
per row: Z and A[0] (the batch as passed) are (B, n_0), Tape.values is
(B,), and input_grads and the VJP's bar_Z are (B, n_0) transposed views.
Every array the tape makes itself -- each hidden pre-activation P[i],
activation A[i+1], sigma', sigma'' and sweep adjoint -- is (width, B), so
the forward pass is P[i] = W_i @ A[i] + b_i[:, None] (with Z^T for A[0]),
bias gradients are row sums of the adjoint and weight gradients are
bar_P @ A[i]^T (bar_P @ Z for the first layer).  Hidden layers are 1-32
wide and batches hold up to a few thousand rows: with the batch on the
last axis, every elementwise product, broadcast and bias sum runs its
inner loop over B contiguous entries instead of over one short row B
times, and each bias sum is numpy's pairwise sum of one contiguous row.

A tape computes sigma' of each hidden layer at most once, on the first
input-gradient sweep or VJP that needs it, and sigma'' at most once, on
the first gradient-seeded VJP; later sweeps and VJPs on the same tape
reuse them.  Activation.slope and Activation.curvature take the stored
activation a = sigma(z) along with z, so tanh needs no further tanh
evaluation: sigma' = 1 - a*a and sigma'' = -2*a*sigma', the same
expressions Activation.deriv and deriv2 evaluate.

The tape writes in place where the fresh-temporary form would allocate
(b added into W @ A, 1 - a*a in a*a's buffer, sigma' and sigma'' scaling
fresh products) and keeps every product's operation order, so its outputs
are bit-identical to that form.  Output-layer products with a (1, B) or
(n, 1) factor are broadcasts.  Tape.values is a view of the output layer's
row, not a copy.

A layer with one input column (the first layer of a network on R^1, as in
the approximation probe) computes W_i @ A[i] as the broadcast product
W_i * A[i], (width, 1) times (1, B), which skips the matmul's dispatch.
Each entry of a matmul with K = 1 is that one product, so the bits are the
matmul's, up to the sign of an exact zero: the matmul's accumulator starts
at +0.0 and turns a -0.0 product into +0.0, where the broadcast keeps
-0.0.  Once the bias is added the two differ only where the bias entry is
-0.0 as well, which no fit reaches: biases start at +0.0, and an
optimizer step x - s is -0.0 only where x is -0.0.

A hidden layer whose sigma' and sigma'' need only a = sigma(z) computes
its activation over its pre-activation (Activation.value_over): for tanh,
relu and leaky-relu P[i] and A[i+1] are one array, so a forward pass holds
the hidden activations and the output row and no second copy of each
hidden layer.  softplus and requ read z itself and keep P[i] beside
A[i+1].

Tape.param_vjp returns the parameter gradient as one flat vector in
flatten_params order (W_1, b_1, W_2, b_2, ...), the layout fit and
objective closures hand to the optimizer.  Each weight block is written by
matmul into its slice, each bias block by a row sum into its slice, and a
second contribution (the gradient seeds' sweep and the value adjoint meet
in every weight block) is added in place; a block no seed reaches stays 0.
The vector is allocated fresh on every call and never reused: the
optimizer keeps the gradient of its best iterate by reference, so a buffer
shared between calls would silently overwrite it.

Parameters are validated where they enter: MlpParams checks each layer's
shape and finiteness at construction (init_params, grow_params, copy) and
records the flat layout (each layer's offsets and shape) once.
unflatten_params, which fit and objective closures call on every
evaluation, takes its slices from the template's layout and checks the
flat vector once, for its length and for finiteness (one
np.logical_and.reduce over np.isfinite), instead of re-checking every
layer.

The theoretical Lipschitz constant  L_sigma^{depth-1} * prod_l |W_l|_inf
(induced infinity norm, i.e. max row sum) is exposed as lipschitz_bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import write_csv

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

    def value_over(self, z):
        """sigma(z), written over z where slope and curvature need only
        a = sigma(z): tanh reads a alone, and relu and leaky-relu test
        z > 0, which holds exactly where a > 0.  softplus and requ read z
        itself, so they return a fresh array and leave z as it was.  The
        bits are those of value(z)."""
        if self.kind == "tanh":
            return np.tanh(z, out=z)
        if self.kind == "relu":
            return np.maximum(z, 0.0, out=z)
        if self.kind == "leaky-relu":
            return np.multiply(z, LEAKY_SLOPE, out=z, where=z <= 0)
        return self.value(z)

    def slope(self, z, a):
        """sigma'(z), given a = sigma(z); tanh reads it off a.  Where
        value_over wrote a over z, z is a."""
        if self.kind == "tanh":
            s = a * a
            return np.subtract(1.0, s,
                               out=s if isinstance(s, np.ndarray) else None)
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
    dimension 1 and finite entries, and records the layers' offsets in the
    flat vector (_layout).  unflatten_params builds its networks without
    these per-layer checks: it checks the flat vector once (length and
    finiteness) and takes the shapes and offsets from an already checked
    template.
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
        self._layout = _flat_layout(self.weights)

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
    """Forward + input-gradient sweep for a batch of inputs, kept for VJPs.

    A[0] is the batch Z as passed, (B, n_0); every later array the tape
    holds (A[1:], P, sigma', sigma'', the sweeps' adjoints) is feature-major,
    (width, B).  The forward pass leaves A, with the hidden activations
    A[1:], and P, whose last entry is the (1, B) output row.  P[i] is
    A[i+1] for every hidden layer i when the activation's derivatives need
    only a (tanh, relu, leaky-relu); for softplus and requ P[i] is the
    separate pre-activation.  sigma' and sigma'' of each hidden layer are
    added by the first sweep or VJP that needs them, and the input-gradient
    sweep's ds and cs by input_grads or the first gradient-seeded VJP.
    """

    _cs = _ds = _slopes = _curvatures = None

    def __init__(self, params: MlpParams, Z: np.ndarray):
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != params.input_dim:
            raise ValueError(
                f"input batch shape {Z.shape} incompatible with n_0={params.input_dim}"
            )
        self.params = params
        weights, biases = params.weights, params.biases
        value_over = params.activation.value_over
        last = len(weights) - 1
        A = [Z]
        P = []
        x = Z.T
        for i in range(last + 1):
            w = weights[i]
            # a one-column layer is a broadcast product: one product per
            # entry, as in the matmul
            pre = w * x if w.shape[1] == 1 else w @ x
            pre += biases[i][:, None]
            P.append(pre)
            if i < last:
                x = value_over(pre)
                A.append(x)
        self.A, self.P = A, P
        self.values = pre[0]

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
        ds[L - 1] = np.ones((1, B))
        for i in range(L - 1, -1, -1):
            # every column of W_{L-1}^T @ ones((1, B)) is W_{L-1}'s one row,
            # which broadcasting reads; only the input gradient needs all B
            cs[i] = weights[i].T if 0 < i == L - 1 else weights[i].T @ ds[i]
            if i > 0:
                ds[i - 1] = cs[i] * sp[i - 1]
        self._cs, self._ds = cs, ds

    @property
    def input_grads(self) -> np.ndarray:
        self._input_grad_sweep()
        return self._cs[0].T

    def param_vjp(self, val_seeds=None, grad_seeds=None, want_input_grad=False):
        """Parameter gradient of sum_b [val_seeds_b * f(z_b)
        + grad_seeds_b . grad_z f(z_b)], either seed block may be None, as
        one fresh vector in flatten_params order; and with want_input_grad
        the gradient of the same sum with respect to the inputs.

        val_seeds is (B,), grad_seeds and bar_Z are (B, n_0).  Returns
        (grad, bar_Z), bar_Z None unless want_input_grad.  Each block of
        grad takes its first contribution by a product written into it and
        a later one by addition; a block no seed reaches is 0.
        """
        weights = self.params.weights
        L = len(weights)
        sp = self._hidden_slopes()
        grad = np.zeros(self.params._layout[0])
        w_grads, b_grads = _layer_views(grad, self.params._layout[1])

        seeded = []   # the gradient-seed sweep's adjoint of each P[i], i < L-1
        if grad_seeds is not None:
            self._input_grad_sweep()
            spp = self._hidden_curvatures()
            bar_c = np.asarray(grad_seeds, dtype=float).T
            for i in range(L):
                # cs[i] = W_i^T @ ds[i]
                np.matmul(self._ds[i], bar_c.T, out=w_grads[i])
                if i < L - 1:
                    # ds[i] = cs[i+1] * sigma'(P[i])
                    bar_d = weights[i] @ bar_c
                    bar_c = bar_d * sp[i]
                    bar_d *= self._cs[i + 1]
                    bar_d *= spp[i]
                    seeded.append(bar_d)

        bar_P = (None if val_seeds is None
                 else np.asarray(val_seeds, dtype=float).reshape(1, -1))
        bar_Z = None
        for i in range(L - 1, -1, -1):
            if i < len(seeded):
                if bar_P is not None:
                    seeded[i] += bar_P
                bar_P = seeded[i]
            if bar_P is None:
                continue
            x = self.A[i].T if i else self.A[0]
            if grad_seeds is None:
                np.matmul(bar_P, x, out=w_grads[i])
            else:
                w_grads[i] += bar_P @ x
            np.add.reduce(bar_P, axis=1, out=b_grads[i])
            if i > 0:
                bar_P = (weights[i].T * bar_P if i == L - 1
                         else weights[i].T @ bar_P)
                bar_P *= sp[i - 1]
            elif want_input_grad:
                bar_Z = (weights[0].T @ bar_P).T
        if want_input_grad and bar_Z is None:
            bar_Z = np.zeros_like(self.A[0])
        return grad, bar_Z


def lipschitz_bound(params: MlpParams, l_sigma: float) -> float:
    """L_sigma^(depth-1) times the product of induced inf-norms of the weights."""
    if l_sigma <= 0:
        raise ValueError("activation Lipschitz constant must be positive")
    prod = 1.0
    for w in params.weights:
        prod *= float(np.max(np.sum(np.abs(w), axis=1)))
    return l_sigma ** (params.depth - 1) * prod


def _flat_layout(weights):
    """(size, layers) of the flat vector flatten_params makes: layer i's
    weights sit at [w_i, b_i) in the shape of weights[i], its biases at
    [b_i, e_i)."""
    layers = []
    pos = 0
    for w in weights:
        b = pos + w.size
        layers.append((pos, b, b + w.shape[0], w.shape))
        pos = b + w.shape[0]
    return pos, tuple(layers)


def _layer_views(flat, layers):
    """Weight and bias views of flat, one per layer of a _flat_layout."""
    return ([flat[w:b].reshape(shape) for w, b, _, shape in layers],
            [flat[b:e] for _, b, e, _ in layers])


def flatten_params(params: MlpParams) -> np.ndarray:
    """The weights and biases as one vector: W_1, b_1, W_2, b_2, ..."""
    return np.concatenate([x.ravel() for pair in zip(params.weights, params.biases)
                           for x in pair])


def unflatten_params(flat: np.ndarray, template: MlpParams) -> MlpParams:
    """The network shaped like template whose layers are views of flat.

    flat is checked once, for its length and with one finiteness test over
    all entries.  The layer shapes and offsets come from the template's
    layout, computed when the template was built and checked, so
    MlpParams' per-layer checks are skipped.
    """
    flat = np.asarray(flat, dtype=float)
    size, layers = template._layout
    if flat.size != size:
        raise ValueError("flat vector length does not match template")
    if not np.logical_and.reduce(np.isfinite(flat)):
        raise ValueError("non-finite parameter entries")
    params = MlpParams.__new__(MlpParams)
    params.weights, params.biases = _layer_views(flat, layers)
    params.activation = template.activation
    params._layout = template._layout
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
    rows = []
    for li, (wm, bv) in enumerate(zip(params.weights, params.biases), start=1):
        for r in range(wm.shape[0]):
            for c in range(wm.shape[1]):
                rows.append((li, r, c, wm[r, c]))
        for r in range(bv.shape[0]):
            rows.append((li, r, -1, bv[r]))
    write_csv(csv_path, ("layer", "row", "col", "value"), rows)
    with open(meta_path, "w") as fh:
        json.dump({"layer_sizes": list(params.layer_sizes),
                   "activation": params.activation.kind}, fh, indent=1)
        fh.write("\n")
