"""Fully connected feed-forward networks with hand-rolled reverse mode.

A network maps R^{n_0} -> R: every hidden layer applies z -> sigma(W z + b),
the final layer is affine with no activation.  Every evaluation of a
network goes through one Tape over a batch of inputs (one per row):

  * Tape.values      -- the outputs, from the forward pass,
  * Tape.input_grads -- the gradients of the output w.r.t. each input,
  * Tape.param_vjp   -- the parameter gradient of a linear functional of
                        the values (value seeds, always given) and
                        optionally of the input gradients (gradient seeds),
                        and optionally its input gradient.  A gradient seed
                        needs one extra adjoint sweep through the
                        input-gradient computation and sigma''; it is what
                        makes the gradient-sup regularizer differentiable
                        in the weights.

A caller that needs both the outputs and the input gradients of the same
rows reads both off one tape.

The tape is feature-major.  Callers pass and receive batches one input
per row: Z and A[0] (the batch as passed) are (B, n_0), Tape.values is
(B,), and input_grads and the VJP's bar_Z are (B, n_0) transposed views.
Every array the tape makes itself -- each hidden activation A[i+1],
sigma', sigma'' and sweep adjoint -- is (width, B), so the forward pass is
A[i+1] = sigma(W_i @ A[i] + b_i[:, None]) (with Z^T for A[0]), bias
gradients are row sums of the adjoint and weight gradients are
bar_P @ A[i]^T (bar_P @ Z for the first layer).  Hidden layers are 1-32
wide and batches hold up to a few thousand rows: with the batch on the
last axis, every elementwise product, broadcast and bias sum runs its
inner loop over B contiguous entries instead of over one short row B
times, and each bias sum is numpy's pairwise sum of one contiguous row.
A broadcast with a (width, 1) or (1, B) operand -- the bias add,
d = W_{L-1}^T * sigma' below the output layer, and the output layer's
W^T * bar_P -- keeps that B-long inner loop only while numpy's ufunc
buffer holds fewer than two rows; otherwise numpy merges rows and copies
the stride-0 operand into the buffer, about three times slower.  So the
entry points pin the buffer at harness._UFUNC_BUFSIZE = 256 elements,
below two rows of any batch from 129 rows up.

Each activation has one formula for sigma (Activation.value_over, which
writes it over the pre-activation), and sigma' and sigma'' are read off
the activation a = sigma(z) alone (Activation.slope, which can write
over a, and curvature): tanh 1 - a*a and -2*a*sigma', softplus 1 - e^-a
and sigma'(1 - sigma'), requ 2*sqrt(a) and 2*[a > 0], relu and leaky-relu
their slope where a > 0 and 0.  So a forward pass holds the hidden
activations and the output row and no pre-activation.  The input-gradient
sweep runs from the output down: c_{L-1} = W_{L-1}^T, then for each
hidden layer d_i = c_{i+1} * sigma'_i and c_i = W_i^T @ d_i.  It keeps
only c_0, the input gradients, so between the passes a tape holds its
activations, its output row and, once read, its input gradients.  The
gradient-seeded VJP of the box terms, the one reader of sigma'', d_i and
c_{i+1}, recomputes sigma', d_i and c_{i+1} from the activations, once and
by the sweep's own operations, so its bits do not depend on whether the
input gradients were read.  The recompute costs sigma' of each hidden
layer and one W_i^T @ d_i per hidden layer below the last.
Activation.deriv and deriv2 are slope and curvature of value(z).

A tape serves one VJP, which consumes it: reverse mode reads a layer only
until its sweep has passed it.  A value-seeded VJP (the residual and fit
tapes) writes sigma' over the activation whose weight gradient it has
just taken, multiplies it into the adjoint and drops it, so it holds at
most one hidden layer more than the tape held when it started.  A
gradient-seeded VJP drops each d_i and c_{i+1} once its first sweep has
read them, and each activation, sigma' and seeded adjoint once the second
sweep has.  Afterwards the tape keeps only params, values and the batch
A[0]: a second VJP, or an input_grads read, raises RuntimeError.

The tape writes in place where the fresh-temporary form would allocate
(b added into W @ A, sigma over its pre-activation, 1 - a*a in a*a's
buffer, sigma' over the activation it is read from, sigma' and sigma''
scaling fresh products) and keeps every product's operation order, so its
outputs are bit-identical to that form.
Output-layer products with a (1, B) or (n, 1) factor are broadcasts.
Tape.values is a view of the output layer's row, not a copy.

A layer with one input column (the first layer of a network on R^1, as in
the approximation probe) computes W_i @ A[i] as the broadcast product
W_i * A[i], (width, 1) times (1, B), which skips the matmul's dispatch.
Each entry of a matmul with K = 1 is that one product, so the bits are the
matmul's, up to the sign of an exact zero: the matmul's accumulator starts
at +0.0 and turns a -0.0 product into +0.0, where the broadcast keeps
-0.0.  Once the bias is added the two differ only where the bias entry is
-0.0 as well, which no fit reaches: biases start at +0.0, and an
optimizer step x - s is -0.0 only where x is -0.0.

Tape.param_vjp returns the parameter gradient as one flat vector in
flatten_params order (W_1, b_1, W_2, b_2, ...), the layout fit and
objective closures hand to the optimizer.  Each weight block is written by
matmul into its slice, each bias block by a row sum into its slice, and a
second contribution (the gradient seeds' sweep and the value adjoint meet
in every weight block) is added in place.
The vector is allocated fresh on every call and never reused: the
optimizer keeps the gradient of its best iterate by reference, so a buffer
shared between calls would silently overwrite it.

Parameters are validated where they enter: MlpParams checks each layer's
shape and finiteness at construction (init_params, grow_params) and
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

import math
import random
from dataclasses import dataclass

import numpy as np

from .grid import write_csv, write_json

LEAKY_SLOPE = 0.01

ACTIVATION_KINDS = ("tanh", "softplus", "relu", "leaky-relu", "requ")


@dataclass(frozen=True)
class Activation:
    kind: str

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {self.kind!r}")

    def value(self, z):
        return self.value_over(np.array(z, dtype=float))

    def deriv(self, z):
        return self.slope(self.value(z))

    def deriv2(self, z):
        a = self.value(z)
        return self.curvature(a, self.slope(a))

    def value_over(self, z):
        """sigma(z), written over the float array z and returned."""
        if self.kind == "tanh":
            return np.tanh(z, out=z)
        if self.kind == "softplus":
            # stable log(1 + e^z)
            return np.logaddexp(0.0, z, out=z)
        if self.kind == "relu":
            return np.maximum(z, 0.0, out=z)
        if self.kind == "leaky-relu":
            return np.multiply(z, LEAKY_SLOPE, out=z, where=z <= 0)
        np.maximum(z, 0.0, out=z)  # requ
        return np.square(z, out=z)

    def slope(self, a, out=None):
        """sigma'(z), read off the activation a = sigma(z), written into
        out if given (which may be a itself) and returned.  relu,
        leaky-relu and requ test a > 0, which holds where z > 0 (for requ,
        where z^2 does not underflow to 0)."""
        if self.kind == "tanh":
            s = np.multiply(a, a, out=out)
            return np.subtract(1.0, s,
                               out=s if isinstance(s, np.ndarray) else None)
        if self.kind == "softplus":
            # 1 - e^-a = e^z / (1 + e^z)
            return np.negative(np.expm1(np.negative(a, out=out), out=out),
                               out=out)
        if self.kind == "requ":
            # sqrt(z^2) is z while z^2 is normal
            return np.multiply(np.sqrt(a, out=out), 2.0, out=out)
        # relu and leaky-relu: 1 where a > 0, else 0 (the subgradient at the
        # kink fixed for determinism), which leaky-relu raises to LEAKY_SLOPE
        s = np.greater(a, 0.0, out=np.empty_like(a) if out is None else out)
        return s if self.kind == "relu" else np.maximum(s, LEAKY_SLOPE, out=s)

    def curvature(self, a, slope):
        """sigma''(z), given a = sigma(z) and slope = sigma'(z)."""
        if self.kind == "tanh":
            return -2.0 * a * slope
        if self.kind == "softplus":
            return slope * (1.0 - slope)
        if self.kind in ("relu", "leaky-relu"):
            return np.zeros_like(a)
        return np.where(a > 0, 2.0, 0.0)  # requ

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


def _uniform(rng: random.Random, bound: float, n_rows: int,
             n_cols: int) -> np.ndarray:
    """(n_rows, n_cols) draws of rng.uniform(-bound, bound), row-major."""
    return np.array([rng.uniform(-bound, bound)
                     for _ in range(n_rows * n_cols)]).reshape(n_rows, n_cols)


def init_params(layer_sizes, activation: Activation, seed: int) -> MlpParams:
    """Uniform weights in +-1/sqrt(fan_in), zero biases, deterministic.

    The weights are drawn from random.Random(seed), layer by layer from
    the input, each matrix row-major."""
    rng = random.Random(seed)
    ws, bs = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        ws.append(_uniform(rng, 1.0 / math.sqrt(n_in), n_out, n_in))
        bs.append(np.zeros(n_out))
    return MlpParams(ws, bs, activation)


def grow_params(params: MlpParams, new_sizes, seed: int) -> MlpParams:
    """Widen a network without changing the function it represents.

    Old units keep their weights.  New units receive random incoming
    weights (so they have nonzero gradients and can start training) but all
    weights OUT of a new unit are zero, which keeps the represented
    function bit-identical at the handoff.  The incoming weights are
    uniform in +-1/sqrt(new fan_in), drawn from random.Random(seed) layer
    by layer from the input, the new rows of each matrix row-major.
    """
    old_sizes = params.layer_sizes
    if len(new_sizes) != len(old_sizes):
        raise ValueError("growth must preserve depth")
    if new_sizes[0] != old_sizes[0] or new_sizes[-1] != old_sizes[-1]:
        raise ValueError("growth must preserve input/output dimensions")
    if any(n < o for n, o in zip(new_sizes, old_sizes)):
        raise ValueError("growth cannot shrink a layer")
    rng = random.Random(seed)
    ws, bs = [], []
    for li, (w, b) in enumerate(zip(params.weights, params.biases)):
        n_out_old, n_in_old = w.shape
        n_in_new = new_sizes[li]
        n_out_new = new_sizes[li + 1]
        nw = np.zeros((n_out_new, n_in_new))
        nw[:n_out_old, :n_in_old] = w
        if n_out_new > n_out_old:
            # new units: random incoming weights, zero bias
            nw[n_out_old:, :] = _uniform(rng, 1.0 / math.sqrt(n_in_new),
                                         n_out_new - n_out_old, n_in_new)
        # columns feeding FROM new units of the previous layer stay zero
        nb = np.zeros(n_out_new)
        nb[:n_out_old] = b
        ws.append(nw)
        bs.append(nb)
    return MlpParams(ws, bs, params.activation)


class Tape:
    """Forward + input-gradient sweep for a batch of inputs, kept for one
    VJP.

    A[0] is the batch Z as passed, (B, n_0); every later array the tape
    holds is feature-major, (width, B).  The forward pass leaves A, with
    the activation A[i+1] of each hidden layer i written over its
    pre-activation, and values, the output row.  input_grads adds _cs, the
    sweep's c_0 = W_0^T d_0, (n_0, B), and keeps nothing else of the
    sweep.  A gradient-seeded VJP recomputes sigma', d_i and c_{i+1} from
    the activations.  The VJP frees each hidden layer as its reverse sweep
    passes it and leaves params, values and A = [A[0]].
    """

    _cs = None       # the input gradients, transposed, once the sweep has run
    _spent = False   # set by the one VJP, which consumes the hidden layers

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
        x = Z.T
        for i in range(last + 1):
            w = weights[i]
            # a one-column layer is a broadcast product: one product per
            # entry, as in the matmul
            pre = w * x if w.shape[1] == 1 else w @ x
            pre += biases[i][:, None]
            if i < last:
                x = value_over(pre)
                A.append(x)
        self.A = A
        self.values = pre[0]

    def _layers_down(self):
        """The input-gradient sweep from the output down to d_0: for each
        hidden layer i, from the last, yields sigma'_i, d_i = c_{i+1} *
        sigma'_i and c_{i+1}, where c_i = W_i^T @ d_i.  c_{L-1} is
        W_{L-1}^T itself: every column of W_{L-1}^T @ ones((1, B)) is
        W_{L-1}'s one row, which broadcasting reads."""
        weights, slope, A = self.params.weights, self.params.activation.slope, self.A
        c = weights[-1].T
        for i in range(len(weights) - 2, -1, -1):
            s = slope(A[i + 1])
            d = c * s
            yield s, d, c
            if i:
                c = weights[i].T @ d

    def _input_grad_sweep(self):
        if self._cs is not None:
            return
        if self._spent:
            raise RuntimeError("the tape's VJP has freed the hidden layers "
                               "the input-gradient sweep reads")
        d = np.ones((1, self.A[0].shape[0]))
        for _, d, _ in self._layers_down():
            pass
        self._cs = self.params.weights[0].T @ d

    @property
    def input_grads(self) -> np.ndarray:
        """The gradient of each output w.r.t. its input, (B, n_0): a view
        of _cs, which the first read computes by the input-gradient sweep,
        keeping nothing else of it."""
        self._input_grad_sweep()
        return self._cs.T

    def _seed_sweep(self, grad_seeds, w_grads):
        """The gradient seeds' sweep through the input-gradient computation,
        on the bits the input-gradient sweep computes (_layers_down, run
        once from the top): writes its part of each weight gradient into
        w_grads, drops each d_i and c_{i+1} once read and returns sigma' and
        the adjoint it leaves on each hidden layer's pre-activation, both
        bottom-up."""
        weights, curvature = self.params.weights, self.params.activation.curvature
        layers = list(self._layers_down())
        slopes, seeded = [], []
        bar_c = np.asarray(grad_seeds, dtype=float).T
        for i in range(len(weights) - 1):
            s, d, c = layers.pop()
            np.matmul(d, bar_c.T, out=w_grads[i])
            del d
            bar_d = weights[i] @ bar_c
            bar_c = bar_d * s
            bar_d *= c
            del c
            bar_d *= curvature(self.A[i + 1], s)
            slopes.append(s)
            seeded.append(bar_d)
        # d_{L-1} = 1
        np.matmul(np.ones((1, bar_c.shape[1])), bar_c.T, out=w_grads[-1])
        return slopes, seeded

    def param_vjp(self, val_seeds, grad_seeds=None, want_input_grad=False):
        """Parameter gradient of sum_b [val_seeds_b * f(z_b)
        + grad_seeds_b . grad_z f(z_b)] as one fresh vector in
        flatten_params order; and with want_input_grad the gradient of the
        same sum with respect to the inputs.

        val_seeds is (B,) and required; grad_seeds, if given, and bar_Z are
        (B, n_0).  Returns (grad, bar_Z), bar_Z None unless want_input_grad.
        Each block of grad takes its first contribution by a product
        written into it and a later one by addition.

        The VJP consumes the tape: the reverse sweep frees each hidden layer
        once it has passed it.  Gradient seeds recompute sigma' of every
        hidden layer, once, for both sweeps; without them sigma' is written
        over the activation the weight gradient has just read.  Afterwards
        the tape holds params, values and the batch A[0]; a second VJP, or
        an input_grads read, raises RuntimeError.
        """
        if self._spent:
            raise RuntimeError("a tape runs one VJP, which has consumed it")
        self._spent = True
        self._cs = None
        weights, act, A = self.params.weights, self.params.activation, self.A
        L = len(weights)
        grad = np.zeros(self.params._layout[0])
        w_grads, b_grads = _layer_views(grad, self.params._layout[1])
        # sigma' and the gradient-seed sweep's adjoint of each hidden layer
        sp, seeded = (([], []) if grad_seeds is None
                      else self._seed_sweep(grad_seeds, w_grads))

        bar_P = np.asarray(val_seeds, dtype=float).reshape(1, -1)
        bar_Z = None
        for i in range(L - 1, -1, -1):
            if i < len(seeded):
                seeded[i] += bar_P
                bar_P = seeded.pop()
            x = A[i].T if i else A[0]
            if grad_seeds is None:
                np.matmul(bar_P, x, out=w_grads[i])
            else:
                w_grads[i] += bar_P @ x
            np.add.reduce(bar_P, axis=1, out=b_grads[i])
            if i > 0:
                bar_P = (weights[i].T * bar_P if i == L - 1
                         else weights[i].T @ bar_P)
                # sigma'_{i-1}: recomputed for the seeds, or written over A[i]
                bar_P *= sp.pop() if sp else act.slope(A[i], out=A[i])
                del A[i]
            elif want_input_grad:
                bar_Z = (weights[0].T @ bar_P).T
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
    write_json(meta_path, {"layer_sizes": list(params.layer_sizes),
                           "activation": params.activation.kind})
