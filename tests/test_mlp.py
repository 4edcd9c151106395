import csv
import inspect
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from smlpde import mlp
from smlpde.mlp import (Activation, MlpParams, flatten_params, grow_params,
                        init_params, lipschitz_bound, param_norm,
                        unflatten_params, write_params_csv)


# sigma, sigma' and sigma'' of every kind as functions of the pre-activation
# z, written out independently of Activation, which reads sigma' and sigma''
# off a = sigma(z)
SIGMA = {
    "tanh": np.tanh,
    "softplus": lambda z: np.logaddexp(0.0, z),
    "relu": lambda z: np.maximum(z, 0.0),
    "leaky-relu": lambda z: np.where(z > 0, z, mlp.LEAKY_SLOPE * z),
    "requ": lambda z: np.where(z > 0, z, 0.0) ** 2,
}
SLOPE = {
    "tanh": lambda z: 1.0 - np.tanh(z) ** 2,
    "softplus": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "relu": lambda z: np.where(z > 0, 1.0, 0.0),
    "leaky-relu": lambda z: np.where(z > 0, 1.0, mlp.LEAKY_SLOPE),
    "requ": lambda z: 2.0 * np.maximum(z, 0.0),
}
CURVATURE = {
    "tanh": lambda z: -2.0 * np.tanh(z) * SLOPE["tanh"](z),
    "softplus": lambda z: SLOPE["softplus"](z) * (1.0 - SLOPE["softplus"](z)),
    "relu": np.zeros_like,
    "leaky-relu": np.zeros_like,
    "requ": lambda z: np.where(z > 0, 2.0, 0.0),
}


def random_net(sizes, seed, activation="tanh", scale=0.6):
    rng = np.random.default_rng(seed)
    ws = [scale * rng.standard_normal((o, i))
          for i, o in zip(sizes[:-1], sizes[1:])]
    bs = [scale * rng.standard_normal(o) for o in sizes[1:]]
    return MlpParams(ws, bs, Activation(activation))


def forward(net, z):
    """The network's output at one input vector, through a tape."""
    return float(mlp.Tape(net, np.asarray(z, dtype=float)[None, :]).values[0])


def backprop(net, z, seed):
    """seed times the flat parameter gradient and the input gradient of the
    output at z."""
    tape = mlp.Tape(net, np.asarray(z, dtype=float)[None, :])
    grad, bz = tape.param_vjp(val_seeds=np.array([seed]), want_input_grad=True)
    return grad, bz[0]


def fd_param_grads(net, z, h=1e-6):
    flat = flatten_params(net)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        xp, xm = flat.copy(), flat.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (forward(unflatten_params(xp, net), z)
                  - forward(unflatten_params(xm, net), z)) / (2 * h)
    return out


class TestForward:
    def test_zero_weights_bias_only(self):
        net = MlpParams([np.zeros((3, 2)), np.zeros((1, 3))],
                        [np.zeros(3), np.array([4.5])], Activation("tanh"))
        assert forward(net, [0.3, -2.0]) == 4.5

    def test_single_affine_layer(self):
        net = MlpParams([np.array([[2.0]])], [np.array([1.0])],
                        Activation("tanh"))
        assert forward(net, [3.0]) == 7.0

    def test_two_layer_tanh_hand_computation(self):
        w1 = np.array([[0.5], [-1.0]])
        b1 = np.array([0.1, 0.2])
        w2 = np.array([[1.5, -0.5]])
        b2 = np.array([0.3])
        net = MlpParams([w1, w2], [b1, b2], Activation("tanh"))
        z = 0.4
        expect = 1.5 * math.tanh(0.5 * z + 0.1) \
            - 0.5 * math.tanh(-1.0 * z + 0.2) + 0.3
        assert forward(net, [z]) == pytest.approx(expect, abs=1e-14)

    def test_dimension_mismatch(self):
        net = random_net([3, 4, 1], 0)
        with pytest.raises(ValueError):
            forward(net, [1.0, 2.0])

    def test_final_layer_scaling(self):
        # last layer is affine, so scaling its weights and bias scales f
        net = random_net([2, 5, 1], 1)
        scaled = MlpParams([net.weights[0], 2.5 * net.weights[1]],
                           [net.biases[0], 2.5 * net.biases[1]],
                           net.activation)
        z = [0.3, -0.8]
        assert forward(scaled, z) == pytest.approx(2.5 * forward(net, z),
                                                   rel=1e-14)


class TestGradInput:
    def test_affine_layer_returns_weights(self):
        net = MlpParams([np.array([[2.0, -1.0]])], [np.array([0.7])],
                        Activation("relu"))
        g = mlp.Tape(net, np.array([[0.4, 0.9]])).input_grads
        assert np.array_equal(g, [[2.0, -1.0]])

    def test_zero_weights_zero_gradient(self):
        net = MlpParams([np.zeros((3, 2)), np.zeros((1, 3))],
                        [np.ones(3), np.array([1.0])], Activation("tanh"))
        g = mlp.Tape(net, np.array([[1.0, 2.0]])).input_grads
        assert np.array_equal(g, [[0.0, 0.0]])

    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ", "relu",
                                            "leaky-relu"])
    def test_matches_finite_differences(self, activation):
        net = random_net([4, 6, 5, 1], 11, activation)
        rng = np.random.default_rng(5)
        Z = rng.uniform(-1, 1, (5, 4))
        G = mlp.Tape(net, Z).input_grads
        h = 1e-5
        for z, g in zip(Z, G):
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (forward(net, z + e) - forward(net, z - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBackprop:
    def test_zero_seed(self):
        net = random_net([3, 4, 1], 2)
        grad, bz = backprop(net, [0.1, 0.2, 0.3], 0.0)
        assert grad.shape == flatten_params(net).shape
        assert np.all(grad == 0)
        assert np.all(bz == 0)

    def test_single_affine_layer(self):
        net = MlpParams([np.array([[1.0, -2.0]])], [np.array([0.5])],
                        Activation("tanh"))
        z = np.array([0.3, 0.8])
        grad, _ = backprop(net, z, 1.0)
        assert np.allclose(grad, [0.3, 0.8, 1.0])

    def test_consistency_with_grad_input(self):
        net = random_net([3, 5, 4, 1], 3)
        z = np.array([0.2, -0.4, 0.9])
        _, bz = backprop(net, z, 1.0)
        g = mlp.Tape(net, z[None, :]).input_grads[0]
        assert np.max(np.abs(bz - g)) <= 1e-12

    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ"])
    def test_param_grads_match_finite_differences(self, activation):
        net = random_net([3, 5, 4, 1], 7, activation)
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, 3)
        an, _ = backprop(net, z, 1.0)
        fd = fd_param_grads(net, z)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        assert np.max(np.abs(fd - an) / denom) < 1e-6


    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ"])
    def test_seeded_input_grads_match_sweep_rows(self, activation):
        # many rows, one value seed each: the VJP's input adjoint is every
        # row's input gradient times its seed, on a tape that never ran the
        # input-gradient sweep
        net = random_net([3, 6, 5, 1], 4, activation)
        rng = np.random.default_rng(9)
        Z = rng.uniform(-1, 1, (40, 3))
        seeds = rng.standard_normal(40)
        _, bz = mlp.Tape(net, Z).param_vjp(val_seeds=seeds,
                                           want_input_grad=True)
        expect = seeds[:, None] * mlp.Tape(net, Z).input_grads
        assert np.max(np.abs(bz - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestSecondOrderVjp:
    """Parameter gradient of a linear functional of (value, input-gradient)."""

    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ", "relu",
                                            "leaky-relu"])
    def test_matches_finite_differences(self, activation):
        net = random_net([3, 5, 4, 1], 13, activation)
        rng = np.random.default_rng(14)
        Z = rng.uniform(-1, 1, (6, 3))
        val_seeds = rng.standard_normal(6)
        grad_seeds = rng.standard_normal((6, 3))

        def functional(params):
            tape = mlp.Tape(params, Z)
            return float(np.sum(val_seeds * tape.values)
                         + np.sum(grad_seeds * tape.input_grads))

        tape = mlp.Tape(net, Z)
        an, _ = tape.param_vjp(val_seeds=val_seeds, grad_seeds=grad_seeds)
        flat = flatten_params(net)
        fd = np.zeros_like(flat)
        # piecewise-linear activations make the functional multilinear in
        # the parameters between kinks, so central differences carry only
        # roundoff, and a longer step (still far from every kink) cuts it
        h = 1e-4 if activation in ("relu", "leaky-relu") else 1e-6
        for i in range(flat.size):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (functional(unflatten_params(xp, net))
                     - functional(unflatten_params(xm, net))) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        assert np.max(np.abs(fd - an) / denom) < 1e-6

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_independent_of_tape_history(self, activation):
        # an input-gradient read caches sigma'; without it a value-seeded
        # VJP writes sigma' over the activations: not a single bit may
        # differ between the two
        net = random_net([3, 6, 5, 1], 15, activation)
        rng = np.random.default_rng(16)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds = rng.standard_normal(9)
        for grad_seeds in (None, rng.standard_normal((9, 3))):
            fresh, after_read = (tape.param_vjp(val_seeds, grad_seeds, True)
                                 for tape in both_histories(net, Z))
            for a, b in zip(fresh, after_read):
                assert a.tobytes() == b.tobytes()


def both_histories(net, Z):
    """Two tapes of net over Z, each for one VJP: one as the forward pass
    left it, whose value-seeded VJP writes sigma' over the activations, and
    one whose input gradients were read, whose sigma' is cached."""
    read = mlp.Tape(net, Z)
    read.input_grads
    return [mlp.Tape(net, Z), read]


def reference_tape(net, Z, from_derivs=False):
    """The tape's feature-major formulas with a fresh temporary for every
    product, the output layer's products through matmul and every bias
    gradient through sum(axis=1): (values, input_grads, vjp) with
    vjp(val_seeds, grad_seeds, want_input_grad) -> (bar_W, bar_b, bar_Z).
    Every pre-activation is a fresh array the reference never writes over;
    with from_derivs, sigma' and sigma'' are Activation.deriv and deriv2 of
    it."""
    act = net.activation
    W, L = net.weights, net.depth
    X, P = [Z.T], []
    for i, (w, b) in enumerate(zip(W, net.biases)):
        P.append(w @ X[-1] + b[:, None])
        if i < L - 1:
            X.append(act.value(P[-1]))
    if from_derivs:
        sp = [act.deriv(p) for p in P[:-1]]
        spp = [act.deriv2(p) for p in P[:-1]]
    else:
        sp = [1.0 - a * a if act.kind == "tanh" else act.slope(a)
              for a in X[1:]]
        spp = [act.curvature(a, s) for a, s in zip(X[1:], sp)]
    ds, cs = [None] * L, [None] * L
    ds[L - 1] = np.ones((1, Z.shape[0]))
    for i in range(L - 1, -1, -1):
        cs[i] = W[i].T @ ds[i]
        if i > 0:
            ds[i - 1] = cs[i] * sp[i - 1]

    def vjp(val_seeds, grad_seeds, want_input_grad):
        bar_W = [np.zeros_like(w) for w in W]
        bar_b = [np.zeros_like(b) for b in net.biases]
        bar_P = [None] * L
        if grad_seeds is not None:
            bar_c = grad_seeds.T
            for i in range(L):
                bar_W[i] = ds[i] @ bar_c.T
                if i < L - 1:
                    bar_d = W[i] @ bar_c
                    bar_c = bar_d * sp[i]
                    bar_P[i] = bar_d * cs[i + 1] * spp[i]
        if val_seeds is not None:
            bar_P[L - 1] = val_seeds.reshape(1, -1)
        bar_Z = np.zeros_like(Z) if want_input_grad else None
        for i in range(L - 1, -1, -1):
            if bar_P[i] is None:
                continue
            bar_W[i] = (bar_P[i] @ X[i].T if grad_seeds is None
                        else bar_W[i] + bar_P[i] @ X[i].T)
            bar_b[i] = bar_P[i].sum(axis=1)
            if i > 0:
                back = (W[i].T @ bar_P[i]) * sp[i - 1]
                bar_P[i - 1] = back if bar_P[i - 1] is None else bar_P[i - 1] + back
            elif want_input_grad:
                bar_Z = (W[0].T @ bar_P[0]).T
        return bar_W, bar_b, bar_Z

    return P[-1][0], cs[0].T, vjp


def row_major_reference(net, Z):
    """The same maths with one input per row of every array, (B, width),
    written independently of the tape's layout and of Activation, with
    sigma, sigma' and sigma'' of the pre-activation.  It rounds differently
    (other gemm orders, bias sums down a column, softplus' sigma' from z),
    so the tape matches it within rounding only; same return as
    reference_tape."""
    kind = net.activation.kind
    W, L = net.weights, net.depth
    A, P = [Z], []
    for i, (w, b) in enumerate(zip(W, net.biases)):
        P.append(A[-1] @ w.T + b)
        if i < L - 1:
            A.append(SIGMA[kind](P[-1]))
    sp = [SLOPE[kind](p) for p in P[:-1]]
    spp = [CURVATURE[kind](p) for p in P[:-1]]
    ds, cs = [None] * L, [None] * L
    ds[L - 1] = np.ones((Z.shape[0], 1))
    for i in range(L - 1, -1, -1):
        cs[i] = ds[i] @ W[i]
        if i > 0:
            ds[i - 1] = cs[i] * sp[i - 1]

    def vjp(val_seeds, grad_seeds, want_input_grad):
        bar_W = [np.zeros_like(w) for w in W]
        bar_b = [np.zeros_like(b) for b in net.biases]
        bar_P = [None] * L
        if grad_seeds is not None:
            bar_c = grad_seeds
            for i in range(L):
                bar_W[i] = ds[i].T @ bar_c
                if i < L - 1:
                    bar_d = bar_c @ W[i].T
                    bar_c = bar_d * sp[i]
                    bar_P[i] = bar_d * cs[i + 1] * spp[i]
        if val_seeds is not None:
            bar_P[L - 1] = val_seeds.reshape(-1, 1)
        bar_Z = np.zeros_like(Z) if want_input_grad else None
        for i in range(L - 1, -1, -1):
            if bar_P[i] is None:
                continue
            bar_W[i] = (bar_P[i].T @ A[i] if grad_seeds is None
                        else bar_W[i] + bar_P[i].T @ A[i])
            bar_b[i] = bar_P[i].sum(axis=0)
            if i > 0:
                back = (bar_P[i] @ W[i]) * sp[i - 1]
                bar_P[i - 1] = back if bar_P[i - 1] is None else bar_P[i - 1] + back
            elif want_input_grad:
                bar_Z = bar_P[0] @ W[0]
        return bar_W, bar_b, bar_Z

    return P[-1][:, 0], cs[0], vjp


def heavy_tailed(rng, shape):
    """Normal entries scaled over six decades, so that any reordering of a
    sum shows in its last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def flat_reference(layers):
    """Reference layer gradients in flatten_params order, with every bit
    (signed zeros included) as the reference computed it."""
    bar_W, bar_b = layers
    return np.concatenate([x.ravel() for pair in zip(bar_W, bar_b) for x in pair])


# every caller passes value seeds; gradient seeds are optional
SEED_CASES = (("values", True, False), ("both", True, True))


class TestTapeMatchesReference:
    """Tape's in-place products, broadcasts, row-sum bias gradients and flat
    gradient writes change no bit of any output against the plain
    feature-major formulas, flattened.  Inputs of one column (n_0 = 1, the
    probe's networks) and width-1 hidden layers take the tape's broadcast
    product where the reference multiplies by matmul."""

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_bit_identical(self, activation, depth):
        rng = np.random.default_rng(31 + depth)
        for n0, width in itertools.product((3, 1), (1, 2, 8)):
            sizes = [n0] + [width] * (depth - 1) + [1]
            net = random_net(sizes, 17 * depth + width, activation)
            for B in (1, 9, 129):
                Z = rng.uniform(-1.5, 1.5, (B, n0))
                val_seeds = heavy_tailed(rng, B)
                grad_seeds = heavy_tailed(rng, (B, n0))
                values, input_grads, vjp = reference_tape(net, Z)
                tape = mlp.Tape(net, Z)
                assert tape.values.tobytes() == values.tobytes()
                assert tape.input_grads.tobytes() == input_grads.tobytes()
                for _, use_val, use_grad in SEED_CASES:
                    seeds = (val_seeds if use_val else None,
                             grad_seeds if use_grad else None)
                    for want in (False, True):
                        *layers, expect_Z = vjp(*seeds, want)
                        expect = flat_reference(layers)
                        for tape in both_histories(net, Z):
                            grad, bar_Z = tape.param_vjp(*seeds,
                                                         want_input_grad=want)
                            assert grad.shape == expect.shape
                            assert grad.tobytes() == expect.tobytes()
                            if want:
                                assert bar_Z.tobytes() == expect_Z.tobytes()
                            else:
                                assert bar_Z is None


class TestActivationOverPreActivation:
    """Every kind writes each hidden activation over its pre-activation,
    and sigma' and sigma'' read the activation alone.  No output moves a
    bit against Activation.value, deriv and deriv2 evaluated on fresh
    arrays."""

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_value_over(self, activation):
        act = Activation(activation)
        z = np.concatenate([np.linspace(-3.0, 3.0, 13), [0.0, -0.0, 1e-320,
                                                         -1e-320]])
        before = z.copy()
        expect = SIGMA[activation](z)
        assert act.value(z).tobytes() == expect.tobytes()
        assert z.tobytes() == before.tobytes()
        a = act.value_over(z)
        assert a is z
        assert a.tobytes() == expect.tobytes()

    def test_derivatives_from_activation(self):
        # softplus: sigma' = -expm1(-a) against 1 / (1 + e^-z), and
        # sigma'' = sigma'(1 - sigma'), whose 1 - sigma' cancels where
        # sigma' is near 1 (from z as from a), so its error is counted in
        # the last place of sigma', the factor it is formed from
        z = np.linspace(-700.0, 700.0, 200_001)
        act = Activation("softplus")
        slope = act.slope(act.value(z))
        ulp = np.spacing(SLOPE["softplus"](z))
        assert np.max(np.abs(slope - SLOPE["softplus"](z)) / ulp) <= 4
        curvature = act.curvature(act.value(z), slope)
        assert np.max(np.abs(curvature - CURVATURE["softplus"](z)) / ulp) <= 4
        # requ: sqrt(z * z) is z exactly wherever z * z is a normal number
        # (|z| from 1.5e-154 to 1.3e154)
        z = np.concatenate([np.geomspace(1.5e-154, 1.3e154, 100_001),
                            np.random.default_rng(0).uniform(0.0, 4.0, 10_000)])
        act = Activation("requ")
        a = act.value(z)
        assert act.slope(a).tobytes() == (2.0 * z).tobytes()
        assert np.all(act.curvature(a, act.slope(a)) == 2.0)
        assert not np.any(act.slope(act.value(-z)))
        assert not np.any(act.curvature(act.value(-z), 0.0 * z))

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_what_a_tape_holds(self, activation):
        # after a forward pass: the batch, one activation per hidden layer
        # and the output row; the input-gradient sweep adds sigma' per
        # hidden layer and its results; after either kind of VJP, on either
        # history, only the parameters, the batch and the output row stay
        net = random_net([3, 6, 5, 1], 25, activation)
        rng = np.random.default_rng(26)
        Z = rng.uniform(-1.5, 1.5, (9, 3))
        tape = mlp.Tape(net, Z)
        assert set(vars(tape)) == {"params", "A", "values"}
        assert [a.shape for a in tape.A[1:]] == [(6, 9), (5, 9)]
        tape.input_grads
        assert set(vars(tape)) == {"params", "A", "values", "_slopes", "_cs"}
        assert [s.shape for s in tape._slopes] == [(6, 9), (5, 9)]
        val_seeds = rng.standard_normal(9)
        for grad_seeds in (None, rng.standard_normal((9, 3))):
            for tape in both_histories(net, Z):
                tape.param_vjp(val_seeds, grad_seeds, True)
                held = {k for k, v in vars(tape).items() if v is not None}
                assert held == {"params", "A", "values", "_spent"}
                assert len(tape.A) == 1

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_bits_of_value_deriv_deriv2(self, activation, depth):
        rng = np.random.default_rng(51 + depth)
        sizes = [3] + [8] * (depth - 1) + [1]
        net = random_net(sizes, 29 * depth, activation)
        for B in (1, 129, 4225):
            Z = rng.uniform(-1.5, 1.5, (B, 3))
            val_seeds = heavy_tailed(rng, B)
            grad_seeds = heavy_tailed(rng, (B, 3))
            values, input_grads, vjp = reference_tape(net, Z, from_derivs=True)
            tape = mlp.Tape(net, Z)
            assert tape.values.tobytes() == values.tobytes()
            assert tape.input_grads.tobytes() == input_grads.tobytes()
            *layers, expect_Z = vjp(val_seeds, None, True)
            for tape in both_histories(net, Z):
                grad, bar_Z = tape.param_vjp(val_seeds, None, True)
                assert grad.tobytes() == flat_reference(layers).tobytes()
                assert bar_Z.tobytes() == expect_Z.tobytes()
            *layers, _ = vjp(val_seeds, grad_seeds, False)
            for tape in both_histories(net, Z):
                grad, _ = tape.param_vjp(val_seeds, grad_seeds)
                assert grad.tobytes() == flat_reference(layers).tobytes()


def traced_peak(make):
    """(peak bytes tracemalloc saw while make() ran, its result); numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = make()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def traced_rise(build, run):
    """Peak bytes tracemalloc saw while run(build()) ran, above what it
    held when run started."""
    tracemalloc.start()
    try:
        built = build()
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(built)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestTapeMemory:
    def test_forward_holds_activations_and_output(self):
        # the study's widest hidden layers (width 24 at m=3) on one
        # experiment's 65 x 65 jets: for every kind the forward pass
        # allocates the hidden activations and the output row, and no
        # pre-activation besides; leaky-relu's z <= 0 mask takes one byte
        # per entry of a layer for the while
        Z = np.random.default_rng(27).uniform(-1.0, 1.0, (4225, 2))
        for kind in mlp.ACTIVATION_KINDS:
            net = init_params([2, 24, 24, 1], Activation(kind), 3)
            peak, tape = traced_peak(lambda: mlp.Tape(net, Z))
            held = sum(a.nbytes for a in tape.A[1:]) + tape.values.nbytes
            assert held == (2 * 24 + 1) * 4225 * 8
            mask = 24 * 4225 if kind == "leaky-relu" else 0
            assert peak <= held + mask + 64 * 1024, kind

    def test_value_seeded_vjp_frees_each_layer_it_passes(self):
        # the same tapes: the reverse sweep writes sigma' over the
        # activation it has just read and drops it, so for every kind it
        # holds at most one hidden layer above what the tape held when it
        # started
        rng = np.random.default_rng(28)
        Z = rng.uniform(-1.0, 1.0, (4225, 2))
        seeds = rng.standard_normal(4225)
        for kind, want in itertools.product(mlp.ACTIVATION_KINDS, (False, True)):
            net = init_params([2, 24, 24, 1], Activation(kind), 3)
            rise = traced_rise(lambda: mlp.Tape(net, Z),
                               lambda tape: tape.param_vjp(seeds, None, want))
            assert rise <= 24 * 4225 * 8 + 64 * 1024, (kind, want)


def assert_close_blockwise(got, expect, what):
    """|got - expect| within 1e-12 of expect's sup-norm, entrywise."""
    assert got.shape == expect.shape, what
    tol = 1e-12 * np.max(np.abs(expect), initial=0.0)
    assert np.max(np.abs(got - expect), initial=0.0) <= tol, what


class TestTapeMatchesRowMajorMaths:
    """The feature-major tape computes the same maths as the row-major
    formulas: values, input gradients, every weight and bias block of the
    flat gradient and bar_Z agree within rounding."""

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_within_rounding(self, activation, depth):
        rng = np.random.default_rng(41 + depth)
        for width in (1, 2, 8):
            sizes = [3] + [width] * (depth - 1) + [1]
            net = random_net(sizes, 19 * depth + width, activation)
            for B in (1, 9, 129):
                Z = rng.uniform(-1.5, 1.5, (B, 3))
                val_seeds = rng.standard_normal(B)
                grad_seeds = rng.standard_normal((B, 3))
                values, input_grads, vjp = row_major_reference(net, Z)
                tape = mlp.Tape(net, Z)
                assert_close_blockwise(tape.values, values, "values")
                assert_close_blockwise(tape.input_grads, input_grads,
                                       "input_grads")
                for case, use_val, use_grad in SEED_CASES:
                    seeds = (val_seeds if use_val else None,
                             grad_seeds if use_grad else None)
                    bar_W, bar_b, expect_Z = vjp(*seeds, True)
                    for tape in both_histories(net, Z):
                        grad, bar_Z = tape.param_vjp(*seeds, want_input_grad=True)
                        got_W, got_b = mlp._layer_views(grad, net._layout[1])
                        for i in range(depth):
                            assert_close_blockwise(got_W[i], bar_W[i],
                                                   (case, "W", i))
                            assert_close_blockwise(got_b[i], bar_b[i],
                                                   (case, "b", i))
                        assert_close_blockwise(bar_Z, expect_Z, (case, "bar_Z"))


class TestBenchmarkContract:
    """What the benchmark's tracer reads of a tape: the rows of A[0], also
    after the VJP, the shapes callers see and _cs as the sweep's
    done-flag."""

    @pytest.mark.parametrize("depth", [1, 3])
    def test_shapes_and_sweep_flag(self, depth):
        net = random_net([4] + [6] * (depth - 1) + [1], 23)
        rng = np.random.default_rng(24)
        Z = rng.uniform(-1, 1, (11, 4))
        tape = mlp.Tape(net, Z)
        assert tape.A[0] is Z
        assert tape.A[0].shape == Z.shape
        assert tape.params is net
        assert tape.values.shape == (11,)
        assert tape._cs is None
        _, bar_Z = tape.param_vjp(rng.standard_normal(11), None, True)
        assert bar_Z.shape == (11, 4)
        # a value-seeded VJP takes no input-gradient sweep
        assert tape._cs is None
        assert tape.A[0] is Z
        tape = mlp.Tape(net, Z)
        assert tape.input_grads.shape == (11, 4)
        assert tape._cs is not None
        _, bar_Z = tape.param_vjp(rng.standard_normal(11),
                                  rng.standard_normal((11, 4)), True)
        assert bar_Z.shape == (11, 4)
        assert tape.A[0] is Z

    def test_signatures(self):
        def names(f):
            return list(inspect.signature(f).parameters)

        assert names(mlp.Tape.__init__) == ["self", "params", "Z"]
        assert names(mlp.Tape._input_grad_sweep) == ["self"]
        assert names(mlp.Tape.param_vjp) == \
            ["self", "val_seeds", "grad_seeds", "want_input_grad"]
        z = np.linspace(-1.0, 1.0, 5)
        act = Activation("tanh")
        assert np.allclose(act.deriv(z), 1.0 - np.tanh(z) ** 2)
        assert np.allclose(act.deriv2(z),
                           -2.0 * np.tanh(z) * (1.0 - np.tanh(z) ** 2))
        # sigma' and sigma'' are read off the activation, not z
        assert names(Activation.slope) == ["self", "a", "out"]
        assert names(Activation.curvature) == ["self", "a", "slope"]


class TestOneVjpPerTape:
    """A VJP consumes its tape: a second VJP, or an input-gradient read
    that would have to run the sweep again, raises RuntimeError, as a
    second backward pass of an objective evaluation does; the parameters,
    the batch A[0] and the output row survive."""

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_second_vjp_raises(self, activation, depth):
        net = random_net([3] + [6] * (depth - 1) + [1], 61, activation)
        rng = np.random.default_rng(62)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds, grad_seeds = rng.standard_normal(9), rng.standard_normal((9, 3))
        for first, second in itertools.product((None, grad_seeds), repeat=2):
            for tape in both_histories(net, Z):
                tape.param_vjp(val_seeds, first)
                with pytest.raises(RuntimeError, match="one VJP"):
                    tape.param_vjp(val_seeds, second, True)

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    @pytest.mark.parametrize("depth", [1, 3])
    def test_input_grads_after_vjp_raises(self, activation, depth):
        net = random_net([3] + [6] * (depth - 1) + [1], 63, activation)
        rng = np.random.default_rng(64)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds, grad_seeds = rng.standard_normal(9), rng.standard_normal((9, 3))
        for seeds in (None, grad_seeds):
            for tape in both_histories(net, Z):
                tape.param_vjp(val_seeds, seeds)
                with pytest.raises(RuntimeError, match="input-gradient sweep"):
                    tape.input_grads

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_batch_params_and_values_survive(self, activation):
        net = random_net([3, 6, 5, 1], 65, activation)
        rng = np.random.default_rng(66)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds, grad_seeds = rng.standard_normal(9), rng.standard_normal((9, 3))
        for seeds in (None, grad_seeds):
            for tape in both_histories(net, Z):
                values = tape.values.copy()
                tape.param_vjp(val_seeds, seeds, True)
                assert tape.A[0] is Z
                assert tape.params is net
                assert tape.values.tobytes() == values.tobytes()


class TestNoCallerArrayMutated:
    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_slope_leaves_activation_values(self, activation):
        act = Activation(activation)
        z = np.linspace(-2.0, 2.0, 11)
        kept = z.copy()
        a = act.value(z)
        before = a.copy()
        act.curvature(a, act.slope(a))
        act.deriv(z)
        act.deriv2(z)
        assert a.tobytes() == before.tobytes()
        assert z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("activation", mlp.ACTIVATION_KINDS)
    def test_param_vjp_leaves_seeds_and_weights(self, activation):
        net = random_net([3, 6, 5, 1], 18, activation)
        rng = np.random.default_rng(19)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds = rng.standard_normal(9)
        grad_seeds = rng.standard_normal((9, 3))
        kept = [x.copy() for x in [Z, val_seeds, grad_seeds]
                + net.weights + net.biases]
        mlp.Tape(net, Z).param_vjp(val_seeds, grad_seeds, True)
        mlp.Tape(net, Z).param_vjp(val_seeds, None, True)
        mlp.Tape(net, Z).param_vjp(val_seeds, grad_seeds)
        for x, y in zip([Z, val_seeds, grad_seeds] + net.weights + net.biases,
                        kept):
            assert x.tobytes() == y.tobytes()


class TestLipschitzBound:
    def test_single_layer_ignores_activation_constant(self):
        net = MlpParams([np.array([[3.0]])], [np.array([0.0])],
                        Activation("tanh"))
        assert lipschitz_bound(net, 7.0) == 3.0

    def test_two_layer_product(self):
        net = MlpParams([np.array([[2.0]]), np.array([[2.0]])],
                        [np.zeros(1), np.zeros(1)], Activation("tanh"))
        assert lipschitz_bound(net, 1.0) == 4.0

    def test_max_row_sum_norm(self):
        w = np.array([[1.0, -2.0], [0.5, 0.25]])
        net = MlpParams([w, np.array([[1.0, 1.0]])],
                        [np.zeros(2), np.zeros(1)], Activation("tanh"))
        assert lipschitz_bound(net, 1.0) == pytest.approx(3.0 * 2.0)

    def test_pair_sampling_never_violates(self):
        # oracle: empirical slope over sampled pairs stays below the bound
        rng = np.random.default_rng(21)
        for trial in range(20):
            net = random_net([3, 6, 4, 1], 100 + trial)
            bound = lipschitz_bound(net, 1.0)
            z1 = rng.uniform(-2, 2, (500, 3))
            z2 = rng.uniform(-2, 2, (500, 3))
            f1 = mlp.Tape(net, z1).values
            f2 = mlp.Tape(net, z2).values
            gap = np.max(np.abs(z1 - z2), axis=1)
            ok = gap > 0
            slopes = np.abs(f1 - f2)[ok] / gap[ok]
            assert np.all(slopes <= bound * (1 + 1e-12))


class TestActivations:
    def test_requ_lipschitz_interval(self):
        act = Activation("requ")
        assert act.lipschitz_on((-2.0, 2.0)) == 4.0
        assert Activation("tanh").lipschitz_on((-5.0, 5.0)) == 1.0

    def test_relu_subgradient_zero_at_kink(self):
        act = Activation("relu")
        assert act.deriv(np.array([0.0]))[0] == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Activation("sigmoidish")

    def test_values_finite(self):
        z = np.array([-30.0, -1.0, 0.0, 1.0, 30.0])
        for kind in ("tanh", "softplus", "relu", "leaky-relu", "requ"):
            act = Activation(kind)
            assert np.all(np.isfinite(act.value(z)))
            assert np.all(np.isfinite(act.deriv(z)))


class TestParamNorm:
    def test_zero(self):
        net = MlpParams([np.zeros((2, 1)), np.zeros((1, 2))],
                        [np.zeros(2), np.zeros(1)], Activation("tanh"))
        norm, grad = param_norm([net], 2.0)
        assert norm == 0.0
        assert not np.any(grad)

    def test_three_four_five(self):
        net = MlpParams([np.array([[3.0]])], [np.array([4.0])],
                        Activation("tanh"))
        assert param_norm([net], 2.0)[0] == pytest.approx(5.0)

    def test_infinity_norm(self):
        net = MlpParams([np.array([[-7.0]])], [np.array([2.0])],
                        Activation("tanh"))
        assert param_norm([net], math.inf)[0] == 7.0

    def test_two_nets_every_entry_counts(self):
        # the largest entry sits in the second network, so a norm that read
        # only the first would give 4 at p = inf
        a = MlpParams([np.array([[3.0]])], [np.array([4.0])], Activation("tanh"))
        b = MlpParams([np.array([[-12.0]])], [np.array([0.0])], Activation("tanh"))
        flat = np.array([3.0, 4.0, -12.0, 0.0])
        norm, grad = param_norm([a, b], 2.0)
        assert norm == pytest.approx(13.0, rel=1e-15)
        assert np.allclose(grad, flat / 13.0, rtol=1e-15, atol=0)
        norm, grad = param_norm([a, b], math.inf)
        assert norm == 12.0
        assert np.array_equal(grad, [0.0, 0.0, -1.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        nets = [random_net([2, 3, 1], 1), random_net([2, 3, 1], 2)]
        x = np.concatenate([flatten_params(n) for n in nets])
        split = flatten_params(nets[0]).size

        def norm_at(v):
            return param_norm([unflatten_params(v[:split], nets[0]),
                               unflatten_params(v[split:], nets[1])], 3.0)[0]

        _, grad = param_norm(nets, 3.0)
        h = 1e-6
        fd = [(norm_at(x + h * e) - norm_at(x - h * e)) / (2 * h)
              for e in np.eye(x.size)]
        assert np.allclose(grad, fd, rtol=0, atol=1e-8)


class TestUnflatten:
    def test_round_trip(self):
        net = random_net([3, 5, 4, 1], 17, "softplus")
        back = unflatten_params(flatten_params(net), net)
        assert back.activation == net.activation
        for a, b in zip(back.weights + back.biases, net.weights + net.biases):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        net = random_net([3, 5, 4, 1], 18)
        flat = flatten_params(net)
        for i in (0, flat.size // 2, flat.size - 1):
            x = flat.copy()
            x[i] = bad
            with pytest.raises(ValueError, match="non-finite"):
                unflatten_params(x, net)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_rejected(self, delta):
        net = random_net([3, 5, 4, 1], 19)
        flat = flatten_params(net)
        x = np.zeros(flat.size + delta)
        with pytest.raises(ValueError, match="length"):
            unflatten_params(x, net)


class TestInitAndGrowth:
    def test_init_bounds_and_determinism(self):
        a = init_params([4, 8, 1], Activation("tanh"), 5)
        b = init_params([4, 8, 1], Activation("tanh"), 5)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert np.max(np.abs(a.weights[0])) <= 1 / math.sqrt(4)
        assert all(np.all(bias == 0) for bias in a.biases)

    def test_growth_preserves_function(self):
        net = random_net([3, 4, 4, 1], 9)
        grown = grow_params(net, [3, 7, 7, 1], 10)
        rng = np.random.default_rng(11)
        Z = rng.uniform(-2, 2, (50, 3))
        assert np.array_equal(mlp.Tape(net, Z).values, mlp.Tape(grown, Z).values)

    def test_growth_units_are_trainable(self):
        net = random_net([2, 3, 3, 1], 12)
        grown = grow_params(net, [2, 6, 6, 1], 13)
        rng = np.random.default_rng(14)
        Z = rng.uniform(-1, 1, (20, 2))
        tape = mlp.Tape(grown, Z)
        grad, _ = tape.param_vjp(val_seeds=np.ones(20))
        w_out = unflatten_params(grad, grown).weights[-1]
        # outgoing weights of at least one new unit receive gradient
        assert np.max(np.abs(w_out[0, 3:])) > 0

    def test_growth_shape_validation(self):
        net = random_net([3, 4, 1], 15)
        with pytest.raises(ValueError):
            grow_params(net, [3, 2, 1], 0)
        with pytest.raises(ValueError):
            grow_params(net, [4, 8, 1], 0)


class TestSerialization:
    def test_csv_round_trip(self, tmp_path):
        net = random_net([3, 5, 1], 16, "softplus")
        csv_path = tmp_path / "net.csv"
        meta_path = tmp_path / "net.json"
        write_params_csv(net, csv_path, meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta == {"layer_sizes": [3, 5, 1], "activation": "softplus"}
        ws = [np.zeros_like(w) for w in net.weights]
        bs = [np.zeros_like(b) for b in net.biases]
        with open(csv_path, newline="") as fh:
            rows = csv.reader(fh)
            assert next(rows) == ["layer", "row", "col", "value"]
            for layer, row, col, value in rows:
                li, ri, ci = int(layer) - 1, int(row), int(col)
                if ci == -1:
                    bs[li][ri] = float(value)
                else:
                    ws[li][ri, ci] = float(value)
        assert all(np.array_equal(a, b) for a, b in zip(ws, net.weights))
        assert all(np.array_equal(a, b) for a, b in zip(bs, net.biases))
