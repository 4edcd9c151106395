import math

import numpy as np
import pytest

from smlpde import mlp
from smlpde.mlp import (Activation, MlpParams, backprop, flatten_params,
                        forward, grad_input, grow_params, init_params,
                        lipschitz_bound, param_norm, read_params_csv,
                        unflatten_params, write_params_csv)


def random_net(sizes, seed, activation="tanh", scale=0.6):
    rng = np.random.default_rng(seed)
    ws = [scale * rng.standard_normal((o, i))
          for i, o in zip(sizes[:-1], sizes[1:])]
    bs = [scale * rng.standard_normal(o) for o in sizes[1:]]
    return MlpParams(ws, bs, Activation(activation))


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
        g = grad_input(net, [0.4, 0.9])
        assert np.array_equal(g, [2.0, -1.0])

    def test_zero_weights_zero_gradient(self):
        net = MlpParams([np.zeros((3, 2)), np.zeros((1, 3))],
                        [np.ones(3), np.array([1.0])], Activation("tanh"))
        assert np.array_equal(grad_input(net, [1.0, 2.0]), [0.0, 0.0])

    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ", "relu",
                                            "leaky-relu"])
    def test_matches_finite_differences(self, activation):
        net = random_net([4, 6, 5, 1], 11, activation)
        rng = np.random.default_rng(5)
        for _ in range(5):
            z = rng.uniform(-1, 1, 4)
            g = grad_input(net, z)
            h = 1e-5
            for i in range(4):
                e = np.zeros(4)
                e[i] = h
                fd = (forward(net, z + e) - forward(net, z - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestBackprop:
    def test_zero_seed(self):
        net = random_net([3, 4, 1], 2)
        dg = backprop(net, [0.1, 0.2, 0.3], 0.0)
        assert all(np.all(w == 0) for w in dg.d_weights)
        assert all(np.all(b == 0) for b in dg.d_biases)
        assert np.all(dg.d_input == 0)

    def test_single_affine_layer(self):
        net = MlpParams([np.array([[1.0, -2.0]])], [np.array([0.5])],
                        Activation("tanh"))
        z = np.array([0.3, 0.8])
        dg = backprop(net, z, 1.0)
        assert np.allclose(dg.d_weights[0], z[None, :])
        assert np.allclose(dg.d_biases[0], [1.0])

    def test_consistency_with_grad_input(self):
        net = random_net([3, 5, 4, 1], 3)
        z = np.array([0.2, -0.4, 0.9])
        dg = backprop(net, z, 1.0)
        assert np.max(np.abs(dg.d_input - grad_input(net, z))) <= 1e-12

    @pytest.mark.parametrize("activation", ["tanh", "softplus", "requ"])
    def test_param_grads_match_finite_differences(self, activation):
        net = random_net([3, 5, 4, 1], 7, activation)
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, 3)
        dg = backprop(net, z, 1.0)
        an = np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                             for w, b in zip(dg.d_weights, dg.d_biases)])
        fd = fd_param_grads(net, z)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        assert np.max(np.abs(fd - an) / denom) < 1e-6


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
        bw, bb, _ = tape.param_vjp(val_seeds=val_seeds, grad_seeds=grad_seeds)
        an = np.concatenate([np.concatenate([w.ravel(), b.ravel()])
                             for w, b in zip(bw, bb)])
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
        # the tape caches sigma' and sigma''; reading the input gradients
        # first, or calling the VJP again, must not change a single bit
        net = random_net([3, 6, 5, 1], 15, activation)
        rng = np.random.default_rng(16)
        Z = rng.uniform(-1, 1, (9, 3))
        val_seeds = rng.standard_normal(9)
        grad_seeds = rng.standard_normal((9, 3))
        fresh = mlp.Tape(net, Z).param_vjp(val_seeds, grad_seeds, True)
        tape = mlp.Tape(net, Z)
        tape.input_grads
        after_read = tape.param_vjp(val_seeds, grad_seeds, True)
        repeated = tape.param_vjp(val_seeds, grad_seeds, True)
        for other in (after_read, repeated):
            for a, b in zip(fresh[0] + fresh[1] + [fresh[2]],
                            other[0] + other[1] + [other[2]]):
                assert a.tobytes() == b.tobytes()


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
            f1 = mlp.forward_batch(net, z1)
            f2 = mlp.forward_batch(net, z2)
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
        assert np.array_equal(mlp.forward_batch(net, Z),
                              mlp.forward_batch(grown, Z))

    def test_growth_units_are_trainable(self):
        net = random_net([2, 3, 3, 1], 12)
        grown = grow_params(net, [2, 6, 6, 1], 13)
        rng = np.random.default_rng(14)
        Z = rng.uniform(-1, 1, (20, 2))
        tape = mlp.Tape(grown, Z)
        bw, _, _ = tape.param_vjp(val_seeds=np.ones(20))
        # outgoing weights of at least one new unit receive gradient
        assert np.max(np.abs(bw[-1][0, 3:])) > 0

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
        back = read_params_csv(csv_path, meta_path)
        assert back.activation.kind == "softplus"
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.weights, net.weights))
        assert all(np.array_equal(a, b)
                   for a, b in zip(back.biases, net.biases))
