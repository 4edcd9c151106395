import numpy as np
import pytest

from smlpde import mlp
from smlpde.grid import Grid, jet_features, space_derivatives
from smlpde.measurement import Dataset, MeasurementOp
from smlpde.objective import (Problem, VarLayout, Vars, Weights, build_box,
                              make_closure)
from smlpde.optimizer import finite_diff_gradcheck
from smlpde.physics import (PHYSICS_KINDS, affine_check, apply_physics_array,
                            n_param_slots, physics_vjp, residual)


def make_grid(nx=33, nt=17, t_end=1.0):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=t_end)


def const_net(value, input_dim):
    # zero weights, output bias = value: f == value everywhere
    return mlp.MlpParams([np.zeros((2, input_dim)), np.zeros((1, 2))],
                         [np.zeros(2), np.array([float(value)])],
                         mlp.Activation("tanh"))


NO_PHI = np.zeros((0, 1))   # parameter slots of a kind that has none


class TestApplyPhysics:
    def test_convection_constant_state(self):
        g = make_grid()
        u = np.full((g.nt, g.nx), 2.0)
        out = apply_physics_array(g, "convection", u, [np.full(g.nx, 1.5)])
        assert np.max(np.abs(out)) < 1e-12

    def test_convection_linear_state(self):
        g = make_grid()
        xx = np.meshgrid(g.t, g.x, indexing="ij")[1]
        out = apply_physics_array(g, "convection", xx, [np.full(g.nx, 2.0)])
        assert np.max(np.abs(out - 2.0)) < 1e-11

    def test_diffusion_reaction_quadratic(self):
        g = make_grid()
        xx = np.meshgrid(g.t, g.x, indexing="ij")[1]
        out = apply_physics_array(g, "diffusion_reaction", xx**2,
                                  [np.ones(g.nx), np.zeros(g.nx)])
        assert np.max(np.abs(out - 2.0)) < 1e-10

    def test_burgers_zero_on_zero(self):
        g = make_grid()
        out = apply_physics_array(g, "burgers1d", np.zeros((g.nt, g.nx)), NO_PHI)
        assert np.max(np.abs(out)) == 0.0

    def test_none_returns_zero(self):
        g = make_grid()
        rng = np.random.default_rng(0)
        out = apply_physics_array(g, "none", rng.standard_normal((g.nt, g.nx)),
                                  NO_PHI)
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("kind", ["convection", "diffusion_reaction"])
    def test_superposition_in_state(self, kind):
        g = make_grid()
        rng = np.random.default_rng(1)
        u1 = rng.standard_normal((g.nt, g.nx))
        u2 = rng.standard_normal((g.nt, g.nx))
        phi = rng.standard_normal((n_param_slots(kind), g.nx))
        lhs = apply_physics_array(g, kind, 2.0 * u1 - 0.5 * u2, phi)
        rhs = 2.0 * apply_physics_array(g, kind, u1, phi) \
            - 0.5 * apply_physics_array(g, kind, u2, phi)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


class TestPhysicsVjp:
    @pytest.mark.parametrize("kind", PHYSICS_KINDS)
    def test_matches_finite_differences(self, kind):
        # the gradient of sum(seed * term) in the state and the parameter
        # slots, against central differences in every coordinate
        g = make_grid(nx=9, nt=5)
        rng = np.random.default_rng(6)
        slots = n_param_slots(kind)
        seed = rng.standard_normal((g.nt, g.nx))
        n_u = g.nt * g.nx

        def fg(x):
            u = x[:n_u].reshape(g.nt, g.nx)
            phi = x[n_u:].reshape(slots, g.nx)
            value = float(np.sum(seed * apply_physics_array(g, kind, u, phi)))
            g_u, g_phi = physics_vjp(g, kind, u, phi, seed)
            grad = np.concatenate([g_u.reshape(-1), g_phi.reshape(-1)])
            return value, lambda: grad, None

        x = rng.standard_normal(n_u + slots * g.nx)
        assert finite_diff_gradcheck(x, fg, coords="all") < 1e-5


class TestStacks:
    """The objective evaluates every experiment and equation at once: a
    state stack with leading axes gets, slice by slice, the bits of the same
    call on each (nt, nx) slice alone, with or without the derivatives
    passed in."""

    @pytest.mark.parametrize("kind", PHYSICS_KINDS)
    def test_stack_matches_slices_bitwise(self, kind):
        g = make_grid()
        rng = np.random.default_rng(31)
        u = rng.standard_normal((3, 2, g.nt, g.nx))
        phi = rng.standard_normal((3, 2, n_param_slots(kind), g.nx))
        seed = rng.standard_normal(u.shape)
        f = rng.standard_normal(u.shape)
        ut = g.time_derivative_matrix() @ u
        du = space_derivatives(g, u, 2)

        def outputs(u, phi, seed, f, ut=None, du=None):
            return [apply_physics_array(g, kind, u, phi, du),
                    *physics_vjp(g, kind, u, phi, seed, du),
                    residual(g, kind, u, phi, f, ut=ut, du=du)]

        stacked = outputs(u, phi, seed, f)
        shared = outputs(u, phi, seed, f, ut, du)
        for l in range(u.shape[0]):
            for n in range(u.shape[1]):
                alone = outputs(u[l, n], phi[l, n], seed[l, n], f[l, n])
                for whole, given, one in zip(stacked, shared, alone):
                    assert whole[l, n].shape == one.shape
                    assert whole[l, n].tobytes() == one.tobytes()
                    assert given[l, n].tobytes() == one.tobytes()


class TestAffineCheck:
    def test_convection_midpoint(self):
        g = make_grid()
        rng = np.random.default_rng(2)
        u = rng.standard_normal((g.nt, g.nx))
        assert affine_check(g, "convection", u, rng.standard_normal((1, g.nx)),
                            rng.standard_normal((1, g.nx)), 0.5)

    def test_diffusion_s_zero_identity(self):
        g = make_grid()
        rng = np.random.default_rng(3)
        u = rng.standard_normal((g.nt, g.nx))
        assert affine_check(g, "diffusion_reaction", u,
                            rng.standard_normal((2, g.nx)),
                            rng.standard_normal((2, g.nx)), 0.0)

    def test_randomized_hundred_trials(self):
        g = make_grid(nx=17, nt=7)
        rng = np.random.default_rng(4)
        passes = 0
        for _ in range(100):
            kind = rng.choice(["convection", "diffusion_reaction"])
            u = rng.standard_normal((g.nt, g.nx))
            p1 = rng.standard_normal((n_param_slots(kind), g.nx))
            p2 = rng.standard_normal((n_param_slots(kind), g.nx))
            passes += affine_check(g, kind, u, p1, p2, float(rng.uniform(-1, 2)))
        assert passes == 100

    def test_burgers_vacuous(self):
        g = make_grid()
        u = np.zeros((g.nt, g.nx))
        assert affine_check(g, "burgers1d", u, [], [], 0.3)


def net_residual(g, kind, kappa, u, net):
    """The residual of a one-state system whose network sees the jets of u,
    evaluated the way the objective does."""
    f = mlp.Tape(net, jet_features(g, kappa, u[None])).values
    return residual(g, kind, u, NO_PHI, f.reshape(g.nt, g.nx))


class TestResidual:
    def test_linear_in_time_with_constant_net(self):
        # u(t,x) = t, kind none, f == 1  ->  residual 0
        g = make_grid()
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        res = net_residual(g, "none", 0, tt, const_net(1.0, 2))
        assert np.max(np.abs(res)) < 1e-12
        # without f the residual is the apparent one, du/dt = 1
        assert np.max(np.abs(residual(g, "none", tt, NO_PHI) - 1.0)) < 1e-12

    def test_zero_state_zero_net(self):
        g = make_grid()
        u = np.zeros((g.nt, g.nx))
        res = net_residual(g, "none", 0, u, const_net(0.0, 2))
        assert np.max(np.abs(res)) == 0.0

    def test_manufactured_decay_order(self):
        # u = exp(-t), f(u) = -u: residual is pure stencil error, O(dt^2)
        sups = []
        for nt in (9, 17, 33):
            g = make_grid(nx=9, nt=nt)
            tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
            # f(t, u) = -u via a linear readout on the state coordinate
            net = mlp.MlpParams([np.array([[0.0, -1.0]])], [np.zeros(1)],
                                mlp.Activation("tanh"))
            res = net_residual(g, "none", 0, np.exp(-tt), net)
            sups.append(np.max(np.abs(res)))
        orders = np.log2(np.array(sups[:-1]) / np.array(sups[1:]))
        assert np.all(orders >= 1.8)

    def test_network_count_mismatch(self):
        # one equation without a network: the objective refuses it
        g = make_grid(nx=5, nt=3)
        u = np.zeros((1, 1, g.nt, g.nx))
        ds = Dataset(op=MeasurementOp("full", 1, g), y=u, u0=u[:, :, 0],
                     g_lo=u[..., 0], g_hi=u[..., -1])
        problem = Problem(ds, "none", 0, Weights(),
                          build_box(2, 2.0, points_per_axis=3))
        with pytest.raises(ValueError, match="0 networks for 1 equations"):
            make_closure(problem,
                         VarLayout(Vars(u, np.zeros((1, 1, 0, g.nx)), [])))

    def test_network_input_dim_mismatch(self):
        g = make_grid()
        with pytest.raises(ValueError):
            net_residual(g, "none", 1, np.zeros((g.nt, g.nx)), const_net(0.0, 2))


class TestParamSlots:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            n_param_slots("advection")
