import numpy as np
import pytest

from smlpde import mlp
from smlpde.grid import Field, Grid, jet_features
from smlpde.measurement import Dataset, MeasurementOp
from smlpde.objective import Problem, Vars, Weights, _evaluate_core, build_box
from smlpde.physics import (PhysicalParams, affine_check, apply_physics_array,
                            n_param_slots, residual, zero_params)


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


class TestAffineCheck:
    def test_convection_midpoint(self):
        g = make_grid()
        rng = np.random.default_rng(2)
        u = Field(g, rng.standard_normal((g.nt, g.nx)))
        assert affine_check("convection", u, rng.standard_normal((1, g.nx)),
                            rng.standard_normal((1, g.nx)), 0.5)

    def test_diffusion_s_zero_identity(self):
        g = make_grid()
        rng = np.random.default_rng(3)
        u = Field(g, rng.standard_normal((g.nt, g.nx)))
        assert affine_check("diffusion_reaction", u,
                            rng.standard_normal((2, g.nx)),
                            rng.standard_normal((2, g.nx)), 0.0)

    def test_randomized_hundred_trials(self):
        g = make_grid(nx=17, nt=7)
        rng = np.random.default_rng(4)
        passes = 0
        for _ in range(100):
            kind = rng.choice(["convection", "diffusion_reaction"])
            u = Field(g, rng.standard_normal((g.nt, g.nx)))
            p1 = rng.standard_normal((n_param_slots(kind), g.nx))
            p2 = rng.standard_normal((n_param_slots(kind), g.nx))
            passes += affine_check(kind, u, p1, p2, float(rng.uniform(-1, 2)))
        assert passes == 100

    def test_burgers_vacuous(self):
        g = make_grid()
        u = Field(g, np.zeros((g.nt, g.nx)))
        assert affine_check("burgers1d", u, [], [], 0.3)


def net_residual(g, kind, kappa, u, net):
    """The residual of a one-state system whose network sees the jets of u,
    evaluated the way the objective does."""
    f = mlp.forward_batch(net, jet_features(g, kappa, u[None]))
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
        ds = Dataset(grid=g, y=u, u0=u[:, :, 0], g_lo=u[..., 0], g_hi=u[..., -1])
        problem = Problem(g, ds, MeasurementOp("full", 1, g), "none", 0,
                          Weights(), build_box(2, 2.0, points_per_axis=3))
        with pytest.raises(ValueError):
            _evaluate_core(Vars(u, zero_params("none", g, 1, 1), []), problem,
                           want_grad=False)

    def test_network_input_dim_mismatch(self):
        g = make_grid()
        with pytest.raises(ValueError):
            net_residual(g, "none", 1, np.zeros((g.nt, g.nx)), const_net(0.0, 2))


class TestPhysicalParams:
    def test_slot_validation(self):
        g = make_grid()
        with pytest.raises(ValueError):
            PhysicalParams("convection", g, np.zeros((1, 1, 2, g.nx)))
        p = zero_params("diffusion_reaction", g, 2, 1)
        assert p.values.shape == (2, 1, 2, g.nx)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            n_param_slots("advection")
