import numpy as np
import pytest

from smlpde.errors import OracleInfeasibleError
from smlpde.grid import Grid
from smlpde.ground_truth import (GroundTruthSpec, _oracle_pairs, f_true,
                                 limit_oracle, make_dataset, profile_array,
                                 simulate, trajectory_jet_sup)
from smlpde.measurement import Dataset, MeasurementOp
from smlpde.objective import (Problem, Vars, Weights, _evaluate_core,
                              derive_ubox, r0_value, smooth_max)
from smlpde.physics import PhysicalParams, zero_params
from smlpde import mlp


def make_grid(nx=17, nt=17, t_end=1.0):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=t_end)


class TestSimulate:
    def test_exponential_decay(self):
        grid = Grid(nx=5, nt=65, x_lo=0.0, x_hi=1.0, t_end=1.0)
        spec = GroundTruthSpec(kind="none", f_name="decay", L=1, kappa=0,
                               u0_profiles=["constant:1.0"])
        u = simulate(spec, grid)
        assert np.max(np.abs(u[0, 0, -1] - np.exp(-1.0))) < 1e-9

    def test_rk4_order(self):
        errs = []
        for nt in (17, 33, 65):
            grid = Grid(nx=5, nt=nt, x_lo=0.0, x_hi=1.0, t_end=1.0)
            spec = GroundTruthSpec(kind="none", f_name="decay", L=1, kappa=0,
                                   u0_profiles=["constant:1.0"])
            u = simulate(spec, grid)
            errs.append(np.max(np.abs(u[0, 0, -1] - np.exp(-1.0))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 3.8)

    def test_zero_nonlinearity_constant_in_time(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="none", f_name="zero", L=1, kappa=0,
                               u0_profiles=["sine:1.0"])
        u = simulate(spec, grid)
        assert np.max(np.abs(u[0, 0] - u[0, 0, 0][None, :])) < 1e-14

    def test_zero_speed_convection_is_static(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="convection", f_name="zero", L=1, kappa=0,
                               phi_profiles=[["constant:0.0"]],
                               u0_profiles=["bump:1.0"])
        u = simulate(spec, grid)
        assert np.max(np.abs(u[0, 0] - u[0, 0, 0][None, :])) < 1e-13

    def test_maximum_principle_surrogate_pure_convection(self):
        grid = Grid(nx=65, nt=65, x_lo=0.0, x_hi=1.0, t_end=0.5)
        for prof, speed in (("sine:1.0", "constant:0.3"),
                            ("bump:1.0", "constant:-0.3")):
            spec = GroundTruthSpec(kind="convection", f_name="zero", L=1,
                                   kappa=0, phi_profiles=[[speed]],
                                   u0_profiles=[prof])
            u = simulate(spec, grid)
            sup0 = np.max(np.abs(u[0, 0, 0]))
            assert np.max(np.abs(u[0, 0])) <= sup0 + 1e-8

    def test_diffusion_decays(self):
        grid = Grid(nx=33, nt=17, x_lo=0.0, x_hi=1.0, t_end=0.1)
        spec = GroundTruthSpec(kind="diffusion_reaction", f_name="zero", L=1,
                               kappa=2,
                               phi_profiles=[["constant:0.1", "constant:0.0"]],
                               u0_profiles=["sine:1.0"])
        u = simulate(spec, grid)
        # heat equation: sine mode decays like exp(-a pi^2 t)
        expect = np.exp(-0.1 * np.pi**2 * grid.t_end)
        mid = u[0, 0, -1, grid.nx // 2]
        assert mid == pytest.approx(expect, rel=2e-2)


class TestMakeDataset:
    def test_noiseless_full_equals_truth(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="none", f_name="cubic", L=1, kappa=0,
                               u0_profiles=["sine:0.8"])
        op = MeasurementOp("full", 1, grid)
        ds, u_true = make_dataset(spec, grid, op, 0.0, 3)
        assert np.array_equal(ds.y[0, 0], u_true[0, 0])
        assert np.array_equal(ds.u0[0, 0], u_true[0, 0, 0])
        assert np.array_equal(ds.g_hi[0, 0], u_true[0, 0, :, -1])

    def test_reproducible(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="none", f_name="cubic", L=2, kappa=0,
                               u0_profiles=["sine:0.8", "bump:0.5"])
        op = MeasurementOp("smooth", 2, grid)
        a, _ = make_dataset(spec, grid, op, 0.05, 11)
        b, _ = make_dataset(spec, grid, op, 0.05, 11)
        assert np.array_equal(a.y, b.y)

    def test_distinct_speeds_give_distinct_trajectories(self):
        grid = make_grid(t_end=0.4)
        spec = GroundTruthSpec(
            kind="convection", f_name="zero", L=3, kappa=0,
            phi_profiles=[["constant:0.3"], ["constant:-0.2"],
                          ["constant:0.1"]],
            u0_profiles=["bump:1.0", "bump:1.0", "bump:1.0"])
        _, u = make_dataset(spec, grid, MeasurementOp("full", 1, grid), 0.0, 0)
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.max(np.abs(u[a] - u[b])) > 1e-3

    def test_subsample_noise_masked(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="none", f_name="zero", L=1, kappa=0,
                               u0_profiles=["sine:1.0"])
        op = MeasurementOp("subsample", 1, grid)
        ds, _ = make_dataset(spec, grid, op, 0.1, 5)
        dropped = op.mask == 0.0
        assert np.max(np.abs(ds.y[0, 0][:, dropped])) == 0.0

    def test_consistency_of_manufactured_data(self):
        # truth vars with f matching the true law keep every data-fit term
        # at the discretization level
        grid = Grid(nx=33, nt=33, x_lo=0.0, x_hi=1.0, t_end=0.5)
        spec = GroundTruthSpec(kind="none", f_name="zero", L=1, kappa=0,
                               u0_profiles=["sine:0.9"])
        op = MeasurementOp("full", 1, grid)
        ds, u_true = make_dataset(spec, grid, op, 0.0, 0)
        box = derive_ubox(ds, grid, 0, 1, 1.5)
        zero_net = mlp.MlpParams([np.zeros((2, 2)), np.zeros((1, 2))],
                                 [np.zeros(2), np.zeros(1)],
                                 mlp.Activation("tanh"))
        vars_ = Vars(u_true.copy(),
                     PhysicalParams("none", grid, np.zeros((1, 1, 0, grid.nx))),
                     [zero_net])
        problem = Problem(grid, ds, op, "none", 0, Weights(lam=1, mu=1, nu=0), box)
        bd, _ = _evaluate_core(vars_, problem, want_grad=False)
        tol = 10 * (grid.dx**2 + grid.dt**2)
        assert bd.residual_term < tol
        assert bd.initial_term < 1e-20
        assert bd.boundary_term < 1e-20
        assert bd.data_term < 1e-20

    def test_jet_sup_recorded(self):
        grid = make_grid()
        spec = GroundTruthSpec(kind="none", f_name="zero", L=1, kappa=1,
                               u0_profiles=["sine:1.0"])
        ds, u_true = make_dataset(spec, grid, MeasurementOp("full", 1, grid),
                                  0.0, 0)
        assert ds.ref_jet_sup == pytest.approx(
            trajectory_jet_sup(grid, 1, u_true))
        # sine slope pi is the largest first derivative
        assert ds.ref_jet_sup == pytest.approx(np.pi, rel=0.05)


class TestProfiles:
    def test_constant(self):
        grid = make_grid()
        assert np.all(profile_array("constant:2.5", grid) == 2.5)

    def test_linear_endpoints(self):
        grid = make_grid()
        p = profile_array("linear:3.0", grid)
        assert p[0] == 0.0 and p[-1] == pytest.approx(3.0)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_array("wavelet:1.0", make_grid())


class TestLimitOracle:
    def tiny_dataset_spatially_constant(self, h_of_t):
        grid = Grid(nx=5, nt=7, x_lo=0.0, x_hi=1.0, t_end=1.0)
        u = np.tile(h_of_t(grid.t)[:, None], (1, grid.nx))[None, None]
        return grid, Dataset(grid=grid, y=u, u0=u[:, :, 0, :],
                             g_lo=u[:, :, :, 0], g_hi=u[:, :, :, -1],
                             op_kind="full", noise_level=0.0,
                             ref_jet_sup=float(np.max(np.abs(u))))

    def test_reaction_values_reproduce_residual_exactly(self):
        # monotone spatially constant state: the time-derivative stencil is
        # the unique interpolant; the oracle must return it bit for bit
        grid, ds = self.tiny_dataset_spatially_constant(lambda t: 1.0 + 0.5 * t)
        res = limit_oracle(ds, "none", kappa=0)
        assert np.max(np.abs(res.f_values - 0.5)) < 1e-8

    def test_determinism_across_tie_seeds_reaction(self):
        grid, ds = self.tiny_dataset_spatially_constant(lambda t: np.exp(-t))
        a = limit_oracle(ds, "none", kappa=0, tie_seed=1)
        b = limit_oracle(ds, "none", kappa=0, tie_seed=2)
        assert np.array_equal(a.f_values, b.f_values)

    def test_infeasible_residuals_detected(self):
        # two coincident jet points with different residuals: u mirrors in
        # space but its time slope differs between the two halves
        grid = Grid(nx=5, nt=5, x_lo=0.0, x_hi=1.0, t_end=1.0)
        # u(t, x_j) = 0.5 + slope_j * t: at t=0 every column shares the jet
        # point (0, 0.5) but the time slopes disagree
        slopes = np.array([1.0, 1.0, 1.0, 2.0, 2.0])
        u = (0.5 + np.outer(grid.t, slopes))[None, None]
        ds = Dataset(grid=grid, y=u, u0=u[:, :, 0, :],
                     g_lo=u[:, :, :, 0], g_hi=u[:, :, :, -1],
                     op_kind="full", noise_level=0.0,
                     ref_jet_sup=float(np.max(np.abs(u))))
        # at t=0 all columns share (t=0, u=0.5) but residuals are 1 vs 2
        with pytest.raises(OracleInfeasibleError):
            limit_oracle(ds, "none", kappa=0)

    def test_convection_tie_seeds_agree(self):
        grid = Grid(nx=7, nt=7, x_lo=0.0, x_hi=1.0, t_end=0.5)
        spec = GroundTruthSpec(kind="convection", f_name="cubic", L=2, kappa=0,
                               phi_profiles=[["constant:0.6"],
                                             ["constant:-0.4"]],
                               u0_profiles=["sine:1.0", "bump:0.8"])
        ds, _ = make_dataset(spec, grid, MeasurementOp("full", 1, grid), 0.0, 0)
        a = limit_oracle(ds, "convection", kappa=0, tie_seed=1)
        b = limit_oracle(ds, "convection", kappa=0, tie_seed=2)
        assert np.max(np.abs(a.phi - b.phi)) < 1e-6
        assert np.max(np.abs(a.f_values - b.f_values)) < 1e-6

    def test_state_norm_is_the_objectives(self):
        # u = (1 + x) e^{-t} varies in x, so the state norm's spatial
        # derivative part is not zero; what the value holds beyond the two
        # function terms must be the objective's r0 of the pinned state
        grid = Grid(nx=5, nt=5, x_lo=0.0, x_hi=1.0, t_end=1.0)
        u = np.outer(np.exp(-grid.t), 1.0 + grid.x)[None, None]
        ds = Dataset(grid=grid, y=u, u0=u[:, :, 0, :], g_lo=u[:, :, :, 0],
                     g_hi=u[:, :, :, -1], op_kind="full", noise_level=0.0)
        res = limit_oracle(ds, "none", kappa=0)
        v, z = res.f_values, res.jet_points
        scale = max(1.0, float(np.max(np.abs(z))))
        ii, jj, sep, _, _ = _oracle_pairs(z, 1e-9 * scale)
        lrho = float(np.mean(v**2))
        dd_soft = smooth_max(np.sqrt((v[ii] - v[jj]) ** 2 + (1e-9 * scale) ** 2)
                             / sep, 1e-3)
        r0 = r0_value(grid, 0, ds.y, zero_params("none", grid, 1, 1))
        assert res.value - lrho - dd_soft == pytest.approx(r0, rel=1e-12)

    def test_oracle_rejects_big_grids(self):
        grid = Grid(nx=33, nt=33, x_lo=0.0, x_hi=1.0, t_end=1.0)
        u = np.zeros((1, 1, grid.nt, grid.nx))
        ds = Dataset(grid=grid, y=u, u0=u[:, :, 0, :], g_lo=u[:, :, :, 0],
                     g_hi=u[:, :, :, -1], op_kind="full", noise_level=0.0)
        with pytest.raises(ValueError):
            limit_oracle(ds, "none")

    def test_oracle_rejects_noisy_data(self):
        grid = Grid(nx=5, nt=5, x_lo=0.0, x_hi=1.0, t_end=1.0)
        u = np.zeros((1, 1, grid.nt, grid.nx))
        ds = Dataset(grid=grid, y=u, u0=u[:, :, 0, :], g_lo=u[:, :, :, 0],
                     g_hi=u[:, :, :, -1], op_kind="full", noise_level=0.01)
        with pytest.raises(ValueError):
            limit_oracle(ds, "none")
