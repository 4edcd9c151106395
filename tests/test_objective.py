import math
import os
import subprocess
import sys
import tracemalloc
import weakref
import zlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from smlpde import mlp, objective
from smlpde.errors import BoxViolationError
from smlpde.grid import Grid, space_derivatives
from smlpde.measurement import Dataset, MeasurementOp
from smlpde.objective import (ObjectiveBreakdown, Problem, UBox, VarLayout,
                              Vars, Weights, _evaluate_core, _halton, build_box,
                              derive_ubox, make_closure, r0_value, smooth_max)
from smlpde.optimizer import finite_diff_gradcheck
from smlpde.physics import n_param_slots


def make_grid(nx=9, nt=7, t_end=0.8):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=t_end)


def smooth_state(rng, grid, L, N, amp=0.6):
    u = np.zeros((L, N, grid.nt, grid.nx))
    tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
    for l in range(L):
        for n in range(N):
            for k in range(1, 3):
                u[l, n] += rng.uniform(-amp, amp) * np.sin(k * np.pi * xx) \
                    * np.cos(rng.uniform(0, 2) * tt)
            u[l, n] += rng.uniform(-amp, amp)
    return u


def random_net(sizes, seed, scale=0.5):
    rng = np.random.default_rng(seed)
    ws = [scale * rng.standard_normal((o, i))
          for i, o in zip(sizes[:-1], sizes[1:])]
    bs = [0.2 * rng.standard_normal(o) for o in sizes[1:]]
    return mlp.MlpParams(ws, bs, mlp.Activation("tanh"))


def const_net(value, input_dim):
    return mlp.MlpParams([np.zeros((2, input_dim)), np.zeros((1, 2))],
                         [np.zeros(2), np.array([float(value)])],
                         mlp.Activation("tanh"))


def random_problem(seed, kind="none", kappa=0, L=2, N=1, op_kind="full",
                   lam=1.5, mu=0.8, nu=0.03, q=2.0, r=2.0, rho=2.0, amp=0.6,
                   nx=9, nt=7, hidden=(5,)):
    rng = np.random.default_rng(seed)
    grid = make_grid(nx, nt)
    u = smooth_state(rng, grid, L, N, amp)
    slots = n_param_slots(kind)
    phi = 0.4 * rng.standard_normal((L, N, slots, grid.nx))
    D = 1 + N * (kappa + 1)
    nets = [random_net([D, *hidden, 1], seed + 10 + n) for n in range(N)]
    ds = Dataset(op=MeasurementOp(op_kind, 2, grid),
                 y=smooth_state(rng, grid, L, N, amp),
                 u0=u[:, :, 0, :] + 0.05, g_lo=u[:, :, :, 0] - 0.02,
                 g_hi=u[:, :, :, -1] + 0.02)
    jets = [np.max(np.abs(u))]
    for order in range(1, kappa + 1):
        jets.append(np.max(np.abs(u @ grid.space_derivative_matrix(order).T)))
    radius = grid.t_end + 1.6 * max(jets)
    box = build_box(D, radius, points_per_axis=9, sample_budget=256)
    w = Weights(lam=lam, mu=mu, nu=nu, q=q, r=r, rho=rho, tau=0.05)
    problem = Problem(ds, kind, kappa, w, box)
    return problem, Vars(u, phi, nets)


class TestSmoothMax:
    def test_equal_values_log_n(self):
        c, n, tau = 1.7, 8, 0.3
        out = smooth_max([c] * n, tau)[0]
        assert out == pytest.approx(c + tau * math.log(n), rel=1e-12)

    def test_small_tau_is_max(self):
        assert smooth_max([1.0, 5.0, 2.0], 1e-6)[0] == pytest.approx(5.0, abs=1e-4)

    def test_bracket_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            v = rng.uniform(-10, 10, n)
            tau = float(rng.uniform(1e-3, 1.0))
            s = smooth_max(v, tau)[0]
            top = float(np.max(v))
            assert top <= s <= top + tau * math.log(n) + 1e-15

    def test_weights_sum_to_one(self):
        w = smooth_max([0.2, 0.9, -1.0], 0.1)[1]
        assert np.sum(w) == pytest.approx(1.0, rel=1e-12)

    def test_weights_are_the_gradient(self):
        rng = np.random.default_rng(2)
        def fg(v):
            value, weights = smooth_max(v, 0.3)
            return value, lambda: weights, None
        err = finite_diff_gradcheck(rng.uniform(-1, 1, 12), fg, samples=12)
        assert err < 1e-5

    def test_invalid(self):
        with pytest.raises(ValueError):
            smooth_max([], 0.1)
        with pytest.raises(ValueError):
            smooth_max([1.0], 0.0)


class TestUBox:
    @staticmethod
    def reference_jets(g, sup, dim=2):
        """A (1, nt*nx, dim) jet stack as jet_features lays it out: the time
        column, which reaches t_end, then jet components whose largest
        magnitude is sup."""
        z = np.zeros((1, g.nt * g.nx, dim))
        z[0, :, 0] = np.repeat(g.t, g.nx)
        z[0, -1, 1:] = -sup
        return z

    def test_radius_formula_zero_reference(self):
        # the time column is not a jet component: it sets no radius
        g = make_grid(t_end=1.0)
        box = derive_ubox(g, self.reference_jets(g, 0.0), 1.1)
        assert box.radius == pytest.approx(1.0)
        assert box.dim == 2

    def test_radius_formula_margin(self):
        g = make_grid(t_end=1.0)
        box = derive_ubox(g, self.reference_jets(g, 2.0, dim=3), 1.5)
        assert box.radius == pytest.approx(4.0)
        assert box.dim == 3

    def test_margin_below_threshold_rejected(self):
        g = make_grid()
        with pytest.raises(ValueError):
            derive_ubox(g, self.reference_jets(g, 1.0), 0.9)

    def test_sample_determinism(self):
        a = build_box(3, 2.0, sample_budget=500)
        b = build_box(3, 2.0, sample_budget=500)
        assert np.array_equal(a.samples, b.samples)
        # column-major, so a tape's first layer reads a contiguous batch
        assert a.samples.flags.f_contiguous
        assert build_box(2, 2.0).samples.flags.f_contiguous

    def test_halton_radical_inverse(self):
        # index i, written in base 2, 3, 5 and mirrored at the radix point
        expect = [[0, 0, 0], [1 / 2, 1 / 3, 1 / 5], [1 / 4, 2 / 3, 2 / 5],
                  [3 / 4, 1 / 9, 3 / 5], [1 / 8, 4 / 9, 4 / 5],
                  [5 / 8, 7 / 9, 1 / 25]]
        assert np.allclose(_halton(3, 6), expect, rtol=0, atol=1e-15)

    def test_halton_matches_scipy_bit_for_bit(self):
        from scipy.stats import qmc

        for dim in range(3, 10):
            for n in (1, 7, 4096, 5000):
                ref = qmc.Halton(d=dim, scramble=False).random(n)
                assert _halton(dim, n).tobytes() == ref.tobytes(), (dim, n)

    def test_box_needs_no_scipy(self, tmp_path):
        # a fresh interpreter builds a 3-D box, runs a tiny study with a 3-D
        # box, the approximation probe and the gradient check without
        # importing scipy, whose import alone would add about 49 MB to the
        # peak resident size; the run manifests record no scipy version.
        # Nor does it load numpy.random, or secrets and OpenSSL's _hashlib,
        # which numpy.random imports: together 5.45 MB of resident size
        # on top of the benchmark worker's own imports.  Seeded draws come
        # from Python's random.Random
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlp.__file__)))
        cfg_text = ("[grid]\nnx = 17\nnt = 13\n"
                    "[ground_truth]\nkind = burgers1d\nkappa = 1\n"
                    "phi1_profiles =\n[schedule]\nm_max = 1\n"
                    "[optimizer]\nmax_iters = 4\nrestarts = 1\n"
                    "[probe]\nwidths = 4\ntrain_iters = 20\n"
                    f"[output]\ndir = {tmp_path}\n")
        code = ("import sys\n"
                "from smlpde.config import parse_config_text\n"
                "from smlpde.harness import (approximation_probe,\n"
                "                            gradcheck_from_config,\n"
                "                            run_convergence_study)\n"
                "from smlpde.objective import build_box\n"
                "assert build_box(3, 2.0, sample_budget=64).samples.shape == (64, 3)\n"
                f"cfg = parse_config_text({cfg_text!r})\n"
                "run_convergence_study(cfg, echo=lambda *_: None)\n"
                "approximation_probe(cfg, echo=lambda *_: None)\n"
                "gradcheck_from_config(cfg, echo=lambda *_: None)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "print(sorted(m for m in sys.modules if m in ('secrets', '_hashlib')\n"
                "             or m.split('.')[:2] == ['numpy', 'random']))\n")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.split("\n")[:2] == ["[]", "[]"]
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "probe.csv").exists()
        assert (tmp_path / "timings.json").exists()
        assert (tmp_path / "probe_timings.json").exists()

    @pytest.mark.parametrize("n", [2, 3, 5, 33, 65, 399])
    def test_lattice_weights_are_trapezoid_rule(self, n):
        # the trapezoid rule on [0, 1] with n nodes, normalized; in 2-D its
        # outer product, row-major like the samples
        w1 = np.full(n, 1.0 / (n - 1))
        w1[0] = w1[-1] = 0.5 / (n - 1)
        box = build_box(1, 1.0, points_per_axis=n)
        assert box.quad_weights.tobytes() == (w1 / w1.sum()).tobytes()
        w2 = np.multiply.outer(w1, w1).reshape(-1)
        box = build_box(2, 1.0, points_per_axis=n)
        assert box.quad_weights.tobytes() == (w2 / w2.sum()).tobytes()

    def test_lattice_weights_integrate(self):
        box = build_box(2, 1.0, points_per_axis=33)
        # weighted mean of z1^2 over [-1,1]^2 should be 1/3 (trapezoid exact-ish)
        mean = float(np.sum(box.quad_weights * box.samples[:, 0] ** 2))
        assert mean == pytest.approx(1.0 / 3.0, abs=2e-3)


def box_terms(net, box, rho=2.0, tau=0.01):
    """(power norm, smooth gradient sup, hard gradient sup) of one network
    over the box, from the objective of a zero state with every other term
    weighted out."""
    g = make_grid(nx=5, nt=3, t_end=box.radius)   # the jets (t, 0) lie in the box
    u = np.zeros((1, 1, g.nt, g.nx))
    ds = Dataset(op=MeasurementOp("full", 1, g), y=u, u0=u[:, :, 0],
                 g_lo=u[..., 0], g_hi=u[..., -1])
    problem = Problem(ds, "none", 0,
                      Weights(lam=0.0, mu=0.0, nu=0.0, rho=rho, tau=tau), box)
    vars_ = Vars(u, np.zeros((1, 1, 0, g.nx)), [net])
    layout = VarLayout(vars_)   # make_closure checks the network's input dim
    bd = make_closure(problem, layout)(layout.pack(vars_))[2]
    assert bd.total == bd.f_lrho_term + bd.f_gradsup_term
    return bd.f_lrho_term, bd.f_gradsup_term, bd.hard_gradsup


class TestFRegularizer:
    def test_constant_net_unit_volume(self):
        box = build_box(2, 0.5, points_per_axis=17)  # volume (2*0.5)^2 = 1
        lrho, _, gradsup = box_terms(const_net(3.0, 2), box)
        assert lrho == pytest.approx(9.0, rel=1e-12)
        assert gradsup == 0.0

    def test_affine_net_closed_form(self):
        # f(z) = 3 z1 on [-1,1]^2: integral of 9 z1^2 = 12, gradient sup = 3
        box = build_box(2, 1.0, points_per_axis=33)
        net = mlp.MlpParams([np.array([[3.0, 0.0]])], [np.zeros(1)],
                            mlp.Activation("tanh"))
        lrho, _, gradsup = box_terms(net, box)
        assert lrho == pytest.approx(12.0, rel=2e-2)
        assert gradsup == pytest.approx(3.0, rel=1e-12)

    def test_hard_vs_smooth_bracket(self):
        box = build_box(2, 1.0, points_per_axis=9)
        net = random_net([2, 6, 1], 3)
        tau = 0.07
        _, soft, hard = box_terms(net, box, tau=tau)
        assert hard <= soft <= hard + tau * math.log(box.samples.shape[0]) + 1e-12

    def test_dim_mismatch(self):
        box = build_box(3, 1.0, sample_budget=64)
        with pytest.raises(ValueError, match="input dim 2 != box dim 3"):
            box_terms(const_net(1.0, 2), box)


class TestR0:
    def test_all_zero(self):
        g = make_grid()
        assert r0_value(g, 0, np.zeros((1, 1, g.nt, g.nx)),
                        np.zeros((1, 1, 0, g.nx)))[0] == 0.0

    def test_constant_state_unit_measure(self):
        g = Grid(nx=9, nt=9, x_lo=0.0, x_hi=1.0, t_end=1.0)
        u = np.full((1, 1, g.nt, g.nx), 2.0)
        # kappa=0: |u|^2 integrates to c^2; time derivative vanishes
        assert r0_value(g, 0, u, np.zeros((1, 1, 0, g.nx)))[0] \
            == pytest.approx(4.0, rel=1e-10)

    def test_linear_time_profile(self):
        # u = t on the unit square: int t^2 + int 1 = 1/3 + 1 = 4/3
        g = Grid(nx=9, nt=65, x_lo=0.0, x_hi=1.0, t_end=1.0)
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        u = tt[None, None, :, :]
        got = r0_value(g, 0, u, np.zeros((1, 1, 0, g.nx)))[0]
        assert got == pytest.approx(4.0 / 3.0, abs=2 * g.dt**2)

    def test_phi_contributes_squared_l2(self):
        g = Grid(nx=9, nt=9, x_lo=0.0, x_hi=1.0, t_end=1.0)
        phi = np.full((1, 1, 1, g.nx), 3.0)
        got = r0_value(g, 0, np.zeros((1, 1, g.nt, g.nx)), phi)[0]
        assert got == pytest.approx(9.0, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0, 1])
    def test_gradients_match_finite_differences(self, kappa):
        # kappa = 1 reaches the second-order stencil of the state norm
        g = make_grid()
        rng = np.random.default_rng(4)
        u = smooth_state(rng, g, 2, 1)
        phi = rng.standard_normal((2, 1, 2, g.nx))

        def fg(x):
            value, backward = r0_value(g, kappa, x[:u.size].reshape(u.shape),
                                       x[u.size:].reshape(phi.shape))
            return value, lambda: np.concatenate(
                [part.reshape(-1) for part in backward()]), None

        x = np.concatenate([u.reshape(-1), phi.reshape(-1)])
        assert finite_diff_gradcheck(x, fg, samples=x.size) < 1e-5


    @pytest.mark.parametrize("kappa", [0, 1])
    def test_stack_matches_experiments_bitwise(self, kappa):
        # each experiment's gradient blocks are those of that experiment
        # alone, whether r0 takes the derivatives or is handed them; the
        # value adds the same parts in another grouping
        g = make_grid()
        rng = np.random.default_rng(5)
        u = smooth_state(rng, g, 3, 2)
        phi = rng.standard_normal((3, 2, 1, g.nx))
        ut = g.time_derivative_matrix() @ u
        value, backward = r0_value(g, kappa, u, phi)
        shared, shared_backward = r0_value(g, kappa, u, phi, ut=ut,
                                           du=space_derivatives(g, u, 2))
        assert shared == value
        g_u, g_phi = backward()
        for given, whole in zip(shared_backward(), (g_u, g_phi)):
            assert given.tobytes() == whole.tobytes()
        parts = 0.0
        for l in range(3):
            part, part_backward = r0_value(g, kappa, u[l:l + 1], phi[l:l + 1])
            parts += part
            one_u, one_phi = part_backward()
            assert g_u[l:l + 1].tobytes() == one_u.tobytes()
            assert g_phi[l:l + 1].tobytes() == one_phi.tobytes()
        assert value == pytest.approx(parts, rel=1e-14)


def experiment_half(problem, vars_, l):
    """Experiment l of the problem and its variables as an L=1 problem."""
    ds = problem.dataset
    half = replace(ds, y=ds.y[l:l + 1], u0=ds.u0[l:l + 1],
                   g_lo=ds.g_lo[l:l + 1], g_hi=ds.g_hi[l:l + 1])
    return (replace(problem, dataset=half),
            Vars(vars_.u[l:l + 1], vars_.phi[l:l + 1], vars_.nets))


class TestEvaluate:
    @pytest.mark.parametrize("kind,kappa,op_kind,N,q", [
        ("convection", 0, "smooth", 1, 2.0),
        ("burgers1d", 1, "subsample", 1, 3.0),
        ("diffusion_reaction", 2, "full", 1, 2.0),
        ("none", 1, "smooth", 2, 4.0),
    ])
    def test_experiments_match_their_halves(self, kind, kappa, op_kind, N, q):
        # the stacked evaluation of L=2 experiments gives each experiment
        # the terms and the state blocks it gets alone; the box and theta
        # terms are shared, and the network gradient adds the experiments'
        # residual parts to the shared part
        amp = 0.25 if kappa >= 2 else 0.6
        problem, vars_ = random_problem(16, kind=kind, kappa=kappa, N=N,
                                        op_kind=op_kind, q=q, r=q, amp=amp)
        layout = VarLayout(vars_)
        bd, backward = _evaluate_core(vars_, problem)
        grad = backward()
        g_u = grad[:layout.u_size].reshape(vars_.u.shape)
        g_phi = grad[layout.u_size:layout.u_size + layout.phi_size] \
            .reshape(vars_.phi.shape)
        g_net = grad[layout.u_size + layout.phi_size:]
        halves = [experiment_half(problem, vars_, l) for l in range(2)]
        parts = [_evaluate_core(v, p) for p, v in halves]
        for name in ("residual_term", "initial_term", "boundary_term",
                     "data_term"):
            assert getattr(bd, name) == sum(getattr(b, name) for b, _ in parts)
        for name in ("f_lrho_term", "f_gradsup_term", "theta_norm_term",
                     "hard_gradsup"):
            assert all(getattr(b, name) == getattr(bd, name) for b, _ in parts)
        assert bd.r0_term == pytest.approx(parts[0][0].r0_term
                                           + parts[1][0].r0_term, rel=1e-14)
        shared = 0.0
        for l, ((p, v), (_, half_backward)) in enumerate(zip(halves, parts)):
            half = VarLayout(v)
            half_grad = half_backward()
            assert half_grad[:half.u_size].tobytes() == g_u[l].tobytes()
            assert half_grad[half.u_size:half.u_size + half.phi_size] \
                .tobytes() == g_phi[l].tobytes()
            shared = shared + half_grad[half.u_size + half.phi_size:]
        # without the residual term a network's gradient is its shared part
        unfit = replace(problem, weights=replace(problem.weights, lam=0.0))
        common = _evaluate_core(vars_, unfit)[1]()[layout.u_size
                                                   + layout.phi_size:]
        expect = shared - common
        assert np.max(np.abs(g_net - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_rejected_trial_runs_no_backward_work(self, monkeypatch):
        # a closure call whose backward pass never runs (a rejected
        # line-search trial) makes no adjoint, no VJP and no r0 gradient
        calls = Counter()

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def r0_counted(*args, **kwargs):
            value, r0_backward = r0_value(*args, **kwargs)
            return value, counted(r0_backward, "r0 gradient")

        monkeypatch.setattr(objective, "physics_vjp",
                            counted(objective.physics_vjp, "physics_vjp"))
        monkeypatch.setattr(objective, "r0_value", r0_counted)
        monkeypatch.setattr(MeasurementOp, "adjoint_array",
                            counted(MeasurementOp.adjoint_array, "adjoint"))
        monkeypatch.setattr(mlp.Tape, "param_vjp",
                            counted(mlp.Tape.param_vjp, "param_vjp"))
        problem, vars_ = random_problem(17, kind="convection", kappa=1, L=2,
                                        N=2, op_kind="smooth")
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        for _ in range(2):
            fg(layout.pack(vars_))
        assert calls == Counter()
        backward = fg(layout.pack(vars_))[1]
        backward()
        # one physics adjoint, measurement adjoint and r0 gradient for the
        # whole stack; a VJP per residual tape (L*N) and per box tape (N)
        assert calls == Counter({"physics_vjp": 1, "adjoint": 1,
                                 "r0 gradient": 1, "param_vjp": 2 * 2 + 2})
        with pytest.raises(RuntimeError):
            backward()
        assert sum(calls.values()) == 9

    def test_total_is_sum_of_parts_random(self):
        rng = np.random.default_rng(1)
        for trial in range(100):
            kind = ("none", "convection", "diffusion_reaction",
                    "burgers1d")[trial % 4]
            problem, vars_ = random_problem(200 + trial, kind=kind,
                                            kappa=trial % 2,
                                            lam=float(rng.uniform(0, 3)),
                                            mu=float(rng.uniform(0, 3)),
                                            nu=float(rng.uniform(0, 0.2)))
            bd, _ = _evaluate_core(vars_, problem)
            total = sum(bd.parts())
            assert bd.total == pytest.approx(total, rel=1e-12)

    def test_zero_weights_leave_regularizers(self):
        problem, vars_ = random_problem(5, lam=0.0, mu=0.0, nu=0.0)
        bd, _ = _evaluate_core(vars_, problem)
        assert bd.residual_term == 0.0
        assert bd.data_term == 0.0
        assert bd.theta_norm_term == 0.0
        assert bd.total == pytest.approx(
            bd.r0_term + bd.f_lrho_term + bd.f_gradsup_term, rel=1e-12)

    def test_monotone_in_lambda(self):
        problem, vars_ = random_problem(6)
        w1 = problem.weights
        w2 = Weights(lam=2 * w1.lam, mu=w1.mu, nu=w1.nu, tau=w1.tau)
        bd1, _ = _evaluate_core(vars_, problem)
        bd2, _ = _evaluate_core(vars_, replace(problem, weights=w2))
        assert bd2.residual_term == pytest.approx(2 * bd1.residual_term,
                                                  rel=1e-12)

    def test_one_reverse_pass_per_residual_tape(self, monkeypatch):
        # the input-gradient sweep runs on the N box tapes only: a residual
        # tape takes its input adjoints from its one value-seeded VJP
        sweeps = []
        sweep = mlp.Tape._input_grad_sweep

        def counted(tape):
            if tape._cs is None:
                sweeps.append(tape.A[0].shape[0])
            return sweep(tape)

        monkeypatch.setattr(mlp.Tape, "_input_grad_sweep", counted)
        problem, vars_ = random_problem(9, kind="convection", kappa=1, L=2, N=2)
        _evaluate_core(vars_, problem)[1]()
        assert sweeps == [problem.box.samples.shape[0]] * 2

    def test_box_tapes_take_the_box_samples_themselves(self, monkeypatch):
        # the benchmark's tracer tells box tapes from residual tapes by the
        # identity of their input batch, so no copy or view may come
        # between; the box tapes come first
        batches = []
        init = mlp.Tape.__init__

        def recorded(tape, params, Z):
            batches.append(Z)
            init(tape, params, Z)

        monkeypatch.setattr(mlp.Tape, "__init__", recorded)
        problem, vars_ = random_problem(10, kind="convection", kappa=1, L=2, N=2)
        _evaluate_core(vars_, problem)
        assert [Z is problem.box.samples for Z in batches] == \
            [True] * 2 + [False] * 4

    def test_backward_frees_each_tape_after_its_vjp(self, monkeypatch):
        # every tape lives until the backward pass, which frees each
        # experiment's tapes, then each box tape, once their VJP is added;
        # the two box tapes are made first and run their VJPs last
        tapes = []
        alive_at_vjp = []
        init, vjp = mlp.Tape.__init__, mlp.Tape.param_vjp

        def recorded(tape, params, Z):
            init(tape, params, Z)
            tapes.append(weakref.ref(tape))

        def checked(tape, *args, **kwargs):
            alive_at_vjp.append([ref() is not None for ref in tapes])
            return vjp(tape, *args, **kwargs)

        monkeypatch.setattr(mlp.Tape, "__init__", recorded)
        monkeypatch.setattr(mlp.Tape, "param_vjp", checked)
        problem, vars_ = random_problem(10, kind="convection", kappa=1, L=2, N=2)
        _, backward = _evaluate_core(vars_, problem)
        assert [ref() is not None for ref in tapes] == [True] * 6
        backward()
        # experiment 0's two tapes, experiment 1's two, then the box tapes
        assert alive_at_vjp == [[True] * 6] * 2 \
            + [[True] * 2 + [False] * 2 + [True] * 2] * 2 \
            + [[True] * 2 + [False] * 4, [False, True] + [False] * 4]
        assert [ref() is not None for ref in tapes] == [False] * 6

    def test_backward_peak_stays_near_its_start(self):
        # the study's widest scale (width 24, depth 3) on three experiments'
        # 65 x 65 grids: each residual VJP frees its tape's hidden layers as
        # its sweep passes them, so backward's traced peak rises at most
        # 2 MiB above what the evaluation held when it started
        problem, vars_ = random_problem(11, kind="convection", L=3, nx=65,
                                        nt=65, hidden=(24, 24))
        tracemalloc.start()
        try:
            _, backward = _evaluate_core(vars_, problem)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward()
            rise = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert rise <= 2 * 1024 * 1024

    def test_forward_holds_activations_and_input_grads(self):
        # burgers-k1's widest scale: width 24, depth 3, three experiments'
        # 65 x 65 grids and the 3-D box of 4,096 samples.  After the forward
        # pass the evaluation holds the residual and box tapes' activations
        # and the box input gradients, and of the rest only its 1.25 MiB of
        # smaller arrays: the jets (0.3 MB), six (L, N, nt, nx) stacks (ut,
        # two space derivatives, f, resid, ddiff: 0.6 MB) and the box's rows
        # (values, |input gradient|, its row maxima and softmax: 0.2 MB).
        # The box tapes are swept before any residual tape exists, so the
        # traced peak rises at most 0.5 MiB above what the pass ends with.
        problem, vars_ = random_problem(12, kind="burgers1d", kappa=1, L=3,
                                        nx=65, nt=65, hidden=(24, 24))
        problem = replace(problem, box=build_box(3, problem.box.radius))
        assert problem.box.samples.shape == (4096, 3)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            # the evaluation's backward pass keeps its tapes alive
            evaluation = _evaluate_core(vars_, problem)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        activations = 8 * 24 * 2 * (3 * 65 * 65 + 4096)
        input_grads = 8 * 3 * 4096
        slack = 1.25 * 1024 * 1024
        assert held - start <= activations + input_grads + slack
        assert peak - held <= 0.5 * 1024 * 1024
        evaluation[1]()

    def test_closure_refuses_other_experiments(self):
        # a layout whose (L, N) is not the dataset's is refused when the
        # closure is made, before any evaluation
        problem, vars_ = random_problem(7)
        one = Vars(vars_.u[:1], vars_.phi[:1], vars_.nets)
        with pytest.raises(ValueError, match=r"disagree on \(L, N\)"):
            make_closure(problem, VarLayout(one))

    def test_box_violation_detected(self):
        problem, vars_ = random_problem(7)
        tiny = build_box(2, 1e-3, points_per_axis=5)
        with pytest.raises(BoxViolationError):
            _evaluate_core(vars_, replace(problem, box=tiny))

    def test_strict_convexity_midpoint_quadratic_parts(self):
        # r0(phi) + |f|^rho surrogate: midpoint strictly below average
        g = make_grid()
        rng = np.random.default_rng(8)
        box = build_box(2, 1.0, points_per_axis=9)
        for _ in range(20):
            p1 = rng.standard_normal((1, 1, 1, g.nx))
            p2 = rng.standard_normal((1, 1, 1, g.nx))
            u = np.zeros((1, 1, g.nt, g.nx))
            r0_1 = r0_value(g, 0, u, p1)[0]
            r0_2 = r0_value(g, 0, u, p2)[0]
            r0_m = r0_value(g, 0, u, 0.5 * (p1 + p2))[0]
            if np.max(np.abs(p1 - p2)) > 1e-8:
                assert r0_m < 0.5 * (r0_1 + r0_2) - 1e-12
            n1 = random_net([2, 4, 1], int(rng.integers(1e6)))
            n2 = random_net([2, 4, 1], int(rng.integers(1e6)))
            # midpoint in FUNCTION values via sample vectors
            t1, t2 = mlp.Tape(n1, box.samples), mlp.Tape(n2, box.samples)
            v1, v2 = t1.values, t2.values
            quad = lambda v: float(np.sum(box.quad_weights * v**2))
            if np.max(np.abs(v1 - v2)) > 1e-8:
                assert quad(0.5 * (v1 + v2)) < 0.5 * (quad(v1) + quad(v2)) - 1e-15
            # gradient-sup surrogate is convex (midpoint <= average)
            g1 = np.max(np.abs(t1.input_grads), axis=1)
            g2 = np.max(np.abs(t2.input_grads), axis=1)
            gm = np.max(np.abs(0.5 * (t1.input_grads + t2.input_grads)), axis=1)
            assert float(np.max(gm)) <= 0.5 * (float(np.max(g1))
                                               + float(np.max(g2))) + 1e-12


class TestGradient:
    def test_gradient_is_fresh(self):
        # the optimizer keeps the best iterate's gradient by reference: a
        # later closure call must not write into it
        problem, vars_ = random_problem(41, kind="convection", kappa=1)
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        x = layout.pack(vars_)
        grad = fg(x)[1]()
        kept = grad.copy()
        y = x.copy()
        y[-layout.net_sizes[0]:] *= 1.1
        other = fg(y)[1]()
        assert other is not grad
        assert grad.tobytes() == kept.tobytes()
        assert other.tobytes() != kept.tobytes()

    def test_deferred_backward_keeps_its_own_state(self):
        # a backward pass run after later closure calls, and their backward
        # passes, returns the bytes of one run at once; it runs only once
        problem, vars_ = random_problem(42, kind="burgers1d", kappa=1, N=2)
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        x = layout.pack(vars_)
        at_once = fg(x)[1]()
        _, deferred, _ = fg(x)
        y = x.copy()
        y[:layout.u_size] *= 0.9
        y[-layout.net_sizes[-1]:] *= 1.1
        fg(y)[1]()
        fg(y)
        assert deferred().tobytes() == at_once.tobytes()
        with pytest.raises(RuntimeError):
            deferred()

    def test_closure_leaves_its_point_untouched(self):
        # VarLayout.unpack hands out views of x, and the optimizer keeps x as
        # an iterate: neither the value nor the backward pass writes into it
        problem, vars_ = random_problem(43, kind="burgers1d", kappa=1, N=2,
                                        op_kind="subsample")
        layout = VarLayout(vars_)
        x = layout.pack(vars_)
        kept = x.copy()
        x.flags.writeable = False
        fg = make_closure(problem, layout)
        fg(x)[1]()
        assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("kind,kappa,op_kind,N", [
        ("none", 0, "full", 1),
        ("convection", 1, "subsample", 1),
        ("diffusion_reaction", 2, "smooth", 1),
        ("burgers1d", 0, "smooth", 1),
        ("none", 2, "subsample", 1),
        # two equations: every network reads the jets of both states
        ("none", 1, "full", 2),
        ("convection", 0, "smooth", 2),
        ("burgers1d", 1, "subsample", 2),
    ], ids=["none-0-full", "convection-1-subsample", "diffusion_reaction-2-smooth",
            "burgers1d-0-smooth", "none-2-subsample", "none-1-full-N2",
            "convection-0-smooth-N2", "burgers1d-1-subsample-N2"])
    def test_matches_finite_differences(self, kind, kappa, op_kind, N, request):
        amp = 0.25 if kappa >= 2 else 0.6
        # a fixed seed per case (the crc32 of its id), so a failure reproduces
        seed = zlib.crc32(request.node.callspec.id.encode()) % 1000
        problem, vars_ = random_problem(seed, kind=kind,
                                        kappa=kappa, op_kind=op_kind, amp=amp,
                                        N=N)
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        err = finite_diff_gradcheck(layout.pack(vars_), fg,
                                    samples=layout.size)
        assert err < 1e-5

    def test_data_term_has_no_phi_gradient(self):
        # structural: K u does not involve phi, so with only the data term on
        # the phi gradient reduces to the quadratic r0 part (2 wx phi)
        problem, vars_ = random_problem(11, kind="convection", lam=0.0,
                                        mu=1.7, nu=0.0)
        grad = _evaluate_core(vars_, problem)[1]()
        layout = VarLayout(vars_)
        g_phi = grad[layout.u_size:layout.u_size + layout.phi_size] \
            .reshape(vars_.phi.shape)
        wx = problem.dataset.grid.space_weights()
        expected = 2.0 * wx[None, None, None, :] * vars_.phi
        assert np.allclose(g_phi, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("exponent", ["q", "r", "rho"])
    def test_exponent_below_two_rejected(self, exponent):
        # the power terms need exponents >= 2 to have a continuous gradient
        with pytest.raises(ValueError):
            Weights(**{exponent: 1.5})

    def test_nan_param_norm_p_rejected(self):
        # NaN fails every comparison, so only `not p >= 1` refuses it
        with pytest.raises(ValueError):
            Weights(param_norm_p=math.nan)

    def test_higher_exponents_gradient(self):
        problem, vars_ = random_problem(13, q=3.0, r=4.0, rho=3.0)
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        err = finite_diff_gradcheck(layout.pack(vars_), fg,
                                    samples=layout.size)
        assert err < 1e-5

    def test_tiny_convex_instance_reaches_stationarity(self):
        # lam = mu = 0, rho = 2: strictly convex QUADRATIC in (u, phi).
        # Conjugate gradients with exact gradient-difference matvecs is the
        # oracle for the minimizer; our gradient must vanish there.
        problem, vars_ = random_problem(14, kind="convection", lam=0.0,
                                        mu=0.0, nu=0.0)
        # CG matvec probes use unscaled directions: a wide box contains
        # their jets, and the zero network makes the box terms constant
        problem.box = build_box(2, 1e6, points_per_axis=9)
        # keep networks fixed at zero so only the quadratic core is active
        vars_.nets = [const_net(0.0, 2)]
        layout = VarLayout(vars_)
        fg = make_closure(problem, layout)
        x0 = layout.pack(vars_)
        n_active = layout.u_size + layout.phi_size

        def grad_at(x_active):
            full = np.concatenate([x_active, x0[n_active:]])
            return fg(full)[1]()[:n_active]

        x = x0[:n_active].copy()
        g0 = grad_at(x)

        def matvec(v):
            return grad_at(x + v) - g0  # exact for a quadratic

        # linear CG on H d = -g0
        d = np.zeros_like(x)
        r = -g0.copy()
        p = r.copy()
        rr = float(r @ r)
        for _ in range(600):
            hp = matvec(p)
            alpha = rr / float(p @ hp)
            d += alpha * p
            r -= alpha * hp
            rr_new = float(r @ r)
            if np.sqrt(rr_new) < 1e-12:
                break
            p = r + (rr_new / rr) * p
            rr = rr_new
        grad = grad_at(x + d)
        assert float(np.max(np.abs(grad))) < 1e-8


class TestLayout:
    def test_pack_unpack_round_trip(self):
        problem, vars_ = random_problem(15, kind="diffusion_reaction")
        layout = VarLayout(vars_)
        x = layout.pack(vars_)
        back = layout.unpack(x)
        assert np.array_equal(back.u, vars_.u)
        assert np.array_equal(back.phi, vars_.phi)
        for a, b in zip(back.nets, vars_.nets):
            assert all(np.array_equal(w1, w2)
                       for w1, w2 in zip(a.weights, b.weights))

    def test_breakdown_csv_shape(self):
        bd = ObjectiveBreakdown(total=1.0, residual_term=0.5, r0_term=0.5)
        header = ObjectiveBreakdown.CSV_HEADER
        assert len(header) == len(bd.cells())
