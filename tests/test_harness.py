import csv
import ctypes
import importlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from smlpde import ground_truth, harness, mlp
from smlpde.cli import main as cli_main
from smlpde.config import (build_grid, build_gt_spec, default_config,
                           format_config)
from smlpde.errors import ConfigError, DivergedError
from smlpde.grid import Grid, jet_features, write_csv
from smlpde.harness import (_lsq_closure, _pin_heap, _staged_minimize,
                            approximation_probe, fit_function_lsq,
                            gradcheck_from_config, run_convergence_study)
from smlpde.ground_truth import f_true, f_true_deriv, simulate
from smlpde.measurement import Dataset, MeasurementOp
from smlpde.objective import ObjectiveBreakdown
from smlpde.optimizer import OptimConfig, finite_diff_gradcheck, minimize


def tiny_config(out_dir, m_max=2, iters=300):
    cfg = default_config()
    cfg.sections["grid"].update(nx=17, nt=13)
    cfg.sections["ground_truth"].update(
        kind="none", f_true="zero",
        phi1_profiles=[], u0_profiles=["sine:0.8"])
    cfg.sections["measurement"].update(family="full", noise0=0.0)
    cfg.sections["schedule"].update(m_max=m_max)
    cfg.sections["network"].update(width0=4)
    cfg.sections["optimizer"].update(max_iters=iters, restarts=1)
    cfg.sections["output"].update(dir=str(out_dir))
    return cfg


class TestConvergenceStudySmall:
    def test_zero_law_learned_small(self, tmp_path):
        # with f_true = 0 the power-norm regularizer pulls the learned term
        # to the truth; errors must stay well below the data range
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=400)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        grid = build_grid(cfg)
        spec = build_gt_spec(cfg)
        u_true = simulate(spec, grid)
        data_range = float(np.max(u_true) - np.min(u_true))
        for row in report:
            assert row.status == "ok"
            assert row.e_f < 0.05 * data_range

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(out, m_max=2, iters=120)
        run_convergence_study(cfg, echo=lambda *_: None)
        for name in ("report.csv", "trace_m1.csv", "trace_m2.csv",
                     "f_error.svg", "schedule_check.csv", "u_final_l1.csv",
                     "f_params_final_n1.csv", "y_l1_m1.csv",
                     "manifest_m2.json"):
            assert (out / name).exists(), name

    def test_timings_manifest(self, tmp_path, monkeypatch):
        # timings.json counts every objective closure call of each scale
        made = []
        make_closure = harness.make_closure

        def counting_closure(problem, layout):
            fg = make_closure(problem, layout)

            def counted(x):
                made.append(1)
                return fg(x)
            return counted

        monkeypatch.setattr(harness, "make_closure", counting_closure)
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=40)
        run_convergence_study(cfg, echo=lambda *_: None)
        with open(tmp_path / "run" / "timings.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"] == format_config(cfg)
        assert manifest["heap_pinned"] == _pin_heap()
        assert manifest["ufunc_bufsize"] == harness._UFUNC_BUFSIZE
        assert manifest["versions"]["python"] == platform.python_version()
        assert manifest["versions"]["numpy"] == np.__version__
        assert [s["m"] for s in manifest["scales"]] == [1, 2]
        assert sum(s["closure_calls"] for s in manifest["scales"]) == len(made)
        assert all(s["closure_calls"] > 0 for s in manifest["scales"])
        assert 0 < manifest["setup_s"] < manifest["wall_s"]
        assert sum(s["wall_s"] for s in manifest["scales"]) < manifest["wall_s"]
        # the process's peak resident MB after set-up and after each scale
        peaks = ([manifest["setup_peak_rss_mb"]]
                 + [s["peak_rss_mb"] for s in manifest["scales"]])
        assert peaks[0] > 0
        assert peaks == sorted(peaks)

    def test_degenerate_schedule_rows_stable(self, tmp_path):
        # growth 1 and fixed noise/operator: tau_m = tau0/m and
        # width_m = width0*m still change, so the scales do not solve the
        # same problem, but with f_true = 0, full noiseless data and the
        # kink of nu*|theta|_2 they share the minimizer theta = 0 (f = 0,
        # e_f = 0); rows that are minimizers agree closely after the first
        cfg = tiny_config(tmp_path / "run", m_max=3, iters=400)
        cfg.sections["schedule"].update(growth=1.0, nu_decay=1.0)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        e_fs = [r.e_f for r in report[1:]]
        assert max(e_fs) - min(e_fs) < 0.05 * max(max(e_fs), 1e-9)

    def test_stops_one_row_per_start(self, tmp_path, monkeypatch):
        # two restarts at m = 1, then one warm start at m = 2; the best
        # start of a scale ends at the total its report row carries, and
        # each start's final value and gradient sup-norm come from one
        # closure call and its backward pass
        returned = set()
        make_closure = harness.make_closure

        def recording_closure(problem, layout):
            fg = make_closure(problem, layout)

            def recorded(x):
                value, backward, aux = fg(x)

                def recorded_backward():
                    grad = backward()
                    returned.add((f"{value:.17g}",
                                  f"{float(np.max(np.abs(grad))):.17g}"))
                    return grad
                return value, recorded_backward, aux
            return recorded

        monkeypatch.setattr(harness, "make_closure", recording_closure)
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=40)
        cfg.sections["optimizer"].update(restarts=2)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        with open(tmp_path / "run" / "stops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "run" / "timings.json") as fh:
            scales = json.load(fh)["scales"]
        assert [(r["m"], r["start"]) for r in rows] == \
            [("1", "0"), ("1", "1"), ("2", "0")]
        for r in rows:
            assert r["outcome"] in ("call budget", "iteration cap",
                                    "gradient tolerance reached",
                                    "line search stalled")
            assert int(r["iterations"]) > 0
            assert int(r["closure_calls"]) > int(r["iterations"])
            assert (r["value"], r["grad_inf"]) in returned
        for row, scale in zip(report, scales):
            ends = [r for r in rows if r["m"] == str(row.m)]
            assert min(float(r["value"]) for r in ends) == row.breakdown.total
            assert sum(int(r["closure_calls"]) for r in ends) \
                == scale["closure_calls"]
            # one winner per scale, the start whose value the row carries
            assert sorted(r["best"] for r in ends) == ["0"] * (len(ends) - 1) + ["1"]
            winner = next(r for r in ends if r["best"] == "1")
            assert float(winner["value"]) == row.breakdown.total

    def test_stops_record_diverged_starts(self, tmp_path, monkeypatch):
        # a study step scale this large throws the states out of the box
        # at once, so every start diverges and every scale starts over from
        # scratch; the prefit's stages set their own rates and keep them
        monkeypatch.setattr(harness, "STUDY_RATE", 1.0)
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=40)
        cfg.sections["optimizer"].update(restarts=2)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        assert all(row.status.startswith("diverged(") for row in report)
        with open(tmp_path / "run" / "stops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["m"], r["start"]) for r in rows] == \
            [("1", "0"), ("1", "1"), ("2", "0"), ("2", "1")]
        for r in rows:
            assert r["outcome"].startswith("diverged: visited jet point left")
            assert r["iterations"] == r["value"] == r["closure_calls"] \
                == r["grad_inf"] == ""
        # a failed scale's objective reads NaN, not the zeros of an empty
        # breakdown, beside its NaN errors
        with open(tmp_path / "run" / "report.csv", newline="") as fh:
            report_rows = list(csv.DictReader(fh))
        assert [r["m"] for r in report_rows] == ["1", "2"]
        for r in report_rows:
            for col in ObjectiveBreakdown.CSV_HEADER + (
                    "e_f", "grad_sup_err", "state_err", "param_err", "psi_hat"):
                assert r[col] == "nan", col
            assert r["iterations"] == "0"

    def test_fresh_start_takes_the_scales_width(self, tmp_path, monkeypatch):
        # the only start of m = 1 diverges, so m = 2 starts afresh; its
        # networks have width_2 = 2 * width0, the width its report row names
        staged = harness._staged_minimize
        runs = []

        def first_diverges(x0, fg, config):
            runs.append(1)
            if len(runs) == 1:
                raise DivergedError("forced")
            return staged(x0, fg, config)

        monkeypatch.setattr(harness, "_staged_minimize", first_diverges)
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=20)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        assert [row.status for row in report] == ["diverged(forced)", "ok"]
        assert report[1].width == 8
        with open(tmp_path / "run" / "f_params_final_n1.json") as fh:
            assert json.load(fh)["layer_sizes"] == [2, 8, 8, 1]

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a", m_max=2, iters=150)
        cfg2 = tiny_config(tmp_path / "b", m_max=2, iters=150)
        run_convergence_study(cfg1, echo=lambda *_: None)
        run_convergence_study(cfg2, echo=lambda *_: None)
        # every output but the wall-clock timings: report, fields, networks,
        # traces, stop and schedule records, manifests and the chart
        names = sorted(os.listdir(tmp_path / "a"))
        assert names == sorted(os.listdir(tmp_path / "b"))
        for prefix in ("report.csv", "y_", "u_final_", "f_params_", "trace_m",
                       "stops.csv", "schedule_check.csv", "f_error.svg"):
            assert any(n.startswith(prefix) for n in names), prefix
        for name in names:
            if name != "timings.json":
                a = (tmp_path / "a" / name).read_bytes()
                b = (tmp_path / "b" / name).read_bytes()
                assert a == b, name


class TestFinalVars:
    def test_system_equations_keep_their_own_phi_files(self, tmp_path):
        # with N > 1 each equation's parameter field gets the _n<n> suffix
        grid = Grid(nx=5, nt=3, x_lo=0.0, x_hi=1.0, t_end=0.5)
        u = np.zeros((2, 2, grid.nt, grid.nx))
        phi = np.arange(2 * 2 * grid.nx, dtype=float).reshape(2, 2, 1,
                                                              grid.nx) / 7
        harness._write_final_vars(
            grid, types.SimpleNamespace(u=u, phi=phi, nets=[]), tmp_path)
        for l in range(2):
            for n in range(2):
                path = tmp_path / f"phi_final_l{l + 1}_n{n + 1}_s1.csv"
                with open(path, newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                assert [float(v) for _, v in rows] == phi[l, n, 0].tolist()
        assert not (tmp_path / "phi_final_l1_s1.csv").exists()


class TestCsvFormat:
    def test_every_table_shares_one_format(self, tmp_path):
        # a study and a probe share the output directory; every table ends
        # its lines in "\n" alone and every line has the header's fields
        cfg = tiny_config(tmp_path, m_max=2, iters=40)
        cfg.sections["optimizer"].update(restarts=2)
        cfg.sections["probe"].update(widths=[4, 8], train_iters=100)
        run_convergence_study(cfg, echo=lambda *_: None)
        approximation_probe(cfg, echo=lambda *_: None)
        names = sorted(n for n in os.listdir(tmp_path) if n.endswith(".csv"))
        for prefix in ("report.csv", "stops.csv", "trace_m", "schedule_check",
                       "y_", "u_final_", "f_params_final_", "probe.csv",
                       "probe_summary.csv"):
            assert any(n.startswith(prefix) for n in names), prefix
        for name in names:
            data = (tmp_path / name).read_bytes()
            assert b"\r" not in data, name
            assert data.endswith(b"\n"), name
            header, *lines = data[:-1].split(b"\n")
            assert lines, name
            for line in lines:
                assert line.count(b",") == header.count(b","), (name, line)

    @pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb"])
    def test_cell_that_would_shift_columns_raises(self, tmp_path, cell):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="comma or a line break"):
            write_csv(path, ("x", "y"), [(1.0, 2), (0.5, cell)])
        with pytest.raises(ValueError, match="comma or a line break"):
            write_csv(path, ("x", cell), [])
        assert not path.exists()

    def test_cell_formats(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b", "c", "d"),
                  [(0.1, np.float64(1 / 3), 7, "ok"), (float("nan"), -0.0, -1, "")])
        assert path.read_bytes() == (b"a,b,c,d\n"
                                     b"0.10000000000000001,0.33333333333333331,7,ok\n"
                                     b"nan,-0,-1,\n")


def kink_objective(calls):
    """|x - c|^2/2 + |x|_2 with |c|_2 < 1; appends to calls on every call."""
    c = np.array([0.3, -0.2, 0.1, 0.25])

    def fg(x):
        calls.append(1)
        r = float(np.linalg.norm(x))
        g = x - c + (x / r if r > 0 else 0.0)
        return 0.5 * float((x - c) @ (x - c)) + r, lambda: g, None

    return fg


class TestStagedMinimize:
    def test_budget_in_closure_calls_and_kink_reached(self):
        # |x - c|^2/2 + |x|_2 with |c|_2 < 1 has its minimizer at the kink
        # x = 0; a scale spends at most max(max_iters, 2) calls and lands there
        for max_iters in (1, 3, 40, 60):
            calls = []
            res = _staged_minimize(np.ones(4), kink_objective(calls),
                                   OptimConfig(max_iters=max_iters, rate=0.01))
            assert len(calls) <= max(max_iters, 2)
            assert res.calls == len(calls)
        assert np.linalg.norm(res.x) < 1e-3

    def test_descent_start_reuses_adaptive_evaluation(self):
        # the descent starts where the adaptive stage's best evaluation was
        # made and takes it from there, so a scale spends exactly max_iters
        # calls and lands where a descent that evaluates its start again does
        for max_iters in (3, 40, 60):
            calls = []
            fg = kink_objective(calls)
            res = _staged_minimize(np.ones(4), fg,
                                   OptimConfig(max_iters=max_iters, rate=0.01))
            assert len(calls) == res.calls == max_iters
            n_adaptive = max(1, int(max_iters * 0.3))
            first = minimize(np.ones(4), fg,
                             OptimConfig(max_iters=n_adaptive, rate=0.03))
            step = 0.3 * 0.01 * np.sqrt(4) / float(np.linalg.norm(first.grad))
            budget = max_iters - n_adaptive
            ref = minimize(first.x, fg, OptimConfig(
                max_iters=budget, rate=step, method="gd_linesearch",
                max_calls=budget))
            assert ref.x.tobytes() == res.x.tobytes()
            assert ref.value == res.value
            assert ref.iterations + first.iterations == res.iterations


class TestVisitedJets:
    def test_layout_and_range(self):
        cfg = tiny_config("unused")
        grid = build_grid(cfg)
        spec = build_gt_spec(cfg)
        u_true = simulate(spec, grid)
        # the study's visited points: jet features stacked over experiments
        z = np.concatenate([jet_features(grid, 0, u_l) for u_l in u_true])
        assert z.shape == (grid.nt * grid.nx, 2)
        assert z[:, 0].min() == 0.0 and z[:, 0].max() == grid.t_end
        assert np.max(np.abs(z[:, 1])) <= np.max(np.abs(u_true)) + 1e-15


class TestInitStateFromData:
    """The states' warm start: the columns a subsampling K_m drops are
    filled by linear interpolation between those it keeps, flat beyond the
    last, before one binomial smoothing pass in space."""

    @pytest.mark.parametrize("nx,m,kept", [(17, 1, [0, 5, 10, 15]),
                                           (9, 8, list(range(9)))])
    def test_subsample_fill(self, nx, m, kept):
        grid = Grid(nx=nx, nt=5, x_lo=0.0, x_hi=1.0, t_end=1.0)
        op = MeasurementOp("subsample", m, grid)
        keep = np.flatnonzero(np.diag(op.matrix))
        assert keep.tolist() == kept
        rng = np.random.default_rng(nx + m)
        y = op.apply_array(rng.standard_normal((2, 1, grid.nt, nx)))
        ds = Dataset(op, y, y[:, :, 0], y[..., 0], y[..., -1])
        filled = np.array([[[np.interp(grid.x, grid.x[keep], row[keep])
                             for row in field] for field in exp]
                           for exp in y])
        expect = filled.copy()
        expect[..., 1:-1] = (0.25 * filled[..., :-2] + 0.5 * filled[..., 1:-1]
                             + 0.25 * filled[..., 2:])
        got = harness.init_state_from_data(ds)
        assert got.tobytes() == expect.tobytes()
        assert np.array_equal(got[..., -1], y[..., kept[-1]])


class TestReferenceSetUp:
    """The study and the gradient check share one reference set-up: the
    trajectory's jet stack is taken once, and the box and the report's
    errors read it."""

    @staticmethod
    def count_jets(monkeypatch):
        """Patch the jet_features that harness and ground_truth call; the
        returned list names the module of every call."""
        calls = []
        for module in (harness, ground_truth):
            def counted(*args, _module=module, _fn=module.jet_features):
                calls.append(_module.__name__.rsplit(".", 1)[1])
                return _fn(*args)
            monkeypatch.setattr(module, "jet_features", counted)
        return calls

    def test_study_takes_reference_jets_once(self, tmp_path, monkeypatch):
        # the reference stack, then the prefit rows of the m=1 start; no
        # dataset takes jets of its own
        calls = self.count_jets(monkeypatch)
        run_convergence_study(tiny_config(tmp_path / "run", m_max=2, iters=20),
                              echo=lambda *_: None)
        assert calls == ["harness", "harness"]

    def test_gradcheck_takes_reference_jets_once(self, tmp_path, monkeypatch):
        # the reference stack, then the prefit rows, as in the study
        calls = self.count_jets(monkeypatch)
        gradcheck_from_config(tiny_config(tmp_path / "run"),
                              echo=lambda *_: None)
        assert calls == ["harness", "harness"]

    def test_gradcheck_audits_the_study_start(self, tmp_path, monkeypatch):
        # the flat point the gradient check audits is the x0 of the study's
        # first minimization, bit for bit, and both closures agree there
        seen = {}
        staged = harness._staged_minimize

        def first_start(x0, fg, config):
            seen.setdefault("study", (x0.copy(), fg(x0)[0]))
            return staged(x0, fg, config)

        def audit(x, fg, samples):
            seen["check"] = (x.copy(), fg(x)[0])
            return 0.0

        monkeypatch.setattr(harness, "_staged_minimize", first_start)
        monkeypatch.setattr(harness, "finite_diff_gradcheck", audit)
        cfg = tiny_config(tmp_path / "run", m_max=1, iters=20)
        run_convergence_study(cfg, echo=lambda *_: None)
        gradcheck_from_config(cfg, echo=lambda *_: None)
        (x_study, v_study), (x_check, v_check) = seen["study"], seen["check"]
        assert x_check.tobytes() == x_study.tobytes()
        assert v_check == v_study


def one_tape_sup_errors(nets, z_visited, f_name):
    """(e_f, grad_sup_err) from one tape per network over all the stack's
    rows, flattened."""
    z = z_visited.reshape(-1, z_visited.shape[-1])
    target = f_true(f_name)(z[:, 1])
    tapes = [mlp.Tape(net, z) for net in nets]
    e_f = max(float(np.max(np.abs(tape.values - target))) for tape in tapes)
    lattice = np.linspace(float(z[:, 1].min()), float(z[:, 1].max()), 513)
    true_sup = float(np.max(np.abs(f_true_deriv(f_name)(lattice))))
    fit_sup = max(float(np.max(np.abs(tape.input_grads))) for tape in tapes)
    return e_f, abs(fit_sup - true_sup)


def traced_peak(make):
    """(peak bytes tracemalloc saw while make() ran, its result); numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        out = make()
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


class TestSupErrorsPerExperiment:
    """f_sup_error takes the (L, rows, dim) jet stack and reads e_f and
    grad_sup_err off one tape per experiment and network: the bits of one
    tape over all rows, at the memory of one experiment's tape."""

    @staticmethod
    def stack_and_nets():
        # three experiments of 65 x 65 jets, two equations' networks at the
        # study's m=3 width
        rng = np.random.default_rng(61)
        z = rng.uniform(-1.2, 1.2, (3, 4225, 2))
        z[..., 0] = rng.uniform(0.0, 1.0, (3, 4225))
        nets = [mlp.init_params([2, 24, 24, 1], mlp.Activation("tanh"), s)
                for s in (5, 6)]
        return z, nets

    @pytest.mark.parametrize("f_name", ["cubic", "sine"])
    def test_bits_of_one_tape(self, f_name):
        z, nets = self.stack_and_nets()
        expect = one_tape_sup_errors(nets, z, f_name)
        assert repr(harness.f_sup_error(nets, z, f_name)) == repr(expect)

    def test_lattice_spans_whole_stack(self):
        # with zero networks the error is the sup of |f_true'| on the
        # lattice; cubic's |1 - 3u^2| grows with |u|, and only the first
        # experiment reaches the widest states
        z, nets = self.stack_and_nets()
        z[0, :, 1] *= 2.0
        zero = [mlp.MlpParams([np.zeros_like(w) for w in net.weights],
                              [np.zeros_like(b) for b in net.biases],
                              net.activation) for net in nets]
        whole = harness.f_sup_error(zero, z, "cubic")[1]
        assert whole == one_tape_sup_errors(zero, z, "cubic")[1]
        assert whole > harness.f_sup_error(zero, z[1:], "cubic")[1]

    def test_peak_within_one_experiment(self):
        z, nets = self.stack_and_nets()
        # the peak of one experiment's tape with its input-gradient sweep
        one, _ = traced_peak(
            lambda: np.max(np.abs(mlp.Tape(nets[0], z[0]).input_grads)))
        peak, _ = traced_peak(lambda: harness.f_sup_error(nets, z, "cubic"))
        assert peak <= one + 256 * 1024


class TestLsqClosure:
    """The least-squares closure of the probe fits and the network prefit."""

    def test_each_fit_hands_one_closure_to_every_stage(self, monkeypatch):
        # the prefit's two adaptive stages, and the probe fit's three and
        # its polish, each see one closure object through harness.minimize
        seen = []

        def recording(x0, fg, config):
            seen.append(fg)
            return minimize(x0, fg, config)

        monkeypatch.setattr(harness, "minimize", recording)
        net = mlp.init_params([2, 4, 1], mlp.Activation("tanh"), 1)
        Z = np.random.default_rng(2).uniform(-1, 1, (30, 2))
        harness.prefit_net_to_residual(net, Z, np.sin(Z[:, 1]), iters=20)
        assert len(seen) == 2 and seen[0] is seen[1]
        seen.clear()
        fit_function_lsq("cubic", -1.0, 1.0, 4, 3, 20, 5)
        assert len(seen) == 4 and all(fg is seen[0] for fg in seen)

    @pytest.mark.parametrize("activation", ["tanh", "softplus"])
    def test_gradient_matches_finite_differences(self, activation):
        rng = np.random.default_rng(21)
        net = mlp.init_params([2, 5, 4, 1], mlp.Activation(activation), 22)
        Z = rng.uniform(-1, 1, (20, 2))
        y = np.sin(3.0 * Z[:, 0]) * Z[:, 1]
        fg = _lsq_closure(net, Z, y)
        x = mlp.flatten_params(net)
        x = x + 0.3 * rng.standard_normal(x.size)
        loss, _, aux = fg(x)
        assert aux == loss
        diff = mlp.Tape(mlp.unflatten_params(x, net), Z).values - y
        assert loss == float(np.mean(diff**2))
        # central differences on every coordinate
        assert finite_diff_gradcheck(x, fg, samples=x.size) < 1e-6

    def test_gradient_is_fresh(self):
        # minimize keeps the best iterate's gradient by reference: a later
        # call must not write into a gradient handed out before
        rng = np.random.default_rng(23)
        net = mlp.init_params([1, 8, 8, 1], mlp.Activation("tanh"), 24)
        Z = rng.uniform(-1, 1, (129, 1))
        fg = _lsq_closure(net, Z, np.sin(3.0 * Z[:, 0]))
        x = mlp.flatten_params(net)
        grad = fg(x)[1]()
        kept = grad.copy()
        other = fg(x + 0.1 * rng.standard_normal(x.size))[1]()
        assert other is not grad
        assert grad.tobytes() == kept.tobytes()
        assert other.tobytes() != kept.tobytes()


    def test_deferred_gradient_keeps_its_own_state(self):
        # a gradient taken after later closure calls, and their gradients,
        # holds the bytes of one taken at once
        rng = np.random.default_rng(25)
        net = mlp.init_params([1, 8, 8, 1], mlp.Activation("tanh"), 26)
        Z = rng.uniform(-1, 1, (129, 1))
        fg = _lsq_closure(net, Z, np.sin(3.0 * Z[:, 0]))
        x = mlp.flatten_params(net)
        at_once = fg(x)[1]()
        _, deferred, _ = fg(x)
        y = x + 0.1 * rng.standard_normal(x.size)
        fg(y)[1]()
        fg(y)
        assert deferred().tobytes() == at_once.tobytes()


class TestApproximationProbe:
    def test_zero_function_fits_to_machine_level(self, tmp_path):
        cfg = default_config()
        cfg.sections["probe"].update(f_name="zero", widths=[4, 8],
                                     train_iters=3000)
        cfg.sections["output"].update(dir=str(tmp_path))
        rows, beta_hat = approximation_probe(cfg, echo=lambda *_: None)
        for row in rows:
            assert row.sup_error < 1e-6

    def test_fit_function_reduces_error_with_width(self, tmp_path):
        _, err4, _, _, _ = fit_function_lsq("cubic", -2.0, 2.0, 4, 3, 1500, 3)
        _, err16, _, _, _ = fit_function_lsq("cubic", -2.0, 2.0, 16, 3, 1500, 3)
        assert err16 < err4

    def test_fit_path_matches_reference(self, tmp_path, monkeypatch):
        # the flat-gradient VJP, the layout-driven unflatten, the in-place
        # adaptive step and the Armijo polish change no byte of the probe's
        # outputs against the plain formulas: layers through MlpParams, the
        # reference tape (a matmul first layer), flattened layer gradients,
        # out-of-place moments and the plain line search
        from test_mlp import flat_reference, reference_tape
        from test_optimizer import reference_minimize

        def reference_lsq_closure(net, Z, y):
            def fg(flat):
                params = mlp.MlpParams(*split_layers(flat, net), net.activation)
                values, _, vjp = reference_tape(params, Z)
                diff = values - y
                loss = float(np.mean(diff * diff))
                bar_W, bar_b, _ = vjp(2.0 * diff / diff.size, None, False)
                grad = flat_reference((bar_W, bar_b))
                return loss, lambda: grad, loss
            return fg

        def split_layers(flat, net):
            ws, bs, pos = [], [], 0
            for w, b in zip(net.weights, net.biases):
                ws.append(flat[pos:pos + w.size].reshape(w.shape))
                pos += w.size
                bs.append(flat[pos:pos + b.size])
                pos += b.size
            return ws, bs

        outputs = {}
        for side in ("program", "reference"):
            if side == "reference":
                monkeypatch.setattr(harness, "_lsq_closure", reference_lsq_closure)
                monkeypatch.setattr(harness, "minimize", reference_minimize)
            cfg = default_config()
            cfg.sections["probe"].update(widths=[4, 8], train_iters=300)
            cfg.sections["output"].update(dir=str(tmp_path / side))
            approximation_probe(cfg, echo=lambda *_: None)
            outputs[side] = [(tmp_path / side / name).read_bytes()
                             for name in ("probe.csv", "probe_summary.csv")]
        assert outputs["program"] == outputs["reference"]

    def test_timings_manifest(self, tmp_path, monkeypatch):
        # probe_timings.json holds each width's wall seconds and fit calls
        calls = []

        def counted(x0, fg, config):
            res = minimize(x0, fg, config)
            calls.append(res.calls)
            return res

        monkeypatch.setattr(harness, "minimize", counted)
        cfg = default_config()
        cfg.sections["probe"].update(widths=[4, 8], train_iters=100)
        cfg.sections["output"].update(dir=str(tmp_path))
        approximation_probe(cfg, echo=lambda *_: None)
        with open(tmp_path / "probe_timings.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"] == format_config(cfg)
        assert set(manifest["versions"]) == {"python", "numpy"}
        assert isinstance(manifest["heap_pinned"], bool)
        assert manifest["ufunc_bufsize"] == harness._UFUNC_BUFSIZE
        assert [w["width"] for w in manifest["widths"]] == [4, 8]
        # each width's fit makes four minimize calls: three adaptive stages
        # and the Armijo polish
        assert len(calls) == 8
        assert [w["fit_calls"] for w in manifest["widths"]] == \
            [sum(calls[:4]), sum(calls[4:])]
        for w in manifest["widths"]:
            assert 0 < w["wall_s"] <= manifest["wall_s"]
        # the process's peak resident MB after each width
        peaks = [w["peak_rss_mb"] for w in manifest["widths"]]
        assert peaks[0] > 0
        assert peaks == sorted(peaks)

    def test_peak_rss_without_resource_is_null(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "resource", None)
        cfg = default_config()
        cfg.sections["probe"].update(widths=[4], train_iters=20)
        cfg.sections["output"].update(dir=str(tmp_path))
        approximation_probe(cfg, echo=lambda *_: None)
        with open(tmp_path / "probe_timings.json") as fh:
            assert json.load(fh)["widths"][0]["peak_rss_mb"] is None

    @pytest.mark.parametrize("platform_name, mb", [("linux", 3072.0),
                                                   ("darwin", 3.0)])
    def test_peak_rss_units(self, monkeypatch, platform_name, mb):
        # ru_maxrss counts KiB on Linux and bytes on macOS
        usage = types.SimpleNamespace(ru_maxrss=3 << 20)
        monkeypatch.setattr(harness, "resource", types.SimpleNamespace(
            RUSAGE_SELF=0, getrusage=lambda who: usage))
        monkeypatch.setattr(harness, "sys",
                            types.SimpleNamespace(platform=platform_name))
        assert harness._peak_rss_mb() == mb

    def test_probe_csv_written(self, tmp_path):
        cfg = default_config()
        cfg.sections["probe"].update(f_name="zero", widths=[4],
                                     train_iters=500)
        cfg.sections["output"].update(dir=str(tmp_path))
        approximation_probe(cfg, echo=lambda *_: None)
        assert (tmp_path / "probe.csv").exists()
        assert (tmp_path / "probe_summary.csv").exists()


class TestPinHeap:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the pinned thresholds are glibc's")
    def test_entry_point_keeps_freed_pages(self, tmp_path):
        # after each entry point, freed 800 KB arrays stay in the heap: a
        # fresh round of them takes no new pages from the kernel (unpinned,
        # glibc mmaps or trims them and each round faults about 2,000 pages)
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlp.__file__)))
        cfg = tiny_config(tmp_path, m_max=1, iters=20)
        cfg.sections["probe"].update(f_name="zero", widths=[4], train_iters=50)
        env = dict(os.environ, PYTHONPATH=src)
        for entry in ("approximation_probe", "run_convergence_study",
                      "gradcheck_from_config"):
            code = ("import resource\n"
                    "import numpy as np\n"
                    "from smlpde.config import parse_config_text\n"
                    f"from smlpde.harness import {entry}\n"
                    f"cfg = parse_config_text({format_config(cfg)!r})\n"
                    f"{entry}(cfg, echo=lambda *_: None)\n"
                    "def round_():\n"
                    "    arrays = [np.ones(100_000) for _ in range(10)]\n"
                    "    del arrays\n"
                    "for _ in range(3):\n"
                    "    round_()\n"
                    "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    "for _ in range(20):\n"
                    "    round_()\n"
                    "end = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                    "print((end - start) / 20)\n")
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True, text=True).stdout
            assert float(out) < 10, entry

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert _pin_heap() is False

    def test_study_without_a_c_library(self, tmp_path, monkeypatch):
        # where no C library loads, the pin reports False and the study
        # runs as it does pinned: its report and stops match byte for byte
        def study_outputs(side):
            cfg = tiny_config(tmp_path / side, m_max=2, iters=20)
            cfg.sections["grid"].update(nx=9, nt=9)
            run_convergence_study(cfg, echo=lambda *_: None)
            return [(tmp_path / side / name).read_bytes()
                    for name in ("report.csv", "stops.csv")]

        normal = study_outputs("normal")

        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        assert _pin_heap() is False
        assert study_outputs("unpinned") == normal
        with open(tmp_path / "unpinned" / "timings.json") as fh:
            assert json.load(fh)["heap_pinned"] is False


class TestPinUfuncBuffer:
    ENTRIES = (run_convergence_study, approximation_probe, gradcheck_from_config)

    @staticmethod
    def small_config(out_dir):
        cfg = tiny_config(out_dir, m_max=1, iters=20)
        cfg.sections["probe"].update(f_name="zero", widths=[4], train_iters=50)
        return cfg

    def test_outputs_match_numpy_default_buffer(self, tmp_path, monkeypatch):
        # elementwise ufuncs give the same bits however numpy chunks them,
        # so the pinned buffer and numpy's default write the same files
        def outputs(side):
            cfg = tiny_config(tmp_path / side, m_max=2, iters=20)
            cfg.sections["probe"].update(widths=[4, 8], train_iters=100)
            run_convergence_study(cfg, echo=lambda *_: None)
            approximation_probe(cfg, echo=lambda *_: None)
            names = ["report.csv", "stops.csv", "probe.csv"] + sorted(
                p.name for p in (tmp_path / side).glob("trace_m*.csv"))
            return {name: (tmp_path / side / name).read_bytes()
                    for name in names}

        pinned = outputs("pinned")
        assert {"trace_m1.csv", "trace_m2.csv"} <= set(pinned)
        monkeypatch.setattr(harness, "_UFUNC_BUFSIZE", np.getbufsize())
        assert outputs("default") == pinned

    def test_entry_points_pin_and_restore(self, tmp_path, monkeypatch):
        # every entry point reaches harness.minimize through the prefit; the
        # heap is pinned before it, the buffer reads the pinned size there
        # and the caller's size after
        seen = []
        pin_heap = harness._pin_heap

        def recording_pin():
            seen.append("pin_heap")
            return pin_heap()

        def recording(x0, fg, config):
            seen.append(np.getbufsize())
            return minimize(x0, fg, config)

        monkeypatch.setattr(harness, "_pin_heap", recording_pin)
        monkeypatch.setattr(harness, "minimize", recording)
        cfg = self.small_config(tmp_path / "run")
        caller = np.setbufsize(1024)
        try:
            for entry in self.ENTRIES:
                seen.clear()
                entry(cfg, echo=lambda *_: None)
                assert seen[0] == "pin_heap", entry
                bufsizes = [s for s in seen if s != "pin_heap"]
                assert bufsizes and set(bufsizes) == {harness._UFUNC_BUFSIZE}, entry
                assert np.getbufsize() == 1024, entry
        finally:
            np.setbufsize(caller)

    def test_caller_buffer_restored_after_a_raise(self, tmp_path, monkeypatch):
        class Stop(Exception):
            pass

        def failing(x0, fg, config):
            raise Stop(f"bufsize {np.getbufsize()}")

        monkeypatch.setattr(harness, "minimize", failing)
        cfg = self.small_config(tmp_path / "run")
        (tmp_path / "a_file").write_text("")
        not_a_dir = self.small_config(tmp_path / "a_file")
        caller = np.getbufsize()
        for entry in self.ENTRIES:
            with pytest.raises(Stop, match=f"bufsize {harness._UFUNC_BUFSIZE}"):
                entry(cfg, echo=lambda *_: None)
            assert np.getbufsize() == caller, entry
        for entry in (run_convergence_study, approximation_probe):
            with pytest.raises(ConfigError, match="cannot be created"):
                entry(not_a_dir, echo=lambda *_: None)
            assert np.getbufsize() == caller, entry


STUDYBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "studybench")


class TestBenchmarkContract:
    """The benchmark binds studybench/spans.py's tracing over every public
    smlpde function and mlp.Tape's operations, and studybench/worker.py's
    Hooks over harness.make_closure and harness.minimize.  A program change
    that renames what they bind, or minimizes outside those two globals,
    makes the benchmark's tags and counts read wrong without any error, so
    the tiny study and probe run here under both, unedited."""

    @pytest.fixture
    def bench(self, monkeypatch):
        monkeypatch.syspath_prepend(STUDYBENCH)
        return importlib.import_module("spans"), importlib.import_module("worker")

    @staticmethod
    def run_traced(bench, timed, entry, cfg):
        """entry(cfg) under the tracing and the hooks, installed in the
        worker's order; returns (the recorder's layer metrics, tape tags,
        hooks)."""
        spans, worker = bench
        rec = spans.Recorder()
        restore_tracing = spans.install_tracing(rec)
        try:
            hooks = worker.Hooks(timed, rec)
            restore_hooks = hooks.install(harness)
            try:
                entry(cfg, echo=lambda *_: None)
            finally:
                restore_hooks()
        finally:
            restore_tracing()
        tags = {tag for name, tag in zip(rec.names, rec.tags) if name == "mlp.Tape"}
        return spans.layer_metrics(rec), tags, hooks

    def test_study(self, bench, tmp_path):
        cfg = tiny_config(tmp_path, m_max=2, iters=20)
        layers, tags, hooks = self.run_traced(
            bench, "objective", harness.run_convergence_study, cfg)
        assert tags == {"residual", "box", "fit"}
        assert layers["mlp.deriv_calls"] == 0
        assert layers["objective.closure_samples"] == hooks.calls["objective"]
        with open(tmp_path / "timings.json") as fh:
            scales = json.load(fh)["scales"]
        assert hooks.calls["objective"] == sum(s["closure_calls"] for s in scales)
        assert hooks.calls["fit"] > 0
        assert hooks.minimize_failed == 0

    def test_probe(self, bench, tmp_path):
        cfg = tiny_config(tmp_path)
        cfg.sections["probe"].update(f_name="zero", widths=[4, 8], train_iters=40)
        layers, tags, hooks = self.run_traced(
            bench, "fit", harness.approximation_probe, cfg)
        assert tags == {"fit"}
        assert layers["mlp.deriv_calls"] == 0
        with open(tmp_path / "probe_timings.json") as fh:
            widths = json.load(fh)["widths"]
        assert hooks.calls["fit"] == sum(w["fit_calls"] for w in widths)
        assert hooks.calls["objective"] == 0


    def test_workload_configs_build(self, monkeypatch, tmp_path):
        # every workload's config text parses, so no key it sets has gone;
        # a study workload's reference set-up and scale-1 objective build
        monkeypatch.syspath_prepend(STUDYBENCH)
        workloads = importlib.import_module("workloads")
        assert workloads.WORKLOADS
        for workload in workloads.WORKLOADS.values():
            cfg = workloads.build_config(workload, 1, str(tmp_path))
            if workload.entry == "study":
                ref = harness._reference(cfg)
                problem = harness._scale(cfg, ref, 1)
                assert problem.dataset.y.shape == ref.u_true.shape


class TestGradcheckEntry:
    def test_small_config_passes(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        err = gradcheck_from_config(cfg, echo=lambda *_: None)
        assert err < 1e-5


class TestCli:
    def test_print_default_config(self, capsys):
        assert cli_main(["print-default-config"]) == 0
        out = capsys.readouterr().out
        assert out == format_config(default_config())

    def test_run_and_probe_commands(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path / "out", m_max=1, iters=60)
        cfg.sections["probe"].update(widths=[4], train_iters=200)
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert cli_main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert cli_main(["probe", str(path)]) == 0

    @pytest.mark.parametrize("command", ["run", "gradcheck"])
    def test_diverging_reference_exit_code(self, command, tmp_path, capsys):
        # f(u) = u over t in [0, 30] outgrows the simulation's blow-up bound
        cfg = tiny_config(tmp_path / "out")
        cfg.sections["grid"].update(nx=9, nt=9, t_end=30.0)
        cfg.sections["ground_truth"].update(f_true="identity")
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: forward simulation diverged")
        assert err.count("\n") == 1

    def test_gradcheck_start_outside_box_exit_code(self, tmp_path, capsys):
        # noise this large puts the data-started states' jets outside the
        # box derived from the true trajectory
        cfg = default_config()
        cfg.sections["grid"].update(nx=17, nt=17)
        cfg.sections["measurement"].update(noise0=3.0)
        cfg.sections["schedule"].update(m_max=1)
        cfg.sections["optimizer"].update(max_iters=4, restarts=1)
        cfg.sections["output"].update(dir=str(tmp_path / "out"))
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert cli_main(["gradcheck", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gradcheck: visited jet point left the box")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nnx = banana\n", encoding="utf-8")
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 2:")
        assert err.count("\n") == 1

    @staticmethod
    def assert_one_config_error(err):
        assert err.startswith("config error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_code(self, case, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"[grid]\nnx = 17 # \xff\xfe\n")
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_config_error(err)
        assert repr(str(path)) in err

    @pytest.mark.parametrize("under", [False, True])
    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_output_dir_not_a_directory(self, command, under, tmp_path,
                                        capsys, monkeypatch):
        # [output] dir names a file, or a path under one: exit 2 before any
        # work, the reference simulation or the first fit
        def no_work(*_args, **_kwargs):
            raise AssertionError("work began before the output dir was made")

        monkeypatch.setattr(harness, "_reference", no_work)
        monkeypatch.setattr(harness, "fit_function_lsq", no_work)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n", encoding="utf-8")
        cfg = tiny_config(blocker / "out" if under else blocker)
        path = tmp_path / "exp.cfg"
        path.write_text(format_config(cfg), encoding="utf-8")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        self.assert_one_config_error(err)
        assert err.startswith("config error: [output] dir ")
        assert blocker.read_text(encoding="utf-8") == "a file\n"
