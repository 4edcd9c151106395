import csv
import os

import numpy as np
import pytest

from smlpde.cli import main as cli_main
from smlpde.config import default_config, format_config
from smlpde.grid import jet_features
from smlpde.harness import (_staged_minimize, approximation_probe, build_grid,
                            build_gt_spec, fit_function_lsq,
                            gradcheck_from_config, run_convergence_study)
from smlpde.ground_truth import simulate
from smlpde.optimizer import OptimConfig, minimize


def tiny_config(out_dir, m_max=2, iters=300):
    cfg = default_config()
    cfg.sections["grid"].update(nx=17, nt=13)
    cfg.sections["ground_truth"].update(
        kind="none", f_true="zero", n_experiments=1,
        phi1_profiles=[], u0_profiles=["sine:0.8"])
    cfg.sections["measurement"].update(family="full", noise0=0.0)
    cfg.sections["schedule"].update(m_max=m_max)
    cfg.sections["network"].update(width0=4)
    cfg.sections["optimizer"].update(max_iters=iters, restarts=1, rate=0.005)
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
        for row in report.rows:
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

    def test_degenerate_schedule_rows_stable(self, tmp_path):
        # growth 1 and fixed noise/operator: tau_m = tau0/m and
        # width_m = width0*m still change, so the scales do not solve the
        # same problem, but with f_true = 0, full noiseless data and the
        # kink of nu*|theta|_2 they share the minimizer theta = 0 (f = 0,
        # e_f = 0); rows that are minimizers agree closely after the first
        cfg = tiny_config(tmp_path / "run", m_max=3, iters=400)
        cfg.sections["schedule"].update(growth=1.0, nu_decay=1.0)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        e_fs = [r.e_f for r in report.rows[1:]]
        assert max(e_fs) - min(e_fs) < 0.05 * max(max(e_fs), 1e-9)

    def test_stops_one_row_per_start(self, tmp_path):
        # two restarts at m = 1, then one warm start at m = 2; the best
        # start of a scale ends at the total its report row carries
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=40)
        cfg.sections["optimizer"].update(restarts=2)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        with open(tmp_path / "run" / "stops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["m"], r["start"]) for r in rows] == \
            [("1", "0"), ("1", "1"), ("2", "0")]
        for r in rows:
            assert r["outcome"] in ("call budget", "iteration cap",
                                    "gradient tolerance reached",
                                    "line search stalled")
            assert int(r["iterations"]) > 0
        for row in report.rows:
            ends = [float(r["value"]) for r in rows if r["m"] == str(row.m)]
            assert min(ends) == row.breakdown.total

    def test_stops_record_diverged_starts(self, tmp_path):
        # a rate this large throws the states out of the box at once, so
        # every start diverges and every scale starts over from scratch
        cfg = tiny_config(tmp_path / "run", m_max=2, iters=40)
        cfg.sections["optimizer"].update(restarts=2, rate=1.0)
        report = run_convergence_study(cfg, echo=lambda *_: None)
        assert all(row.status.startswith("diverged(") for row in report.rows)
        with open(tmp_path / "run" / "stops.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["m"], r["start"]) for r in rows] == \
            [("1", "0"), ("1", "1"), ("2", "0"), ("2", "1")]
        for r in rows:
            assert r["outcome"].startswith("diverged: visited jet point left")
            assert r["iterations"] == r["value"] == ""

    def test_determinism_byte_identical(self, tmp_path):
        cfg1 = tiny_config(tmp_path / "a", m_max=2, iters=150)
        cfg2 = tiny_config(tmp_path / "b", m_max=2, iters=150)
        run_convergence_study(cfg1, echo=lambda *_: None)
        run_convergence_study(cfg2, echo=lambda *_: None)
        a = (tmp_path / "a" / "report.csv").read_bytes()
        b = (tmp_path / "b" / "report.csv").read_bytes()
        assert a == b


def kink_objective(calls):
    """|x - c|^2/2 + |x|_2 with |c|_2 < 1; appends to calls on every call."""
    c = np.array([0.3, -0.2, 0.1, 0.25])

    def fg(x):
        calls.append(1)
        r = float(np.linalg.norm(x))
        g = x - c + (x / r if r > 0 else 0.0)
        return 0.5 * float((x - c) @ (x - c)) + r, g, None

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
            assert len(calls) == max_iters
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
        _, err4, _, _ = fit_function_lsq("cubic", -2.0, 2.0, 4, 3, 1500, 3)
        _, err16, _, _ = fit_function_lsq("cubic", -2.0, 2.0, 16, 3, 1500, 3)
        assert err16 < err4

    def test_probe_csv_written(self, tmp_path):
        cfg = default_config()
        cfg.sections["probe"].update(f_name="zero", widths=[4],
                                     train_iters=500)
        cfg.sections["output"].update(dir=str(tmp_path))
        approximation_probe(cfg, echo=lambda *_: None)
        assert (tmp_path / "probe.csv").exists()
        assert (tmp_path / "probe_summary.csv").exists()


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nnx = banana\n", encoding="utf-8")
        assert cli_main(["run", str(path)]) == 2
