import numpy as np
import pytest

from smlpde.errors import BoxViolationError, DivergedError
from smlpde.optimizer import (OptimConfig, finite_diff_gradcheck, minimize)


def quadratic_bowl(center=None):
    def fg(x):
        c = center if center is not None else np.zeros_like(x)
        d = x - c
        return float(d @ d), 2.0 * d, float(d @ d)

    return fg


class TestMinimize:
    def test_quadratic_bowl_to_zero(self):
        fg = quadratic_bowl()
        x0 = np.array([1.0, -2.0, 0.5])
        res = minimize(x0, fg, OptimConfig(max_iters=5000, grad_tol=1e-12,
                                           rate=1.0, method="gd_linesearch"))
        assert res.value < 1e-12
        assert res.converged

    def test_known_minimizer_location(self):
        # 1D quadratic with minimum at 3 embedded as a single coordinate
        fg = quadratic_bowl(center=np.array([3.0]))
        res = minimize(np.array([0.0]), fg,
                       OptimConfig(max_iters=5000, grad_tol=1e-10, rate=0.5,
                                   method="gd_linesearch"))
        assert abs(res.x[0] - 3.0) < 1e-6

    def test_adaptive_reaches_minimum(self):
        fg = quadratic_bowl(center=np.array([3.0]))
        res = minimize(np.array([0.0]), fg,
                       OptimConfig(max_iters=8000, grad_tol=1e-9, rate=0.01,
                                   method="adaptive"))
        assert abs(res.x[0] - 3.0) < 1e-6

    def test_linesearch_trace_monotone(self):
        rng = np.random.default_rng(0)
        n = 12
        a = rng.standard_normal((n, n))
        h = a.T @ a + 0.1 * np.eye(n)
        b = rng.standard_normal(n)

        def fg(x):
            v = 0.5 * float(x @ h @ x) - float(b @ x)
            return v, h @ x - b, v

        res = minimize(rng.standard_normal(n), fg,
                       OptimConfig(max_iters=300, grad_tol=0.0, rate=1.0,
                                   method="gd_linesearch"))
        values = res.trace
        assert all(y <= x + 1e-15 for x, y in zip(values, values[1:]))

    def test_armijo_condition_on_accepted_steps(self):
        # re-derive acceptance from the trace of a convex problem
        calls = []

        def fg(x):
            v = float(x @ x) + float(np.sum(np.abs(x) ** 3))
            g = 2 * x + 3 * np.abs(x) * x
            calls.append((x.copy(), v, g.copy()))
            return v, g, v

        cfgo = OptimConfig(max_iters=60, grad_tol=0.0, rate=2.0,
                           method="gd_linesearch")
        res = minimize(np.array([1.5, -0.7]), fg, cfgo)
        assert res.trace == sorted(res.trace, reverse=True)

    def test_linesearch_rejects_box_violating_trials(self):
        # trials beyond |x| = 4 raise, as the objective's hard box check
        # does; the search shrinks the step instead of aborting
        def fg(x):
            if np.max(np.abs(x)) > 4.0:
                raise BoxViolationError("left the box")
            d = x - 3.0
            return float(d @ d), 2.0 * d, float(d @ d)

        res = minimize(np.array([0.0, 1.0]), fg,
                       OptimConfig(max_iters=200, grad_tol=1e-10, rate=50.0,
                                   method="gd_linesearch"))
        assert all(y < x for x, y in zip(res.trace, res.trace[1:]))
        assert res.converged
        assert np.allclose(res.x, 3.0, atol=1e-8)

    def test_linesearch_call_budget(self):
        calls = []

        def fg(x):
            calls.append(1)
            return float(np.sum(np.cosh(x))), np.sinh(x), None

        res = minimize(np.full(3, 5.0), fg,
                       OptimConfig(max_iters=100, grad_tol=0.0, rate=1e-4,
                                   method="gd_linesearch", max_calls=7))
        assert len(calls) == 7
        assert res.stop_reason == "call budget"

    @pytest.mark.parametrize("method", ["adaptive", "gd_linesearch"])
    def test_resume_from_result(self, method):
        # a stage resumed from an earlier result takes that result's start
        # as it stands: one call fewer, the same bits as evaluating it again
        calls = []

        def fg(x):
            calls.append(1)
            v = float(np.sum(np.cosh(x) - 1.0))
            return v, np.sinh(x), v

        first = minimize(np.full(3, 0.8), fg, OptimConfig(max_iters=5, rate=0.05))
        config = OptimConfig(max_iters=20, grad_tol=0.0, rate=0.05, method=method)
        calls.clear()
        resumed = minimize(first, fg, config)
        resumed_calls = len(calls)
        calls.clear()
        again = minimize(first.x, fg, config)
        assert resumed_calls == len(calls) - 1
        assert resumed.x.tobytes() == again.x.tobytes()
        assert resumed.grad.tobytes() == again.grad.tobytes()
        assert resumed.value == again.value
        assert resumed.trace == again.trace
        assert resumed.iterations == again.iterations

    def test_resumed_start_counts_against_call_budget(self):
        calls = []

        def fg(x):
            calls.append(1)
            return float(np.sum(np.cosh(x))), np.sinh(x), None

        first = minimize(np.full(3, 5.0), fg, OptimConfig(max_iters=1, rate=1e-4))
        calls.clear()
        res = minimize(first, fg,
                       OptimConfig(max_iters=100, grad_tol=0.0, rate=1e-4,
                                   method="gd_linesearch", max_calls=7))
        assert len(calls) == 6
        assert res.stop_reason == "call budget"

    def test_adaptive_best_so_far_non_increasing(self):
        rng = np.random.default_rng(1)

        def fg(x):
            v = float(np.sum(np.sin(x) ** 2 + 0.1 * x**2))
            g = np.sin(2 * x) + 0.2 * x
            return v, g, v

        res = minimize(rng.standard_normal(6), fg,
                       OptimConfig(max_iters=500, grad_tol=0.0, rate=0.05))
        best = np.inf
        bests = []
        for v in res.trace:
            best = min(best, v)
            bests.append(best)
        assert all(b2 <= b1 for b1, b2 in zip(bests, bests[1:]))
        assert res.value == pytest.approx(bests[-1])

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(2)

        def fg(x):
            v = float(np.sum(np.cosh(x) - 1.0))
            return v, np.sinh(x), v

        x0 = rng.standard_normal(5)
        r1 = minimize(x0, fg, OptimConfig(max_iters=200, rate=0.01))
        r2 = minimize(x0, fg, OptimConfig(max_iters=200, rate=0.01))
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace == r2.trace

    def test_divergence_detected(self):
        def fg(x):
            with np.errstate(over="ignore"):
                return float(np.exp(x[0])), np.array([np.exp(x[0])]), None

        # exp overflows to inf right at the starting point
        with pytest.raises(DivergedError) as info:
            minimize(np.array([800.0]), fg,
                     OptimConfig(max_iters=50, rate=1.0))
        assert info.value.iteration is not None

    def test_returns_best_not_last(self):
        # a function where adaptive overshoots near the end
        def fg(x):
            v = float(x @ x)
            return v, 2 * x, v

        res = minimize(np.array([1.0]), fg,
                       OptimConfig(max_iters=37, rate=0.9))
        assert res.value <= min(res.trace) + 1e-15


class TestFiniteDiffGradcheck:
    def test_pure_quadratic_near_exact(self):
        fg = quadratic_bowl()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        err = finite_diff_gradcheck(x, fg, samples=20, step=1e-5)
        assert err < 1e-9

    def test_zero_objective_is_zero_error(self):
        def fg(x):
            return 0.0, np.zeros_like(x), None

        err = finite_diff_gradcheck(np.ones(4), fg, samples=4, step=1e-5)
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        def fg(x):
            return float(x @ x), 3.0 * x, None  # wrong factor

        err = finite_diff_gradcheck(np.ones(3), fg, samples=3, step=1e-5)
        assert err > 0.2

    def test_step_bounds(self):
        fg = quadratic_bowl()
        with pytest.raises(ValueError):
            finite_diff_gradcheck(np.ones(2), fg, step=1e-2)
