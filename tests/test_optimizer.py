import weakref

import numpy as np
import pytest

from smlpde.errors import BoxViolationError, DivergedError
from smlpde.optimizer import (ARMIJO_SHRINK, ARMIJO_SLOPE, BETA1, BETA2, EPS,
                              MAX_BACKTRACKS, STEP_RULES, OptimConfig,
                              OptResult, _check_finite, finite_diff_gradcheck,
                              minimize)


def quadratic_bowl(center=None):
    def fg(x):
        c = center if center is not None else np.zeros_like(x)
        d = x - c
        g = 2.0 * d
        return float(d @ d), lambda: g, float(d @ d)

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
            g = h @ x - b
            return v, lambda: g, v

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
            return v, lambda: g, v

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
            return float(d @ d), lambda: 2.0 * d, float(d @ d)

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
            return float(np.sum(np.cosh(x))), lambda: np.sinh(x), None

        res = minimize(np.full(3, 5.0), fg,
                       OptimConfig(max_iters=100, grad_tol=0.0, rate=1e-4,
                                   method="gd_linesearch", max_calls=7))
        assert len(calls) == res.calls == 7
        assert res.stop_reason == "call budget"

    @pytest.mark.parametrize("method", ["adaptive", "gd_linesearch"])
    def test_resume_from_result(self, method):
        # a stage resumed from an earlier result takes that result's start
        # as it stands: one call fewer, the same bits as evaluating it again
        calls = []

        def fg(x):
            calls.append(1)
            v = float(np.sum(np.cosh(x) - 1.0))
            return v, lambda: np.sinh(x), v

        first = minimize(np.full(3, 0.8), fg, OptimConfig(max_iters=5, rate=0.05))
        config = OptimConfig(max_iters=20, grad_tol=0.0, rate=0.05, method=method)
        calls.clear()
        resumed = minimize(first, fg, config)
        resumed_calls = len(calls)
        calls.clear()
        again = minimize(first.x, fg, config)
        assert resumed_calls == len(calls) - 1
        assert (resumed.calls, again.calls) == (resumed_calls, len(calls))
        assert resumed.x.tobytes() == again.x.tobytes()
        assert resumed.grad.tobytes() == again.grad.tobytes()
        assert resumed.value == again.value
        assert resumed.trace == again.trace
        assert resumed.iterations == again.iterations

    def test_resumed_start_counts_against_call_budget(self):
        calls = []

        def fg(x):
            calls.append(1)
            return float(np.sum(np.cosh(x))), lambda: np.sinh(x), None

        first = minimize(np.full(3, 5.0), fg, OptimConfig(max_iters=1, rate=1e-4))
        calls.clear()
        res = minimize(first, fg,
                       OptimConfig(max_iters=100, grad_tol=0.0, rate=1e-4,
                                   method="gd_linesearch", max_calls=7))
        assert len(calls) == res.calls == 6
        assert res.stop_reason == "call budget"

    @pytest.mark.parametrize("method", ["adaptive", "gd_linesearch"])
    def test_gradient_tolerance_edges(self, method):
        # an empty gradient meets a positive tolerance at once; a tolerance
        # of 0 never stops a run, not even at a zero gradient
        res = minimize(np.zeros(0), quadratic_bowl(),
                       OptimConfig(max_iters=5, grad_tol=1e-8, method=method))
        assert res.converged and res.iterations == 0
        res = minimize(np.zeros(2), quadratic_bowl(),
                       OptimConfig(max_iters=5, grad_tol=0.0, method=method))
        assert not res.converged and res.iterations == 5
        assert res.stop_reason == "iteration cap"

    def test_adaptive_best_so_far_non_increasing(self):
        rng = np.random.default_rng(1)

        def fg(x):
            v = float(np.sum(np.sin(x) ** 2 + 0.1 * x**2))
            g = np.sin(2 * x) + 0.2 * x
            return v, lambda: g, v

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
            return v, lambda: np.sinh(x), v

        x0 = rng.standard_normal(5)
        r1 = minimize(x0, fg, OptimConfig(max_iters=200, rate=0.01))
        r2 = minimize(x0, fg, OptimConfig(max_iters=200, rate=0.01))
        assert np.array_equal(r1.x, r2.x)
        assert r1.trace == r2.trace

    def test_divergence_detected(self):
        def fg(x):
            with np.errstate(over="ignore"):
                g = np.array([np.exp(x[0])])
            return float(g[0]), lambda: g, None

        # exp overflows to inf right at the starting point
        with pytest.raises(DivergedError,
                           match="^objective became non-finite at iteration 0$"):
            minimize(np.array([800.0]), fg,
                     OptimConfig(max_iters=50, rate=1.0))

    @pytest.mark.parametrize("method,bad", [("adaptive", "objective"),
                                            ("adaptive", "gradient"),
                                            ("gd_linesearch", "gradient")])
    def test_divergence_at_an_iterate(self, method, bad):
        # the third call, iterate 2, returns a non-finite value or gradient;
        # (a line-search trial with a non-finite value is only rejected)
        calls = []

        def fg(x):
            calls.append(1)
            v, g = float(x @ x), 2.0 * x
            if len(calls) == 3:
                if bad == "objective":
                    v = np.nan
                else:
                    g[1] = np.inf
            return v, lambda: g, v

        with pytest.raises(DivergedError,
                           match=f"^{bad} became non-finite at iteration 2$"):
            minimize(np.array([1.0, -2.0, 0.5]), fg,
                     OptimConfig(max_iters=10, grad_tol=0.0, rate=0.25,
                                 method=method))
        assert len(calls) == 3

    def test_returns_best_not_last(self):
        # a function where adaptive overshoots near the end
        def fg(x):
            v = float(x @ x)
            return v, lambda: 2 * x, v

        res = minimize(np.array([1.0]), fg,
                       OptimConfig(max_iters=37, rate=0.9))
        assert res.value <= min(res.trace) + 1e-15


class TestStepRules:
    """One table, STEP_RULES, names the methods: OptimConfig accepts its
    keys only, and minimize runs the rule it names."""

    def test_unknown_method_refused(self):
        assert "sgd" not in STEP_RULES
        with pytest.raises(ValueError, match="unknown method 'sgd'"):
            OptimConfig(method="sgd")

    def test_methods_are_the_tables_keys(self, monkeypatch):
        assert set(STEP_RULES) == {"adaptive", "gd_linesearch"}
        # a rule added to the table is accepted and dispatched: this one
        # spends two calls and then stops the run
        def stalls(n, fg, config):
            return lambda k, x, value, grad: (2, "stalled")

        monkeypatch.setitem(STEP_RULES, "stall", stalls)
        res = minimize(np.ones(2), quadratic_bowl(), OptimConfig(method="stall"))
        assert (res.stop_reason, res.iterations, res.calls) == ("stalled", 0, 3)
        assert not res.converged and res.trace == [2.0]


def reference_adaptive(x0, fg, config):
    """The adaptive method with a fresh array for every moment, estimate
    and step: the plain formulas the in-place loop must match bit for bit."""
    if isinstance(x0, OptResult):
        x = np.array(x0.x, dtype=float)
        value, grad, aux = x0.value, x0.grad, x0.aux
        calls = 0
    else:
        x = np.array(x0, dtype=float)
        value, grad, aux = fg(x)
        grad = grad()
        calls = 1
    _check_finite(value, grad, 0)
    best_x, best_value, best_aux, best_grad = x.copy(), value, aux, grad
    trace = [aux]
    result = OptResult(best_x, best_value, best_aux, trace)
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    for k in range(1, config.max_iters + 1):
        if config.grad_tol > 0 and \
                np.max(np.abs(grad), initial=0.0) < config.grad_tol:
            result.converged = True
            result.stop_reason = "gradient tolerance reached"
            break
        m = BETA1 * m + (1.0 - BETA1) * grad
        v = BETA2 * v + (1.0 - BETA2) * grad * grad
        mhat = m / (1.0 - BETA1**k)
        vhat = v / (1.0 - BETA2**k)
        x = x - config.rate * mhat / (np.sqrt(vhat) + EPS)
        value, grad, aux = fg(x)
        grad = grad()
        calls += 1
        _check_finite(value, grad, k)
        trace.append(aux)
        result.iterations = k
        if value < best_value:
            best_x, best_value = x.copy(), value
            best_aux, best_grad = aux, grad
    else:
        result.stop_reason = "iteration cap"
    result.x, result.value, result.aux = best_x, best_value, best_aux
    result.grad, result.calls = best_grad, calls
    return result


def reference_linesearch(x0, fg, config):
    """The Armijo descent written plainly: a fresh array for every trial,
    np.max(np.abs(.)) for the sup-norm and _check_finite at every accepted
    iterate; the loop the program's gd_linesearch must match bit for bit."""
    if isinstance(x0, OptResult):
        x = np.array(x0.x, dtype=float)
        value, grad, aux = x0.value, x0.grad, x0.aux
        calls = 0
    else:
        x = np.array(x0, dtype=float)
        value, grad, aux = fg(x)
        grad = grad()
        calls = 1
    _check_finite(value, grad, 0)
    best_x, best_value, best_aux, best_grad = x.copy(), value, aux, grad
    trace = [aux]
    result = OptResult(best_x, best_value, best_aux, trace)
    # the start counts against the budget, evaluated here or resumed
    budget = np.inf if config.max_calls is None else config.max_calls - 1
    step = config.rate
    for k in range(1, config.max_iters + 1):
        if config.grad_tol > 0 and \
                np.max(np.abs(grad), initial=0.0) < config.grad_tol:
            result.converged = True
            result.stop_reason = "gradient tolerance reached"
            break
        gsq = float(grad @ grad)
        alpha = step
        accepted = None
        for _ in range(MAX_BACKTRACKS):
            if budget <= 0:
                break
            budget -= 1
            calls += 1
            trial = x - alpha * grad
            try:
                t_value, t_grad, t_aux = fg(trial)
            except BoxViolationError:
                t_value, t_grad, t_aux = np.inf, None, None
            if np.isfinite(t_value) and \
                    t_value <= value - ARMIJO_SLOPE * alpha * gsq:
                accepted = (trial, t_value, t_grad, t_aux)
                break
            alpha = alpha * ARMIJO_SHRINK
        if accepted is None:
            result.stop_reason = ("call budget" if budget <= 0
                                  else "line search stalled")
            break
        x, value, grad, aux = accepted
        grad = grad()
        _check_finite(value, grad, k)
        trace.append(aux)
        result.iterations = k
        step = 2.0 * alpha
        if value < best_value:
            best_x, best_value = x.copy(), value
            best_aux, best_grad = aux, grad
    else:
        result.stop_reason = "iteration cap"
    result.x, result.value, result.aux = best_x, best_value, best_aux
    result.grad, result.calls = best_grad, calls
    return result


def reference_minimize(x0, fg, config):
    """minimize through the plain references: reference_adaptive or
    reference_linesearch."""
    if config.method == "adaptive":
        return reference_adaptive(x0, fg, config)
    return reference_linesearch(x0, fg, config)


def assert_results_identical(got, expect):
    assert got.x.tobytes() == expect.x.tobytes()
    assert got.grad.tobytes() == expect.grad.tobytes()
    assert got.value == expect.value
    assert (got.iterations, got.calls) == (expect.iterations, expect.calls)
    assert (got.converged, got.stop_reason) == (expect.converged,
                                                expect.stop_reason)
    assert np.array(got.trace).tobytes() == np.array(expect.trace).tobytes()


class TestAdaptiveMatchesReference:
    """The in-place moments and step change no bit against the plain
    formulas."""

    @staticmethod
    def value_grad(x):
        # non-quadratic, coupled and heavy-scaled, so that any reordering
        # of a product or sum shows in the last bits over many iterations
        scale = 10.0 ** np.linspace(-2, 2, x.size)
        c = np.cos(3.0 * x)
        shift = np.roll(x, 1)
        v = float(np.sum(scale * (x**2 - shift) ** 2) + np.sum(1.0 - c))
        g = 4.0 * scale * (x**2 - shift) * x + 3.0 * np.sin(3.0 * x)
        g -= np.roll(2.0 * scale * (x**2 - shift), -1)
        return v, g

    @classmethod
    def rugged(cls, x):
        v, g = cls.value_grad(x)
        return v, lambda: g, v

    @pytest.mark.parametrize("rate", [1e-3, 0.05])
    def test_bit_identical_with_resume(self, rate):
        x0 = np.random.default_rng(40).uniform(-1.5, 1.5, 12)
        first_cfg = OptimConfig(max_iters=150, grad_tol=0.0, rate=rate)
        first = minimize(x0, self.rugged, first_cfg)
        first_ref = reference_adaptive(x0, self.rugged, first_cfg)
        assert_results_identical(first, first_ref)
        # a resumed stage, at another rate, continues from the result
        cfg = OptimConfig(max_iters=350, grad_tol=0.0, rate=rate / 3.0)
        assert_results_identical(minimize(first, self.rugged, cfg),
                                 reference_adaptive(first_ref, self.rugged, cfg))

    def test_bit_identical_to_gradient_tolerance(self):
        fg = quadratic_bowl(center=np.array([3.0, -1.0]))
        cfg = OptimConfig(max_iters=8000, grad_tol=1e-6, rate=0.01)
        res = minimize(np.zeros(2), fg, cfg)
        assert res.converged
        assert_results_identical(res, reference_adaptive(np.zeros(2), fg, cfg))

    def test_iterates_are_fresh(self):
        # fit closures keep views of x as network layers: no iterate may
        # be written over by a later step
        seen = []

        def fg(x):
            seen.append((x, x.copy()))
            return self.rugged(x)

        minimize(np.full(5, 0.7), fg, OptimConfig(max_iters=20, rate=0.05))
        assert all(x.tobytes() == kept.tobytes() for x, kept in seen)


class TestLinesearchMatchesReference:
    """gd_linesearch changes no bit against the plain Armijo descent:
    rejected box-violating and Armijo-failing trials, the call budget, a
    resumed start and the gradient tolerance."""

    @staticmethod
    def boxed(x):
        # trials beyond |x|_inf = 2 raise, as the objective's box check does
        if np.max(np.abs(x)) > 2.0:
            raise BoxViolationError("left the box")
        return TestAdaptiveMatchesReference.rugged(x)

    def test_box_violating_trials(self):
        ledger = Ledger(TestAdaptiveMatchesReference.value_grad, box=2.0)
        x0 = np.random.default_rng(41).uniform(-1.5, 1.5, 12)
        cfg = OptimConfig(max_iters=120, grad_tol=0.0, rate=5.0,
                          method="gd_linesearch")
        minimize(x0, ledger, cfg)
        # both kinds of rejection happen on this run
        assert ledger.raised > 0 and ledger.runs().count(0) > 0
        assert_results_identical(minimize(x0, self.boxed, cfg),
                                 reference_linesearch(x0, self.boxed, cfg))

    @pytest.mark.parametrize("max_calls", [1, 2, 7, 150])
    def test_call_budget(self, max_calls):
        x0 = np.random.default_rng(42).uniform(-1.5, 1.5, 12)
        cfg = OptimConfig(max_iters=400, grad_tol=0.0, rate=5.0,
                          method="gd_linesearch", max_calls=max_calls)
        res = minimize(x0, self.boxed, cfg)
        assert res.stop_reason == "call budget" and res.calls == max_calls
        assert_results_identical(res,
                                 reference_linesearch(x0, self.boxed, cfg))

    @pytest.mark.parametrize("max_calls", [None, 40])
    def test_resumed_start(self, max_calls):
        # an adaptive stage, then the descent from its result, as in the
        # probe's polish and the study's second stage
        x0 = np.random.default_rng(43).uniform(-1.5, 1.5, 12)
        first = minimize(x0, TestAdaptiveMatchesReference.rugged,
                         OptimConfig(max_iters=50, grad_tol=0.0, rate=0.05))
        cfg = OptimConfig(max_iters=60, grad_tol=0.0, rate=1.0,
                          method="gd_linesearch", max_calls=max_calls)
        assert_results_identical(minimize(first, self.boxed, cfg),
                                 reference_linesearch(first, self.boxed, cfg))

    def test_gradient_tolerance(self):
        fg = quadratic_bowl(center=np.array([3.0, -1.0, 0.5]))
        cfg = OptimConfig(max_iters=500, grad_tol=1e-9, rate=1.0,
                          method="gd_linesearch")
        res = minimize(np.zeros(3), fg, cfg)
        assert res.converged
        assert_results_identical(res,
                                 reference_linesearch(np.zeros(3), fg, cfg))


class Ledger:
    """A closure under the protocol that records, for every call, its value,
    how often its grad() ran and a weak reference to the state its grad
    captured; on every entry it counts the earlier calls' states still
    alive.  Points beyond |x|_inf = box raise BoxViolationError."""

    def __init__(self, f, box=np.inf):
        self.f = f
        self.box = box
        self.calls = []          # [value, grad() runs, weakref to the state]
        self.raised = 0
        self.live_on_entry = []

    def __call__(self, x):
        self.live_on_entry.append(
            sum(ref() is not None for _, _, ref in self.calls))
        if np.max(np.abs(x), initial=0.0) > self.box:
            self.raised += 1
            raise BoxViolationError("left the box")
        value, g = self.f(x)
        state = np.array(g)     # what a backward pass holds until it runs
        entry = [value, 0, weakref.ref(state)]
        self.calls.append(entry)

        def grad():
            entry[1] += 1
            return state.copy()

        return value, grad, value

    def runs(self):
        return [runs for _, runs, _ in self.calls]


class TestDeferredGradient:
    """grad() runs where minimize needs the gradient, once, and a trial's
    deferred state is gone before the closure is entered again."""

    def test_linesearch_runs_backward_for_accepted_trials_only(self):
        ledger = Ledger(TestAdaptiveMatchesReference.value_grad, box=4.0)
        res = minimize(np.array([0.0, 1.0, -0.5]), ledger,
                       OptimConfig(max_iters=40, grad_tol=0.0, rate=50.0,
                                   method="gd_linesearch"))
        runs = ledger.runs()
        # both kinds of rejection happened: box-violating and Armijo-failing
        assert ledger.raised > 0 and runs.count(0) > 0
        assert res.calls == len(runs) + ledger.raised
        # the start and each accepted trial, in the trace's order, once each
        assert set(runs) == {0, 1}
        assert sum(runs) == res.iterations + 1
        assert [v for v, n, _ in ledger.calls if n] == res.trace
        assert ledger.live_on_entry == [0] * len(ledger.live_on_entry)

    def test_adaptive_runs_backward_once_per_iterate(self):
        ledger = Ledger(TestAdaptiveMatchesReference.value_grad)
        res = minimize(np.full(5, 0.7), ledger, OptimConfig(max_iters=30, rate=0.05))
        assert ledger.runs() == [1] * (res.iterations + 1) == [1] * res.calls
        assert ledger.live_on_entry == [0] * len(ledger.live_on_entry)

    def test_gradcheck_runs_backward_at_x_only(self):
        ledger = Ledger(TestAdaptiveMatchesReference.value_grad)
        err = finite_diff_gradcheck(np.array([0.5, -1.0, 2.0]), ledger, samples=3)
        assert err < 1e-6
        assert ledger.runs() == [1] + [0] * 6


class TestFiniteDiffGradcheck:
    def test_pure_quadratic_near_exact(self):
        fg = quadratic_bowl()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(20)
        err = finite_diff_gradcheck(x, fg, samples=20)
        assert err < 1e-9

    def test_zero_objective_is_zero_error(self):
        def fg(x):
            return 0.0, lambda: np.zeros_like(x), None

        err = finite_diff_gradcheck(np.ones(4), fg, samples=4)
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        def fg(x):
            return float(x @ x), lambda: 3.0 * x, None  # wrong factor

        err = finite_diff_gradcheck(np.ones(3), fg, samples=3)
        assert err > 0.2

    def test_full_audit_finds_each_wrong_coordinate(self):
        # samples=x.size checks every coordinate: a gradient wrong in any one
        # of them reads as wrong, and the reading is the worst error of a
        # plain loop over all coordinates
        rng = np.random.default_rng(5)
        x = rng.standard_normal(9)
        scale = np.arange(1.0, x.size + 1.0)
        for i in range(x.size):
            def fg(v, i=i):
                grad = 2.0 * scale * v
                grad[i] += 1.0  # wrong in coordinate i only
                return float(scale @ (v * v)), lambda: grad, None

            grad = fg(x)[1]()
            floor = 1e-3 * float(np.max(np.abs(grad)))
            errors = []
            for j in range(x.size):
                h = 1e-5 * max(1.0, abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd = (fg(xp)[0] - fg(xm)[0]) / (2.0 * h)
                errors.append(abs(fd - grad[j])
                              / max(abs(fd), abs(grad[j]), floor))
            err = finite_diff_gradcheck(x, fg, samples=x.size)
            assert err > 1e-3
            assert err == max(errors)
