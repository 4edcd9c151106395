"""First-order minimization of a flat-vector objective.

minimize runs one iteration loop, which owns the start, the gradient
tolerance, the finiteness check, the trace, the best iterate (the returned
point, never a later worse one), the iteration cap and the result.  Each
iteration asks a step rule, built once per call from STEP_RULES, for the
closure calls it spent and either the next iterate (x, value, gradient
array, aux) or the reason to stop.  Two deterministic rules:

  adaptive      : moment-estimated steps (decay BETA1/BETA2, offset EPS),
                  one closure call each.  The moments m and v are the rows
                  of one (2, n) array and the step's temporaries the rows
                  of another, so one ufunc call updates both (the decays
                  and gains are (2, 1) columns) and a step costs 10 ufunc
                  calls, made in place in the operation order of the plain
                  formulas (BETA1*m + (1-BETA1)*g, BETA2*v + ((1-BETA2)*g)*g,
                  rate*mhat / (sqrt(vhat) + EPS)), so every bit is theirs.
  gd_linesearch : steepest descent with Armijo backtracking (slope factor
                  ARMIJO_SLOPE, shrink ARMIJO_SHRINK, at most MAX_BACKTRACKS
                  trials per iteration), so the value trace is monotone.  An
                  iteration's first trial step is twice the step accepted
                  last (config.rate at the start).  A trial whose value is
                  non-finite, or whose closure raises BoxViolationError (its
                  visited jet points left the regularization box), is
                  rejected like one that fails the Armijo test; the hard box
                  check stays in the objective, so a violation at the start
                  or at an adaptive iterate still raises.

Each iterate x is a fresh array that nothing writes into, because a fit
closure hands views of it out as network layers; the best iterate and its
gradient are kept by reference, so a closure must return a fresh gradient
on every call.

The closure protocol: fg(x) returns (value, grad, aux), where grad is a
zero-argument callable that runs the backward pass and returns the flat
gradient at x, and aux (e.g. a term breakdown) is collected into the
trace.  grad() runs at most once per closure call: minimize calls it for
an evaluated start and a step rule for each iterate it returns, so a
rejected trial never runs its backward pass, and its grad is dropped, with
everything it holds, before the next trial is evaluated.  A non-finite
value or gradient at an iterate raises DivergedError, whose message names
the iterate index.  The gradient tolerance compares the sup-norm
np.maximum.reduce(np.abs(g)) (0 for an empty gradient).

x0 is either a point, which is evaluated first, or the OptResult of an
earlier stage, whose x, value, grad and aux are the start as they stand: a
resumed stage makes no closure call for its start.  Either way the start
counts as one call against config.max_calls, which caps a line search's
closure calls; max_iters bounds the adaptive method's.  OptResult.calls
counts the closure calls the stage made, and OptResult.grad is the
gradient array.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxViolationError, DivergedError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ARMIJO_SLOPE, ARMIJO_SHRINK, MAX_BACKTRACKS = 1e-4, 0.5, 60


@dataclass
class OptResult:
    x: np.ndarray
    value: float
    aux: object
    trace: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    stop_reason: str = ""
    grad: np.ndarray | None = None  # gradient at x
    calls: int = 0  # closure calls made


def _check_finite(value, grad, iteration):
    if not math.isfinite(value):
        raise DivergedError(f"objective became non-finite at iteration {iteration}")
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise DivergedError(f"gradient became non-finite at iteration {iteration}")


def _adaptive(n, fg, config):
    """The adaptive step rule for n unknowns."""
    # m and v are the rows of one array, and so are the step's
    # temporaries: one ufunc call updates both rows, or one of them
    moments = np.zeros((2, n))
    work = np.empty_like(moments)
    work_m, work_v = work
    # the decays, gains and bias corrections as (2, 1) columns
    decays = np.array([[BETA1], [BETA2]])
    gains = np.array([[1.0 - BETA1], [1.0 - BETA2]])
    corr = np.empty((2, 1))
    rate = config.rate

    def step(k, x, value, grad):
        # the names are rebound to the arrays they hold: every update is
        # made in place
        nonlocal moments, work_m, work_v
        # m = BETA1*m + (1-BETA1)*grad, v = BETA2*v + ((1-BETA2)*grad)*grad
        moments *= decays
        np.multiply(gains, grad, out=work)
        work_v *= grad
        moments += work
        # step = rate * mhat / (sqrt(vhat) + EPS)
        corr[0] = 1.0 - BETA1**k
        corr[1] = 1.0 - BETA2**k
        np.divide(moments, corr, out=work)
        np.sqrt(work_v, out=work_v)
        work_v += EPS
        work_m *= rate
        work_m /= work_v
        # a fresh x: a fit closure hands views of it out as layers
        x = x - work_m
        value, grad, aux = fg(x)
        return 1, (x, value, grad(), aux)

    return step


def _armijo(n, fg, config):
    """The gd_linesearch step rule; the start has spent one call of the
    budget."""
    first_trial = config.rate
    calls_left = np.inf if config.max_calls is None else config.max_calls - 1

    def step(k, x, value, grad):
        nonlocal first_trial, calls_left
        gsq = float(grad @ grad)
        alpha = first_trial
        for spent in range(MAX_BACKTRACKS):
            if calls_left <= 0:
                return spent, "call budget"
            calls_left -= 1
            trial = x - alpha * grad
            try:
                t_value, t_grad, t_aux = fg(trial)
            except BoxViolationError:
                t_value = np.inf
            if math.isfinite(t_value) and \
                    t_value <= value - ARMIJO_SLOPE * alpha * gsq:
                first_trial = alpha * 2.0
                return spent + 1, (trial, t_value, t_grad(), t_aux)
            # a rejected trial's backward pass never runs: free what it
            # holds before the next trial is evaluated
            t_grad = None
            alpha *= ARMIJO_SHRINK
        return MAX_BACKTRACKS, ("call budget" if calls_left <= 0
                                else "line search stalled")

    return step


STEP_RULES = {"adaptive": _adaptive, "gd_linesearch": _armijo}


@dataclass
class OptimConfig:
    max_iters: int = 1000
    grad_tol: float = 1e-8
    rate: float = 1e-3
    method: str = "adaptive"  # a key of STEP_RULES
    max_calls: int | None = None  # gd_linesearch closure-call cap

    def __post_init__(self):
        if self.method not in STEP_RULES:
            raise ValueError(f"unknown method {self.method!r}")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.grad_tol < 0:
            raise ValueError(f"grad_tol must be >= 0, got {self.grad_tol}")
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")


def minimize(x0, fg, config: OptimConfig) -> OptResult:
    """Minimize fg(x) = (value, grad, aux), grad the deferred backward pass,
    from x0, a point or the OptResult of an earlier stage; deterministic."""
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
    best_x, best_value, best_aux, best_grad = x, value, aux, grad
    trace = [aux]
    step = STEP_RULES[config.method](x.size, fg, config)
    grad_tol = config.grad_tol
    stop_reason = "iteration cap"
    for k in range(1, config.max_iters + 1):
        # no gradient passes a tolerance of 0: skip its sup-norm then
        if grad_tol > 0 and np.maximum.reduce(
                np.abs(grad), initial=0.0) < grad_tol:
            stop_reason = "gradient tolerance reached"
            break
        spent, taken = step(k, x, value, grad)
        calls += spent
        if isinstance(taken, str):
            stop_reason = taken
            break
        x, value, grad, aux = taken
        _check_finite(value, grad, k)
        trace.append(aux)
        if value < best_value:
            best_x, best_value = x, value
            best_aux, best_grad = aux, grad
    return OptResult(best_x, best_value, best_aux, trace,
                     iterations=len(trace) - 1,
                     converged=stop_reason == "gradient tolerance reached",
                     stop_reason=stop_reason, grad=best_grad, calls=calls)


def finite_diff_gradcheck(x: np.ndarray, fg, samples: int = 50) -> float:
    """Worst relative error of the analytic gradient against central
    differences, of step 1e-5 * max(1, |x_i|), on `samples` coordinates
    drawn without replacement by random.Random(0).sample, in the order
    drawn; samples >= x.size checks every one.  Errors on
    entries far below the gradient scale are measured against 0.1% of the
    gradient sup-norm so that roundoff in negligible coordinates is not
    misread as disagreement; exact 0-vs-0 counts as 0.  The backward pass
    runs at x only: the points x +- h cost their values alone.
    """
    x = np.asarray(x, dtype=float)
    _, grad, _ = fg(x)
    grad = grad()
    idx = random.Random(0).sample(range(x.size), min(samples, x.size))
    gscale = float(np.max(np.abs(grad))) if grad.size else 0.0
    floor = 1e-3 * gscale
    worst = 0.0
    for i in idx:
        h = 1e-5 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += h
        xm = x.copy()
        xm[i] -= h
        fp, _, _ = fg(xp)
        fm, _, _ = fg(xm)
        fd = (fp - fm) / (2.0 * h)
        denom = max(abs(fd), abs(grad[i]))
        if denom < 1e-12:
            continue
        worst = max(worst, abs(fd - grad[i]) / max(denom, floor, 1e-12))
    return worst
