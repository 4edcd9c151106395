"""First-order minimization of a flat-vector objective.

Two deterministic methods:

  adaptive      : moment-estimated steps (decay BETA1/BETA2, offset EPS)
                  with best-so-far tracking; the returned point is the best
                  iterate seen, never a later worse one.  The moments m and
                  v are the two rows of one (2, n) array, and the step's
                  temporaries the rows of another, both allocated once per
                  call, so one ufunc call updates both moments (the decays
                  and gains are (2, 1) columns) and a step costs 10 ufunc
                  calls.  The updates are made in place in the operation
                  order of the plain formulas (BETA1*m + (1-BETA1)*g,
                  BETA2*v + ((1-BETA2)*g)*g, rate*mhat / (sqrt(vhat) + EPS)),
                  so every bit is theirs.
                  Each iterate x is a fresh array that nothing writes into,
                  because a fit closure hands views of it out as network
                  layers; the best iterate and its gradient are therefore
                  kept by reference, so a closure must return a fresh
                  gradient on every call.
  gd_linesearch : steepest descent with Armijo backtracking (slope factor
                  ARMIJO_SLOPE, shrink ARMIJO_SHRINK, at most MAX_BACKTRACKS
                  trials per iteration), which makes the value trace provably
                  monotone.  The first trial step of an iteration is twice
                  the step accepted last (config.rate at the start).

The closure protocol: fg(x) returns (value, grad, aux), where grad is a
zero-argument callable that runs the backward pass and returns the flat
gradient at x as a fresh array, and aux (e.g. a term breakdown) is
collected into the trace.  A closure call pays for the value; the
gradient costs its backward pass only when grad() is called, at most once
per closure call: minimize calls it for an evaluated start, for every
adaptive iterate and for every accepted line-search trial.  A trial the
search rejects never runs its backward pass: its grad is dropped, with
everything it holds, before the next trial is evaluated.  Any non-finite
value or gradient at an iterate raises DivergedError carrying the iterate
index.  The gradient tolerance compares the sup-norm
np.maximum.reduce(np.abs(g)) (0 for an empty gradient), numpy's max
without its Python wrapper.

x0 is either a point, which is evaluated first, or the OptResult of an
earlier stage, whose x, value, grad and aux are the start as they stand: a
resumed stage makes no closure call for its start.  Either way the start
counts as one call against config.max_calls, which caps the closure calls
of a line search; the adaptive method makes exactly one call per
iteration, so max_iters bounds it already.  OptResult.calls counts the
closure calls the stage made, and OptResult.grad is the gradient array.

A line-search trial point is only a candidate, so a trial whose value is
non-finite, or whose closure raises BoxViolationError (its visited jet
points left the regularization box), is rejected like any trial that fails
the Armijo test: the step is halved and the search goes on.  The hard box
check stays in the objective: a violation at the starting point, or at any
adaptive iterate, still raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxViolationError, DivergedError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
ARMIJO_SLOPE, ARMIJO_SHRINK, MAX_BACKTRACKS = 1e-4, 0.5, 60


@dataclass
class OptimConfig:
    max_iters: int = 1000
    grad_tol: float = 1e-8
    rate: float = 1e-3
    method: str = "adaptive"
    max_calls: int | None = None  # gd_linesearch closure-call cap

    def __post_init__(self):
        if self.method not in ("adaptive", "gd_linesearch"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.rate <= 0 or self.max_iters < 0:
            raise ValueError(f"need rate > 0 and max_iters >= 0, got rate = "
                             f"{self.rate}, max_iters = {self.max_iters}")


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
        raise DivergedError(f"objective became non-finite at iteration {iteration}",
                            iteration)
    if not np.logical_and.reduce(np.isfinite(grad)):
        raise DivergedError(f"gradient became non-finite at iteration {iteration}",
                            iteration)


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
    result = OptResult(best_x, best_value, best_aux, trace)

    if config.method == "adaptive":
        # m and v are the rows of one array, and so are the step's
        # temporaries: one ufunc call updates both rows, or one of them
        moments = np.zeros((2, x.size))
        work = np.empty_like(moments)
        work_m, work_v = work
        # the decays, gains and bias corrections as (2, 1) columns
        decays = np.array([[BETA1], [BETA2]])
        gains = np.array([[1.0 - BETA1], [1.0 - BETA2]])
        corr = np.empty((2, 1))
        for k in range(1, config.max_iters + 1):
            # no gradient passes a tolerance <= 0: skip its sup-norm then
            if config.grad_tol > 0 and np.maximum.reduce(
                    np.abs(grad), initial=0.0) < config.grad_tol:
                result.converged = True
                result.stop_reason = "gradient tolerance reached"
                break
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
            work_m *= config.rate
            work_m /= work_v
            # a fresh x: a fit closure hands views of it out as layers
            x = x - work_m
            value, grad, aux = fg(x)
            grad = grad()
            calls += 1
            _check_finite(value, grad, k)
            trace.append(aux)
            result.iterations = k
            if value < best_value:
                best_x, best_value = x, value
                best_aux, best_grad = aux, grad
        else:
            result.stop_reason = "iteration cap"
    else:  # gd_linesearch
        step = config.rate
        calls_left = (np.inf if config.max_calls is None
                      else config.max_calls - 1)
        for k in range(1, config.max_iters + 1):
            if config.grad_tol > 0 and np.maximum.reduce(
                    np.abs(grad), initial=0.0) < config.grad_tol:
                result.converged = True
                result.stop_reason = "gradient tolerance reached"
                break
            gsq = float(grad @ grad)
            alpha = step
            accepted = False
            for _ in range(MAX_BACKTRACKS):
                if calls_left <= 0:
                    break
                calls_left -= 1
                calls += 1
                x_new = x - alpha * grad
                try:
                    value_new, grad_new, aux_new = fg(x_new)
                except BoxViolationError:
                    value_new = np.inf
                if math.isfinite(value_new) and \
                        value_new <= value - ARMIJO_SLOPE * alpha * gsq:
                    accepted = True
                    break
                # a rejected trial's backward pass never runs: free what
                # it holds before the next trial is evaluated
                grad_new = None
                alpha *= ARMIJO_SHRINK
            if not accepted:
                result.stop_reason = ("call budget" if calls_left <= 0
                                      else "line search stalled")
                break
            grad_new = grad_new()
            _check_finite(value_new, grad_new, k)
            x, value, grad, aux = x_new, value_new, grad_new, aux_new
            trace.append(aux)
            result.iterations = k
            step = alpha * 2.0
            if value < best_value:
                best_x, best_value = x, value
                best_aux, best_grad = aux, grad
        else:
            result.stop_reason = "iteration cap"

    result.x = best_x
    result.value = best_value
    result.aux = best_aux
    result.grad = best_grad
    result.calls = calls
    return result


def finite_diff_gradcheck(x: np.ndarray, fg, samples: int = 50,
                          coords=None) -> float:
    """Worst relative error of the analytic gradient against central
    differences, of step 1e-5 * max(1, |x_i|), on `samples` randomly
    chosen coordinates, or on every one when coords is "all".  Errors on
    entries far below the gradient scale are measured against 0.1% of the
    gradient sup-norm so that roundoff in negligible coordinates is not
    misread as disagreement; exact 0-vs-0 counts as 0.  The backward pass
    runs at x only: the points x +- h cost their values alone.
    """
    x = np.asarray(x, dtype=float)
    _, grad, _ = fg(x)
    grad = grad()
    if coords == "all":
        idx = np.arange(x.size)
    else:
        rng = np.random.default_rng(0)
        idx = rng.choice(x.size, size=min(samples, x.size), replace=False)
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
