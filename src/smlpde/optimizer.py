"""First-order minimization of a flat-vector objective.

Two deterministic methods:

  adaptive      : moment-estimated steps (decay BETA1/BETA2, offset EPS)
                  with best-so-far tracking; the returned point is the best
                  iterate seen, never a later worse one.
  gd_linesearch : steepest descent with Armijo backtracking (slope factor
                  ARMIJO_SLOPE, shrink ARMIJO_SHRINK, at most MAX_BACKTRACKS
                  trials per iteration), which makes the value trace provably
                  monotone.  The first trial step of an iteration is twice
                  the step accepted last (config.rate at the start).

The objective closure returns (value, gradient, aux); aux objects (e.g.
term breakdowns) are collected into the trace.  Any non-finite value or
gradient at an iterate raises DivergedError carrying the iterate index.

x0 is either a point, which is evaluated first, or the OptResult of an
earlier stage, whose x, value, grad and aux are the start as they stand: a
resumed stage makes no closure call for its start.  Either way the start
counts as one call against config.max_calls, which caps the closure calls
of a line search; the adaptive method makes exactly one call per
iteration, so max_iters bounds it already.

A line-search trial point is only a candidate, so a trial whose value is
non-finite, or whose closure raises BoxViolationError (its visited jet
points left the regularization box), is rejected like any trial that fails
the Armijo test: the step is halved and the search goes on.  The hard box
check stays in the objective: a violation at the starting point, or at any
adaptive iterate, still raises.
"""

from __future__ import annotations

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
            raise ValueError("rate must be positive and max_iters >= 0")


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


def _check_finite(value, grad, iteration):
    if not np.isfinite(value):
        raise DivergedError(f"objective became non-finite at iteration {iteration}",
                            iteration)
    if not np.all(np.isfinite(grad)):
        raise DivergedError(f"gradient became non-finite at iteration {iteration}",
                            iteration)


def minimize(x0, fg, config: OptimConfig) -> OptResult:
    """Minimize fg(x) = (value, grad, aux) from x0, a point or the OptResult
    of an earlier stage; deterministic."""
    if isinstance(x0, OptResult):
        x = np.array(x0.x, dtype=float)
        value, grad, aux = x0.value, x0.grad, x0.aux
    else:
        x = np.array(x0, dtype=float)
        value, grad, aux = fg(x)
    _check_finite(value, grad, 0)
    best_x, best_value, best_aux, best_grad = x.copy(), value, aux, grad
    trace = [aux]
    result = OptResult(best_x, best_value, best_aux, trace)

    if config.method == "adaptive":
        m = np.zeros_like(x)
        v = np.zeros_like(x)
        for k in range(1, config.max_iters + 1):
            gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
            if gnorm < config.grad_tol:
                result.converged = True
                result.stop_reason = "gradient tolerance reached"
                break
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * grad * grad
            mhat = m / (1.0 - BETA1**k)
            vhat = v / (1.0 - BETA2**k)
            x = x - config.rate * mhat / (np.sqrt(vhat) + EPS)
            value, grad, aux = fg(x)
            _check_finite(value, grad, k)
            trace.append(aux)
            result.iterations = k
            if value < best_value:
                best_x, best_value = x.copy(), value
                best_aux, best_grad = aux, grad
        else:
            result.stop_reason = "iteration cap"
    else:  # gd_linesearch
        step = config.rate
        calls_left = (np.inf if config.max_calls is None
                      else config.max_calls - 1)
        for k in range(1, config.max_iters + 1):
            gnorm = float(np.max(np.abs(grad))) if grad.size else 0.0
            if gnorm < config.grad_tol:
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
                x_new = x - alpha * grad
                try:
                    value_new, grad_new, aux_new = fg(x_new)
                except BoxViolationError:
                    value_new = np.inf
                if np.isfinite(value_new) and \
                        value_new <= value - ARMIJO_SLOPE * alpha * gsq:
                    accepted = True
                    break
                alpha *= ARMIJO_SHRINK
            if not accepted:
                result.stop_reason = ("call budget" if calls_left <= 0
                                      else "line search stalled")
                break
            _check_finite(value_new, grad_new, k)
            x, value, grad, aux = x_new, value_new, grad_new, aux_new
            trace.append(aux)
            result.iterations = k
            step = alpha * 2.0
            if value < best_value:
                best_x, best_value = x.copy(), value
                best_aux, best_grad = aux, grad
        else:
            result.stop_reason = "iteration cap"

    result.x = best_x
    result.value = best_value
    result.aux = best_aux
    result.grad = best_grad
    return result


def finite_diff_gradcheck(x: np.ndarray, fg, samples: int = 50,
                          step: float = 1e-5, seed: int = 0,
                          coords=None) -> float:
    """Worst relative error of the analytic gradient against central
    differences on randomly chosen coordinates (or an explicit list, or
    "all").  Errors on entries far below the gradient scale are measured
    against 0.1% of the gradient sup-norm so that roundoff in negligible
    coordinates is not misread as disagreement; exact 0-vs-0 counts as 0.
    """
    if not 1e-7 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-7, 1e-3]")
    x = np.asarray(x, dtype=float)
    _, grad, _ = fg(x)
    if coords is None:
        rng = np.random.default_rng(seed)
        n = min(samples, x.size)
        idx = rng.choice(x.size, size=n, replace=False)
    elif isinstance(coords, str) and coords == "all":
        idx = np.arange(x.size)
    else:
        idx = np.asarray(coords, dtype=int)
    gscale = float(np.max(np.abs(grad))) if grad.size else 0.0
    floor = 1e-3 * gscale
    worst = 0.0
    for i in idx:
        h = step * max(1.0, abs(x[i]))
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
