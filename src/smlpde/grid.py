"""Uniform space-time grids, finite-difference jets, and discrete norms.

The computational domain is the rectangle (0, t_end) x (x_lo, x_hi) sampled
on a uniform lattice.  Spatial and temporal derivatives are realized as
dense stencil matrices: second-order central differences in the interior
and second-order one-sided stencils at the boundary, so that first
derivatives are exact on linears and second derivatives exact on
quadratics, and every adjoint is a plain matrix transpose.

jet_features stacks the nodewise network inputs [t, jets of all states];
the objective, the warm-start fit, the study's error metrics and the limit
oracle all take their rows from it.

Norms over space-time fields are nested trapezoidal quadrature: an
L^{q_space} norm over each spatial slice inside an L^{q_time} norm over
time.  The supremum norm is a separate evaluator; infinite exponents are
rejected by the quadrature norm on purpose.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def jet_dimension(kappa: int) -> int:
    """Number of derivative components per state up to order kappa: the
    state and its spatial derivatives of orders 1..kappa (the second-order
    stencils cap kappa at 2).  The time coordinate is not counted."""
    if not 0 <= kappa <= 2:
        raise ValueError(f"jet order must be 0, 1 or 2, got {kappa}")
    return kappa + 1


@lru_cache(maxsize=None)
def first_difference_matrix(n: int, h: float) -> np.ndarray:
    """Dense d/dx stencil: central interior, one-sided second order at ends."""
    if n < 3:
        raise ValueError(f"first-derivative stencil needs n >= 3, got {n}")
    m = np.zeros((n, n))
    for i in range(1, n - 1):
        m[i, i - 1] = -0.5 / h
        m[i, i + 1] = 0.5 / h
    m[0, 0], m[0, 1], m[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    m[-1, -1], m[-1, -2], m[-1, -3] = 1.5 / h, -2.0 / h, 0.5 / h
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def second_difference_matrix(n: int, h: float) -> np.ndarray:
    """Dense d^2/dx^2 stencil: central interior, 4-point one-sided at ends."""
    if n < 4:
        raise ValueError(f"second-derivative stencil needs n >= 4, got {n}")
    m = np.zeros((n, n))
    h2 = h * h
    for i in range(1, n - 1):
        m[i, i - 1] = 1.0 / h2
        m[i, i] = -2.0 / h2
        m[i, i + 1] = 1.0 / h2
    m[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h2
    m[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h2
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over (0, t_end) x (x_lo, x_hi).

    nx points in space, nt time levels, both endpoint-inclusive.
    """

    nx: int
    nt: int
    x_lo: float
    x_hi: float
    t_end: float

    def __post_init__(self):
        if self.nx < 5:
            raise ValueError(f"nx must be >= 5, got {self.nx}")
        if self.nt < 3:
            raise ValueError(f"nt must be >= 3, got {self.nt}")
        if not self.x_hi > self.x_lo:
            raise ValueError("x_hi must exceed x_lo")
        if not self.t_end > 0:
            raise ValueError("t_end must be positive")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / (self.nx - 1)

    @property
    def dt(self) -> float:
        return self.t_end / (self.nt - 1)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.nt)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_lo, self.x_hi, self.nx)

    def time_weights(self) -> np.ndarray:
        return trapezoid_weights(self.nt, self.dt)

    def space_weights(self) -> np.ndarray:
        return trapezoid_weights(self.nx, self.dx)

    def time_derivative_matrix(self) -> np.ndarray:
        return first_difference_matrix(self.nt, self.dt)

    def space_derivative_matrix(self, order: int) -> np.ndarray:
        if order == 1:
            return first_difference_matrix(self.nx, self.dx)
        if order == 2:
            return second_difference_matrix(self.nx, self.dx)
        raise ValueError(f"unsupported spatial derivative order {order}")


@dataclass
class Field:
    """One scalar channel sampled on a grid, indexed (t, x)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.grid.nt, self.grid.nx)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite entries")

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def jet_features(grid: Grid, kappa: int, u_states: np.ndarray) -> np.ndarray:
    """Nodewise network inputs [t, u_1, D u_1, .., D^kappa u_1, u_2, ..],
    shape (nt*nx, 1 + N * jet_dimension(kappa)), rows time-major.

    u_states has shape (N, nt, nx).
    """
    _, nt, nx = u_states.shape
    cols = [np.broadcast_to(grid.t[:, None], (nt, nx)).reshape(-1)]
    for u in u_states:
        cols.append(u.reshape(-1))
        for order in range(1, kappa + 1):
            cols.append((u @ grid.space_derivative_matrix(order).T).reshape(-1))
    return np.stack(cols, axis=1)


def spatial_derivative(f: Field, order: int) -> Field:
    """d^order f / dx^order for order 1 or 2; exact on polynomials up to
    stencil order."""
    return Field(f.grid, f.values @ f.grid.space_derivative_matrix(order).T)


def time_derivative(f: Field) -> Field:
    """d/dt via central differences, one-sided second order at t=0 and t=T."""
    return Field(f.grid, f.grid.time_derivative_matrix() @ f.values)


def bochner_norm(f: Field, q_time: float, q_space: float) -> float:
    """( int_0^T ( int_Omega |f|^q_space )^{q_time/q_space} dt )^{1/q_time}.

    Both integrals are trapezoidal; infinite exponents are rejected
    (sup_norm is the designated L^inf evaluator).
    """
    for q in (q_time, q_space):
        if not np.isfinite(q) or q < 1:
            raise ValueError(f"exponents must be finite and >= 1, got {q}")
    wt = f.grid.time_weights()
    ws = f.grid.space_weights()
    slice_int = np.sum(np.abs(f.values) ** q_space * ws, axis=1)
    return float(np.sum(wt * slice_int ** (q_time / q_space)) ** (1.0 / q_time))


def sup_norm(f: Field) -> float:
    """Maximum absolute value over all grid nodes."""
    return float(np.max(np.abs(f.values)))


def write_field_csv(f: Field, path) -> None:
    """Serialize as `t,x1,value` rows, time-major, 17 significant digits."""
    g = f.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x1", "value"])
        for tval, row in zip(g.t, f.values):
            for xval, v in zip(g.x, row):
                w.writerow([f"{tval:.17g}", f"{xval:.17g}", f"{v:.17g}"])


def read_field_csv(path) -> Field:
    """Inverse of write_field_csv; the grid is reconstructed from coordinates."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        rows = [[float(v) for v in row] for row in r]
    data = np.asarray(rows)
    ts = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    grid = Grid(nx=len(xs), nt=len(ts), x_lo=float(xs[0]),
                x_hi=float(xs[-1]), t_end=float(ts[-1]))
    return Field(grid, data[:, -1].reshape(grid.nt, grid.nx))
