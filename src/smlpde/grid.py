"""Uniform space-time grids, finite-difference jets, and discrete norms.

The computational domain is the rectangle (0, t_end) x (x_lo, x_hi) sampled
on a uniform lattice.  Spatial and temporal derivatives are realized as
dense stencil matrices: second-order central differences in the interior
and second-order one-sided stencils at the boundary, so that first
derivatives are exact on linears and second derivatives exact on
quadratics, and every adjoint is a plain matrix transpose.

jet_features stacks the nodewise network inputs [t, jets of all states];
the objective, the warm-start fit, the study's error metrics and the limit
oracle all take their rows from it, and the reference trajectory's stack
feeds the regularization box (objective.derive_ubox takes its radius and
its dimension from that stack).

Fields are plain (nt, nx) arrays, indexed (t, x).  A stack of them, such as
the objective's (L, N, nt, nx) states, keeps any leading axes: a stencil
applies per slice as one broadcast matmul (u @ D^T in space, D @ u in
time), and jet_features and _norm_pow take the same leading axes.  A
caller that already holds a stack's spatial derivatives (space_derivatives)
passes them on, so each is computed once.  _norm_pow is the one nested
trapezoidal norm: an L^2 norm over each spatial slice inside an L^e norm
over time, returned as its e-th power.  The objective's residual and data
terms and measurement.operator_gap all take it from here.

write_csv is the one CSV format of every table a study or a probe writes:
a header line, then one line per row, cells joined by commas, floats with
17 significant digits so that identical configurations give
byte-identical files, and every line ended by "\\n" on every platform.
write_field_csv writes a field in that format through its own per-row
f-string, because a study writes one file per measured and final field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


@lru_cache(maxsize=None)
def _lattice(lo: float, hi: float, n: int) -> np.ndarray:
    """n equispaced nodes from lo to hi, endpoints included."""
    nodes = np.linspace(lo, hi, n)
    nodes.setflags(write=False)
    return nodes


@lru_cache(maxsize=None)
def _node_weights(nt: int, dt: float, nx: int, dx: float) -> np.ndarray:
    w = trapezoid_weights(nt, dt)[:, None] * trapezoid_weights(nx, dx)[None, :]
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
        return _lattice(0.0, self.t_end, self.nt)

    @property
    def x(self) -> np.ndarray:
        return _lattice(self.x_lo, self.x_hi, self.nx)

    def time_weights(self) -> np.ndarray:
        return trapezoid_weights(self.nt, self.dt)

    def space_weights(self) -> np.ndarray:
        return trapezoid_weights(self.nx, self.dx)

    def node_weights(self) -> np.ndarray:
        """(nt, nx) trapezoid weights of the space-time nodes: wt * wx."""
        return _node_weights(self.nt, self.dt, self.nx, self.dx)

    def time_derivative_matrix(self) -> np.ndarray:
        return first_difference_matrix(self.nt, self.dt)

    def space_derivative_matrix(self, order: int) -> np.ndarray:
        if order == 1:
            return first_difference_matrix(self.nx, self.dx)
        if order == 2:
            return second_difference_matrix(self.nx, self.dx)
        raise ValueError(f"unsupported spatial derivative order {order}")


def space_derivatives(grid: Grid, u: np.ndarray, order: int,
                      du=None) -> list:
    """[D_1 u, .., D_order u]: the spatial derivatives of the fields u (any
    leading axes, space last), each u @ D_o^T.  du, derivatives a caller
    already holds in that layout, is returned as it is when it reaches
    order."""
    if du is not None and len(du) >= order:
        return du
    return [u @ grid.space_derivative_matrix(o).T for o in range(1, order + 1)]


def jet_features(grid: Grid, kappa: int, u_states: np.ndarray,
                 du=None) -> np.ndarray:
    """Nodewise network inputs [t, u_1, D u_1, .., D^kappa u_1, u_2, ..],
    shape (..., nt*nx, 1 + N * (kappa + 1)), rows time-major.

    u_states has shape (..., N, nt, nx); du, if given, holds its spatial
    derivatives (space_derivatives) up to order kappa at least.
    """
    *lead, N, nt, nx = u_states.shape
    du = space_derivatives(grid, u_states, kappa, du)
    comps = kappa + 1
    out = np.empty((*lead, nt, nx, 1 + N * comps))
    out[..., 0] = grid.t[:, None]
    for n in range(N):
        out[..., 1 + n * comps] = u_states[..., n, :, :]
        for order in range(1, comps):
            out[..., 1 + n * comps + order] = du[order - 1][..., n, :, :]
    return out.reshape(*lead, nt * nx, out.shape[-1])


def _norm_pow(wt, wx, fields, exponent):
    """sum_t wt * (sum_{n,x} wx * field_n^2)^(e/2) for a stack of (nt, nx)
    fields (..., N, nt, nx): the values, shape (...), and the inner sums
    over n and x, shape (..., nt)."""
    s = np.zeros(fields.shape[:-3] + fields.shape[-2:-1])
    for n in range(fields.shape[-3]):
        f = fields[..., n, :, :]
        s += (f * f) @ wx
    return np.sum(wt * s ** (exponent / 2.0), axis=-1), s


def write_csv(path, header, rows) -> None:
    """The one CSV format: the header names, then one line per row, cells
    joined by commas and every line ended by "\\n".  A float cell
    (np.float64 included) is written with 17 significant digits, any other
    cell as str().  A cell holding a comma or a line break would shift the
    columns, so it raises ValueError and no file is written."""
    lines = []
    for row in (header, *rows):
        cells = [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
        line = ",".join(cells)
        if line.count(",") != len(cells) - 1 or "\n" in line or "\r" in line:
            raise ValueError(f"CSV cell holds a comma or a line break: {row!r}")
        lines.append(line + "\n")
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def write_field_csv(grid: Grid, values: np.ndarray, path) -> None:
    """Serialize a (nt, nx) array as `t,x1,value` rows, time-major, in
    write_csv's format.  Each coordinate is formatted once and each row is
    one f-string: on a 65 x 65 field write_csv's per-cell loop takes two to
    three times as long."""
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.nt, grid.nx):
        raise ValueError(f"field shape {values.shape} does not match grid "
                         f"{(grid.nt, grid.nx)}")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite entries")
    ts = [f"{t:.17g}" for t in grid.t]
    xs = [f"{x:.17g}" for x in grid.x]
    rows = [f"{t},{x},{v:.17g}\n" for t, vrow in zip(ts, values.tolist())
            for x, v in zip(xs, vrow)]
    with open(path, "w", newline="") as fh:
        fh.write("t,x1,value\n" + "".join(rows))
