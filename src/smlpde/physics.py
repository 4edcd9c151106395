"""Known physical terms and the discretized PDE residual.

Supported per-equation terms on 1D grids:

  none               : 0
  convection         : phi(x) * du/dx            (one parameter field)
  diffusion_reaction : d/dx(a du/dx) + c u       (fields a, c; expanded by the
                       product rule as a*u_xx + a_x*u_x + c*u)
  burgers1d          : -u * du/dx                (no parameter field)

The residual of equation n is du_n/dt - term_n - f_n, where f_n holds the
values of that equation's network at the nodewise jet features
[t, jet(u_1), ..., jet(u_N)] (grid.jet_features).  Without f it is the
apparent residual du_n/dt - term_n that the network has to explain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid

PHYSICS_KINDS = ("none", "convection", "diffusion_reaction", "burgers1d")

_SLOTS = {"none": 0, "convection": 1, "diffusion_reaction": 2, "burgers1d": 0}


def n_param_slots(kind: str) -> int:
    if kind not in PHYSICS_KINDS:
        raise ValueError(f"unknown physics kind {kind!r}")
    return _SLOTS[kind]


@dataclass
class PhysicalParams:
    """Static (time-constant) parameter fields, shape (L, N, slots, nx)."""

    kind: str
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        slots = n_param_slots(self.kind)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 4 or self.values.shape[2] != slots \
                or self.values.shape[3] != self.grid.nx:
            raise ValueError(
                f"parameter array shape {self.values.shape} does not match "
                f"kind {self.kind!r} (slots={slots}) on nx={self.grid.nx}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite parameter entries")

    @property
    def n_experiments(self) -> int:
        return self.values.shape[0]

    @property
    def n_states(self) -> int:
        return self.values.shape[1]

    def copy(self) -> "PhysicalParams":
        return PhysicalParams(self.kind, self.grid, self.values.copy())


def zero_params(kind: str, grid: Grid, L: int, N: int) -> PhysicalParams:
    return PhysicalParams(kind, grid, np.zeros((L, N, n_param_slots(kind), grid.nx)))


def apply_physics_array(grid: Grid, kind: str, u: np.ndarray,
                        phi: np.ndarray) -> np.ndarray:
    """Evaluate one equation's physical term on a (nt, nx) state array."""
    if kind == "none":
        return np.zeros_like(u)
    d1 = grid.space_derivative_matrix(1)
    if kind == "convection":
        return phi[0][None, :] * (u @ d1.T)
    if kind == "burgers1d":
        return -u * (u @ d1.T)
    if kind == "diffusion_reaction":
        d2 = grid.space_derivative_matrix(2)
        a, c = phi[0], phi[1]
        ax = d1 @ a
        return a[None, :] * (u @ d2.T) + ax[None, :] * (u @ d1.T) + c[None, :] * u
    raise ValueError(f"unknown physics kind {kind!r}")


def residual(grid: Grid, kind: str, u: np.ndarray, phi: np.ndarray,
             f: np.ndarray | None = None) -> np.ndarray:
    """du/dt - physics - f for one equation's (nt, nx) state, its parameter
    slots phi and the (nt, nx) values f of its network; f = None leaves the
    network out."""
    out = grid.time_derivative_matrix() @ u - apply_physics_array(grid, kind, u, phi)
    return out if f is None else out - f


def affine_check(kind: str, u: Field, phi1, phi2, s: float,
                 rel_tol: float = 1e-10) -> bool:
    """Verify F(u, s*phi1 + (1-s)*phi2) == s*F(u,phi1) + (1-s)*F(u,phi2)."""
    slots = n_param_slots(kind)
    if slots == 0:
        return True  # no parameters: affine vacuously
    p1 = np.asarray(phi1, dtype=float).reshape(slots, -1)
    p2 = np.asarray(phi2, dtype=float).reshape(slots, -1)
    mix = s * p1 + (1.0 - s) * p2
    grid = u.grid
    lhs = apply_physics_array(grid, kind, u.values, mix)
    rhs = s * apply_physics_array(grid, kind, u.values, p1) \
        + (1.0 - s) * apply_physics_array(grid, kind, u.values, p2)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return bool(np.max(np.abs(lhs - rhs)) <= rel_tol * scale)
