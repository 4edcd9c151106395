"""Known physical terms and the discretized PDE residual.

Supported per-equation terms on 1D grids:

  none               : 0
  convection         : phi(x) * du/dx            (one parameter field)
  diffusion_reaction : d/dx(a du/dx) + c u       (fields a, c; expanded by the
                       product rule as a*u_xx + a_x*u_x + c*u)
  burgers1d          : -u * du/dx                (no parameter field)

Parameter fields are a plain (L, N, slots, nx) array phi.  The functions
here take one equation's (nt, nx) state u with its (slots, nx) block phi,
or a stack of them with the same leading axes on both, such as the whole
(L, N, nt, nx) state array with its (L, N, slots, nx) fields; every slice
of a stack gets the bits it would get alone.  A caller that already holds
the time derivative ut = D_t u or the spatial derivatives du
(grid.space_derivatives) passes them, and nothing is computed twice;
physics_order(kind) is the spatial order a kind reads.

The residual of equation n is du_n/dt - term_n - f_n, where f_n holds the
values of that equation's network at the nodewise jet features
[t, jet(u_1), ..., jet(u_N)] (grid.jet_features).  Without f it is the
apparent residual du_n/dt - term_n that the network has to explain.
physics_vjp, the adjoint of apply_physics_array, keeps each kind's
derivative beside its formula.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, space_derivatives

# kind -> (parameter slots, highest spatial derivative order of the state)
PHYSICS_KINDS = {"none": (0, 0), "convection": (1, 1),
                 "diffusion_reaction": (2, 2), "burgers1d": (0, 1)}


def _kind_entry(kind: str) -> tuple:
    if kind not in PHYSICS_KINDS:
        raise ValueError(f"unknown physics kind {kind!r}")
    return PHYSICS_KINDS[kind]


def n_param_slots(kind: str) -> int:
    return _kind_entry(kind)[0]


def physics_order(kind: str) -> int:
    """The highest spatial derivative order of the state in kind's term."""
    return _kind_entry(kind)[1]


def _matvec(mat: np.ndarray, v: np.ndarray) -> np.ndarray:
    """mat @ v for every profile v of a (..., n) stack, each by the product
    a lone vector gets."""
    return (mat @ v[..., None])[..., 0]


def apply_physics_array(grid: Grid, kind: str, u: np.ndarray,
                        phi: np.ndarray, du=None) -> np.ndarray:
    """Evaluate the physical term on (..., nt, nx) states u with their
    (..., slots, nx) parameter slots phi."""
    if kind == "none":
        return np.zeros_like(u)
    phi = np.asarray(phi, dtype=float)
    du = space_derivatives(grid, u, physics_order(kind), du)
    if kind == "convection":
        return phi[..., 0, None, :] * du[0]
    if kind == "burgers1d":
        return -u * du[0]
    a, c = phi[..., 0, :], phi[..., 1, :]
    ax = _matvec(grid.space_derivative_matrix(1), a)
    return a[..., None, :] * du[1] + ax[..., None, :] * du[0] + c[..., None, :] * u


def physics_vjp(grid: Grid, kind: str, u: np.ndarray, phi: np.ndarray,
                seed: np.ndarray, du=None):
    """Gradients (g_u, g_phi) of sum(seed * apply_physics_array(grid, kind,
    u, phi)) with respect to the (..., nt, nx) states u and the
    (..., slots, nx) parameter slots phi."""
    g_phi = np.zeros(u.shape[:-2] + (n_param_slots(kind), grid.nx))
    if kind == "none":
        return np.zeros_like(u), g_phi
    phi = np.asarray(phi, dtype=float)
    d1 = grid.space_derivative_matrix(1)
    du = space_derivatives(grid, u, physics_order(kind), du)
    ux = du[0]
    if kind == "convection":
        g_phi[..., 0, :] = np.sum(seed * ux, axis=-2)
        return (seed * phi[..., 0, None, :]) @ d1, g_phi
    if kind == "burgers1d":
        return -(seed * ux + (seed * u) @ d1), g_phi
    d2 = grid.space_derivative_matrix(2)
    a, c = phi[..., 0, :], phi[..., 1, :]
    g_phi[..., 0, :] = np.sum(seed * du[1], axis=-2) \
        + _matvec(d1.T, np.sum(seed * ux, axis=-2))
    g_phi[..., 1, :] = np.sum(seed * u, axis=-2)
    g_u = (seed * a[..., None, :]) @ d2 \
        + (seed * _matvec(d1, a)[..., None, :]) @ d1 + seed * c[..., None, :]
    return g_u, g_phi


def residual_columns(kind: str) -> slice:
    """The spatial columns the PDE governs.  A coupling physical term leaves
    the boundary columns to the boundary data (simulated trajectories hold
    them fixed); a pure reaction term evolves every node."""
    return slice(None) if kind == "none" else slice(1, -1)


def residual(grid: Grid, kind: str, u: np.ndarray, phi: np.ndarray,
             f: np.ndarray | None = None, ut=None, du=None) -> np.ndarray:
    """du/dt - physics - f for (..., nt, nx) states u, their parameter slots
    phi and the values f of their networks, shaped like u; f = None leaves
    the network out."""
    if ut is None:
        ut = grid.time_derivative_matrix() @ u
    out = ut - apply_physics_array(grid, kind, u, phi, du)
    return out if f is None else out - f


def affine_check(grid: Grid, kind: str, u: np.ndarray, phi1, phi2, s: float,
                 rel_tol: float = 1e-10) -> bool:
    """Verify F(u, s*phi1 + (1-s)*phi2) == s*F(u,phi1) + (1-s)*F(u,phi2) for
    a (nt, nx) state u."""
    slots = n_param_slots(kind)
    if slots == 0:
        return True  # no parameters: affine vacuously
    p1 = np.asarray(phi1, dtype=float).reshape(slots, -1)
    p2 = np.asarray(phi2, dtype=float).reshape(slots, -1)
    mix = s * p1 + (1.0 - s) * p2
    lhs = apply_physics_array(grid, kind, u, mix)
    rhs = s * apply_physics_array(grid, kind, u, p1) \
        + (1.0 - s) * apply_physics_array(grid, kind, u, p2)
    scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)), 1e-300)
    return bool(np.max(np.abs(lhs - rhs)) <= rel_tol * scale)
