"""Measurement operators, noise injection, and datasets.

A measurement operator K_m is one (nx, nx) matrix that acts on grid
fields, per time slice; its adjoint is the transpose:

  full      : the identity (the injective limit operator)
  subsample : the diagonal 0/1 keep-mask with spatial stride
              subsample_stride(nx, m) = max(1, ceil(nx / (4 m))); dropped
              nodes read as zero, so all scales share one codomain
  smooth    : Gaussian blur with standard deviation (x_hi-x_lo)/(4 m),
              kernel truncated at three widths, renormalized to unit sum,
              and folded at the boundary by edge-symmetric reflection (the
              resulting matrix is doubly stochastic, so slice means are
              preserved exactly)

Larger scale index m means a better operator.  operator_gap measures its
gap to the identity on a corpus of (nt, nx) arrays, in the nested
trapezoidal norm of grid._norm_pow that the objective's data term uses.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .grid import Grid, _norm_pow, write_field_csv

MEASUREMENT_KINDS = ("full", "subsample", "smooth")


def subsample_stride(nx: int, m: int) -> int:
    return max(1, math.ceil(nx / (4 * m)))


def gaussian_smoothing_matrix(grid: Grid, sigma_len: float) -> np.ndarray:
    """Row-stochastic blur matrix with symmetric boundary folding: an index
    outside [0, nx) is reflected about the edge it crossed (-1 -> 0,
    nx -> nx - 1), which repeats with period 2 nx.  Each row adds its
    kernel weights in offset order."""
    nx = grid.nx
    sigma = sigma_len / grid.dx
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    rows = np.arange(nx)[:, None]
    cols = (rows + offsets) % (2 * nx)
    cols = np.where(cols < nx, cols, 2 * nx - 1 - cols)
    mat = np.zeros((nx, nx))
    np.add.at(mat, (rows, cols), kernel)
    return mat


@dataclass
class MeasurementOp:
    """K_m on the grid's fields: one (nx, nx) matrix for every family, the
    identity, a diagonal keep-mask or the blur, applied to each time slice."""

    kind: str
    m: int
    grid: Grid

    def __post_init__(self):
        if self.kind not in MEASUREMENT_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"scale index must be >= 1, got {self.m}")
        nx = self.grid.nx
        if self.kind == "smooth":
            sigma = (self.grid.x_hi - self.grid.x_lo) / (4.0 * self.m)
            self.matrix = gaussian_smoothing_matrix(self.grid, sigma)
        elif self.kind == "subsample":
            keep = np.zeros(nx)
            keep[::subsample_stride(nx, self.m)] = 1.0
            self.matrix = np.diag(keep)
        else:
            self.matrix = np.eye(nx)

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Apply along the last (spatial) axis; works on any leading shape."""
        return values @ self.matrix.T

    def adjoint_array(self, values: np.ndarray) -> np.ndarray:
        return values @ self.matrix


def operator_gap(op: MeasurementOp, corpus, r: float = 2.0) -> float:
    """max over the corpus of (nt, nx) arrays u of || K_m u - u || (time
    exponent r, space 2)."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    if not 1.0 <= r < math.inf:
        raise ValueError(f"time exponent must be finite and >= 1, got {r}")
    grid = op.grid
    wt, wx = grid.time_weights(), grid.space_weights()
    gap = 0.0
    for u in corpus:
        diff = op.apply_array(u) - u
        gap = max(gap, float(_norm_pow(wt, wx, diff[None], r)[0]) ** (1.0 / r))
    return gap


def add_noise(values: np.ndarray, level: float, seed: int) -> np.ndarray:
    """i.i.d. Gaussian perturbation with std = level * max|values|."""
    if level < 0:
        raise ValueError("noise level must be >= 0")
    if level == 0:
        return values.copy()
    rng = np.random.default_rng(seed)
    std = level * float(np.max(np.abs(values)))
    return values + rng.normal(0.0, std, size=values.shape)


@dataclass
class Dataset:
    """Measured data plus the given initial/boundary values, per experiment,
    and the operator op that measured the data; its grid is op.grid.

    y has shape (L, N, nt, nx); u0 (L, N, nx); g_lo/g_hi (L, N, nt).  A
    dataset carries no box bound: the regularization box comes from the
    reference trajectory's jets (objective.derive_ubox).
    """

    op: MeasurementOp
    y: np.ndarray
    u0: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        if self.y.ndim != 4:
            raise ValueError("y must have shape (L, N, nt, nx)")
        L, N, nt, nx = self.y.shape
        if (nt, nx) != (self.grid.nt, self.grid.nx):
            raise ValueError("measured data shape does not match grid")
        if self.u0.shape != (L, N, nx):
            raise ValueError("u0 shape mismatch")
        if self.g_lo.shape != (L, N, nt) or self.g_hi.shape != (L, N, nt):
            raise ValueError("boundary trace shape mismatch")

    @property
    def grid(self) -> Grid:
        return self.op.grid

    @property
    def n_experiments(self) -> int:
        return self.y.shape[0]

    @property
    def n_states(self) -> int:
        return self.y.shape[1]


def save_dataset(ds: Dataset, out_dir) -> None:
    """Per-experiment CSV files `y_l{l}_m{m}.csv` plus a JSON manifest."""
    os.makedirs(out_dir, exist_ok=True)
    m = ds.op.m
    for l in range(ds.n_experiments):
        for n in range(ds.n_states):
            suffix = f"_n{n + 1}" if ds.n_states > 1 else ""
            path = os.path.join(out_dir, f"y_l{l + 1}{suffix}_m{m}.csv")
            write_field_csv(ds.grid, ds.y[l, n], path)
    manifest = {"kind": ds.op.kind, "m": m, "level": ds.noise_level,
                "seed": ds.seed, "L": ds.n_experiments, "N": ds.n_states}
    with open(os.path.join(out_dir, f"manifest_m{m}.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
