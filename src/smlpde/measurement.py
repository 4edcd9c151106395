"""Measurement operators, noise injection, and datasets.

A measurement operator acts linearly on grid fields, per time slice:

  full      : identity (the injective limit operator)
  subsample : multiply by a 0/1 keep-mask with spatial stride
              max(1, ceil(nx / (4 m))); dropped nodes read as zero, so all
              scales share one codomain
  smooth    : Gaussian blur with standard deviation (x_hi-x_lo)/(4 m),
              kernel truncated at three widths, renormalized to unit sum,
              and folded at the boundary by edge-symmetric reflection (the
              resulting matrix is doubly stochastic, so slice means are
              preserved exactly)

Larger scale index m means a better operator; the gap to the identity is
measured on a field corpus by operator_gap.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, bochner_norm, sup_norm

MEASUREMENT_KINDS = ("full", "subsample", "smooth")


def subsample_stride(nx: int, m: int) -> int:
    return max(1, math.ceil(nx / (4 * m)))


def _fold_index(p: int, n: int) -> int:
    """Edge-symmetric reflection of an out-of-range index into [0, n)."""
    while p < 0 or p >= n:
        if p < 0:
            p = -1 - p
        else:
            p = 2 * n - 1 - p
    return p


def gaussian_smoothing_matrix(grid: Grid, sigma_len: float) -> np.ndarray:
    """Row-stochastic blur matrix with symmetric boundary folding."""
    nx = grid.nx
    sigma = sigma_len / grid.dx
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    mat = np.zeros((nx, nx))
    for i in range(nx):
        for off, k in zip(offsets, kernel):
            mat[i, _fold_index(i + off, nx)] += k
    return mat


@dataclass
class MeasurementOp:
    kind: str
    m: int
    grid: Grid

    def __post_init__(self):
        if self.kind not in MEASUREMENT_KINDS:
            raise ValueError(f"unknown measurement kind {self.kind!r}")
        if self.m < 1:
            raise ValueError(f"scale index must be >= 1, got {self.m}")
        if self.kind == "subsample":
            stride = subsample_stride(self.grid.nx, self.m)
            mask = np.zeros(self.grid.nx)
            mask[::stride] = 1.0
            self.mask = mask
            self.matrix = None
        elif self.kind == "smooth":
            sigma = (self.grid.x_hi - self.grid.x_lo) / (4.0 * self.m)
            self.matrix = gaussian_smoothing_matrix(self.grid, sigma)
            self.mask = None
        else:
            self.mask = None
            self.matrix = None

    def apply_array(self, values: np.ndarray) -> np.ndarray:
        """Apply along the last (spatial) axis; works on any leading shape."""
        if self.kind == "full":
            return values.copy()
        if self.kind == "subsample":
            return values * self.mask
        return values @ self.matrix.T

    def adjoint_array(self, values: np.ndarray) -> np.ndarray:
        if self.kind == "full":
            return values.copy()
        if self.kind == "subsample":
            return values * self.mask
        return values @ self.matrix


def apply(op: MeasurementOp, u: Field) -> Field:
    if u.grid != op.grid:
        raise ValueError("field and operator live on different grids")
    return Field(u.grid, op.apply_array(u.values))


def operator_gap(op: MeasurementOp, corpus, r: float = 2.0) -> float:
    """max over the corpus of || K_m u - u || (time exponent r, space 2)."""
    if not corpus:
        raise ValueError("corpus must be nonempty")
    gap = 0.0
    for u in corpus:
        diff = Field(u.grid, op.apply_array(u.values) - u.values)
        gap = max(gap, bochner_norm(diff, r, 2.0))
    return gap


def add_noise(y: Field, level: float, seed: int) -> Field:
    """i.i.d. Gaussian perturbation with std = level * sup_norm(y)."""
    if level < 0:
        raise ValueError("noise level must be >= 0")
    if level == 0:
        return y.copy()
    rng = np.random.default_rng(seed)
    std = level * sup_norm(y)
    return Field(y.grid, y.values + rng.normal(0.0, std, size=y.values.shape))


def boundary_trace(u: Field):
    """Time series of the two boundary values."""
    return u.values[:, 0].copy(), u.values[:, -1].copy()


@dataclass
class Dataset:
    """Measured data plus the given initial/boundary values, per experiment.

    y has shape (L, N, nt, nx); u0 (L, N, nx); g_lo/g_hi (L, N, nt).
    ref_jet_sup records the sup-norm over all jet components of the
    trajectory the data came from (used to derive the regularization box).
    """

    grid: Grid
    y: np.ndarray
    u0: np.ndarray
    g_lo: np.ndarray
    g_hi: np.ndarray
    noise_level: float = 0.0
    seed: int = 0
    op_kind: str = "full"
    m: int = 1
    ref_jet_sup: float | None = None

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
    def n_experiments(self) -> int:
        return self.y.shape[0]

    @property
    def n_states(self) -> int:
        return self.y.shape[1]


def save_dataset(ds: Dataset, out_dir) -> None:
    """Per-experiment CSV files `y_l{l}_m{m}.csv` plus a JSON manifest."""
    from .grid import write_field_csv

    os.makedirs(out_dir, exist_ok=True)
    for l in range(ds.n_experiments):
        for n in range(ds.n_states):
            suffix = f"_n{n + 1}" if ds.n_states > 1 else ""
            path = os.path.join(out_dir, f"y_l{l + 1}{suffix}_m{ds.m}.csv")
            write_field_csv(Field(ds.grid, ds.y[l, n]), path)
    manifest = {"kind": ds.op_kind, "m": ds.m, "level": ds.noise_level,
                "seed": ds.seed, "L": ds.n_experiments, "N": ds.n_states}
    with open(os.path.join(out_dir, f"manifest_m{ds.m}.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
