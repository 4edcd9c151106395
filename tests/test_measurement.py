import math

import numpy as np
import pytest

from smlpde.grid import Grid
from smlpde.ground_truth import make_dataset
from smlpde.measurement import (Dataset, MeasurementOp, add_noise,
                                gaussian_smoothing_matrix, operator_gap,
                                save_dataset, subsample_stride)


def make_grid(nx=17, nt=9):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=1.0)


def smooth_corpus(grid, n_fields=20):
    out = []
    for k in range(n_fields):
        tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
        amp = 0.5 + 0.5 * (k % 5) / 4
        vals = amp * np.sin(np.pi * (1 + k % 3) * xx) * np.cos(0.7 * k * tt / n_fields)
        vals += 0.1 * np.cos(np.pi * xx)
        out.append(vals)
    return out


class TestApply:
    def test_full_is_identity(self):
        g = make_grid()
        rng = np.random.default_rng(0)
        u = rng.standard_normal((g.nt, g.nx))
        out = MeasurementOp("full", 3, g).apply_array(u)
        assert np.array_equal(out, u)

    def test_smooth_preserves_constants(self):
        g = make_grid()
        u = np.full((g.nt, g.nx), 2.5)
        out = MeasurementOp("smooth", 2, g).apply_array(u)
        assert np.max(np.abs(out - 2.5)) < 1e-12

    def test_subsample_mask_values(self):
        # stride-2 masking of [1,2,3,4,5] keeps odd positions: [1,0,3,0,5]
        g = Grid(nx=5, nt=3, x_lo=0.0, x_hi=1.0, t_end=1.0)
        op = MeasurementOp("subsample", 1, g)
        assert subsample_stride(5, 1) == 2
        u = np.tile(np.array([1.0, 2, 3, 4, 5]), (3, 1))
        out = op.apply_array(u)
        assert np.array_equal(out[0], [1.0, 0.0, 3.0, 0.0, 5.0])

    def test_linearity_all_kinds(self):
        g = make_grid()
        rng = np.random.default_rng(1)
        u = rng.standard_normal((g.nt, g.nx))
        v = rng.standard_normal((g.nt, g.nx))
        for kind in ("full", "subsample", "smooth"):
            op = MeasurementOp(kind, 2, g)
            lhs = op.apply_array(1.3 * u - 0.4 * v)
            rhs = 1.3 * op.apply_array(u) - 0.4 * op.apply_array(v)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1, np.max(np.abs(rhs)))

    def test_smooth_preserves_slice_means(self):
        g = make_grid(nx=33)
        rng = np.random.default_rng(2)
        u = rng.standard_normal((g.nt, g.nx))
        for m in (1, 2, 4):
            out = MeasurementOp("smooth", m, g).apply_array(u)
            means_in = u.mean(axis=1)
            means_out = out.mean(axis=1)
            assert np.max(np.abs(means_in - means_out)) \
                <= 1e-10 * max(1.0, np.max(np.abs(means_in)))


def fold_index(p, n):
    """Edge-symmetric reflection of an out-of-range index into [0, n)."""
    while p < 0 or p >= n:
        p = -1 - p if p < 0 else 2 * n - 1 - p
    return p


def smoothing_matrix_by_loop(grid, sigma_len):
    """The blur matrix one entry at a time: each row, each kernel offset
    in turn, folded at the edges one reflection at a time."""
    sigma = sigma_len / grid.dx
    radius = int(math.ceil(3.0 * sigma))
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    mat = np.zeros((grid.nx, grid.nx))
    for i in range(grid.nx):
        for off, k in zip(offsets, kernel):
            mat[i, fold_index(i + off, grid.nx)] += k
    return mat


class TestSmoothingMatrix:
    @pytest.mark.parametrize("nx", [5, 6, 9, 17, 33, 65, 129])
    def test_matches_loop_bit_for_bit(self, nx):
        # every scale's sigma (x_hi - x_lo) / 4m for m = 1..8, and one as
        # wide as the domain, whose offsets reach past 2 nx and fold more
        # than once; wide kernels add into one entry several times
        g = make_grid(nx=nx)
        for m in (1, 2, 3, 4, 5, 6, 7, 8, 0.25):
            sigma = (g.x_hi - g.x_lo) / (4.0 * m)
            got = gaussian_smoothing_matrix(g, sigma)
            assert got.tobytes() == smoothing_matrix_by_loop(g, sigma).tobytes()
            assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-14


class TestOperatorGap:
    def test_full_gap_zero(self):
        g = make_grid()
        assert operator_gap(MeasurementOp("full", 1, g), smooth_corpus(g)) == 0.0

    def test_smooth_gap_halves_with_width(self):
        g = make_grid(nx=33)
        corpus = smooth_corpus(g)
        gap_m = operator_gap(MeasurementOp("smooth", 2, g), corpus)
        gap_2m = operator_gap(MeasurementOp("smooth", 4, g), corpus)
        assert gap_2m <= gap_m

    def test_subsample_stride_one_gap_zero(self):
        g = make_grid(nx=9)
        # m large enough that the stride collapses to 1
        op = MeasurementOp("subsample", 8, g)
        assert subsample_stride(9, 8) == 1
        assert operator_gap(op, smooth_corpus(g)) == 0.0

    def test_gap_nonincreasing_both_families(self):
        g = make_grid(nx=17)
        corpus = smooth_corpus(g)
        for kind in ("subsample", "smooth"):
            gaps = [operator_gap(MeasurementOp(kind, m, g), corpus)
                    for m in range(1, 9)]
            assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))

    def test_empty_corpus_rejected(self):
        g = make_grid()
        with pytest.raises(ValueError):
            operator_gap(MeasurementOp("full", 1, g), [])

    def test_infinite_exponent_rejected(self):
        g = make_grid()
        op = MeasurementOp("smooth", 1, g)
        with pytest.raises(ValueError):
            operator_gap(op, smooth_corpus(g), math.inf)
        with pytest.raises(ValueError):
            operator_gap(op, smooth_corpus(g), 0.5)


class TestAddNoise:
    def test_level_zero_identity(self):
        g = make_grid()
        rng = np.random.default_rng(3)
        y = rng.standard_normal((g.nt, g.nx))
        out = add_noise(y, 0.0, 5)
        assert np.array_equal(out, y)
        assert out is not y

    def test_determinism(self):
        g = make_grid()
        y = np.ones((g.nt, g.nx))
        a = add_noise(y, 0.1, 42)
        b = add_noise(y, 0.1, 42)
        assert np.array_equal(a, b)

    def test_sample_statistics(self):
        # empirical std over >= 1e4 nodes within [0.008, 0.012] at level 1%
        g = Grid(nx=101, nt=101, x_lo=0.0, x_hi=1.0, t_end=1.0)
        y = np.ones((g.nt, g.nx))
        out = add_noise(y, 0.01, 7)
        noise = out - 1.0
        assert noise.size >= 10**4
        assert 0.008 <= float(np.std(noise)) <= 0.012

    def test_negative_level_rejected(self):
        g = make_grid()
        y = np.ones((g.nt, g.nx))
        with pytest.raises(ValueError):
            add_noise(y, -0.1, 0)


class TestBoundaryTrace:
    """make_dataset takes g_lo and g_hi from the two boundary columns of the
    trajectory it measures, here a prescribed one."""

    @staticmethod
    def traces(fn):
        g = make_grid()
        tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
        u = fn(tt, xx)[None, None]
        ds = make_dataset(g, u, MeasurementOp("full", 1, g), 0.0, 0)
        assert ds.g_lo.shape == ds.g_hi.shape == (1, 1, g.nt)
        return g, ds.g_lo[0, 0], ds.g_hi[0, 0]

    def test_linear_profile(self):
        g, lo, hi = self.traces(lambda t, x: x)
        assert np.array_equal(lo, np.zeros(g.nt))
        assert np.array_equal(hi, np.ones(g.nt))

    def test_constant(self):
        _, lo, hi = self.traces(lambda t, x: np.full_like(x, 3.3))
        assert np.all(lo == 3.3) and np.all(hi == 3.3)

    def test_separable_profile(self):
        g, lo, hi = self.traces(lambda t, x: t * x)
        assert np.max(np.abs(lo)) == 0.0
        assert np.array_equal(hi, g.t)


class TestDataset:
    def test_shape_validation(self):
        g = make_grid()
        with pytest.raises(ValueError):
            Dataset(grid=g, y=np.zeros((1, 1, g.nt, g.nx + 1)),
                    u0=np.zeros((1, 1, g.nx)), g_lo=np.zeros((1, 1, g.nt)),
                    g_hi=np.zeros((1, 1, g.nt)))

    def test_save_files(self, tmp_path):
        g = make_grid(nx=5, nt=3)
        ds = Dataset(grid=g, y=np.zeros((2, 1, g.nt, g.nx)),
                     u0=np.zeros((2, 1, g.nx)), g_lo=np.zeros((2, 1, g.nt)),
                     g_hi=np.zeros((2, 1, g.nt)), m=3, op_kind="smooth",
                     noise_level=0.05, seed=9)
        save_dataset(ds, tmp_path)
        assert (tmp_path / "y_l1_m3.csv").exists()
        assert (tmp_path / "y_l2_m3.csv").exists()
        assert (tmp_path / "manifest_m3.json").exists()
