import csv
import math

import numpy as np
import pytest

from smlpde.grid import (Grid, _norm_pow, jet_features, space_derivatives,
                         write_field_csv)


def make_grid(nx=17, nt=9, t_end=1.0):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=t_end)


def field_of(grid, fn):
    tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
    return fn(tt, xx)


def spatial_derivative(grid, values, order):
    return values @ grid.space_derivative_matrix(order).T


def time_derivative(grid, values):
    return grid.time_derivative_matrix() @ values


def norm(grid, values, exponent):
    """The nested norm of one field: the e-th root of _norm_pow."""
    wt, wx = grid.time_weights(), grid.space_weights()
    return _norm_pow(wt, wx, values[None], exponent)[0] ** (1.0 / exponent)


class TestGridInvariants:
    def test_step_sizes(self):
        g = make_grid(nx=11, nt=6, t_end=0.5)
        assert g.dx == pytest.approx(0.1)
        assert g.dt == pytest.approx(0.1)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(nx=4, nt=9, x_lo=0.0, x_hi=1.0, t_end=1.0)
        with pytest.raises(ValueError):
            Grid(nx=9, nt=2, x_lo=0.0, x_hi=1.0, t_end=1.0)

    def test_field_shape_and_finiteness(self, tmp_path):
        g = make_grid()
        path = tmp_path / "field.csv"
        with pytest.raises(ValueError):
            write_field_csv(g, np.zeros((g.nt, g.nx + 1)), path)
        bad = np.zeros((g.nt, g.nx))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            write_field_csv(g, bad, path)
        assert not path.exists()


class TestSpatialDerivative:
    def test_constant_to_zero(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 3.0 + 0 * x)
        eps_budget = 100 * np.finfo(float).eps * 3.0
        assert np.max(np.abs(spatial_derivative(g, f, 1))) <= eps_budget

    def test_linear_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        d = spatial_derivative(g, f, 1)
        assert np.max(np.abs(d - 1.0)) < 100 * np.finfo(float).eps

    def test_quadratic_second_derivative_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x**2)
        d = spatial_derivative(g, f, 2)
        assert np.max(np.abs(d - 2.0)) < 1e-11

    def test_linearity(self):
        g = make_grid()
        rng = np.random.default_rng(0)
        f = rng.standard_normal((g.nt, g.nx))
        h = rng.standard_normal((g.nt, g.nx))
        a, b = 1.7, -0.3
        lhs = spatial_derivative(g, a * f + b * h, 1)
        rhs = a * spatial_derivative(g, f, 1) + b * spatial_derivative(g, h, 1)
        assert np.allclose(lhs, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))

    def test_unsupported_order(self):
        g = make_grid()
        with pytest.raises(ValueError):
            g.space_derivative_matrix(3)


class TestTimeDerivative:
    def test_constant_in_time(self):
        g = make_grid()
        f = field_of(g, lambda t, x: np.sin(np.pi * x))
        assert np.max(np.abs(time_derivative(g, f))) < 1e-13

    def test_linear_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: t + 0 * x)
        assert np.max(np.abs(time_derivative(g, f) - 1.0)) < 1e-12

    def test_quadratic_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: t**2 + 0 * x)
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        assert np.max(np.abs(time_derivative(g, f) - 2 * tt)) < 1e-11


class TestJet:
    # jet_features columns: t, then per state u, D u, .., D^kappa u

    def test_component_zero_is_source(self):
        g = make_grid()
        rng = np.random.default_rng(1)
        f = rng.standard_normal((g.nt, g.nx))
        z = jet_features(g, 2, f[None])
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        assert np.array_equal(z[:, 0], tt.reshape(-1))
        assert np.array_equal(z[:, 1], f.reshape(-1))

    def test_constant_kappa1(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 4.2 + 0 * x)
        z = jet_features(g, 1, f[None])
        assert z.shape == (g.nt * g.nx, 3)
        assert np.allclose(z[:, 1], 4.2)
        eps_budget = 100 * np.finfo(float).eps * 4.2
        assert np.max(np.abs(z[:, 2])) <= eps_budget

    def test_quadratic_kappa2(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x**2)
        z = jet_features(g, 2, f[None])
        xx = np.meshgrid(g.t, g.x, indexing="ij")[1]
        assert np.max(np.abs(z[:, 2] - 2 * xx.reshape(-1))) < 1e-12
        assert np.max(np.abs(z[:, 3] - 2.0)) < 1e-11

    def test_component_count_matches_dimension(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        two = np.stack([f, -f])
        z = jet_features(g, 2, two)
        assert z.shape[1] == 1 + 2 * 3   # t, then u, u_x, u_xx per state
        # the second state's block follows the first's
        assert np.array_equal(z[:, 4:], -z[:, 1:4])


    @pytest.mark.parametrize("kappa", [0, 1, 2])
    def test_stack_matches_slices_bitwise(self, kappa):
        # an (L, N, nt, nx) stack gives each experiment's rows bit for bit,
        # whether the jets take their derivatives or are handed them
        g = make_grid()
        u = np.random.default_rng(2).standard_normal((3, 2, g.nt, g.nx))
        whole = jet_features(g, kappa, u)
        given = jet_features(g, kappa, u, space_derivatives(g, u, 2))
        assert whole.shape == (3, g.nt * g.nx, 1 + 2 * (kappa + 1))
        for l in range(3):
            alone = jet_features(g, kappa, u[l])
            assert whole[l].tobytes() == alone.tobytes()
            assert given[l].tobytes() == alone.tobytes()


class TestBochnerNorm:
    def test_constant_unit_measure(self):
        g = make_grid()
        f = field_of(g, lambda t, x: -2.5 + 0 * x)
        assert norm(g, f, 2) == pytest.approx(2.5, rel=1e-12)

    def test_zero_field(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 0 * x)
        assert norm(g, f, 2) == 0.0

    @pytest.mark.parametrize("exponent", [2.0, 3.0])
    def test_stack_matches_slices_bitwise(self, exponent):
        # one value and one row of inner sums per leading index, each with
        # the bits of that (N, nt, nx) block alone
        g = make_grid()
        wt, wx = g.time_weights(), g.space_weights()
        fields = np.random.default_rng(3).standard_normal((3, 2, g.nt, g.nx))
        values, sums = _norm_pow(wt, wx, fields, exponent)
        assert values.shape == (3,) and sums.shape == (3, g.nt)
        for l in range(3):
            value, inner = _norm_pow(wt, wx, fields[l], exponent)
            assert values[l] == value
            assert sums[l].tobytes() == inner.tobytes()

    def test_linear_profile_closed_form(self):
        # oracle: int_0^1 x^2 dx = 1/3, so the norm is 1/sqrt(3)
        g = make_grid(nx=65, nt=9)
        f = field_of(g, lambda t, x: x)
        expect = 1.0 / math.sqrt(3.0)
        assert norm(g, f, 2) == pytest.approx(expect, abs=2 * g.dx**2)

    def test_homogeneity(self):
        g = make_grid()
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((g.nt, g.nx))
        for e in (2, 3, 4):
            n1 = norm(g, vals, e)
            n2 = norm(g, -3.7 * vals, e)
            assert n2 == pytest.approx(3.7 * n1, rel=1e-12)


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(nx=7, nt=5)
        rng = np.random.default_rng(3)
        f = rng.standard_normal((g.nt, g.nx))
        path = tmp_path / "field.csv"
        write_field_csv(g, f, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x1", "value"]
        data = np.array(rows[1:], dtype=float)
        tt, xx = np.meshgrid(g.t, g.x, indexing="ij")
        assert np.array_equal(data[:, 0], tt.reshape(-1))
        assert np.array_equal(data[:, 1], xx.reshape(-1))
        assert np.array_equal(data[:, 2].reshape(g.nt, g.nx), f)
