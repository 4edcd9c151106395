import math

import numpy as np
import pytest

from smlpde.grid import (Field, Grid, bochner_norm, jet_dimension,
                         jet_features, read_field_csv, spatial_derivative,
                         sup_norm, time_derivative, write_field_csv)


def make_grid(nx=17, nt=9, t_end=1.0):
    return Grid(nx=nx, nt=nt, x_lo=0.0, x_hi=1.0, t_end=t_end)


def field_of(grid, fn):
    tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
    return Field(grid, fn(tt, xx))


class TestJetDimension:
    def test_1d_each_order_single(self):
        assert [jet_dimension(k) for k in range(3)] == [1, 2, 3]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            jet_dimension(-1)
        with pytest.raises(ValueError):
            jet_dimension(3)  # the stencils stop at second order


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

    def test_field_shape_and_finiteness(self):
        g = make_grid()
        with pytest.raises(ValueError):
            Field(g, np.zeros((g.nt, g.nx + 1)))
        bad = np.zeros((g.nt, g.nx))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            Field(g, bad)


class TestSpatialDerivative:
    def test_constant_to_zero(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 3.0 + 0 * x)
        eps_budget = 100 * np.finfo(float).eps * 3.0
        assert np.max(np.abs(spatial_derivative(f, 1).values)) <= eps_budget

    def test_linear_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        d = spatial_derivative(f, 1)
        assert np.max(np.abs(d.values - 1.0)) < 100 * np.finfo(float).eps

    def test_quadratic_second_derivative_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x**2)
        d = spatial_derivative(f, 2)
        assert np.max(np.abs(d.values - 2.0)) < 1e-11

    def test_linearity(self):
        g = make_grid()
        rng = np.random.default_rng(0)
        f = Field(g, rng.standard_normal((g.nt, g.nx)))
        h = Field(g, rng.standard_normal((g.nt, g.nx)))
        a, b = 1.7, -0.3
        lhs = spatial_derivative(Field(g, a * f.values + b * h.values), 1)
        rhs = a * spatial_derivative(f, 1).values \
            + b * spatial_derivative(h, 1).values
        assert np.allclose(lhs.values, rhs, rtol=0, atol=1e-12 * np.max(np.abs(rhs)))

    def test_unsupported_order(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        with pytest.raises(ValueError):
            spatial_derivative(f, 3)


class TestTimeDerivative:
    def test_constant_in_time(self):
        g = make_grid()
        f = field_of(g, lambda t, x: np.sin(np.pi * x))
        assert np.max(np.abs(time_derivative(f).values)) < 1e-13

    def test_linear_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: t + 0 * x)
        assert np.max(np.abs(time_derivative(f).values - 1.0)) < 1e-12

    def test_quadratic_exact(self):
        g = make_grid()
        f = field_of(g, lambda t, x: t**2 + 0 * x)
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        assert np.max(np.abs(time_derivative(f).values - 2 * tt)) < 1e-11


class TestJet:
    # jet_features columns: t, then per state u, D u, .., D^kappa u

    def test_component_zero_is_source(self):
        g = make_grid()
        rng = np.random.default_rng(1)
        f = Field(g, rng.standard_normal((g.nt, g.nx)))
        z = jet_features(g, 2, f.values[None])
        tt = np.meshgrid(g.t, g.x, indexing="ij")[0]
        assert np.array_equal(z[:, 0], tt.reshape(-1))
        assert np.array_equal(z[:, 1], f.values.reshape(-1))

    def test_constant_kappa1(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 4.2 + 0 * x)
        z = jet_features(g, 1, f.values[None])
        assert z.shape == (g.nt * g.nx, 3)
        assert np.allclose(z[:, 1], 4.2)
        eps_budget = 100 * np.finfo(float).eps * 4.2
        assert np.max(np.abs(z[:, 2])) <= eps_budget

    def test_quadratic_kappa2(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x**2)
        z = jet_features(g, 2, f.values[None])
        xx = np.meshgrid(g.t, g.x, indexing="ij")[1]
        assert np.max(np.abs(z[:, 2] - 2 * xx.reshape(-1))) < 1e-12
        assert np.max(np.abs(z[:, 3] - 2.0)) < 1e-11

    def test_component_count_matches_dimension(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        two = np.stack([f.values, -f.values])
        z = jet_features(g, 2, two)
        assert z.shape[1] == 1 + 2 * jet_dimension(2)
        # the second state's block follows the first's
        assert np.array_equal(z[:, 4:], -z[:, 1:4])


class TestBochnerNorm:
    def test_constant_unit_measure(self):
        g = make_grid()
        f = field_of(g, lambda t, x: -2.5 + 0 * x)
        assert bochner_norm(f, 2, 2) == pytest.approx(2.5, rel=1e-12)

    def test_zero_field(self):
        g = make_grid()
        f = field_of(g, lambda t, x: 0 * x)
        assert bochner_norm(f, 2, 2) == 0.0

    def test_linear_profile_closed_form(self):
        # oracle: int_0^1 x^2 dx = 1/3, so the norm is 1/sqrt(3)
        g = make_grid(nx=65, nt=9)
        f = field_of(g, lambda t, x: x)
        expect = 1.0 / math.sqrt(3.0)
        assert bochner_norm(f, 2, 2) == pytest.approx(expect, abs=2 * g.dx**2)

    def test_homogeneity(self):
        g = make_grid()
        rng = np.random.default_rng(2)
        vals = rng.standard_normal((g.nt, g.nx))
        for qt, qs in ((2, 2), (3, 2), (2, 4)):
            n1 = bochner_norm(Field(g, vals), qt, qs)
            n2 = bochner_norm(Field(g, -3.7 * vals), qt, qs)
            assert n2 == pytest.approx(3.7 * n1, rel=1e-12)

    def test_no_infinite_exponent(self):
        g = make_grid()
        f = field_of(g, lambda t, x: x)
        with pytest.raises(ValueError):
            bochner_norm(f, math.inf, 2)
        with pytest.raises(ValueError):
            bochner_norm(f, 2, math.inf)


class TestSupNorm:
    def test_constant(self):
        g = make_grid()
        assert sup_norm(field_of(g, lambda t, x: -3.0 + 0 * x)) == 3.0

    def test_sine_peak(self):
        g = make_grid(nx=129, nt=5)
        f = field_of(g, lambda t, x: np.sin(np.pi * x))
        assert sup_norm(f) == pytest.approx(1.0, abs=g.dx**2)

    def test_zero(self):
        g = make_grid()
        assert sup_norm(field_of(g, lambda t, x: 0 * x)) == 0.0


class TestFieldCsv:
    def test_round_trip(self, tmp_path):
        g = make_grid(nx=7, nt=5)
        rng = np.random.default_rng(3)
        f = Field(g, rng.standard_normal((g.nt, g.nx)))
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        back = read_field_csv(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)
