import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from flbarron.errors import DimensionMismatchError, InvalidArgumentError, UnsupportedScaleError
from flbarron.grid import (
    MAX_TENSOR_SAMPLES,
    FreqFunction,
    FreqGrid,
    RadialKernel3D,
    RadialProfile,
    convolve,
    lattice_kernel,
    make_radial_grid,
    make_tensor_grid,
    omega_d,
    radial_convolve_3d,
    radial_integral,
    sample_profile,
    tabulated_profile,
)

from conftest import reference_geometry, reference_radial_convolve_3d


class TestMakeRadialGrid:
    def test_uniform_spans_interval(self):
        g = make_radial_grid(3, 1.0, 1000, "uniform")
        assert g.nodes[0] > 0
        assert g.nodes[0] < 2e-3
        assert g.nodes[-1] > 0.998
        assert np.all(np.diff(g.nodes) > 0)
        assert np.all(g.weights > 0)

    def test_log_uniform_reaches_small_radii(self):
        g = make_radial_grid(1, 100.0, 4096, "log-uniform")
        assert g.nodes[0] < 1e-6
        # geometric spacing in the bulk
        mids = g.cell_bounds[2:-1] / g.cell_bounds[1:-2]
        assert np.allclose(mids, mids[0], rtol=1e-8)

    @pytest.mark.parametrize("scheme", ["uniform", "log-uniform"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_cubic_exactness(self, scheme, degree):
        g = make_radial_grid(1, 2.0, 60, scheme)
        exact = 2.0 ** (degree + 1) / (degree + 1)
        approx = float(np.sum(g.weights * g.nodes ** degree))
        assert abs(approx - exact) <= 1e-10 * exact

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            make_radial_grid(3, -1.0, 100)
        with pytest.raises(InvalidArgumentError):
            make_radial_grid(3, 1.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_radial_grid(0, 1.0, 100)


class TestMakeTensorGrid:
    @pytest.mark.parametrize("extent", [-1.0, 0.0])
    def test_non_positive_extent_rejected(self, extent):
        with pytest.raises(InvalidArgumentError):
            make_tensor_grid(1, extent, 9)

    @pytest.mark.parametrize("extent", [math.nan, math.inf])
    def test_non_finite_extent_rejected(self, extent):
        with pytest.raises(InvalidArgumentError):
            make_tensor_grid(1, extent, 9)
        with pytest.raises(InvalidArgumentError):
            FreqGrid(dim=1, kind="tensor", extent=extent, count=9)

    def test_dimension_capped_at_three(self):
        with pytest.raises(UnsupportedScaleError):
            make_tensor_grid(4, 1.0, 3)
        with pytest.raises(UnsupportedScaleError):
            FreqGrid(dim=4, kind="tensor", extent=1.0, count=3)
        d = FreqFunction(make_tensor_grid(1, 1.0, 3), np.zeros(3)).to_json_dict()
        with pytest.raises(UnsupportedScaleError):
            FreqFunction.from_json_dict({**d, "dim": 4})


class TestGeometry:
    @given(dim=st.integers(1, 3), half=st.integers(1, 20),
           extent=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_tensor_matches_reference(self, dim, half, extent):
        g = make_tensor_grid(dim, extent, 2 * half + 1)
        ax, r, w = reference_geometry(g)
        assert np.array_equal(g.axis, ax)
        assert np.array_equal(g.radius_mesh(), r)
        assert np.array_equal(g.trapezoid_weights(), w)

    @given(dim=st.integers(1, 3), r_max=st.floats(0.1, 1e3), count=st.integers(9, 300),
           scheme=st.sampled_from(["uniform", "log-uniform"]))
    @settings(max_examples=40, deadline=None)
    def test_radial_matches_reference(self, dim, r_max, count, scheme):
        g = make_radial_grid(dim, r_max, count, scheme)
        _, r, w = reference_geometry(g)
        assert np.array_equal(g.radius_mesh(), r)
        assert np.array_equal(g.trapezoid_weights(), w)

    @pytest.mark.parametrize("kind", ["tensor", "radial"])
    def test_computed_once_and_read_only(self, kind):
        g = make_tensor_grid(2, 3.0, 9) if kind == "tensor" else make_radial_grid(3, 5.0, 30)
        arrays = [g.radius_mesh(), g.trapezoid_weights()] + ([g.axis] if kind == "tensor" else [])
        assert g.radius_mesh() is arrays[0] and g.trapezoid_weights() is arrays[1]
        for a in arrays:
            with pytest.raises(ValueError):
                a.ravel()[0] = 1.0

    def test_radial_weights_integrate_over_r_d(self):
        # int_{|xi| <= 1} d xi = 4 pi / 3 in three dimensions
        g = make_radial_grid(3, 1.0, 60, "uniform")
        assert float(np.sum(g.trapezoid_weights())) == pytest.approx(4 * math.pi / 3, rel=1e-13)

    def test_sample_budget(self):
        with pytest.raises(UnsupportedScaleError, match="exceeds"):
            FreqGrid(dim=3, kind="tensor", extent=1.0, count=10 ** 6 + 1)
        assert make_tensor_grid(3, 8.0, 129).size <= MAX_TENSOR_SAMPLES


class TestRadialIntegral:
    def test_lorentzian_1d(self):
        g = make_radial_grid(1, 1e4, 6000, "log-uniform")
        f = sample_profile(RadialProfile("bracket_power", (1.0, -2.0)), g)
        assert radial_integral(f) == pytest.approx(math.pi, rel=1e-3)

    def test_bracket4_3d(self):
        g = make_radial_grid(3, 1e6, 9000, "log-uniform")
        f = sample_profile(RadialProfile("bracket_power", (1.0, -4.0)), g)
        assert radial_integral(f) == pytest.approx(math.pi ** 2, rel=1e-4)

    def test_unit_function_truncated(self):
        g = make_radial_grid(1, 1.0, 99, "uniform")
        f = FreqFunction(g, np.ones_like(g.nodes))
        assert radial_integral(f) == pytest.approx(2.0, abs=1e-12)

    def test_homogeneity(self):
        g = make_radial_grid(2, 10.0, 300, "uniform")
        f = sample_profile(RadialProfile("gaussian", (1.0, 1.0)), g)
        a = radial_integral(f)
        b = radial_integral(f.copy_with(3.5 * np.asarray(f.values)))
        assert b == pytest.approx(3.5 * a, rel=1e-14)

    def test_refinement_second_order_or_better(self):
        vals = []
        for count in (60, 120, 240):
            g = make_radial_grid(3, 30.0, count, "uniform")
            f = sample_profile(RadialProfile("rational_bracket", (1.0, 1.0, 2.0)), g)
            vals.append(radial_integral(f))
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d2 <= d1 / 3.0


class TestConvolve:
    def test_near_delta_kernel_is_identity(self, grid_1d):
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.exp(-xi ** 2 / 2))
        h = grid_1d.spacing
        c = 1.0 / h ** 2  # width ~ h
        amp = math.sqrt(c / math.pi)  # unit mass
        out = convolve(RadialProfile("gaussian", (amp, c)), u, "additive")
        # smoothing by a width-h mollifier perturbs at second order in h
        assert np.max(np.abs(out.values - u.values)) < 0.05

    def test_gaussian_closed_form(self, grid_1d):
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.exp(-math.pi * xi ** 2))
        out = convolve(RadialProfile("gaussian", (1.0, math.pi)), u, "additive")
        expected = 2.0 ** -0.5 * np.exp(-math.pi * xi ** 2 / 2.0)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def brute_pairwise(self, kernel_vals, w, u):
        M = u.shape[0]
        m = (M - 1) // 2
        out = np.zeros_like(u, dtype=complex)
        for a in range(M):
            for b in range(M):
                acc = 0.0
                for k in range(M):
                    t = k - m
                    ia, ib = a - t, b + t
                    if 0 <= ia < M and 0 <= ib < M:
                        acc += kernel_vals[k] * w[k] * u[ia, ib]
                out[a, b] = acc
        return out

    def test_pairwise_against_double_loop(self):
        g = make_tensor_grid(2, 2.0, 9)
        xi = g.axis
        rng = np.random.default_rng(3)
        u = FreqFunction(g, rng.normal(size=(9, 9)))
        prof = RadialProfile("gaussian", (1.3, 0.7))
        out = convolve(prof, u, "pairwise", particle=(1, 2), n=1)
        w = np.full(9, g.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        brute = self.brute_pairwise(prof(np.abs(xi)), w, np.asarray(u.values))
        assert np.max(np.abs(out.values - brute)) < 1e-12

    def test_pairwise_symmetry(self):
        g = make_tensor_grid(2, 3.0, 17)
        xi = g.axis
        sym = np.exp(-np.add.outer(xi ** 2, xi ** 2))
        u = FreqFunction(g, sym)
        out = convolve(RadialProfile("gaussian", (1.0, 1.0)), u, "pairwise",
                       particle=(1, 2), n=1)
        assert np.max(np.abs(out.values - out.values.T)) < 1e-12

    def test_one_particle_acts_on_single_axis(self):
        g = make_tensor_grid(2, 4.0, 33)
        xi = g.axis
        u = FreqFunction(g, np.exp(-math.pi * xi ** 2)[:, None]
                         * np.exp(-math.pi * xi ** 2)[None, :])
        out = convolve(RadialProfile("gaussian", (1.0, math.pi)), u, "one_particle",
                       particle=1, n=1)
        expected = (2.0 ** -0.5 * np.exp(-math.pi * xi ** 2 / 2.0))[:, None] \
            * np.exp(-math.pi * xi ** 2)[None, :]
        assert np.max(np.abs(out.values - expected)) < 1e-9

    def test_kernel_from_another_grid_rejected(self):
        prof = RadialProfile("gaussian", (1.0, 1.0))
        kernel = lattice_kernel(prof, make_tensor_grid(1, 4.0, 33), "additive")
        u = FreqFunction(make_tensor_grid(1, 5.0, 33), np.ones(33))
        with pytest.raises(DimensionMismatchError):
            convolve(kernel, u)

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        g = make_tensor_grid(1, 4.0, 33)
        xi = g.axis
        u = FreqFunction(g, np.exp(-xi ** 2))
        v = FreqFunction(g, np.cos(xi) * np.exp(-xi ** 2 / 2))
        prof = RadialProfile("gaussian", (1.0, 1.0))
        lhs = convolve(prof, u.copy_with(a * u.values + b * v.values), "additive")
        rhs = a * np.asarray(convolve(prof, u, "additive").values) \
            + b * np.asarray(convolve(prof, v, "additive").values)
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * scale


class TestRadialConvolve3D:
    def test_gaussian_closed_form(self):
        # exp(-a|.|^2) * exp(-b|.|^2) in R^3 = (pi/(a+b))^(3/2) exp(-ab/(a+b) r^2)
        a, b = 1.0, 2.0
        g = make_radial_grid(3, 8.0, 300)
        u = sample_profile(RadialProfile("gaussian", (1.0, b)), g)
        out = radial_convolve_3d(RadialKernel3D(RadialProfile("gaussian", (1.0, a))), u)
        expected = (math.pi / (a + b)) ** 1.5 * np.exp(-a * b / (a + b) * g.nodes ** 2)
        assert np.max(np.abs(out - expected)) <= 2e-9 * np.max(expected)

    def test_inverse_square_closed_form(self):
        # |.|^-2 * exp(-b|.|^2) in R^3 = 2 pi^(3/2) D(sqrt(b) r) / (b r), D = Dawson's
        # integral; the kernel's log primitive takes exact moments near s = r
        b = 2.0
        g = make_radial_grid(3, 8.0, 300, "log-uniform", r_min=1e-3)
        u = sample_profile(RadialProfile("gaussian", (1.0, b)), g)
        out = radial_convolve_3d(RadialKernel3D(RadialProfile("power", (1.0, -2.0))), u)
        r = g.nodes
        expected = 2.0 * math.pi ** 1.5 * dawsn(math.sqrt(b) * r) / (b * r)
        assert np.max(np.abs(out - expected)) <= 1e-6 * np.max(expected)

    @staticmethod
    def case(name):
        """(kernel, u, r_eval, tail_profile) on a log-uniform 3-D grid."""
        g = make_radial_grid(3, 300.0, 450, "log-uniform", r_min=1e-4)
        prof = RadialProfile("rational_bracket", (1.7, 1.0, 2.0))
        u = sample_profile(prof, g)
        power = RadialKernel3D(RadialProfile("power", (0.8, -1.5)), coeff=1.3)
        if name == "power":
            return power, u, None, prof
        if name == "log":
            return RadialKernel3D(RadialProfile("power", (-0.6, -2.0))), u, None, prof
        if name == "rational_bracket":
            return RadialKernel3D(RadialProfile("rational_bracket", (0.9, 2.0, 1.5))), u, None, prof
        if name == "tabulated_tail":
            tab = tabulated_profile(g.nodes, u.values, tail_model=(1.7, -4.0, -3.4, -6.0))
            return power, u, None, tab
        if name == "r_eval_subset":
            cells = g.cell_bounds
            r_eval = np.concatenate([g.nodes[5::37], 0.5 * (cells[1:] + cells[:-1])[::11],
                                     [1e-5, 0.3, 299.0, 400.0]])
            return power, u, r_eval, prof
        raise ValueError(name)

    @pytest.mark.parametrize("name", ["power", "log", "rational_bracket", "tabulated_tail",
                                      "r_eval_subset"])
    def test_matches_per_radius_reference(self, name):
        kernel, u, r_eval, tail = self.case(name)
        ref = reference_radial_convolve_3d(kernel, u, r_eval=r_eval, tail_profile=tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = radial_convolve_3d(kernel, u, r_eval=r_eval, tail_profile=tail)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_needs_3d_radial_grid(self, grid_1d):
        kernel = RadialKernel3D(RadialProfile("gaussian", (1.0, 1.0)))
        with pytest.raises(DimensionMismatchError):
            radial_convolve_3d(kernel, FreqFunction(grid_1d, np.ones(grid_1d.shape)))


class TestSerialization:
    def test_radial_round_trip(self):
        g = make_radial_grid(3, 5.0, 60, "log-uniform")
        f = FreqFunction(g, np.exp(-g.nodes) * (1 + 0.5j))
        f2 = FreqFunction.from_json(f.to_json())
        assert np.array_equal(np.asarray(f2.values), np.asarray(f.values))
        assert np.array_equal(f2.grid.nodes, g.nodes)
        assert np.array_equal(f2.grid.weights, g.weights)

    def test_old_format_radial_flag_ignored(self):
        g = make_radial_grid(3, 5.0, 60, "log-uniform")
        f = FreqFunction(g, np.exp(-g.nodes))
        d = f.to_json_dict()
        assert "radial_flag" not in d
        f2 = FreqFunction.from_json_dict({**d, "radial_flag": True})
        assert np.array_equal(np.asarray(f2.values), np.asarray(f.values))
        assert radial_integral(f2) == radial_integral(f)

    def test_tensor_round_trip(self, grid_1d):
        rng = np.random.default_rng(0)
        f = FreqFunction(grid_1d, rng.normal(size=grid_1d.shape)
                         + 1j * rng.normal(size=grid_1d.shape))
        f2 = FreqFunction.from_json(f.to_json())
        assert np.array_equal(np.asarray(f2.values), np.asarray(f.values))
        assert f2.grid.extent == grid_1d.extent
        assert f2.grid.count == grid_1d.count

    def test_values_shape_checked(self, grid_1d):
        from flbarron.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            FreqFunction(grid_1d, np.zeros(7))


def test_omega_d_values():
    assert omega_d(1) == pytest.approx(2.0, rel=1e-15)
    assert omega_d(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert omega_d(3) == pytest.approx(4 * math.pi, rel=1e-15)
