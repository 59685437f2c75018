import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import dawsn

from flbarron import grid as grid_module
from flbarron.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotInSpaceError,
    UnsupportedScaleError,
)
from flbarron.grid import (
    MAX_TENSOR_SAMPLES,
    FreqFunction,
    FreqGrid,
    RadialKernel3D,
    RadialProfile,
    _geometric_ratio,
    _offset_near_sets,
    _offset_pairs,
    _tail_correction,
    convolve,
    lattice_kernel,
    make_radial_grid,
    make_tensor_grid,
    omega_d,
    padded_length,
    radial_convolve_3d,
    radial_integral,
    sample_kernel_on_lattice,
    sample_profile,
    tabulated_profile,
)

from flbarron.operators import OperatorPlan
from flbarron.potentials import (
    PotentialSpec,
    PotentialTerm,
    fourier_transform,
    sharp_example_potential,
)
from flbarron.solver import tabulate_sharp_transform

from conftest import (
    reference_direct_V,
    reference_geometry,
    reference_radial_convolve_3d,
    reference_sample_kernel_on_lattice,
)


class TestMakeRadialGrid:
    def test_log_uniform_reaches_small_radii(self):
        g = make_radial_grid(1, 100.0, 4096)
        assert g.nodes[0] < 1e-6
        # geometric spacing in the bulk
        mids = g.cell_bounds[2:-1] / g.cell_bounds[1:-2]
        assert np.allclose(mids, mids[0], rtol=1e-8)

    # log-uniform cells after the default first cell [0, 2e-8], and after a
    # linear first cell [0, 1] as wide as the geometric ones together
    @pytest.mark.parametrize("r_min", [None, 1.0], ids=["log-uniform", "wide_first_cell"])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_cubic_exactness(self, r_min, degree):
        g = make_radial_grid(1, 2.0, 60, r_min=r_min)
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
        # r_min is keyword-only: a scheme name in its old place is never read as a radius
        with pytest.raises(TypeError):
            make_radial_grid(3, 1.0, 30, "log-uniform")

    @pytest.mark.parametrize("r_max", [math.inf, math.nan])
    def test_non_finite_r_max_named(self, r_max):
        # inf used to fail as "r_min must lie in (0, r_max)", a value never passed
        with pytest.raises(InvalidArgumentError, match="r_max must be positive and finite"):
            make_radial_grid(3, r_max, 30)


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
           r_min_frac=st.one_of(st.none(), st.floats(1e-10, 0.5)))
    @settings(max_examples=40, deadline=None)
    def test_radial_matches_reference(self, dim, r_max, count, r_min_frac):
        r_min = None if r_min_frac is None else r_min_frac * r_max
        g = make_radial_grid(dim, r_max, count, r_min=r_min)
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

    @pytest.mark.parametrize("kind", ["tensor", "radial"])
    @pytest.mark.parametrize("s", [0.0, 0.5, -1.0, 2.7, -0.3])
    def test_bracket_power_is_the_plain_expression(self, kind, s):
        g = make_tensor_grid(3, 4.0, 13) if kind == "tensor" else make_radial_grid(3, 200.0, 300)
        r = g.radius_mesh().ravel()
        table = g.bracket_power(s)
        assert table.shape == (g.size,)
        assert table.tobytes() == ((1.0 + r * r) ** (s / 2.0)).tobytes()
        assert g.bracket_power(s) is table and g.bracket_power(s + 1.0) is not table
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_radial_weights_integrate_over_r_d(self):
        # int_{|xi| <= 1} d xi = 4 pi / 3 in three dimensions
        g = make_radial_grid(3, 1.0, 60)
        assert float(np.sum(g.trapezoid_weights())) == pytest.approx(4 * math.pi / 3, rel=1e-13)

    def test_stacks_only_on_tensor_grids(self):
        g = make_tensor_grid(2, 3.0, 9)
        assert FreqFunction(g, np.ones((4, 9, 9))).values.shape == (4, 9, 9)
        # flat samples of one function are a wrong shape like any other
        for bad in (np.ones((4, 9, 8)), np.ones((2, 4, 9, 9)), np.ones(80), np.ones(81)):
            with pytest.raises(DimensionMismatchError):
                FreqFunction(g, bad)
        with pytest.raises(DimensionMismatchError):
            FreqFunction(make_tensor_grid(3, 3.0, 5), np.ones(125))
        radial = make_radial_grid(3, 5.0, 30)
        with pytest.raises(DimensionMismatchError):
            FreqFunction(radial, np.ones((2,) + radial.shape))
        # radial grids hold real samples: complex ones fail where they enter
        with pytest.raises(InvalidArgumentError, match="radial grids hold real samples"):
            FreqFunction(radial, np.ones(radial.shape) * (1 + 1e-20j))
        assert FreqFunction(g, np.ones((9, 9)) * 1j).values.dtype == complex
        assert [g.batch_rank(np.ones(s)) for s in ((9, 9), (1, 9, 9))] == [0, 1]

    def test_sample_budget(self):
        with pytest.raises(UnsupportedScaleError, match="exceeds"):
            FreqGrid(dim=3, kind="tensor", extent=1.0, count=10 ** 6 + 1)
        assert make_tensor_grid(3, 8.0, 129).size <= MAX_TENSOR_SAMPLES


class TestSampleKernelOnLattice:
    # (n, grid dim, kind, params): smooth and singular profiles, the kernel's
    # own lattice and a sub-lattice of a larger grid
    CASES = [(1, 1, "gaussian", {}), (1, 2, "inverse_power", {"t": 0.5}),
             (2, 2, "gaussian", {}), (2, 2, "inverse_power", {"t": 1.5}),
             (3, 3, "coulomb", {}), (3, 3, "yukawa", {"mu": 1.0}), (1, 1, "log_1d", {})]
    # near cells (within 3 spacings of the origin) and their symmetry classes
    # (sorted absolute index offsets) per lattice dimension n
    NEAR = {1: 7, 2: 29, 3: 123}
    CLASSES = {1: 4, 2: 7, 3: 10}

    @pytest.mark.parametrize("n, dim, kind, params", CASES)
    @given(half=st.integers(2, 5), extent=st.floats(1.0, 8.0), shifted=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=4, deadline=None)
    def test_matches_reference(self, n, dim, kind, params, half, extent, shifted, seed):
        grid = make_tensor_grid(dim, extent, 2 * half + 1)
        profile = fourier_transform(PotentialTerm(kind, params), n)
        shift = np.random.default_rng(seed).normal(size=n) if shifted else None
        got = sample_kernel_on_lattice(profile, n, grid, shift)
        ref = reference_sample_kernel_on_lattice(profile, n, grid, shift)
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n, dim, kind, params", CASES)
    def test_profile_evaluated_on_the_lattice_once(self, n, dim, kind, params, monkeypatch):
        # singular kinds also average the 16^n sub-cells of one cell per symmetry class
        grid = make_tensor_grid(dim, 4.0, 9)
        profile = fourier_transform(PotentialTerm(kind, params), n)
        shapes = []
        call = RadialProfile.__call__
        monkeypatch.setattr(RadialProfile, "__call__",
                            lambda self, r: shapes.append(np.shape(r)) or call(self, r))
        kernel = sample_kernel_on_lattice(profile, n, grid)
        singular = profile.kind in ("power", "log_kernel")
        assert shapes.count((9,) * n) == 1
        assert shapes.count((16 ** n,)) == (self.CLASSES[n] if singular else 0)
        assert len(shapes) == 1 + (self.CLASSES[n] if singular else 0)
        assert np.array_equal(kernel, reference_sample_kernel_on_lattice(profile, n, grid))

    # (n, grid dim, kind, params, count, extent): the kernel's own lattice and a
    # sub-lattice of a larger grid; Coulomb on 7^3 and the 1-D inverse power on
    # 41 points break the symmetry if each near cell takes its own mean
    SYMMETRY_CASES = [(1, 1, "inverse_power", {"t": 0.5}, 41, 3.0),
                      (1, 2, "inverse_power", {"t": 0.5}, 11, 2.0),
                      (2, 2, "inverse_power", {"t": 1.5}, 13, 4.0),
                      (2, 3, "inverse_power", {"t": 0.5}, 9, 7.9),
                      (3, 3, "coulomb", {}, 7, 3.0),
                      (3, 3, "coulomb", {}, 13, 5.0),
                      (1, 1, "log_1d", {}, 9, 2.5),
                      (1, 3, "log_1d", {}, 7, 1.0)]

    @pytest.mark.parametrize("n, dim, kind, params, count, extent", SYMMETRY_CASES)
    def test_near_samples_symmetric_under_reflection_and_permutation(
            self, n, dim, kind, params, count, extent):
        grid = make_tensor_grid(dim, extent, count)
        kernel = sample_kernel_on_lattice(fourier_transform(PotentialTerm(kind, params), n),
                                          n, grid)
        m = (count - 1) // 2
        offsets = np.argwhere(np.ones((count,) * n, dtype=bool)) - m
        near = offsets[np.sum(offsets ** 2, axis=1) <= 9]
        assert len(near) == self.NEAR[n]
        assert len({tuple(sorted(np.abs(o))) for o in near}) == self.CLASSES[n]
        samples = kernel[tuple((near + m).T)]
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                image = near[:, list(perm)] * np.array(signs)
                assert np.array_equal(kernel[tuple((image + m).T)], samples), (perm, signs)


class TestRadialIntegral:
    def test_lorentzian_1d(self):
        g = make_radial_grid(1, 1e4, 6000)
        f = sample_profile(RadialProfile("rational_bracket", (1.0, 1.0, 1.0)), g)
        assert radial_integral(f) == pytest.approx(math.pi, rel=1e-3)

    def test_bracket4_3d(self):
        g = make_radial_grid(3, 1e6, 9000)
        f = sample_profile(RadialProfile("rational_bracket", (1.0, 1.0, 2.0)), g)
        assert radial_integral(f) == pytest.approx(math.pi ** 2, rel=1e-4)

    def test_unit_function_truncated(self):
        g = make_radial_grid(1, 1.0, 99)
        f = FreqFunction(g, np.ones_like(g.nodes))
        assert radial_integral(f) == pytest.approx(2.0, abs=1e-12)

    def test_homogeneity(self):
        g = make_radial_grid(2, 10.0, 300)
        f = sample_profile(RadialProfile("gaussian", (1.0, 1.0)), g)
        a = radial_integral(f)
        b = radial_integral(f.copy_with(3.5 * np.asarray(f.values)))
        assert b == pytest.approx(3.5 * a, rel=1e-14)

    def test_refinement_second_order_or_better(self):
        vals = []
        for count in (60, 120, 240):
            g = make_radial_grid(3, 30.0, count)
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
        out = convolve(lattice_kernel(RadialProfile("gaussian", (amp, c)), grid_1d, "additive"), u)
        # smoothing by a width-h mollifier perturbs at second order in h
        assert np.max(np.abs(out.values - u.values)) < 0.05

    def test_gaussian_closed_form(self, grid_1d):
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.exp(-math.pi * xi ** 2))
        out = convolve(lattice_kernel(RadialProfile("gaussian", (1.0, math.pi)), grid_1d,
                                      "additive"), u)
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
        out = convolve(lattice_kernel(prof, g, "pairwise", particle=(1, 2), n=1), u)
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
        out = convolve(lattice_kernel(RadialProfile("gaussian", (1.0, 1.0)), g, "pairwise",
                                      particle=(1, 2), n=1), u)
        assert np.max(np.abs(out.values - out.values.T)) < 1e-12

    def test_one_particle_acts_on_single_axis(self):
        g = make_tensor_grid(2, 4.0, 33)
        xi = g.axis
        u = FreqFunction(g, np.exp(-math.pi * xi ** 2)[:, None]
                         * np.exp(-math.pi * xi ** 2)[None, :])
        out = convolve(lattice_kernel(RadialProfile("gaussian", (1.0, math.pi)), g, "one_particle",
                                      particle=1, n=1), u)
        expected = (2.0 ** -0.5 * np.exp(-math.pi * xi ** 2 / 2.0))[:, None] \
            * np.exp(-math.pi * xi ** 2)[None, :]
        assert np.max(np.abs(out.values - expected)) < 1e-9

    def test_kernel_from_another_grid_rejected(self):
        prof = RadialProfile("gaussian", (1.0, 1.0))
        kernel = lattice_kernel(prof, make_tensor_grid(1, 4.0, 33), "additive")
        u = FreqFunction(make_tensor_grid(1, 5.0, 33), np.ones(33))
        with pytest.raises(DimensionMismatchError):
            convolve(kernel, u)

    # case -> (odd counts M, one-term spec): a 1-D kernel on 1-D and 3-D grids, the
    # 2-D pairwise kernel, 2-D additive and 3-D one-particle kernels; the 3-D
    # kernel's direct reference costs O(M^6), so it stops at M = 15
    _WIDE = PotentialTerm("gaussian", {"kappa": 1.3, "width": 0.5}, coeff=0.7)  # edge/center 0.46
    ALIAS_CASES = {
        "one_particle_1d": (range(3, 42, 2), PotentialSpec(1, 1, one_particle=[(1, _WIDE)])),
        "one_particle_on_3d": (range(3, 42, 2), PotentialSpec(1, 3, one_particle=[(2, _WIDE)])),
        "pairwise_2d": (range(3, 42, 2), PotentialSpec(1, 2, pairwise=[(1, 2, _WIDE)])),
        "additive_2d": (range(3, 42, 2), PotentialSpec(1, 2, additive=_WIDE)),
        "one_particle_3d": (range(3, 16, 2), PotentialSpec(3, 1, one_particle=[(1, _WIDE)])),
    }

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("case", list(ALIAS_CASES))
    def test_alias_free_length_is_exact(self, case, complex_input):
        # the linear convolution's outermost samples, kernel offset +-m against
        # u's first and last index, wrap onto the kept ones at one FFT length
        # below 2M-1-m; spikes there make any such alias far exceed the bound
        from scipy.fft import next_fast_len

        counts, pot = self.ALIAS_CASES[case]
        (role, i, j, term, n), = pot.terms()
        rng = np.random.default_rng(5)
        for M in counts:
            g = make_tensor_grid(pot.dim, 1.0, M)
            u = rng.normal(size=g.shape) + (1j * rng.normal(size=g.shape) if complex_input else 0)
            for corner in np.ndindex(*([2] * g.dim)):
                u[tuple(c * (M - 1) for c in corner)] *= 50.0
            u = FreqFunction(g, u)
            kernel = lattice_kernel(fourier_transform(term, n), g, role,
                                    particle=i if j is None else (i, j), n=n)
            assert kernel.sizes == (next_fast_len(2 * M - 1 - (M - 1) // 2),) * len(kernel.axes)
            out = term.coeff * np.asarray(convolve(kernel, u).values)
            bound = 1e-13 * term.coeff * np.max(np.abs(kernel.samples)) * np.sum(np.abs(u.values))
            assert np.iscomplexobj(out) == complex_input
            assert np.max(np.abs(out - reference_direct_V(pot, u))) <= bound, M

    def test_padded_length_is_scipy_next_fast_len(self):
        from scipy.fft import next_fast_len

        got = [padded_length(M) for M in range(1, 4097)]
        assert got == [next_fast_len(2 * M - 1 - (M - 1) // 2) for M in range(1, 4097)]

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=20, deadline=None)
    def test_linearity(self, a, b):
        g = make_tensor_grid(1, 4.0, 33)
        xi = g.axis
        u = FreqFunction(g, np.exp(-xi ** 2))
        v = FreqFunction(g, np.cos(xi) * np.exp(-xi ** 2 / 2))
        kernel = lattice_kernel(RadialProfile("gaussian", (1.0, 1.0)), g, "additive")
        lhs = convolve(kernel, u.copy_with(a * u.values + b * v.values))
        rhs = a * np.asarray(convolve(kernel, u).values) + b * np.asarray(convolve(kernel, v).values)
        scale = max(np.max(np.abs(rhs)), 1e-30)
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * scale


class TestRadialConvolve3D:
    def test_inverse_square_closed_form(self):
        # |.|^-2 * exp(-b|.|^2) in R^3 = 2 pi^(3/2) D(sqrt(b) r) / (b r), D = Dawson's
        # integral; the kernel's log primitive takes exact moments near s = r
        b = 2.0
        g = make_radial_grid(3, 8.0, 300, r_min=1e-3)
        u = sample_profile(RadialProfile("gaussian", (1.0, b)), g)
        out = radial_convolve_3d(RadialKernel3D(RadialProfile("power", (1.0, -2.0))), u)
        r = g.nodes
        expected = 2.0 * math.pi ** 1.5 * dawsn(math.sqrt(b) * r) / (b * r)
        assert np.max(np.abs(out - expected)) <= 1e-6 * np.max(expected)

    @staticmethod
    def case(name):
        """(kernel, u, tail_profile) on a log-uniform 3-D grid."""
        g = make_radial_grid(3, 300.0, 450, r_min=1e-4)
        prof = RadialProfile("rational_bracket", (1.7, 1.0, 2.0))
        u = sample_profile(prof, g)
        power = RadialKernel3D(RadialProfile("power", (0.8, -1.5)), coeff=1.3)
        if name == "power":
            return power, u, prof
        if name == "log":
            return RadialKernel3D(RadialProfile("power", (-0.6, -2.0))), u, prof
        if name == "tabulated_tail":
            tab = tabulated_profile(g.nodes, u.values, tail_model=((1.7, -4.0), (-3.4, -6.0)))
            return power, u, tab
        if name.startswith("sharp_t"):
            # the sharpness example's kernels: |x|^-t in R^3 gives a log kernel
            # at t = 1 and power kernels with q = t - 1 otherwise
            t = float(name[len("sharp_t"):])
            term = PotentialTerm("inverse_power", {"t": t}, coeff=-0.4)
            return RadialKernel3D(fourier_transform(term, 3), coeff=term.coeff), u, prof
        raise ValueError(name)

    @pytest.mark.parametrize("name", ["power", "log", "tabulated_tail", "sharp_t1", "sharp_t0.5",
                                      "sharp_t1.25", "sharp_t1.5"])
    def test_matches_per_radius_reference(self, name):
        kernel, u, tail = self.case(name)
        ref = reference_radial_convolve_3d(kernel, u, tail_profile=tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = radial_convolve_3d(kernel, u, tail_profile=tail)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("name", ["power", "log", "sharp_t1", "sharp_t0.5", "sharp_t1.25",
                                      "sharp_t1.5"])
    def test_geometric_cells_take_the_fft_route(self, name, monkeypatch):
        # every grid that make_radial_grid builds takes the FFT far field, once per call
        kernel, u, prof = self.case(name)
        calls = []
        fft_sum = grid_module._geometric_sum
        monkeypatch.setattr(grid_module, "_geometric_sum",
                            lambda *args: calls.append(1) or fft_sum(*args))
        radial_convolve_3d(kernel, u, tail_profile=prof)
        assert len(calls) == 1
        default = make_radial_grid(3, 300.0, 450)
        radial_convolve_3d(kernel, sample_profile(prof, default), tail_profile=prof)
        assert len(calls) == 2

    @given(dim=st.integers(1, 3), r_max=st.floats(1e-3, 1e6), count=st.integers(8, 12000),
           r_min_frac=st.one_of(st.none(), st.floats(1e-300, 0.999)))
    @settings(max_examples=200, deadline=None)
    def test_every_built_grid_is_geometric(self, dim, r_max, count, r_min_frac):
        # radial_convolve_3d has no route for other cells, so every count a
        # caller may pass must give bounds within _geometric_ratio's 1e-12
        r_min = None if r_min_frac is None else r_min_frac * r_max
        g = make_radial_grid(dim, r_max, count, r_min=r_min)
        rho = _geometric_ratio(g)
        assert rho is not None and rho > 1.0

    @pytest.mark.parametrize("name", ["power", "log"])
    def test_non_geometric_cells_are_rejected(self, name):
        # one bound of a hand-built grid moved off the geometric sequence
        kernel, u, prof = self.case(name)
        bounds = u.grid.cell_bounds.copy()
        bounds[40] *= 1.0 + 1e-9
        g = FreqGrid(3, "radial", cell_bounds=bounds)
        assert _geometric_ratio(g) is None
        with pytest.raises(UnsupportedScaleError, match="geometric cells"):
            radial_convolve_3d(kernel, sample_profile(prof, g), tail_profile=prof)

    @pytest.mark.parametrize("r_max, count, r_min", [
        (8.0, 300, 1e-3), (300.0, 450, 1e-4), (300.0, 9, 1e-4), (2000.0, 240, 1e-4),
        *[(r_max, count, 1e-4) for r_max in (800.0, 2000.0)
          for count in sorted({20, 90, *range(120, 1801, 30)})]])
    def test_offset_near_sets_are_the_coordinate_masks(self, r_max, count, r_min):
        g = make_radial_grid(3, r_max, count, r_min=r_min)
        rho = _geometric_ratio(g)
        a, b = g.cell_bounds[1:-1], g.cell_bounds[2:]
        c, h, r = 0.5 * (a + b), b - a, g.nodes[3:, None]
        near_p, near_m = _offset_near_sets(rho, len(a))
        for offsets, coords in ((near_p, r + c <= 3.0 * h), (near_m, np.abs(r - c) <= 3.0 * h)):
            mask = np.zeros_like(coords)
            mask[_offset_pairs(offsets, len(a), 0, len(a))] = True
            assert np.array_equal(mask, coords)
        if count == 9:  # a coarse grid: cell ratio about 1.7e3, and Q(r+s) has near cells
            assert rho == pytest.approx(math.sqrt(3e6)) and near_p.any()

    @pytest.mark.parametrize("name", ["power", "log", "sharp_t0.5", "sharp_t1.5"])
    def test_negative_tail_coefficient_negates_the_correction(self, name):
        # the correction reads the signed leading coefficient: the tail profile
        # with -C gives exactly the negated correction, and negating u as well
        # negates the whole convolution
        kernel, u, prof = self.case(name)
        neg = RadialProfile(prof.kind, (-prof.params[0],) + prof.params[1:])
        R, r = u.grid.cell_bounds[-1], u.grid.nodes
        plus = _tail_correction(kernel, prof, R, r)
        assert np.all(plus != 0)
        assert np.array_equal(_tail_correction(kernel, neg, R, r), -plus)
        out = radial_convolve_3d(kernel, u, tail_profile=prof)
        negated = radial_convolve_3d(kernel, u.copy_with(-u.values), tail_profile=neg)
        assert np.array_equal(negated, -out)

    @pytest.mark.parametrize("name", ["power", "log"])
    def test_every_tail_term_is_corrected(self, name):
        # the rational tail 1.7 (1 + r^2)^-2 ~ 1.7 r^-4 - 3.4 r^-6 gives the sum of the
        # corrections of its two terms, each taken alone as a power profile's tail
        kernel, u, prof = self.case(name)
        R, r = u.grid.cell_bounds[-1], u.grid.nodes
        lead, second = RadialProfile("power", (1.7, -4.0)), RadialProfile("power", (-3.4, -6.0))
        whole = _tail_correction(kernel, prof, R, r)
        parts = _tail_correction(kernel, lead, R, r) + _tail_correction(kernel, second, R, r)
        assert np.allclose(whole, parts, rtol=1e-14, atol=0.0)
        assert not np.allclose(whole, _tail_correction(kernel, lead, R, r), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r_max", [1e2, 1e3, 1e4])
    def test_diverging_tail_raises(self, r_max):
        # q = 1/2 and u ~ s^-1.5: the leading tail term (s u) s^(q-1) ~ s^-1 has
        # no finite integral beyond R, so any value returned would depend on r_max
        g = make_radial_grid(3, r_max, 600, r_min=1e-4)
        prof = RadialProfile("power", (1.0, -1.5))
        with pytest.raises(NotInSpaceError, match="tail diverges"):
            radial_convolve_3d(RadialKernel3D(prof), sample_profile(prof, g), tail_profile=prof)

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.75, 1.0])
    def test_sharp_example_tails_converge(self, delta):
        # the example's kernels (|x|^-t, t in {2 - 2 delta, 2 - delta}, Coulomb at
        # delta = 1) against psi's tail model: every term decays like s^(-2-2 delta) or faster
        ex = sharp_example_potential(delta, 3)
        g = make_radial_grid(3, 800.0, 120, r_min=1e-4)
        psi = ex.psi_profile if delta == 1.0 else tabulate_sharp_transform(g.nodes, delta)
        kernels = OperatorPlan(ex.hamiltonian, g)._kernels
        assert kernels
        for kernel in kernels:
            expos = [1.0 + pu + pk for _, pk in kernel.tail_series() for _, pu in psi.tail_terms()]
            assert max(expos) <= -2.0 - 2.0 * delta + 1e-12
            corr = _tail_correction(kernel, psi, g.cell_bounds[-1], g.nodes)
            assert np.all(np.isfinite(corr)) and np.any(corr != 0)

    def test_needs_3d_radial_grid(self, grid_1d):
        kernel = RadialKernel3D(fourier_transform(PotentialTerm("coulomb"), 3))
        with pytest.raises(DimensionMismatchError):
            radial_convolve_3d(kernel, FreqFunction(grid_1d, np.ones(grid_1d.shape)))


class TestTailTerms:
    @pytest.mark.parametrize("profile", [
        RadialProfile("power", (-1.3, -2.5)),
        RadialProfile("rational_bracket", (-4.0, 2.0, 1.5)),
        tabulated_profile([0.5, 1.0, 2.0], [1.0, 0.5, 0.1], tail_model=((-0.7, -4.0), (0.3, -5.0))),
    ], ids=["power", "rational_bracket", "tabulated"])
    def test_signed_tail_matches_the_profile_at_large_r(self, profile):
        terms = profile.tail_terms()
        r = np.array([1e1, 1e2, 1e3])
        model = sum(C * r ** p for C, p in terms)
        err = np.abs(profile(r) / model - 1.0)
        assert np.all(np.diff(err) <= 0) and err[-1] <= 1e-9
        C, p = terms[0]
        assert np.all(np.abs(profile(r) / (C * r ** p) - 1.0) <= 1.0 / r)

    def test_second_term_of_rational_bracket_improves_the_order(self):
        # leading term alone: relative error ~ r^-2; both terms: ~ r^-4
        profile = RadialProfile("rational_bracket", (-4.0, 2.0, 1.5))
        (C1, p1), (C2, p2) = profile.tail_terms()
        r = np.array([10.0, 100.0])
        exact = profile(r)
        one = np.abs(C1 * r ** p1 / exact - 1.0)
        two = np.abs((C1 * r ** p1 + C2 * r ** p2) / exact - 1.0)
        assert np.all(two < one)
        assert one[0] / one[1] == pytest.approx(1e2, rel=0.05)
        assert two[0] / two[1] == pytest.approx(1e4, rel=0.05)

    @pytest.mark.parametrize("profile, expected", [
        (RadialProfile("gaussian", (1.0, 2.0)), ()),
        (RadialProfile("log_kernel", (-2.0,)), None),
        (tabulated_profile([0.5, 1.0], [1.0, 0.5]), None),
    ], ids=["gaussian", "log_kernel", "tabulated_without_model"])
    def test_negligible_and_unknown_tails(self, profile, expected):
        assert profile.tail_terms() == expected


class TestTabulatedProfileChecks:
    @pytest.mark.parametrize("nodes", [
        [3.0, 1.0, 2.0], [1.0, 1.0, 2.0], [0.5, math.nan, 2.0], [0.5, 1.0, math.inf],
        [-0.5, 1.0, 2.0], [[0.5, 1.0, 2.0]], [], 1.0,
    ], ids=["unsorted", "repeated", "nan", "inf", "negative", "2d", "empty", "scalar"])
    def test_bad_nodes_rejected(self, nodes):
        values = np.ones(np.size(nodes))
        for build in (lambda: tabulated_profile(nodes, values),
                      lambda: RadialProfile("tabulated", table_nodes=nodes, table_values=values)):
            with pytest.raises(InvalidArgumentError, match="table nodes"):
                build()

    @pytest.mark.parametrize("nodes", [[[1.0], [2.0, 3.0]], ["a", "b"]], ids=["ragged", "strings"])
    def test_ragged_or_non_numeric_nodes_rejected(self, nodes):
        with pytest.raises(InvalidArgumentError, match="table nodes"):
            tabulated_profile(nodes, [1, 2])

    @pytest.mark.parametrize("values", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0],
                                        [1.0, -math.inf, 3.0], [[1.0, 2.0, 3.0]], None,
                                        [1.0, 2.0 + 1e-3j, 3.0], [[1.0], [2.0, 3.0], [4.0]],
                                        ["a", "b", "c"]],
                             ids=["short", "long", "nan", "inf", "2d", "missing", "complex",
                                  "ragged", "strings"])
    def test_bad_values_rejected(self, values):
        for build in (lambda: tabulated_profile([1.0, 2.0, 3.0], values),
                      lambda: RadialProfile("tabulated", table_nodes=[1.0, 2.0, 3.0],
                                            table_values=values)):
            with pytest.raises(InvalidArgumentError, match="table values"):
                build()

    @pytest.mark.parametrize("tail", [((math.nan, -4.0),), ((1.0, -4.0), (1.0, math.inf))])
    def test_non_finite_tail_term_rejected(self, tail):
        with pytest.raises(InvalidArgumentError, match="tail_model"):
            tabulated_profile([1.0, 2.0, 3.0], [3.0, 2.0, 1.0], tail_model=tail)

    def test_accepted_table_interpolates_between_its_nodes(self):
        # r + 1 tabulated; on the same table with nodes [3, 1, 2] np.interp would read 4.0
        prof = tabulated_profile([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert prof(1.5) == 2.5
        assert prof.table_nodes.dtype == prof.table_values.dtype == np.float64


class TestSerialization:
    def test_radial_grid_needs_cell_bounds(self):
        g = make_radial_grid(3, 5.0, 60)
        # nodes and weights are derived from the bounds, never given
        with pytest.raises(TypeError):
            FreqGrid(dim=3, kind="radial", nodes=g.nodes, weights=g.weights,
                     cell_bounds=g.cell_bounds)
        for bad in (None, [], [1.0], [[0.0, 1.0]], [-1e-3, 1.0], [0.0, 2.0, 1.0],
                    [0.0, 1.0, 1.0], [0.0, math.nan], [0.0, math.inf]):
            with pytest.raises(InvalidArgumentError, match="cell_bounds"):
                FreqGrid(dim=3, kind="radial", cell_bounds=bad)
        # the grid keeps a read-only copy: a later write to the caller's array moves no cell
        bounds = g.cell_bounds.copy()
        h = FreqGrid(dim=3, kind="radial", cell_bounds=bounds)
        bounds[5] = 0.0
        for name in ("cell_bounds", "nodes", "weights"):
            assert np.array_equal(getattr(h, name), getattr(g, name))
            with pytest.raises(ValueError):
                getattr(h, name)[0] = 1.0

    def test_values_shape_checked(self, grid_1d):
        from flbarron.errors import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            FreqFunction(grid_1d, np.zeros(7))


def test_omega_d_values():
    assert omega_d(1) == pytest.approx(2.0, rel=1e-15)
    assert omega_d(2) == pytest.approx(2 * math.pi, rel=1e-15)
    assert omega_d(3) == pytest.approx(4 * math.pi, rel=1e-15)
