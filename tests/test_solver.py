import dataclasses
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import grid as G
from flbarron import solver as SV
from flbarron.bounds import big_C_V, mu_tilde
from flbarron.errors import (
    ContractionViolationError,
    DimensionMismatchError,
    InvalidArgumentError,
    NoContractionError,
    NonFiniteError,
    NotInSpaceError,
    SingularSystemError,
    UnsupportedKindError,
    UnsupportedScaleError,
)
from flbarron.grid import FreqFunction, make_radial_grid, make_tensor_grid, sample_profile
from flbarron.operators import (
    MAX_DENSE_SAMPLES,
    OperatorPlan,
    apply_h0_inverse,
    apply_R,
    project_high,
)
from flbarron.potentials import (
    HamiltonianSpec,
    PotentialSpec,
    PotentialTerm,
    sharp_example_potential,
)
from flbarron.spaces import SpaceIndex, fl_norm

from conftest import (
    PLAN_CASES,
    plan_case,
    quad_sharp_transform,
    random_complex,
    reference_direct_V,
    reference_R,
    reference_symbol,
)
from test_acceptance import _regression_specs

CRITERION_7 = _regression_specs()


class TestSolveNeumann:
    def test_free_single_step(self, free_ham_1d, gauss_rhs):
        u, rep = SV.solve_neumann(free_ham_1d, 1.0, gauss_rhs)
        xi = gauss_rhs.grid.axis
        expected = np.asarray(gauss_rhs.values) / (2 * math.pi ** 2 * xi ** 2 + 1)
        assert np.allclose(u.values, expected, rtol=1e-14)
        assert rep.iterations == 1
        assert rep.converged

    def test_q_equals_mu_tilde_times_C(self, gaussian_ham_1d, gauss_rhs):
        u, rep = SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs)
        C = big_C_V(gaussian_ham_1d.potential, 0.0, math.inf, 0.0)
        assert rep.certificate["q"] == mu_tilde((1.0,), 1.0) * C

    def test_agrees_with_direct(self, gaussian_ham_1d, gauss_rhs):
        u, rep = SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs, tol=1e-12)
        ud = SV.solve_direct(gaussian_ham_1d, 1.0, gauss_rhs)
        assert SV.oracle_error(u, ud) <= 1e-10

    def test_iteration_count_bound(self, gaussian_ham_1d, gauss_rhs):
        tol = 1e-10
        u, rep = SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs, tol=tol)
        q = rep.certificate["q"]
        first = rep.residual_history[0]
        budget = math.ceil(math.log(tol / first) / math.log(q)) + 1
        assert rep.iterations <= budget

    def test_fixed_point_stationary(self, gaussian_ham_1d, gauss_rhs):
        tol = 1e-11
        u, rep = SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs, tol=tol)
        b = apply_h0_inverse(gauss_rhs, gaussian_ham_1d, 1.0)
        once_more = b.copy_with(np.asarray(b.values)
                                - np.asarray(apply_R(u, 1.0, gaussian_ham_1d).values))
        delta = fl_norm(u.copy_with(once_more.values - np.asarray(u.values)),
                        SpaceIndex(0, 1))
        assert delta <= tol

    def test_no_contraction_raises(self, gauss_rhs):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 30.0}))
        ham = HamiltonianSpec(pot, (1.0,))
        with pytest.raises(NoContractionError) as exc:
            SV.solve_neumann(ham, 1.0, gauss_rhs)
        assert exc.value.q >= 1.0

    def test_aposteriori_bounds_true_error(self, gaussian_ham_1d, gauss_rhs):
        u, rep = SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs, tol=1e-6)
        ud = SV.solve_direct(gaussian_ham_1d, 1.0, gauss_rhs)
        true_err = fl_norm(u.copy_with(np.asarray(u.values) - np.asarray(ud.values)),
                           SpaceIndex(0, 1))
        assert true_err <= rep.aposteriori * (1 + 1e-6)

    def test_nan_rho_rejected_before_iterating(self, gaussian_ham_1d, gauss_rhs):
        with pytest.raises(InvalidArgumentError):
            SV.solve_neumann(gaussian_ham_1d, math.nan, gauss_rhs)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
    def test_invalid_tol_rejected_before_iterating(self, gaussian_ham_1d, gauss_rhs, tol):
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs, tol=tol)


    def test_nan_rhs_raises_at_first_update(self, gaussian_ham_1d, gauss_rhs, monkeypatch):
        calls = []
        plain_R = SV.OperatorPlan.R

        def counted_R(self, *args):
            calls.append(1)
            return plain_R(self, *args)

        monkeypatch.setattr(SV.OperatorPlan, "R", counted_R)
        vals = np.array(gauss_rhs.values)
        vals[10] = math.nan
        with pytest.raises(NonFiniteError, match="solver.solve_neumann: update 1 "):
            SV.solve_neumann(gaussian_ham_1d, 1.0, gauss_rhs.copy_with(vals))
        assert len(calls) == 1

    def test_non_shrinking_update_stops_the_iteration(self, monkeypatch):
        # q = 1 - 2e-14 is certified, but the discrete R of this coarse grid has
        # spectral radius 1.0004: the second update grows, which disproves q < 1
        grid = make_tensor_grid(2, 4.0, 9)
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        ham = HamiltonianSpec(PotentialSpec(2, 1, additive=PotentialTerm("gaussian")), (1.0,))
        calls = []
        plain_R = SV.OperatorPlan.R

        def counted_R(self, *args):
            calls.append(1)
            return plain_R(self, *args)

        monkeypatch.setattr(SV.OperatorPlan, "R", counted_R)
        with pytest.raises(ContractionViolationError,
                           match=r"update 2 did not shrink \(ratio 1\.0007\d* >= 1, "
                                 r"certified q = 0\.99999999999\d*\)"):
            SV.solve_neumann(ham, 1.0, f)
        assert len(calls) <= 3


class TestKernelReuse:
    """One (spec, grid) plan samples each potential term's kernel once."""

    def test_one_kernel_sample_per_term(self, monkeypatch):
        calls = []
        sample = G.sample_kernel_on_lattice

        def counting(*args, **kwargs):
            calls.append(args[0].kind)
            return sample(*args, **kwargs)

        monkeypatch.setattr(G, "sample_kernel_on_lattice", counting)
        pot = PotentialSpec(
            1, 2, one_particle=[(1, PotentialTerm("gaussian", {"kappa": 0.1}))],
            pairwise=[(1, 2, PotentialTerm("inverse_power", {"t": 0.5}, coeff=0.05))])
        ham = HamiltonianSpec(pot, (1.0, 2.0))
        grid = make_tensor_grid(2, 6.0, 15)
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        u, rep = SV.solve_neumann(ham, 1.0, f, alpha=1.5, beta=0.5)
        assert rep.iterations > 2
        assert sorted(calls) == ["gaussian", "power"]
        # the solve-mode series factors the dense I + R of its own plan
        for run in (lambda: SV.assemble_dense(ham, 1.0, grid),
                    lambda: SV.solve_direct(ham, 1.0, f),
                    lambda: SV.bootstrap_series(ham, "solve", f, s=0.0, alpha=1.5,
                                                beta=0.5, energy=1.0),
                    lambda: SV.eigen_residual(ham, f, 0.5)):
            calls.clear()
            run()
            assert sorted(calls) == ["gaussian", "power"]

    COUNTS = {"gauss1d_additive": 17, "invpow1d": 17, "pair2d": 7, "mixed2d": 7,
              "shifted1d": 17, "coulomb3d": 3}

    @staticmethod
    def columns(spec, grid, rho, dtype, apply):
        """I + R built column by column, R applied to each unit vector."""
        M = grid.size
        ref = np.eye(M, dtype=dtype)
        for m in range(M):
            e = np.zeros(M, dtype=dtype)
            e[m] = 1.0
            col = apply(spec, FreqFunction(grid, e.reshape(grid.shape)), rho).ravel()
            ref[:, m] += col if np.iscomplexobj(ref) else col.real
        return ref

    @pytest.mark.parametrize("case", PLAN_CASES)
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0))
    @settings(max_examples=3, deadline=None)
    def test_assemble_dense_matches_reference_columns(self, case, coeff, mass, rho):
        # the FFT convolution rounds where the gathered kernel samples do not
        spec, grid = plan_case(case, coeff, mass, self.COUNTS[case])
        A = SV.assemble_dense(spec, rho, grid)
        ref = self.columns(spec, grid, rho, A.dtype, reference_R)
        I = np.eye(grid.size)
        assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref - I))

    @pytest.mark.parametrize("case", PLAN_CASES)
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0))
    @settings(max_examples=3, deadline=None)
    def test_assemble_dense_equals_direct_sum_columns(self, case, coeff, mass, rho):
        # a unit vector makes every product of the direct sum exact
        spec, grid = plan_case(case, coeff, mass, self.COUNTS[case])
        A = SV.assemble_dense(spec, rho, grid)
        direct_R = lambda spec, u, rho: (reference_direct_V(spec.potential, u)
                                         / (reference_symbol(spec, u.grid) - 1.0 + rho))
        ref = self.columns(spec, grid, rho, A.dtype, direct_R)
        assert A.dtype == ref.dtype
        assert np.array_equal(A, ref)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("case", PLAN_CASES)
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=3, deadline=None)
    def test_dense_matrix_applies_I_plus_R(self, case, complex_input, coeff, mass, rho, seed):
        spec, grid = plan_case(case, coeff, mass, self.COUNTS[case])
        u = random_complex(grid, seed).values
        if not complex_input:
            u = u.real
        A = SV.assemble_dense(spec, rho, grid)
        got = A @ u.ravel()
        ref = (u + OperatorPlan(spec, grid).R(u, rho)).ravel()
        # |(R u)_a| <= max|R| * sum|u|
        bound = np.max(np.abs(A - np.eye(grid.size))) * np.sum(np.abs(u))
        assert np.max(np.abs(got - ref)) <= 1e-13 * bound

    def test_dense_oracle_needs_a_tensor_grid(self):
        pot = PotentialSpec(3, 1, additive=PotentialTerm("gaussian"))
        with pytest.raises(DimensionMismatchError, match="tensor grid"):
            SV.assemble_dense(HamiltonianSpec(pot, (1.0,)), 1.0, make_radial_grid(3, 6.0, 30))


class TestSolveDirect:
    def test_free_matches_division(self, free_ham_1d, gauss_rhs):
        u = SV.solve_direct(free_ham_1d, 1.0, gauss_rhs)
        xi = gauss_rhs.grid.axis
        expected = np.asarray(gauss_rhs.values) / (2 * math.pi ** 2 * xi ** 2 + 1)
        assert np.allclose(u.values, expected, rtol=1e-12)

    def test_singular_coupling_detected(self):
        # place a negative coupling exactly at -1/lambda_max(R): I + R singular
        grid = make_tensor_grid(1, 6.0, 41)
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 1.0}))
        ham = HamiltonianSpec(pot, (1.0,))
        M = grid.size
        A = np.zeros((M, M))
        basis = FreqFunction(grid, np.zeros(grid.shape))
        for m in range(M):
            e = np.zeros(M)
            e[m] = 1.0
            basis.values = e.reshape(grid.shape)
            A[:, m] = np.real(np.asarray(apply_R(basis, 1.0, ham).values).ravel())
        eigs = np.linalg.eigvals(A)
        lam = eigs[np.argmax(np.abs(eigs))].real
        kappa_star = -1.0 / lam
        bad = HamiltonianSpec(PotentialSpec(1, 1, additive=PotentialTerm(
            "gaussian", {"kappa": kappa_star})), (1.0,))
        with pytest.raises(SingularSystemError):
            SV.solve_direct(bad, 1.0, f)
        # below kappa* the direct solve succeeds (its condition estimate stays
        # below 1e12) and solves I + frac R, whose condition number grows
        # as the coupling approaches the singular value
        b = np.asarray(f.values).ravel() / (2 * math.pi ** 2 * grid.axis ** 2 + 1)
        conds = []
        for frac in (0.5, 0.9, 0.99):
            ham_f = HamiltonianSpec(PotentialSpec(1, 1, additive=PotentialTerm(
                "gaussian", {"kappa": frac * kappa_star})), (1.0,))
            A_f = np.eye(M) + frac * kappa_star * A  # R is linear in kappa
            u = np.asarray(SV.solve_direct(ham_f, 1.0, f).values).ravel()
            assert np.max(np.abs(A_f @ u - b)) <= 1e-10 * np.max(np.abs(b))
            conds.append(np.linalg.cond(A_f))
        assert conds[0] < conds[1] < conds[2] < 1e12

    def test_singular_coupling_detected_above_1024_samples(self):
        # the same kappa* construction on a 33 x 33 grid (M = 1089): the
        # condition estimate now runs at every size, not only for M <= 1024
        grid = make_tensor_grid(2, 6.0, 33)
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        unit = HamiltonianSpec(PotentialSpec(2, 1, additive=PotentialTerm("gaussian")), (1.0,))
        eigs = np.linalg.eigvals(OperatorPlan(unit, grid).matrix(1.0)) - 1.0  # those of R
        kappa_star = -1.0 / eigs[np.argmax(np.abs(eigs))].real
        bad = HamiltonianSpec(PotentialSpec(2, 1, additive=PotentialTerm(
            "gaussian", {"kappa": kappa_star})), (1.0,))
        with pytest.raises(SingularSystemError, match="numerically singular"):
            SV.solve_direct(bad, 1.0, f)

    @pytest.mark.parametrize("case", CRITERION_7, ids=[c[0] for c in CRITERION_7])
    def test_matches_a_dense_lu_on_the_criterion_7_grids(self, case):
        # "shifted gauss" has a complex kernel, so a complex I + R
        _, ham, grid, _, _ = case
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        plan = OperatorPlan(ham, grid)
        A = plan.matrix(1.0)
        ref = np.linalg.solve(A, plan.h0_inverse(f.values, 1.0).ravel())
        u = SV.solve_direct(ham, 1.0, f, matrix=A)
        assert u.values.dtype == ref.dtype
        assert np.max(np.abs(u.values.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_complex_rhs_of_a_real_system_keeps_its_imaginary_part(self, gaussian_ham_1d):
        # M = 1025 > MAX_ITER + 1, so a matrix-sized allocation stands out
        # above the Krylov basis: the solve holds no complex copy of the real
        # I + R, nor any other M x M array
        grid = make_tensor_grid(1, 8.0, 1025)
        f = random_complex(grid, 5)
        A = SV.assemble_dense(gaussian_ham_1d, 1.0, grid)
        assert not np.iscomplexobj(A)
        b = np.asarray(apply_h0_inverse(f, gaussian_ham_1d, 1.0).values).ravel()
        ref = np.linalg.solve(A, b)
        tracemalloc.start()
        try:
            u = SV.solve_direct(gaussian_ham_1d, 1.0, f, matrix=A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes
        assert u.values.dtype == np.complex128
        assert np.max(np.abs(u.values.imag)) >= 0.1 * np.max(np.abs(ref))
        assert np.max(np.abs(u.values.ravel() - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_non_finite_right_hand_side_rejected(self, gaussian_ham_1d, gauss_rhs):
        values = np.array(gauss_rhs.values)
        values[3] = np.nan
        with pytest.raises(NonFiniteError, match="solver.solve_direct: GMRES step 1"):
            SV.solve_direct(gaussian_ham_1d, 1.0, gauss_rhs.copy_with(values))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_matrix_is_not_overwritten(self, gaussian_ham_1d, gauss_rhs, order):
        # a Fortran-ordered matrix gives the same bits as a C-ordered one
        A = np.asarray(SV.assemble_dense(gaussian_ham_1d, 1.0, gauss_rhs.grid), order=order)
        kept = A.copy()
        u = SV.solve_direct(gaussian_ham_1d, 1.0, gauss_rhs, matrix=A)
        assert np.array_equal(A, kept)
        assert np.array_equal(u.values, SV.solve_direct(gaussian_ham_1d, 1.0, gauss_rhs).values)


class TestBootstrap:
    def test_band_limited_free_case_is_trivial(self, free_ham_1d, grid_1d):
        # psi supported below K and V = 0: every series term vanishes
        r = grid_1d.radius_mesh()
        psi = FreqFunction(grid_1d, np.where(r <= 1.0, 1.0, 0.0))
        rep = SV.bootstrap_series(free_ham_1d, "eigen", psi, s=0.0, alpha=math.inf,
                                  beta=0.25, energy=0.0)
        assert rep.final_norms["series_B|s|"] == 0.0
        assert rep.final_norms["reconstruction_error"] == 0.0

    def test_solve_mode_reconstructs_high_part(self, gauss_rhs):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 30.0}))
        ham = HamiltonianSpec(pot, (1.0,))
        rep = SV.bootstrap_series(ham, "solve", gauss_rhs, s=0.0, alpha=math.inf,
                                  beta=0.0, energy=1.0)
        assert rep.certificate["K"] > 0
        assert rep.extras["max_ratio"] <= 0.52
        u_star = SV.solve_direct(ham, 1.0, gauss_rhs)
        high = fl_norm(project_high(u_star, rep.certificate["K"]), SpaceIndex(0, 1))
        assert rep.final_norms["reconstruction_error"] <= 1e-6 * max(high, 1e-12)

    def test_solve_mode_above_dense_cap_rejected(self, gaussian_ham_1d):
        grid = make_tensor_grid(1, 8.0, MAX_DENSE_SAMPLES + 1)
        f = FreqFunction(grid, np.exp(-math.pi * grid.radius_mesh() ** 2))
        with pytest.raises(UnsupportedScaleError):
            SV.bootstrap_series(gaussian_ham_1d, "solve", f, s=0.0, alpha=math.inf,
                                beta=0.0, energy=1.0)

    @pytest.mark.parametrize("mode", ["eigen", "solve"])
    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, gauss_rhs, mode, energy):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 30.0}))
        with pytest.raises(InvalidArgumentError, match="energy must be finite"):
            SV.bootstrap_series(HamiltonianSpec(pot, (1.0,)), mode, gauss_rhs, s=0.0,
                                alpha=math.inf, beta=0.0, energy=energy)

    def test_error_ratios_geometric(self, gauss_rhs):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 30.0}))
        ham = HamiltonianSpec(pot, (1.0,))
        rep = SV.bootstrap_series(ham, "solve", gauss_rhs, s=0.0, alpha=math.inf,
                                  beta=0.0, energy=1.0)
        errs = [e for e in rep.residual_history if e > 1e-13]
        for a, b in zip(errs[:-1], errs[1:]):
            assert b <= 0.52 * a or b <= 1e-12


class TestEigenResidual:
    def test_hydrogen_residual_small_and_refining(self):
        r1 = SV.sharp_example_residual(1.0, ncells=120)
        r2 = SV.sharp_example_residual(1.0, ncells=240)
        assert r1 < 1e-4
        assert r1 / r2 >= 4.0

    def test_wrong_eigenvalue_detected(self):
        ex = sharp_example_potential(1.0, 3)
        g = make_radial_grid(3, 2000.0, 240, r_min=1e-4)
        psi = sample_profile(ex.psi_profile, g)
        bad = SV.eigen_residual(ex.hamiltonian, psi, 0.0, tail_profile=ex.psi_profile)
        good = SV.eigen_residual(ex.hamiltonian, psi, -0.5, tail_profile=ex.psi_profile)
        assert bad > 0.1
        assert good < 1e-4

    def test_zero_function_degenerate(self, free_ham_1d, grid_1d):
        psi = FreqFunction(grid_1d, np.zeros(grid_1d.shape))
        assert SV.eigen_residual(free_ham_1d, psi, 0.0) == 0.0

    @pytest.mark.parametrize("case", ["radial_N2", "tensor_1d_for_two_particles"])
    def test_zero_samples_on_a_grid_that_does_not_fit_raise(self, case, grid_1d):
        # zero samples take the general path, so the plan's grid check applies to them
        if case == "radial_N2":
            spec, g = PotentialSpec(3, 2), make_radial_grid(3, 10.0, 30)
        else:
            spec, g = PotentialSpec(1, 2), grid_1d
        ham = HamiltonianSpec(spec, (1.0, 1.0))
        with pytest.raises(DimensionMismatchError):
            SV.eigen_residual(ham, FreqFunction(g, np.zeros(g.shape)), 0.0)

    def test_closed_form_is_read_from_the_example_profile(self, monkeypatch):
        # without its closed-form profile, delta = 1 takes the tabulated path
        delta, ncells = 1.0, 120
        ex = sharp_example_potential(delta, 3)
        bare = dataclasses.replace(ex, psi_profile=None)
        monkeypatch.setattr(SV, "sharp_example_potential", lambda d, n: bare)
        g = make_radial_grid(3, 800.0, ncells, r_min=1e-4)
        prof = SV.tabulate_sharp_transform(g.nodes, delta)
        expected = SV.eigen_residual(ex.hamiltonian, sample_profile(prof, g), ex.eigenvalue,
                                     tail_profile=prof, r_eval_max=40.0)
        assert SV.sharp_example_residual(delta, ncells=ncells) == expected


class TestTransformMachinery:
    def test_delta_one_matches_closed_form(self):
        closed = sharp_example_potential(1.0, 3).psi_profile
        for rho in (0.0, 0.5, 3.0):
            num = SV.stretched_exp_transform(rho, 1.0, 3)
            assert num == pytest.approx(float(closed(rho)), rel=1e-9)

    def test_c1_value_hydrogen(self):
        assert abs(SV.c1_constant(3, 1.0)) == pytest.approx(1 / (2 * math.pi ** 3),
                                                            rel=1e-14)

    @pytest.mark.parametrize("delta", [0.5, 0.75, 0.9, 1.0])
    def test_c1_is_the_positive_k1_series_coefficient(self, delta):
        # k = 1 term of sum_k (-1)^k / k! F[|x|^(k delta)]
        k1 = -math.pi ** (-delta - 1.5) * math.gamma((delta + 3) / 2) / math.gamma(-delta / 2)
        assert k1 > 0
        assert SV.c1_constant(3, delta) == pytest.approx(k1, rel=1e-14)

    @pytest.mark.parametrize("delta", [0.5, 0.75, 1.0])
    def test_c1_sign_matches_tail_sign(self, delta):
        rep = SV.sharpness_experiment(delta, 3, gammas=(delta - 0.1, delta - 0.05),
                                      residual_cells=120)
        assert np.sign(SV.c1_constant(3, delta)) == rep.tail_sign == 1

    @pytest.mark.parametrize("rho, delta", [(math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5),
                                            (1.0, math.nan), (1.0, 2.0)])
    def test_invalid_input_rejected(self, rho, delta):
        with pytest.raises(InvalidArgumentError):
            SV.stretched_exp_transform(rho, delta)
        with pytest.raises(InvalidArgumentError):
            SV.sharp_transform_radii([0.5, rho], delta)

    def test_quadrature_warning_raises(self):
        # QUADPACK reports round-off here and returns 3.8e-10 for 5.66e-3: the
        # test reference raises rather than return it, and the rules need no reference
        from scipy.integrate import IntegrationWarning

        with pytest.raises(IntegrationWarning):
            quad_sharp_transform(1.0, 0.2)
        value = SV.stretched_exp_transform(1.0, 0.2)
        ref = mp_sharp_transform(1.0, 0.2)
        assert abs(value - ref) <= 2e-15 * abs(ref)

    def test_tabulated_profile_consistency(self):
        nodes = np.geomspace(0.01, 300.0, 200)
        prof = SV.tabulate_sharp_transform(nodes, 0.75)
        # below the seam the table holds the transform: QUADPACK's value
        k = np.searchsorted(nodes, 50.0)
        direct = quad_sharp_transform(float(nodes[k]), 0.75)
        assert prof(nodes[k:k + 1])[0] == pytest.approx(direct, rel=1e-10)
        # model region: within the fitted two-term model's own accuracy
        direct_far = quad_sharp_transform(float(nodes[-1]), 0.75)
        assert prof(nodes[-1:])[0] == pytest.approx(direct_far, rel=1e-2)


def mp_sharp_transform(rho: float, delta: float, digits: int = 50) -> float:
    """The n = 3 transform of exp(-|x|^delta) by its series
    sum_{k>=1} (-1)^k / k! pi^(-k delta - 3/2) Gamma((k delta + 3)/2)
    / Gamma(-k delta/2) rho^(-k delta - 3), summed in mpmath with ``digits``
    digits beyond the size of its largest term."""
    def log10_envelope(k, d, r):  # |1/Gamma(-x)| <= Gamma(1+x)/pi
        return (mp.loggamma((k * d + 3) / 2) + mp.loggamma(1 + k * d / 2) - mp.loggamma(k + 1)
                - (k * d + mp.mpf(5) / 2) * mp.log(mp.pi) - (k * d + 3) * mp.log(r)) / mp.log(10)

    with mp.workdps(20):
        logs = [float(log10_envelope(1, mp.mpf(delta), mp.mpf(rho)))]
        while not (len(logs) > 3 and logs[-1] < logs[-2]
                   and logs[-1] < min(logs[0], 0.0) - 2 * digits):
            logs.append(float(log10_envelope(len(logs) + 1, mp.mpf(delta), mp.mpf(rho))))
    with mp.workdps(digits + max(0, int(max(logs))) + 10):
        d, r = mp.mpf(delta), mp.mpf(rho)
        return float(mp.fsum(
            (-1) ** k * mp.rgamma(k + 1) * mp.pi ** (-k * d - mp.mpf(3) / 2)
            * mp.gamma((k * d + 3) / 2) * mp.rgamma(-k * d / 2) * r ** (-k * d - 3)
            for k in range(1, len(logs) + 1)))


class TestSharpTransformRadii:
    # radii on both sides of where the rule in t hands over to the ray rule
    # (near 0.0024, 0.060 and 0.18 for the three deltas), of where the ray
    # rule starts to subtract 1 (1 / 2 pi = 0.16) and up to the end of the
    # decay-fit window at 320
    RADII = (0.08, 0.12, 0.2, 0.3, 1.0, 2.5, 10.0, 50.0, 150.0, 320.0)

    @pytest.mark.parametrize("delta, radii", [(0.5, (0.002, 0.003, 0.03, 0.05) + RADII),
                                              (0.75, (0.03, 0.05) + RADII), (0.9, RADII)])
    def test_matches_mpmath_at_least_as_closely_as_quadrature(self, delta, radii):
        new = SV.sharp_transform_radii(np.array(radii), delta)
        for rho, value in zip(radii, new):
            ref = mp_sharp_transform(rho, delta)
            err_new = abs(value - ref) / abs(ref)
            err_quad = abs(quad_sharp_transform(rho, delta) - ref) / abs(ref)
            # where both are at rounding level the new path may trail by an ulp
            # or two: 1e-15 is about four and a half
            assert err_new <= err_quad + 1e-15, (rho, err_new, err_quad)
            assert err_new <= 1e-14, (rho, err_new)

    @given(radii=st.lists(st.one_of(st.just(0.0), st.floats(1e-4, 400.0)), min_size=1,
                          max_size=30),
           delta=st.sampled_from([0.5, 0.75, 0.9]), cut=st.integers(0, 30),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_blocks_and_order_do_not_change_values(self, radii, delta, cut, seed):
        radii = np.array(radii)
        whole = SV.sharp_transform_radii(radii, delta)
        split = np.concatenate([SV.sharp_transform_radii(radii[:cut], delta),
                                SV.sharp_transform_radii(radii[cut:], delta)])
        perm = np.random.default_rng(seed).permutation(radii.size)
        assert np.array_equal(split, whole)
        assert np.array_equal(SV.sharp_transform_radii(radii[perm], delta), whole[perm])

    def test_delta_one_table_equals_closed_form(self):
        radii = np.concatenate([[0.0], np.geomspace(1e-4, 400.0, 3000)])
        closed = sharp_example_potential(1.0, 3).psi_profile(radii)
        values = SV.sharp_transform_radii(radii, 1.0)
        assert np.max(np.abs(values - closed) / np.abs(closed)) <= 2e-15

    def test_each_radius_takes_the_rule_its_phase_test_names(self, monkeypatch):
        # the rule in t where no panel spans more than 1 radian (rho = 0
        # included), else the ray rule, which subtracts 1 where 2 pi rho >= 1
        taken = {}
        rule_block, ray_block = SV._rule_block, SV._ray_block

        def rule(rho, *table, work):
            taken.update((float(r), "rule") for r in rho)
            return rule_block(rho, *table, work=work)

        def ray(rho, *table, work):
            taken.update((float(r), "ray minus one" if table[-1] else "ray") for r in rho)
            return ray_block(rho, *table, work=work)

        monkeypatch.setattr(SV, "_rule_block", rule)
        monkeypatch.setattr(SV, "_ray_block", ray)
        for delta in (0.2, 0.5, 0.75, 0.9, 1.0):
            max_phase = SV._rule_table(delta)[1]
            radii = np.concatenate([[0.0, 1.0 / max_phase, np.nextafter(1.0 / max_phase, 1.0),
                                     0.5 / math.pi, np.nextafter(0.5 / math.pi, 0.0), 1.0],
                                    np.geomspace(1e-5, 400.0, 60)])
            taken.clear()
            assert np.all(np.isfinite(SV.sharp_transform_radii(radii, delta)))
            assert sorted(taken) == sorted(radii)
            for rho in radii:
                want = ("rule" if rho * max_phase <= 1.0 else
                        "ray minus one" if 2.0 * math.pi * rho >= 1.0 else "ray")
                assert taken[float(rho)] == want, (delta, rho)

    def test_quadrature_only_where_neither_method_counts(self, monkeypatch):
        # one of the two rules counts at every radius, so no radius falls back
        # to a per-radius transform, not even the ones the series and the rule
        # in t both left to quadrature, such as (0.3, 1e-3)
        calls = []
        scalar = SV.stretched_exp_transform

        def counted(rho, delta, n=3):
            calls.append(rho)
            return scalar(rho, delta, n)

        monkeypatch.setattr(SV, "stretched_exp_transform", counted)
        for delta in (0.3, 0.5, 0.75, 0.9, 1.0):
            SV.sharp_transform_radii(np.geomspace(1e-4, 400.0, 200), delta)
        SV.sharp_transform_radii(np.array([0.0, 0.5, 2.0]), 1.0)
        value = SV.sharp_transform_radii(np.array([1e-3]), 0.3)[0]
        assert calls == []
        assert value == scalar(1e-3, 0.3)

    @pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    def test_finite_on_the_whole_domain(self, delta):
        values = SV.sharp_transform_radii(np.concatenate([[0.0], np.geomspace(1e-5, 160.0, 400)]),
                                          delta)
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("delta, rho", [(0.2, 9.3e-5), (0.3, 1e-3), (0.3, 1.4e-4),
                                            (0.4, 0.0143), (0.2, 1.0)])
    def test_matches_mpmath_at_small_delta(self, delta, rho):
        # the first four are radii of the 1800-cell residual grid; QUADPACK
        # reports round-off at (0.2, 1.0), where it returns 3.8e-10 for 5.66e-3
        value = SV.sharp_transform_radii(np.array([rho]), delta)[0]
        ref = mp_sharp_transform(rho, delta)
        assert abs(value - ref) <= 2e-15 * abs(ref)

    @pytest.mark.parametrize("delta", [1.2, 1.5, 1.8, 1.95])
    def test_matches_quadrature_above_delta_one(self, delta):
        # above delta = 1 the rule's integrand t^(3/delta - 1) has a fractional
        # power below t^1 at t = 0, which its panels graded toward 0 resolve
        radii = (0.0, 0.01, 0.3)
        for rho, value in zip(radii, SV.sharp_transform_radii(np.array(radii), delta)):
            ref = quad_sharp_transform(rho, delta)
            assert abs(value - ref) <= 1e-14 * abs(ref), (rho, value, ref)

    @pytest.mark.parametrize("delta", [0.5, 0.75, 0.9])
    def test_zero_radius_is_the_integral(self, delta):
        # F(0) = 4 pi int exp(-r^delta) r^2 dr = 4 pi Gamma(3/delta) / delta
        value = SV.sharp_transform_radii(np.array([0.0]), delta)[0]
        assert value == pytest.approx(4 * math.pi * math.gamma(3 / delta) / delta, rel=1e-14)


class TestEigenCertificateOnHydrogen:
    @pytest.mark.parametrize("gamma", [0.5, 0.9])
    def test_measured_barron_norm_below_certificate(self, gamma):
        from flbarron.bounds import BoundContext, eigen_certificate, inverse_power_C_bound
        from flbarron.spaces import profile_norm_report

        ex = sharp_example_potential(1.0, 3)
        alpha = 2 * 3 / (2 * 1.0 + (2 - 1.0 - gamma))
        ctx = BoundContext(ex.hamiltonian, 0.0, alpha, gamma, ex.eigenvalue)
        M = 1.0  # single |x|^-1 term with |coeff| = (n-1)/2 = 1
        C = inverse_power_C_bound(1.0, 3, gamma, M)
        psi_b0 = profile_norm_report(ex.psi_profile, SpaceIndex(0.0, 1.0), 3).value
        cert = eigen_certificate(ctx, psi_b0, "barron", C=C)
        measured = profile_norm_report(ex.psi_profile, SpaceIndex(gamma, 1.0), 3).value
        assert measured <= cert
        # the L2-based variant also dominates: ||psi||_{L2}^2 by Parseval
        psi_l2 = profile_norm_report(ex.psi_profile, SpaceIndex(0.0, 2.0), 3).value
        cert_l2 = eigen_certificate(ctx, psi_l2, "l2", C=C)
        assert measured <= cert_l2


class TestSharpnessExperiment:
    def test_hydrogen_report(self):
        rep = SV.sharpness_experiment(1.0, 3, residual_cells=120)
        assert rep.transform_check < 1e-6
        assert rep.decay_exponent == pytest.approx(-4.0, abs=0.05)
        assert rep.tail_amplitude == pytest.approx(1 / (2 * math.pi ** 3), rel=0.02)
        assert rep.blowup_slope == pytest.approx(1.0, abs=0.05)
        assert rep.residual < 1e-4

    @pytest.mark.parametrize("gammas", [(0.9, 0.95, 0.99), (0.0, 0.5), (0.5, 0.75)])
    def test_gamma_outside_zero_delta_rejected(self, gammas):
        with pytest.raises(InvalidArgumentError, match=r"\(0, delta\) = \(0, 0.75\)"):
            SV.sharpness_experiment(0.75, 3, gammas=gammas)

    def test_blowup_norms_kept_out_of_json(self):
        gammas = (0.9, 0.95)
        rep = SV.sharpness_experiment(1.0, 3, gammas=gammas, residual_cells=120)
        psi = sharp_example_potential(1.0, 3).psi_profile
        assert rep.blowup_norms == tuple(SV.high_band_barron_norm(psi, g) for g in gammas)
        assert "blowup_norms" not in rep.to_json_dict()

    @pytest.mark.parametrize("profile", [
        G.RadialProfile("log_kernel", (-2.0,)),
        G.tabulated_profile([0.5, 1.0], [1.0, 0.5]),
    ], ids=["log_kernel", "tabulated_without_model"])
    def test_high_band_needs_a_tail_model(self, profile):
        with pytest.raises(UnsupportedKindError, match=f"no tail model for a {profile.kind}"):
            SV.high_band_barron_norm(profile, 0.5)

    @pytest.mark.parametrize("delta, gamma", [(0.75, 0.76), (1.0, 1.0)])
    def test_high_band_outside_the_space_raises(self, delta, gamma):
        # gamma >= delta: the tail's leading term |xi|^(-delta-3) is not integrable
        if delta == 1.0:
            profile = sharp_example_potential(1.0, 3).psi_profile
        else:
            profile = SV.tabulate_sharp_transform(SV.band_table_nodes(TestBlowupTable.FULL),
                                                  delta)
        with pytest.raises(NotInSpaceError, match=f"{profile.kind} profile not in B\\^{gamma}"):
            SV.high_band_barron_norm(profile, gamma)

    def test_small_delta_smoke(self):
        rep = SV.sharpness_experiment(0.75, 3, gammas=(0.6, 0.7), residual_cells=90)
        assert rep.decay_exponent == pytest.approx(-(0.75 + 3), abs=0.1)
        assert rep.tail_amplitude == pytest.approx(rep.tail_amplitude_ref, rel=0.05)
        assert rep.eigenvalue == 0.0


class TestBlowupTable:
    """The blow-up norm reads a tabulated profile only on its band (1, 60),
    so the experiment tabulates only the nodes that bracket the band."""

    FULL = np.geomspace(1e-4, 400.0, 1200)  # the experiment's nodes before slicing

    @pytest.mark.parametrize("delta, gammas", [
        (0.5, (0.35, 0.4, 0.45, 0.5 - 0.1, 0.5 - 0.05)),
        (0.75, (0.6, 0.65, 0.7, 0.75 - 0.1, 0.75 - 0.05))])
    def test_band_slice_changes_no_norm(self, delta, gammas):
        sliced = SV.band_table_nodes(self.FULL)
        assert sliced[0] <= SV._BAND_LO < sliced[1]
        assert sliced[-2] < SV._BAND_R_MAX <= sliced[-1]
        assert (sliced.size, int(np.sum(self.FULL <= SV._SEAM))) == (325, 1127)
        full = SV.tabulate_sharp_transform(self.FULL, delta)
        part = SV.tabulate_sharp_transform(sliced, delta)
        for g in gammas:
            assert SV.high_band_barron_norm(part, g) == SV.high_band_barron_norm(full, g), g

    def test_experiment_tabulates_only_the_band(self, monkeypatch):
        counts = []
        radii = SV.sharp_transform_radii

        def counting(rhos, delta):
            counts.append(np.size(rhos))
            return radii(rhos, delta)

        monkeypatch.setattr(SV, "sharp_transform_radii", counting)
        SV.sharpness_experiment(0.75, gammas=(0.65, 0.7), residual_cells=120)
        residual = make_radial_grid(3, 800.0, 120, r_min=1e-4).nodes
        assert int(np.sum(residual <= SV._SEAM)) == 108
        # residual table, band table, one 16-point seam fit they share, pilot and window fits
        assert sum(counts) == 108 + 325 + 16 + 16 + 24 == 489

    @pytest.mark.parametrize("nodes", [[0.5, 70.0, 2.0, 30.0], [0.5, 2.0, 2.0, 30.0],
                                       [0.5, math.nan, 30.0], [-1.0, 2.0, 30.0]],
                             ids=["unsorted", "repeated", "nan", "negative"])
    def test_bad_nodes_rejected_before_any_transform(self, nodes, monkeypatch):
        calls = []
        monkeypatch.setattr(SV, "sharp_transform_radii", lambda rhos, delta: calls.append(rhos))
        with pytest.raises(InvalidArgumentError, match="table nodes"):
            SV.tabulate_sharp_transform(nodes, 0.75, tail_model=((1.0, -3.75), (0.0, -4.5)))
        assert calls == []

    def test_table_above_the_band_edge_rejected(self):
        prof = SV.tabulate_sharp_transform(self.FULL[self.FULL > 1.0][:40], 0.75)
        with pytest.raises(InvalidArgumentError,
                           match=r"starts at radius 1\.0071\d*, above the band's low edge 1\.0"):
            SV.high_band_barron_norm(prof, 0.6)
