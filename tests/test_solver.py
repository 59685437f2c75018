import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import grid as G
from flbarron import solver as SV
from flbarron.bounds import big_C_V, mu_tilde
from flbarron.errors import (
    InvalidArgumentError,
    NoContractionError,
    NonFiniteError,
    SingularSystemError,
    UnsupportedScaleError,
)
from flbarron.grid import FreqFunction, make_radial_grid, make_tensor_grid, sample_profile
from flbarron.operators import apply_R, project_high
from flbarron.potentials import (
    HamiltonianSpec,
    PotentialSpec,
    PotentialTerm,
    sharp_example_potential,
)
from flbarron.spaces import SpaceIndex, fl_norm

from conftest import PLAN_CASES, plan_case, reference_R


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
        from flbarron.operators import apply_h0_inverse

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
        u, rep = SV.solve_neumann(ham, 1.0, FreqFunction(grid, np.exp(-math.pi * r * r)),
                                  alpha=1.5, beta=0.5)
        assert rep.iterations > 2
        assert sorted(calls) == ["gaussian", "power"]
        calls.clear()
        SV.assemble_dense(ham, 1.0, grid)
        assert sorted(calls) == ["gaussian", "power"]

    COUNTS = {"gauss1d_additive": 17, "invpow1d": 17, "pair2d": 7, "shifted1d": 17,
              "coulomb3d": 3}

    @pytest.mark.parametrize("case", PLAN_CASES)
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0))
    @settings(max_examples=3, deadline=None)
    def test_assemble_dense_matches_reference_columns(self, case, coeff, mass, rho):
        spec, grid = plan_case(case, coeff, mass, self.COUNTS[case])
        A = SV.assemble_dense(spec, rho, grid)
        M = grid.size
        ref = np.eye(M, dtype=A.dtype)
        for m in range(M):
            e = np.zeros(M, dtype=A.dtype)
            e[m] = 1.0
            col = reference_R(spec, FreqFunction(grid, e.reshape(grid.shape)), rho).ravel()
            ref[:, m] += col if np.iscomplexobj(ref) else col.real
        assert np.array_equal(A, ref)


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
        # condition number grows as the coupling approaches the singular value
        conds = []
        for frac in (0.5, 0.9, 0.99):
            ham_f = HamiltonianSpec(PotentialSpec(1, 1, additive=PotentialTerm(
                "gaussian", {"kappa": frac * kappa_star})), (1.0,))
            Af = np.eye(M) + frac * A / 1.0 if False else None
            conds.append(np.linalg.cond(np.eye(M) + frac * A))
        assert conds[0] < conds[1] < conds[2]


class TestBootstrap:
    def test_band_limited_free_case_is_trivial(self, free_ham_1d, grid_1d):
        # psi supported below K and V = 0: every series term vanishes
        r = grid_1d.radius_mesh()
        psi = FreqFunction(grid_1d, np.where(r <= 1.0, 1.0, 0.0))
        rep = SV.bootstrap_series(free_ham_1d, "eigen", psi, s=0.0, alpha=math.inf,
                                  beta=0.25, energy=0.0, C=0.0)
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
        grid = make_tensor_grid(1, 8.0, SV.MAX_DENSE_SAMPLES + 1)
        f = FreqFunction(grid, np.exp(-math.pi * grid.radius_mesh() ** 2))
        with pytest.raises(UnsupportedScaleError):
            SV.bootstrap_series(gaussian_ham_1d, "solve", f, s=0.0, alpha=math.inf,
                                beta=0.0, energy=1.0)

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
        g = make_radial_grid(3, 2000.0, 240, "log-uniform", r_min=1e-4)
        psi = sample_profile(ex.psi_profile, g)
        bad = SV.eigen_residual(ex.hamiltonian, psi, 0.0, tail_profile=ex.psi_profile)
        good = SV.eigen_residual(ex.hamiltonian, psi, -0.5, tail_profile=ex.psi_profile)
        assert bad > 0.1
        assert good < 1e-4

    def test_zero_function_degenerate(self, free_ham_1d, grid_1d):
        psi = FreqFunction(grid_1d, np.zeros(grid_1d.shape))
        assert SV.eigen_residual(free_ham_1d, psi, 0.0) == 0.0


class TestTransformMachinery:
    def test_delta_one_matches_closed_form(self):
        for rho in (0.0, 0.5, 3.0):
            num = SV.stretched_exp_transform(rho, 1.0, 3)
            assert num == pytest.approx(float(SV.closed_form_sharp_transform(rho, 3)),
                                        rel=1e-9)

    def test_n2_closed_form(self):
        # n = 2, delta = 1: 2 pi (1 + 4 pi^2 rho^2)^(-3/2)
        for rho in (0.3, 1.5):
            num = SV.stretched_exp_transform(rho, 1.0, 2)
            ref = 2 * math.pi * (1 + 4 * math.pi ** 2 * rho ** 2) ** -1.5
            assert num == pytest.approx(ref, rel=1e-8)

    def test_c1_value_hydrogen(self):
        assert abs(SV.c1_constant(3, 1.0)) == pytest.approx(1 / (2 * math.pi ** 3),
                                                            rel=1e-14)

    def test_tabulated_profile_consistency(self):
        nodes = np.geomspace(0.01, 300.0, 200)
        prof = SV.tabulate_sharp_transform(nodes, 0.75, 3)
        # quadrature region: table holds the direct quadrature values
        k = np.searchsorted(nodes, 50.0)
        direct = SV.stretched_exp_transform(float(nodes[k]), 0.75, 3)
        assert prof(nodes[k:k + 1])[0] == pytest.approx(direct, rel=1e-10)
        # model region: within the fitted two-term model's own accuracy
        direct_far = SV.stretched_exp_transform(float(nodes[-1]), 0.75, 3)
        assert prof(nodes[-1:])[0] == pytest.approx(direct_far, rel=1e-2)


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
        rep = SV.sharpness_experiment(1.0, 3, gammas=gammas, compute_residual=False)
        psi = sharp_example_potential(1.0, 3).psi_profile
        assert rep.blowup_norms == tuple(SV.high_band_barron_norm(psi, g, 3) for g in gammas)
        assert "blowup_norms" not in rep.to_json_dict()

    def test_small_delta_smoke(self):
        rep = SV.sharpness_experiment(0.75, 3, gammas=(0.6, 0.7), residual_cells=90)
        assert rep.decay_exponent == pytest.approx(-(0.75 + 3), abs=0.1)
        assert rep.tail_amplitude == pytest.approx(rep.tail_amplitude_ref, rel=0.05)
        assert rep.eigenvalue == 0.0
