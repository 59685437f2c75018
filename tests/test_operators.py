import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import bounds as B
from flbarron import operators as O
from flbarron.errors import DimensionMismatchError, InvalidArgumentError
from flbarron import solver as SV
from flbarron.grid import FreqFunction, make_radial_grid
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm
from flbarron.spaces import SpaceIndex, fl_norm

from conftest import (
    PLAN_CASES,
    plan_case,
    random_complex,
    reference_symbol,
    reference_V,
)


class TestH0Inverse:
    def test_origin_unchanged_at_rho_one(self, free_ham_1d, grid_1d):
        u = random_complex(grid_1d, 1)
        out = O.apply_h0_inverse(u, free_ham_1d, 1.0)
        mid = (grid_1d.count - 1) // 2
        assert out.values[mid] == pytest.approx(u.values[mid], rel=1e-14)

    def test_symbol_1d(self, free_ham_1d, grid_1d):
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.ones_like(xi))
        out = O.apply_h0_inverse(u, free_ham_1d, 2.5)
        expected = 1.0 / (2 * math.pi ** 2 * xi ** 2 + 2.5)
        assert np.allclose(out.values, expected, rtol=1e-14)

    def test_heavy_mass_gives_bracket_weight(self, grid_1d):
        ham = HamiltonianSpec(PotentialSpec(1, 1), (2 * math.pi ** 2,))
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.ones_like(xi))
        out = O.apply_h0_inverse(u, ham, 1.0)
        assert np.allclose(out.values, 1.0 / (1.0 + xi ** 2), rtol=1e-14)
        ratio = fl_norm(out, SpaceIndex(0, 1)) / fl_norm(u, SpaceIndex(0, 1))
        assert ratio <= B.mu_tilde(ham.masses, 1.0)

    def test_pointwise_damping_for_rho_ge_one(self, free_ham_1d, grid_1d):
        u = random_complex(grid_1d, 5)
        for rho in (1.0, 2.0, 7.0):
            out = O.apply_h0_inverse(u, free_ham_1d, rho)
            assert np.all(np.abs(out.values) <= np.abs(u.values) / max(1.0, rho) + 1e-15)

    def test_rho_must_be_positive(self, free_ham_1d, grid_1d):
        with pytest.raises(InvalidArgumentError):
            O.apply_h0_inverse(random_complex(grid_1d, 0), free_ham_1d, 0.0)

    def test_nan_rho_rejected(self, gaussian_ham_1d, grid_1d):
        u = random_complex(grid_1d, 0)
        plan = O.OperatorPlan(gaussian_ham_1d, grid_1d)
        for apply in (lambda: O.apply_h0_inverse(u, gaussian_ham_1d, math.nan),
                      lambda: plan.h0_inverse(u.values, math.nan),
                      lambda: plan.R(u.values, math.nan)):
            with pytest.raises(InvalidArgumentError):
                apply()


class TestMultiplyV:
    def test_zero_potential(self, grid_1d):
        u = random_complex(grid_1d, 2)
        out = O.apply_multiply_V(u, PotentialSpec(1, 1))
        assert np.all(out.values == 0)

    def test_gaussian_product_closed_form(self, grid_1d):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 1.0}))
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.exp(-math.pi * xi ** 2))
        out = O.apply_multiply_V(u, pot)
        expected = 2 ** -0.5 * np.exp(-math.pi * xi ** 2 / 2)
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_linearity(self, grid_1d):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 1.0}))
        u = random_complex(grid_1d, 3)
        v = random_complex(grid_1d, 4)
        lhs = O.apply_multiply_V(u.copy_with(2.0 * u.values - 1.5j * v.values), pot)
        rhs = 2.0 * np.asarray(O.apply_multiply_V(u, pot).values) \
            - 1.5j * np.asarray(O.apply_multiply_V(v, pot).values)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-12 * scale

    def test_shifted_term_phase(self, grid_1d):
        # a shifted potential multiplies the kernel by a unimodular phase, so
        # the output L2 mass cannot exceed the unshifted one by more than eps
        base = PotentialSpec(1, 1, one_particle=[(1, PotentialTerm("gaussian", {"kappa": 1.0}))])
        shifted = PotentialSpec(1, 1, one_particle=[
            (1, PotentialTerm("gaussian", {"kappa": 1.0}, shift=(0.7,)))])
        xi = grid_1d.axis
        u = FreqFunction(grid_1d, np.exp(-math.pi * xi ** 2))
        out0 = O.apply_multiply_V(u, base)
        out1 = O.apply_multiply_V(u, shifted)
        assert not np.allclose(out0.values, out1.values)
        n0 = fl_norm(out0, SpaceIndex(0, 1))
        n1 = fl_norm(out1, SpaceIndex(0, 1))
        assert n1 <= n0 * (1 + 1e-9)


class TestTLambdaAndR:
    def test_free_t_lambda_is_resolvent(self, free_ham_1d, grid_1d):
        u = random_complex(grid_1d, 6)
        out = O.apply_T_lambda(u, 0.0, free_ham_1d)
        ref = O.apply_h0_inverse(u, free_ham_1d, 1.0)
        assert np.allclose(out.values, ref.values, rtol=1e-14)

    def test_free_r_is_zero(self, free_ham_1d, grid_1d):
        u = random_complex(grid_1d, 7)
        out = O.apply_R(u, 1.0, free_ham_1d)
        assert np.all(out.values == 0)

    def test_gaussian_r_barron_shift_bound(self, gaussian_ham_1d, grid_1d):
        # ||R u||_{B^2} <= mu~_1 kappa ||u||_{B^0} for the additive gaussian
        kappa = 0.05
        worst = 0.0
        for k in range(20):
            u = random_complex(grid_1d, 100 + k)
            ru = O.apply_R(u, 1.0, gaussian_ham_1d)
            worst = max(worst, fl_norm(ru, SpaceIndex(2.0, 1.0))
                        / fl_norm(u, SpaceIndex(0.0, 1.0)))
        assert worst <= B.mu_tilde((1.0,), 1.0) * kappa * (1 + 1e-6)


class TestOperatorPlan:
    COUNTS = {"gauss1d_additive": 33, "invpow1d": 33, "pair2d": 11, "shifted1d": 33,
              "coulomb3d": 7}

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("case", PLAN_CASES)
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0),
           lam=st.floats(-0.9, 3.0), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=4, deadline=None)
    def test_matches_per_term_convolve(self, case, complex_input, coeff, mass, rho, lam, seed):
        spec, grid = plan_case(case, coeff, mass, self.COUNTS[case])
        u = random_complex(grid, seed)
        if not complex_input:
            u = u.copy_with(u.values.real)
        v_ref = reference_V(spec.potential, u)
        h = reference_symbol(spec, grid)
        r_ref = v_ref / (h - 1.0 + rho)
        t_ref = (lam + 1.0) * (u.values / (h - 1.0 + 1.0)) - v_ref / (h - 1.0 + 1.0)
        plan = O.OperatorPlan(spec, grid)
        for got, ref in ((plan.multiply_V(u.values), v_ref), (plan.R(u.values, rho), r_ref),
                         (plan.T_lambda(u.values, lam), t_ref),
                         (O.apply_R(u, rho, spec).values, r_ref)):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("case", PLAN_CASES)
    def test_complex_kernel_only_for_shifted_terms(self, case):
        spec, grid = plan_case(case, 0.1, 1.0, 5)
        plan = O.OperatorPlan(spec, grid)
        assert plan.complex_kernel == (case == "shifted1d")
        assert SV.assemble_dense(spec, 1.0, grid).dtype == (complex if plan.complex_kernel else float)

    def test_radial_plan_has_real_kernels(self):
        pot = PotentialSpec(3, 1, additive=PotentialTerm("gaussian"))
        grid = make_radial_grid(3, 6.0, 30)
        assert O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), grid).complex_kernel is False

    def test_rejects_values_of_another_shape(self, gaussian_ham_1d, grid_1d):
        plan = O.OperatorPlan(gaussian_ham_1d, grid_1d)
        with pytest.raises(DimensionMismatchError):
            plan.R(np.ones(grid_1d.size - 2), 1.0)


class TestProjection:
    def test_definition_and_idempotence(self, grid_1d):
        u = random_complex(grid_1d, 8)
        K = 2.3
        out = O.project_high(u, K)
        r = grid_1d.radius_mesh()
        assert np.all(np.asarray(out.values)[r <= K] == 0)
        assert np.all(np.asarray(out.values)[r > K] == np.asarray(u.values)[r > K])
        again = O.project_high(out, K)
        assert np.array_equal(np.asarray(again.values), np.asarray(out.values))

    def test_zero_radius_keeps_positive_frequencies(self, grid_1d):
        u = random_complex(grid_1d, 9)
        out = O.project_high(u, 0.0)
        mid = (grid_1d.count - 1) // 2
        assert out.values[mid] == 0
        assert np.count_nonzero(out.values) >= np.count_nonzero(u.values) - 1

    @pytest.mark.parametrize("project", [O.project_high, O.project_low])
    @pytest.mark.parametrize("K", [math.nan, math.inf, -1.0])
    def test_invalid_radius_rejected(self, grid_1d, project, K):
        with pytest.raises(InvalidArgumentError, match="projection radius"):
            project(random_complex(grid_1d, 1), K)

    def test_contraction_between_weighted_norms(self, grid_1d):
        # ||P_K||_{FL^p_t -> FL^p_r} <= <K>^{-(t-r)} for r < t
        K, t, r = 3.0, 1.5, 0.5
        bound = (1 + K * K) ** (-(t - r) / 2.0)
        for k in range(10):
            u = random_complex(grid_1d, 200 + k)
            num = fl_norm(O.project_high(u, K), SpaceIndex(r, 1.0))
            den = fl_norm(u, SpaceIndex(t, 1.0))
            assert num <= bound * den * (1 + 1e-12)


class TestQuadraticForm:
    def gaussian_config(self):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.8}))
        return HamiltonianSpec(pot, (1.0,))

    def test_form_bound_lemma(self, grid_1d):
        ham = self.gaussian_config()
        t = 0.5
        frak = B.form_bound_constant(ham.potential, 0.0, math.inf, t)
        for k in range(20):
            u = O.random_band_limited(grid_1d, 11, k, real_space_real=True)
            v = O.random_band_limited(grid_1d, 12, k, real_space_real=True)
            lhs = abs(O.quad_form_V(u, v, ham.potential))
            rhs = frak * fl_norm(u, SpaceIndex(t, 2.0)) * fl_norm(v, SpaceIndex(t, 2.0))
            assert lhs <= rhs * (1 + 1e-9)

    def test_epsilon_sweep(self, grid_1d):
        ham = self.gaussian_config()
        t = 0.5
        frak = B.form_bound_constant(ham.potential, 0.0, math.inf, t)
        for k in range(10):
            u = O.random_band_limited(grid_1d, 13, k, real_space_real=True)
            l2, grad2 = O.sobolev_products(u)
            lhs = abs(O.quad_form_V(u, u, ham.potential))
            for eps in (1.0, 0.1, 0.01):
                rhs = frak * (eps ** (1 - t) * grad2 + (eps ** (1 - t) + eps ** -t) * l2)
                assert lhs <= rhs * (1 + 1e-9)

    def test_radial_closed_forms(self):
        # u_hat = exp(-pi r^2) is its own transform and V = exp(-pi |x|^2), so
        # <Vu, u> = int exp(-3 pi |x|^2) dx, ||u||^2 = 2^(-3/2), ||grad u||^2 = 3 pi 2^(-3/2)
        g = make_radial_grid(3, 6.0, 600, "log-uniform", r_min=1e-4)
        u = FreqFunction(g, np.exp(-math.pi * g.nodes ** 2))
        pot = PotentialSpec(3, 1, additive=PotentialTerm("gaussian"))
        assert O.quad_form_V(u, u, pot) == pytest.approx(3 ** -1.5, rel=1e-9)
        l2, grad2 = O.sobolev_products(u)
        assert l2 == pytest.approx(2 ** -1.5, rel=1e-9)
        assert grad2 == pytest.approx(3 * math.pi * 2 ** -1.5, rel=1e-9)


class TestProbing:
    def test_identity_ratio_one(self, free_ham_1d, grid_1d):
        rep = O.empirical_operator_norm("identity", free_ham_1d,
                                        SpaceIndex(0, 1), SpaceIndex(0, 1),
                                        probes=5, seed=0, certified=1.0,
                                        params={"grid": grid_1d})
        assert rep.empirical == pytest.approx(1.0, rel=1e-12)
        assert rep.satisfied

    def test_probe_deterministic_and_replayable(self, gaussian_ham_1d, grid_1d):
        kwargs = dict(src=SpaceIndex(0, 1), dst=SpaceIndex(2, 1), probes=8, seed=3,
                      params={"rho": 1.0, "grid": grid_1d})
        r1 = O.empirical_operator_norm("r", gaussian_ham_1d, certified=1.0, **kwargs)
        r2 = O.empirical_operator_norm("r", gaussian_ham_1d, certified=1.0, **kwargs)
        assert r1.empirical == r2.empirical
        replayed = O.replay_probe(r1.to_json_dict(), gaussian_ham_1d, grid_1d)
        assert replayed == pytest.approx(r1.empirical, rel=1e-12)

    def test_lemma_bounds_hold_for_gaussian(self, gaussian_ham_1d, grid_1d):
        s, alpha, beta = 0.0, math.inf, 0.4
        C = B.big_C_V(gaussian_ham_1d.potential, s, alpha, beta)
        for op, src, dst in [
            ("h0_inv", SpaceIndex(0, 1), SpaceIndex(2, 1)),
            ("multiply_v", SpaceIndex(0, 1), SpaceIndex(-2 * beta, 1)),
            ("t_lambda", SpaceIndex(0, 1), SpaceIndex(2 - 2 * beta, 1)),
            ("r", SpaceIndex(0, 1), SpaceIndex(2 - 2 * beta, 1)),
        ]:
            params = {"rho": 1.0, "lam": -0.3, "K": 4.0, "grid": grid_1d}
            cert = O.certified_bound(op, gaussian_ham_1d, s, alpha, beta, C, params)
            rep = O.empirical_operator_norm(op, gaussian_ham_1d, src, dst,
                                            probes=25, seed=17, certified=cert,
                                            params=params)
            assert rep.satisfied, rep.to_json_line()

    def test_json_line_round_trip(self, free_ham_1d, grid_1d):
        import json

        rep = O.empirical_operator_norm("identity", free_ham_1d, SpaceIndex(0, 1),
                                        SpaceIndex(0, 1), probes=2, seed=1,
                                        certified=1.0, params={"grid": grid_1d})
        parsed = json.loads(rep.to_json_line())
        assert parsed["operator"] == "identity"
        assert "grid" not in parsed["params"]


class TestRegistry:
    @pytest.mark.parametrize("s, alpha, beta, p", [
        (0.0, math.inf, 0.4, 1.0),
        (0.0, 1.5, 0.5, 2.0),
        (-0.3, 2.4, 0.9, 2.0),
        (0.7, 2.0, 0.75, 1.0),
        (0.2, 3.0, 0.6, 4.0),
    ])
    def test_matches_explicit_formulas(self, s, alpha, beta, p):
        # criterion 4's spaces and the lemma certificates, written out by hand
        ham = HamiltonianSpec(PotentialSpec(1, 2), (1.0, 30.0))
        C, rho, lam, K = 0.37, 1.3, -0.4, 2.0
        params = {"rho": rho, "lam": lam, "K": K}
        sigma = B.sigma_exponent(alpha, p)
        src_hi = SpaceIndex(abs(s) + 2 * sigma * beta, p)
        dst_lo = SpaceIndex(s - 2 * (1 - sigma) * beta, p)
        dst_lift = SpaceIndex(s - 2 * (1 - sigma) * beta + 2.0, p)
        mt_rho, mt_1 = B.mu_tilde(ham.masses, rho), B.mu_tilde(ham.masses, 1.0)
        factor = (1.0 + K * K) ** ((abs(s) - s - 2.0 + 2.0 * beta) / 2.0)
        expected = {
            "multiply_v": (C, src_hi, dst_lo),
            "t_lambda": (mt_1 * (abs(lam + 1.0) + C), src_hi, dst_lift),
            "h0_inv": (mt_rho, SpaceIndex(s, p), SpaceIndex(s + 2.0, p)),
            "r": (mt_rho * C, src_hi, dst_lift),
            "pk_t_lambda": (mt_1 * (abs(lam + 1.0) + C) * factor, src_hi, src_hi),
            "pk_r": (mt_rho * C * factor, src_hi, src_hi),
        }
        for op, (cert, src, dst) in expected.items():
            assert O.certified_bound(op, ham, s, alpha, beta, C, params) == cert, op
            assert O.natural_spaces(op, s, alpha, beta, p) == (src, dst), op

    def test_projected_ops_project_the_base_op(self, gaussian_ham_1d, grid_1d):
        plan = O.OperatorPlan(gaussian_ham_1d, grid_1d)
        params = {"rho": 1.3, "lam": -0.4, "K": 2.0}
        u = random_complex(grid_1d, 5)
        for base in ("t_lambda", "r"):
            expected = O.project_high(O.make_operator(base, plan, params)(u), 2.0)
            got = O.make_operator("pk_" + base, plan, params)(u)
            assert np.array_equal(got.values, expected.values)

    def test_unknown_id_rejected(self, free_ham_1d, grid_1d):
        with pytest.raises(InvalidArgumentError):
            O.make_operator("nope", O.OperatorPlan(free_ham_1d, grid_1d), {})
        with pytest.raises(InvalidArgumentError):
            O.certified_bound("nope", free_ham_1d, 0.0, 2.0, 0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            O.natural_spaces("nope", 0.0, 2.0, 0.5, 1.0)

    @pytest.mark.parametrize("op", ["identity", "project"])
    def test_no_certificate_or_spaces(self, op, free_ham_1d):
        with pytest.raises(InvalidArgumentError):
            O.certified_bound(op, free_ham_1d, 0.0, 2.0, 0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            O.natural_spaces(op, 0.0, 2.0, 0.5, 1.0)
