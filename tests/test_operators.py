import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import bounds as B
from flbarron import operators as O
from flbarron.cli import _build_grid
from flbarron.errors import DimensionMismatchError, InvalidArgumentError
from flbarron import solver as SV
from flbarron.grid import FreqFunction, convolve, make_radial_grid, make_tensor_grid
from flbarron.potentials import (
    HamiltonianSpec,
    PotentialSpec,
    PotentialTerm,
    sharp_example_potential,
)
from flbarron.spaces import SpaceIndex, fl_norm

from conftest import (
    PLAN_CASES,
    band_matrix,
    dense_band_norm,
    dense_matrix,
    plan_case,
    random_complex,
    reference_empirical_operator_norm,
    reference_random_band_limited,
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

    @pytest.mark.parametrize("rho", [math.inf, -math.inf])
    def test_infinite_rho_rejected(self, gaussian_ham_1d, grid_1d, rho):
        plan = O.OperatorPlan(gaussian_ham_1d, grid_1d)
        for apply in (lambda: plan.h0_inverse(random_complex(grid_1d, 0).values, rho),
                      lambda: plan.matrix(rho), lambda: B.mu_tilde((1.0,), rho)):
            with pytest.raises(InvalidArgumentError, match="rho must be finite"):
                apply()

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
        # a free plan runs the general path: exact zeros of the input's dtype,
        # on tensor grids (one function or a stack) and on radial grids of any dimension
        cases = ((PotentialSpec(1, 1), grid_1d), (PotentialSpec(1, 2), make_tensor_grid(2, 4.0, 9)),
                 (PotentialSpec(3, 1), make_radial_grid(3, 6.0, 30)),
                 (PotentialSpec(1, 1), make_radial_grid(1, 6.0, 30)))
        for pot, grid in cases:
            ham = HamiltonianSpec(pot, (1.0,) * pot.N)
            plan = O.OperatorPlan(ham, grid)
            real = np.linspace(0.5, 1.5, grid.size).reshape(grid.shape)
            inputs = [real]
            if grid.kind == "tensor":
                inputs += [real + 0.5j, np.stack([real, real])]
            for values in inputs:
                zero = np.zeros_like(values)
                for got in (plan.multiply_V(values), plan.R(values, 1.3)):
                    assert got.dtype == zero.dtype and np.array_equal(got, zero)
            if grid.kind == "tensor":
                assert np.array_equal(SV.assemble_dense(ham, 1.3, grid), np.eye(grid.size))

    def test_complex_samples_rejected_on_radial_grids(self):
        # the bipolar convolution is real: complex samples fail by name, with
        # no imaginary part dropped, however small
        grid = make_radial_grid(3, 50.0, 90, r_min=1e-3)
        pot = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("coulomb", {}))])
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), grid)
        real = np.exp(-grid.nodes)
        for values in (real * (1 + 1j), real + 1e-300j):
            for apply in (plan.multiply_V, lambda v: plan.R(v, 1.3),
                          lambda v: plan.h0_inverse(v, 1.3)):
                with pytest.raises(InvalidArgumentError, match="radial grids hold real samples"):
                    apply(values)
        assert plan.multiply_V(real).dtype == float

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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_lam_rejected_before_any_convolution(self, lam, gaussian_ham_1d, grid_1d,
                                                             monkeypatch):
        calls = []
        for name in ("convolve", "radial_convolve_3d"):
            monkeypatch.setattr(O, name, lambda *a, **k: calls.append(a))
        u = random_complex(grid_1d, 8)
        radial = make_radial_grid(3, 10.0, 30)
        sharp = sharp_example_potential(1.0, 3)
        plans = [O.OperatorPlan(gaussian_ham_1d, grid_1d),
                 O.OperatorPlan(sharp.hamiltonian, radial)]
        for apply in (lambda: plans[0].T_lambda(u.values, lam),
                      lambda: O.apply_T_lambda(u, lam, gaussian_ham_1d),
                      lambda: plans[1].T_lambda(np.ones(radial.shape), lam, sharp.psi_profile)):
            with pytest.raises(InvalidArgumentError, match="lam must be finite"):
                apply()
        assert calls == [] and all("_kernels" not in vars(plan) for plan in plans)

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
    COUNTS = {"gauss1d_additive": 33, "invpow1d": 33, "pair2d": 11, "mixed2d": 11,
              "shifted1d": 33, "coulomb3d": 7}

    def test_grid_must_fit_the_spec(self):
        # checked when the plan is built, before any symbol or kernel
        pair = HamiltonianSpec(PotentialSpec(1, 2, additive=PotentialTerm("gaussian")), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError, match=r"grid dim 3 != n\*N = 2"):
            O.OperatorPlan(pair, make_tensor_grid(3, 4.0, 9))
        pair3d = HamiltonianSpec(PotentialSpec(3, 2), (1.0, 1.0))
        with pytest.raises(DimensionMismatchError, match="radial grids only for N = 1"):
            O.OperatorPlan(pair3d, make_radial_grid(3, 6.0, 30))

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
        # real samples give float64 outputs unless a shifted term's kernel is complex
        spec, grid = plan_case(case, 0.1, 1.0, 5)
        plan = O.OperatorPlan(spec, grid)
        u = random_complex(grid, 3).values.real
        want = np.complex128 if case == "shifted1d" else np.float64
        for out in (plan.multiply_V(u), plan.R(u, 1.0), SV.assemble_dense(spec, 1.0, grid)):
            assert out.dtype == want

    def test_radial_plan_has_real_kernels(self):
        pot = PotentialSpec(3, 1, additive=PotentialTerm("coulomb"))
        grid = make_radial_grid(3, 6.0, 30)
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), grid)
        u = np.exp(-grid.nodes ** 2)
        assert plan.multiply_V(u).dtype == plan.R(u, 1.0).dtype == np.float64

    def test_zero_potential_keeps_the_input_dtype(self, free_ham_1d, grid_1d):
        plan = O.OperatorPlan(free_ham_1d, grid_1d)
        u = random_complex(grid_1d, 4).values
        for values, dtype in ((u, np.complex128), (u.real, np.float64)):
            out = plan.multiply_V(values)
            assert out.dtype == dtype and not np.any(out)
            assert plan.R(values, 1.0).dtype == dtype

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
        plan = O.OperatorPlan(ham, grid_1d)
        for k in range(20):
            u = O.random_band_limited(grid_1d, 11, k, real_space_real=True)
            v = O.random_band_limited(grid_1d, 12, k, real_space_real=True)
            lhs = abs(plan.quad_form(u.values, v.values))
            rhs = frak * fl_norm(u, SpaceIndex(t, 2.0)) * fl_norm(v, SpaceIndex(t, 2.0))
            assert lhs <= rhs * (1 + 1e-9)

    def test_epsilon_sweep(self, grid_1d):
        ham = self.gaussian_config()
        t = 0.5
        frak = B.form_bound_constant(ham.potential, 0.0, math.inf, t)
        plan = O.OperatorPlan(ham, grid_1d)
        for k in range(10):
            u = O.random_band_limited(grid_1d, 13, k, real_space_real=True)
            l2, grad2 = O.sobolev_products(u)
            lhs = abs(plan.quad_form(u.values, u.values))
            for eps in (1.0, 0.1, 0.01):
                rhs = frak * (eps ** (1 - t) * grad2 + (eps ** (1 - t) + eps ** -t) * l2)
                assert lhs <= rhs * (1 + 1e-9)

    def test_shifted_gaussian_closed_form(self, grid_1d):
        # u(x) = exp(-pi (x - a)^2) is real but u_hat is not, so the pairing
        # needs conj(u_hat): int exp(-pi x^2) u(x)^2 dx = exp(-2 pi a^2/3)/sqrt(3)
        a = 0.5
        u = np.exp(-2j * math.pi * a * grid_1d.axis) * np.exp(-math.pi * grid_1d.axis ** 2)
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian"))
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), grid_1d)
        assert plan.quad_form(u, u) == pytest.approx(math.exp(-2 * math.pi * a * a / 3)
                                                     / math.sqrt(3), rel=1e-12)

    def test_a_stack_is_rejected(self, grid_1d):
        # each is one number of one function: a stack would sum its slices silently
        plan = O.OperatorPlan(self.gaussian_config(), grid_1d)
        stack = O.random_band_limited(grid_1d, 11, [0, 1, 2], real_space_real=True)
        one = O.random_band_limited(grid_1d, 11, 0, real_space_real=True)
        for u, v in ((stack.values, stack.values), (one.values, stack.values),
                     (stack.values, one.values)):
            with pytest.raises(DimensionMismatchError, match="quad_form takes one function"):
                plan.quad_form(u, v)
        with pytest.raises(DimensionMismatchError, match="sobolev_products takes one function"):
            O.sobolev_products(stack)
        assert plan.quad_form(one.values, one.values) == plan.quad_form(stack.values[0],
                                                                        stack.values[0])

    def test_radial_closed_forms(self):
        # u_hat = exp(-pi r^2) is its own transform and V = |x|^-1, so
        # <Vu, u> = int |x|^-1 exp(-2 pi |x|^2) dx = 1, ||u||^2 = 2^(-3/2),
        # ||grad u||^2 = 3 pi 2^(-3/2)
        g = make_radial_grid(3, 6.0, 600, r_min=1e-4)
        u = FreqFunction(g, np.exp(-math.pi * g.nodes ** 2))
        pot = PotentialSpec(3, 1, additive=PotentialTerm("coulomb"))
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), g)
        assert plan.quad_form(u.values, u.values) == pytest.approx(1.0, rel=1e-9)
        l2, grad2 = O.sobolev_products(u)
        assert l2 == pytest.approx(2 ** -1.5, rel=1e-9)
        assert grad2 == pytest.approx(3 * math.pi * 2 ** -1.5, rel=1e-9)


class TestProbing:
    def test_identity_ratio_one(self, free_ham_1d, grid_1d):
        rep = O.empirical_operator_norm("identity", free_ham_1d, grid_1d,
                                        SpaceIndex(0, 1), SpaceIndex(0, 1),
                                        probes=5, seed=0, certified=1.0)
        assert rep.empirical == pytest.approx(1.0, rel=1e-12)
        assert rep.satisfied

    def test_probe_deterministic_and_replayable(self, gaussian_ham_1d, grid_1d):
        kwargs = dict(grid=grid_1d, src=SpaceIndex(0, 1), dst=SpaceIndex(2, 1), probes=8, seed=3,
                      params={"rho": 1.0})
        r1 = O.empirical_operator_norm("r", gaussian_ham_1d, certified=1.0, **kwargs)
        r2 = O.empirical_operator_norm("r", gaussian_ham_1d, certified=1.0, **kwargs)
        assert r1.empirical == r2.empirical
        replayed = O.replay_probe(r1.to_json_dict(), gaussian_ham_1d, grid_1d)
        assert replayed == r1.empirical

    def test_lemma_bounds_hold_for_gaussian(self, gaussian_ham_1d, grid_1d):
        s, alpha, beta = 0.0, math.inf, 0.4
        C = B.big_C_V(gaussian_ham_1d.potential, s, alpha, beta)
        for op, src, dst in [
            ("h0_inv", SpaceIndex(0, 1), SpaceIndex(2, 1)),
            ("multiply_v", SpaceIndex(0, 1), SpaceIndex(-2 * beta, 1)),
            ("t_lambda", SpaceIndex(0, 1), SpaceIndex(2 - 2 * beta, 1)),
            ("r", SpaceIndex(0, 1), SpaceIndex(2 - 2 * beta, 1)),
        ]:
            params = {"rho": 1.0, "lam": -0.3, "K": 4.0}
            cert = O.certified_bound(op, gaussian_ham_1d, s, alpha, beta, C, params)
            rep = O.empirical_operator_norm(op, gaussian_ham_1d, grid_1d, src, dst,
                                            probes=25, seed=17, certified=cert,
                                            params=params)
            assert rep.satisfied, rep.to_json_dict()

    def test_radial_grid_rejected_before_any_probe(self, free_ham_1d, grid_1d):
        radial = make_radial_grid(1, 5.0, 30)
        with pytest.raises(DimensionMismatchError, match="probing needs a tensor grid"):
            O.empirical_operator_norm("identity", free_ham_1d, radial, SpaceIndex(0, 1),
                                      SpaceIndex(0, 1), probes=2, seed=1)
        rep = O.empirical_operator_norm("identity", free_ham_1d, grid_1d, SpaceIndex(0, 1),
                                        SpaceIndex(0, 1), probes=2, seed=1)
        with pytest.raises(DimensionMismatchError, match="probing needs a tensor grid"):
            O.replay_probe(rep.to_json_dict(), free_ham_1d, radial)

    def test_json_line_round_trip(self, free_ham_1d, grid_1d):
        import json

        rep = O.empirical_operator_norm("identity", free_ham_1d, grid_1d, SpaceIndex(0, 1),
                                        SpaceIndex(0, 1), probes=2, seed=1,
                                        certified=1.0, params={"rho": 2.0})
        parsed = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert parsed["operator"] == "identity"
        assert parsed["params"] == {"rho": 2.0}


def _stacked_case(case: str, coeff: float, mass: float):
    """PLAN_CASES at the TestOperatorPlan counts, plus a 2-D pair of shifted
    terms (complex kernels on both a one-particle and a pairwise axis set)."""
    if case != "shifted2d":
        return plan_case(case, coeff, mass, TestOperatorPlan.COUNTS[case])
    pot = PotentialSpec(1, 2, one_particle=[
        (1, PotentialTerm("gaussian", {"kappa": 1.0}, shift=(0.4,), coeff=coeff))], pairwise=[
        (1, 2, PotentialTerm("gaussian", {"kappa": 0.5}, shift=(-0.3,), coeff=0.5 * coeff))])
    return HamiltonianSpec(pot, (mass, 1.5)), make_tensor_grid(2, 6.0, 11)


class TestStacked:
    """A stack of inputs, values of shape (B, *grid.shape), gives slice by
    slice exactly what each slice gives alone."""

    @staticmethod
    def assert_slices_equal(stacked, per_slice):
        for got, ref in zip(stacked, per_slice):
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("complex_input", [False, True])
    @pytest.mark.parametrize("case", PLAN_CASES + ("shifted2d",))
    @given(coeff=st.floats(0.01, 2.0), mass=st.floats(0.2, 5.0), rho=st.floats(0.05, 10.0),
           lam=st.floats(-0.9, 3.0), K=st.floats(0.0, 4.0), s=st.floats(-2.0, 2.0),
           seed=st.integers(0, 2 ** 16), B=st.integers(1, 4))
    @settings(max_examples=3, deadline=None)
    def test_operators_and_norms_act_per_slice(self, case, complex_input, coeff, mass, rho,
                                               lam, K, s, seed, B):
        spec, grid = _stacked_case(case, coeff, mass)
        slices = [random_complex(grid, seed + b).values for b in range(B)]
        if not complex_input:
            slices = [v.real for v in slices]
        stack = np.stack(slices)
        plan = O.OperatorPlan(spec, grid)
        for method, args in ((plan.h0_inverse, (rho,)), (plan.multiply_V, ()),
                             (plan.R, (rho,)), (plan.T_lambda, (lam,))):
            self.assert_slices_equal(method(stack, *args), [method(v, *args) for v in slices])
        for _, kernel in plan._kernels:
            self.assert_slices_equal(convolve(kernel, FreqFunction(grid, stack)).values,
                                     [convolve(kernel, FreqFunction(grid, v)).values
                                      for v in slices])
        self.assert_slices_equal(O.project_high(FreqFunction(grid, stack), K).values,
                                 [O.project_high(FreqFunction(grid, v), K).values
                                  for v in slices])
        for p in (1.0, 2.0, math.inf):
            norms = fl_norm(FreqFunction(grid, stack), SpaceIndex(s, p))
            assert norms.shape == (B,)
            assert [float(x) for x in norms] == [fl_norm(FreqFunction(grid, v), SpaceIndex(s, p))
                                                 for v in slices]

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("case", PLAN_CASES + ("shifted2d",))
    @given(seed=st.integers(0, 2 ** 31), first=st.integers(0, 500), B=st.integers(1, 5))
    @settings(max_examples=3, deadline=None)
    def test_random_band_limited_draws_per_index(self, case, real, seed, first, B):
        grid = _stacked_case(case, 1.0, 1.0)[1]
        indices = list(range(first, first + B))
        stack = O.random_band_limited(grid, seed, indices, real_space_real=real).values
        assert stack.shape == (B,) + grid.shape
        one = [O.random_band_limited(grid, seed, k, real_space_real=real).values for k in indices]
        ref = [reference_random_band_limited(grid, seed, k, real_space_real=real).values
               for k in indices]
        self.assert_slices_equal(stack, one)
        self.assert_slices_equal(stack, ref)

    def test_radial_plan_rejects_a_stack(self):
        pot = PotentialSpec(3, 1, additive=PotentialTerm("coulomb"))
        grid = make_radial_grid(3, 6.0, 30)
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,)), grid)
        stack = np.ones((2,) + grid.shape)
        for method, args in ((plan.h0_inverse, (1.0,)), (plan.multiply_V, ()),
                             (plan.R, (1.0,)), (plan.T_lambda, (0.0,))):
            with pytest.raises(DimensionMismatchError):
                method(stack, *args)
        with pytest.raises(DimensionMismatchError):
            FreqFunction(grid, stack)


class TestStackedProbing:
    """empirical_operator_norm moves its start probes as one stack."""

    @pytest.mark.parametrize("op", sorted(O.OPERATORS))
    @pytest.mark.parametrize("case", ["gauss1d_additive", "pair2d", "shifted2d"])
    def test_equals_per_probe_loop(self, op, case):
        # a budget of the start stack alone takes no power-method step; p = 1, 2
        # and inf take the exact and Lanczos paths, so the stack runs at 1.5 and 3
        spec, grid = _stacked_case(case, 0.4, 1.0)
        for src, dst in ((SpaceIndex(0.0, 1.5), SpaceIndex(0.5, 1.5)),
                         (SpaceIndex(-0.5, 3.0), SpaceIndex(0.0, 3.0))):
            for probes in (1, 3):
                kwargs = dict(probes=probes, seed=23, certified=2.0,
                              params={"rho": 1.3, "lam": -0.4, "K": 2.0})
                got = O.empirical_operator_norm(op, spec, grid, src, dst, **kwargs)
                ref = reference_empirical_operator_norm(op, spec, grid, src, dst, **kwargs)
                assert got.to_json_dict() == ref.to_json_dict()
                if got.worst_probe >= 0:
                    assert O.replay_probe(got.to_json_dict(), spec, grid) == got.empirical

    def test_ties_keep_the_first_probe(self, free_ham_1d, grid_1d):
        # identity between equal spaces: every ratio is exactly 1, so the
        # first step rises by nothing and ends the run
        got = O.empirical_operator_norm("identity", free_ham_1d, grid_1d, SpaceIndex(0.3, 3.0),
                                        SpaceIndex(0.3, 3.0), probes=200, seed=4)
        assert (got.empirical, got.worst_probe, got.worst_step) == (1.0, 0, 0)
        assert got.applications == 6

    def test_zero_denominators_are_skipped(self, free_ham_1d, grid_1d, monkeypatch):
        src = SpaceIndex(0.0, 1.0)
        norm = O.fl_norm
        monkeypatch.setattr(O, "fl_norm", lambda f, idx: norm(f, idx) * (idx != src))
        rep = O.empirical_operator_norm("identity", free_ham_1d, grid_1d, src,
                                        SpaceIndex(0.0, 2.0), probes=200, seed=1)
        assert (rep.empirical, rep.worst_probe) == (-1.0, -1)


class TestAdjoints:
    """Each registry row's adjoint, in the inner product sum u conj(v), is
    the conjugate transpose of the dense matrix of its application."""

    @pytest.mark.parametrize("op", sorted(O.OPERATORS))
    @pytest.mark.parametrize("case", PLAN_CASES + ("shifted2d",))
    def test_adjoint_is_conjugate_transpose(self, op, case):
        spec, grid = _stacked_case(case, 0.4, 1.3)
        plan = O.OperatorPlan(spec, grid)
        par = O._op_params({"rho": 1.3, "lam": -0.4, "K": 2.0})
        apply, adjoint = O.OPERATORS[op][:2]
        A = dense_matrix(lambda u: apply(plan, u, par), grid)
        tol = 1e-12 * np.abs(A).max()
        # on stacks of unit vectors: the whole adjoint matrix
        assert np.abs(dense_matrix(lambda v: adjoint(plan, v, par), grid) - A.conj().T).max() <= tol
        # on one function
        v = random_complex(grid, 7)
        got = np.asarray(adjoint(plan, v, par).values).ravel()
        assert np.abs(got - A.conj().T @ v.values.ravel()).max() <= tol * np.abs(v.values).sum()


def _estimator_cases():
    """label -> (spec, grid, s, alpha, beta): four of criterion 4's
    configurations, each within the dense matrices' 4096 samples."""
    gauss = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.8}))
    invp = PotentialSpec(1, 1, one_particle=[(1, PotentialTerm("inverse_power", {"t": 0.5}))])
    pair = PotentialSpec(1, 2, pairwise=[(1, 2, PotentialTerm("inverse_power", {"t": 0.5},
                                                              coeff=0.5))])
    yuk = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("yukawa", {"mu": 2.0}))])
    return {
        "gauss1d": (HamiltonianSpec(gauss, (1.0,)), make_tensor_grid(1, 8.0, 65),
                    0.0, math.inf, 0.4),
        "invpow1d": (HamiltonianSpec(invp, (2.0,)), make_tensor_grid(1, 8.0, 65), -0.25, 1.5, 0.6),
        "pair2d": (HamiltonianSpec(pair, (1.0, 1.5)), make_tensor_grid(2, 6.0, 25), 0.0, 1.5, 0.5),
        "yukawa3d": (HamiltonianSpec(yuk, (1.0,)), make_tensor_grid(3, 5.0, 13), 0.0, 2.0, 0.9),
    }


def _tolerance(p: float) -> float:
    """Relative distance allowed from the dense exact norm: the exact sums at
    p = 1 and p = inf, Golub-Kahan-Lanczos at p = 2."""
    return 1e-6 if p == 2.0 else 1e-12


class TestPowerMethod:
    """The estimate against the dense exact norm over the probes' band, the
    certificate and the 200-probe floor: exact at p = 1 and p = inf,
    Golub-Kahan-Lanczos at p = 2, the power method at any other p."""

    PARAMS = {"rho": 1.3, "lam": -0.4, "K": 2.0}

    def run(self, case, op, p):
        """(report, spec, grid, src, dst) of criterion 4's probe run at p."""
        spec, grid, s, alpha, beta = _estimator_cases()[case]
        C = B.big_C_V(spec.potential, s, alpha, beta)
        cert = O.certified_bound(op, spec, s, alpha, beta, C, self.PARAMS)
        src, dst = O.natural_spaces(op, s, alpha, beta, p)
        rep = O.empirical_operator_norm(op, spec, grid, src, dst, probes=200, seed=11,
                                        certified=cert, params=self.PARAMS)
        return rep, spec, grid, src, dst

    @pytest.mark.parametrize("op", ["multiply_v", "t_lambda", "h0_inv", "r", "pk_t_lambda", "pk_r"])
    @pytest.mark.parametrize("case", ["gauss1d", "invpow1d", "pair2d", "yukawa3d"])
    def test_between_exact_norm_and_certificate(self, case, op):
        spec, grid = _estimator_cases()[case][:2]
        A, band = band_matrix(op, spec, grid, self.PARAMS)  # one matrix for every p
        for p in (1.0, 2.0, math.inf):
            rep, spec, grid, src, dst = self.run(case, op, p)
            exact = dense_band_norm(A, band, grid, src, dst)
            assert abs(rep.empirical - exact) <= _tolerance(p) * exact, p
            assert rep.satisfied, rep.to_json_dict()
            floor = reference_empirical_operator_norm(op, spec, grid, src, dst, probes=200,
                                                      seed=11, params=self.PARAMS)
            # where both attain the exact norm (h0_inv at xi = 0) they may differ by rounding
            assert rep.empirical >= floor.empirical * (1.0 - 1e-14), p
            assert O.replay_probe(rep.to_json_dict(), spec, grid) == rep.empirical
            assert rep.applications == 1 if p != 2.0 else 2 <= rep.applications <= 30

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("op", ["multiply_v", "r", "pk_t_lambda"])
    def test_other_p_within_certificate(self, op, p):
        rep, spec, grid, src, dst = self.run("gauss1d", op, p)
        assert rep.satisfied, rep.to_json_dict()
        floor = reference_empirical_operator_norm(op, spec, grid, src, dst, probes=200, seed=11,
                                                  params=self.PARAMS)
        assert rep.empirical >= floor.empirical
        assert O.replay_probe(rep.to_json_dict(), spec, grid) == rep.empirical

    def test_budget_caps_the_steps(self):
        spec, grid, s, alpha, beta = _estimator_cases()["pair2d"]
        src, dst = O.natural_spaces("multiply_v", s, alpha, beta, 1.5)
        for probes in (4, 6, 10):  # the power method: a whole stack of 3 a step
            rep = O.empirical_operator_norm("multiply_v", spec, grid, src, dst, probes=probes,
                                            seed=11)
            assert rep.applications == 3 * (probes // 3)
            assert O.replay_probe(rep.to_json_dict(), spec, grid) == rep.empirical
        # Lanczos: one application a step and one for the Ritz vector, so a budget
        # short of convergence is spent exactly; no budget buys more than 30
        src, dst = O.natural_spaces("multiply_v", s, alpha, beta, 2.0)
        for probes in (1, 4, 6, 10 ** 6):
            rep = O.empirical_operator_norm("multiply_v", spec, grid, src, dst, probes=probes,
                                            seed=11)
            assert rep.applications == min(probes, rep.worst_step + 1)
            assert rep.applications == probes or probes > 6
            assert rep.applications <= 30
            assert O.replay_probe(rep.to_json_dict(), spec, grid) == rep.empirical


def _load_perfbench_workloads():
    """perfbench/workloads.py, whose probe_sweep tasks are criterion 4's
    configurations with seeded coefficients."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


class TestExactNorms:
    """At p = 1 and p = inf the estimate is the exact discrete norm, attained
    by the input at ``worst_node``; at p = 2 Golub-Kahan-Lanczos comes within
    1e-6 of it."""

    PARAMS = {"rho": 1.3, "lam": -0.4, "K": 2.0}

    @pytest.mark.parametrize("seed", [5, 11])
    def test_every_probe_sweep_configuration(self, seed):
        W = _load_perfbench_workloads()
        done = set()
        for t in W.generate("probe_sweep", seed):
            if (t["spec_name"], t["op"]) in done:  # the task's p is 1 or 2; both p run here
                continue
            done.add((t["spec_name"], t["op"]))
            spec = W._ham(t["spec"])
            grid = _build_grid(t["grid"], spec.dim)  # as `flbarron probe --grid` reads it
            A, band = band_matrix(t["op"], spec, grid, self.PARAMS)
            for p in (1.0, math.inf):
                src, dst = O.natural_spaces(t["op"], t["s"], t["alpha"], t["beta"], p)
                rep = O.empirical_operator_norm(t["op"], spec, grid, src, dst, probes=200,
                                                seed=t["probe_seed"], params=self.PARAMS)
                exact = dense_band_norm(A, band, grid, src, dst)
                assert abs(rep.empirical - exact) <= 1e-12 * exact, (t["name"], p)
                assert (rep.applications, rep.worst_probe) == (1, -1)
        assert len(done) == 24

    @pytest.mark.parametrize("op", sorted(O.OPERATORS))
    @pytest.mark.parametrize("case", ["gauss1d_additive", "pair2d", "shifted2d"])
    def test_every_row_and_a_complex_kernel(self, case, op):
        # shifted2d: complex kernels on a one-particle and a pairwise axis set
        spec, grid = _stacked_case(case, 0.4, 1.3)
        A, band = band_matrix(op, spec, grid, self.PARAMS)
        for p in (1.0, 2.0, math.inf):
            src, dst = SpaceIndex(0.3, p), SpaceIndex(-0.2, p)
            rep = O.empirical_operator_norm(op, spec, grid, src, dst, probes=200, seed=5,
                                            params=self.PARAMS)
            exact = dense_band_norm(A, band, grid, src, dst)
            assert abs(rep.empirical - exact) <= _tolerance(p) * exact, p
            assert O.replay_probe(rep.to_json_dict(), spec, grid) == rep.empirical

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf, 1.5])
    @pytest.mark.parametrize("case", ["invpow1d", "pair2d", "shifted2d"])
    def test_replay_rebuilds_the_attaining_input(self, case, p):
        spec, grid = _stacked_case(case, 0.7, 1.0)
        src, dst = SpaceIndex(0.2, p), SpaceIndex(0.0, p)
        rep = O.empirical_operator_norm("pk_r", spec, grid, src, dst, probes=40, seed=9,
                                        params=self.PARAMS).to_json_dict()
        assert O.replay_probe(rep, spec, grid) == rep["empirical"]
        exact = p in (1.0, math.inf)
        assert (rep["worst_node"] >= 0) == exact
        assert rep["worst_probe"] in ((-1,) if exact else (0,) if p == 2.0 else (0, 1, 2))

    def test_lanczos_within_thirty_applications(self):
        # criterion 4's 2-D pair case, where the power method spent up to 63 applications
        spec, grid, s, alpha, beta = _estimator_cases()["pair2d"]
        for op in ("multiply_v", "r", "pk_r", "pk_t_lambda"):
            A, band = band_matrix(op, spec, grid, self.PARAMS)
            src, dst = O.natural_spaces(op, s, alpha, beta, 2.0)
            for seed in (5, 11):
                rep = O.empirical_operator_norm(op, spec, grid, src, dst, probes=200, seed=seed,
                                                params=self.PARAMS)
                exact = dense_band_norm(A, band, grid, src, dst)
                assert abs(rep.empirical - exact) <= 1e-6 * exact, (op, seed)
                assert rep.applications <= 30 and rep.worst_step == rep.applications - 1


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

    @pytest.mark.parametrize("name", ["rho", "lam", "K"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_params_rejected_by_name(self, name, value, gaussian_ham_1d, grid_1d):
        plan = O.OperatorPlan(gaussian_ham_1d, grid_1d)
        params = {"rho": 1.3, "lam": -0.4, "K": 2.0, name: value}
        for op in ("r", "t_lambda", "identity"):
            with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
                O.make_operator(op, plan, params)
            with pytest.raises(InvalidArgumentError, match=f"{name} must be finite"):
                O.certified_bound("r", gaussian_ham_1d, 0.0, 2.0, 0.5, 1.0, params)

    @pytest.mark.parametrize("op", ["identity", "project"])
    def test_no_certificate_or_spaces(self, op, free_ham_1d):
        with pytest.raises(InvalidArgumentError):
            O.certified_bound(op, free_ham_1d, 0.0, 2.0, 0.5, 1.0)
        with pytest.raises(InvalidArgumentError):
            O.natural_spaces(op, 0.0, 2.0, 0.5, 1.0)
