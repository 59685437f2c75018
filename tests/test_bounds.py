import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron import bounds as B
from flbarron.errors import DomainError, GammaOverflowError, InvalidArgumentError, PoleError
from flbarron.grid import RadialProfile, make_radial_grid
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm


def bracket_quadrature(gamma, n):
    from flbarron.spaces import SpaceIndex, profile_norm_report

    g = make_radial_grid(n, 1e5, 9000)
    prof = RadialProfile("rational_bracket", (1.0, 1.0, gamma))
    return profile_norm_report(prof, SpaceIndex(0.0, 1.0), n, grid=g).value


class TestGammaConstants:
    def test_c_alpha_beta_examples(self):
        assert B.c_alpha_beta(math.inf, 0.7, 3) == 1.0
        assert B.c_alpha_beta(2.0, 1.0, 1) == pytest.approx(math.pi / 2.0, rel=1e-14)
        with pytest.raises(InvalidArgumentError):
            B.c_alpha_beta(1.0, 1.0, 3)  # alpha*beta = 1 <= n/2
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            B.c_alpha_beta(2.0, math.inf, 3)  # Gamma(inf) / Gamma(inf) is NaN
        # Gamma(298.5) overflows a float, the log-gamma ratio does not
        assert B.c_alpha_beta(2.0, 150.0, 3) == pytest.approx(
            math.pi ** 1.5 / B.gamma_ratio(298.5, 1.5), rel=1e-12)
        with pytest.raises(GammaOverflowError, match=r"Gamma\(2e\+300\)"):
            B.c_alpha_beta(2.0, 1e300, 3)  # past the log-gamma ratio's 1e-10

    def test_overflowing_gammas_take_the_log_gamma_ratio(self):
        assert B.c_alpha_beta(2.0, 100.0, 3) == pytest.approx(0.0019873, abs=5e-8)
        # where the two Gamma values stay finite, the plain ratio keeps its bits
        for g in (2.0, 50.25, 171.0):
            assert B.bracket_lp_norm(g, 3) == math.pi ** 1.5 * math.gamma(g - 1.5) / math.gamma(g)

    @pytest.mark.parametrize("ab", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_c_alpha_beta_vs_quadrature(self, ab, n):
        if ab <= n / 2.0:
            return
        quad = bracket_quadrature(ab, n)
        assert B.c_alpha_beta(2.0, ab / 2.0, n) == pytest.approx(quad, rel=1e-8)

    def test_bracket_lp_examples(self):
        assert B.bracket_lp_norm(1.0, 1) == pytest.approx(math.pi, rel=1e-14)
        assert B.bracket_lp_norm(2.0, 3) == pytest.approx(math.pi ** 2, rel=1e-14)
        with pytest.raises(InvalidArgumentError):
            B.bracket_lp_norm(0.5, 1)

    def test_bracket_lp_equals_c_alpha_beta(self):
        for gamma, n in ((1.2, 1), (2.5, 3), (1.4, 2)):
            assert B.bracket_lp_norm(gamma, n) == pytest.approx(
                B.c_alpha_beta(2.0, gamma / 2.0, n), rel=1e-14)

    def test_nu_values(self):
        assert B.nu_t_n(1.0, 3) == pytest.approx(4.0, rel=1e-14)
        assert B.nu_t_n(1.0, 2) == pytest.approx(2 * math.pi, rel=1e-14)
        with pytest.raises(PoleError):
            B.nu_t_n(3.0, 3)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([1, 2, 3]), frac=st.floats(0.02, 0.98),
           ab_excess=st.floats(0.01, 25.0), alpha=st.floats(1.0, 12.0))
    def test_gamma_constants_match_mpmath(self, n, frac, ab_excess, alpha):
        # independent 30-digit oracle for the closed forms of criterion 1
        t, ab = frac * n, n / 2.0 + ab_excess
        beta = ab / alpha
        with mp.workdps(30):
            h, pi = mp.mpf(n) / 2, mp.pi
            ref = {"c_t_n": pi ** (t - h) * mp.gamma(h - t / 2) / mp.gamma(mp.mpf(t) / 2),
                   "nu_t_n": 2 * pi ** t * abs(mp.gamma(h - t / 2))
                   / (mp.gamma(mp.mpf(t) / 2) * mp.gamma(h)),
                   "bracket_lp_norm": pi ** h * mp.gamma(ab - h) / mp.gamma(ab),
                   "c_alpha_beta": pi ** h * mp.gamma(mp.mpf(alpha) * beta - h)
                   / mp.gamma(mp.mpf(alpha) * beta)}
        got = {"c_t_n": B.c_t_n(t, n), "nu_t_n": B.nu_t_n(t, n),
               "bracket_lp_norm": B.bracket_lp_norm(ab, n),
               "c_alpha_beta": B.c_alpha_beta(alpha, beta, n)}
        for name, value in got.items():
            assert abs(value - float(ref[name])) <= 1e-13 * abs(float(ref[name])), name

    @pytest.mark.parametrize("t", [1.1, 1.5, 1.9])
    def test_one_dimensional_t_above_n_matches_mpmath(self, t):
        # (n - t)/2 < 0: the Gamma reflection branch
        with mp.workdps(30):
            g = mp.gamma((1 - mp.mpf(t)) / 2)
            ref_c = mp.pi ** (t - 0.5) * g / mp.gamma(mp.mpf(t) / 2)
            ref_nu = 2 * mp.pi ** t * abs(g) / (mp.gamma(mp.mpf(t) / 2) * mp.sqrt(mp.pi))
        assert abs(B.c_t_n(t, 1) - float(ref_c)) <= 1e-13 * abs(float(ref_c))
        assert abs(B.nu_t_n(t, 1) - float(ref_nu)) <= 1e-13 * abs(float(ref_nu))

    def test_gamma_ratio_monotone(self):
        assert B.gamma_ratio_monotone(1.0, [1.0, 2.0, 3.0])
        assert B.gamma_ratio(2.0, 1.0) == pytest.approx(2.0, rel=1e-14)
        assert B.gamma_ratio_monotone(-0.5, [1.0, 2.0, 4.0])
        with pytest.raises(DomainError):
            B.gamma_ratio(0.0, 1.0)
        with pytest.raises(DomainError):
            B.gamma_ratio_monotone(-2.0, [1.0, 3.0])


class TestBigCV:
    def test_zero_potential(self):
        assert B.big_C_V(PotentialSpec(1, 1), 0.0, math.inf, 0.0) == 0.0

    def test_gaussian_additive(self):
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 2.0}))
        assert B.big_C_V(pot, 0.0, math.inf, 0.0) == pytest.approx(2.0, rel=1e-9)

    def test_homogeneous_in_coefficients(self):
        def C_of(c):
            pot = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("coulomb", coeff=c))])
            return B.big_C_V(pot, 0.0, 2.0, 1.0)

        assert C_of(3.0) == pytest.approx(3.0 * C_of(1.0), rel=1e-12)
        assert C_of(-3.0) == pytest.approx(C_of(3.0), rel=1e-12)

    def test_subadditive_over_term_lists(self):
        t1 = PotentialTerm("coulomb", coeff=0.7)
        t2 = PotentialTerm("yukawa", {"mu": 1.0}, coeff=0.4)
        both = PotentialSpec(3, 1, one_particle=[(1, t1), (1, t2)])
        only1 = PotentialSpec(3, 1, one_particle=[(1, t1)])
        only2 = PotentialSpec(3, 1, one_particle=[(1, t2)])
        args = (0.0, 2.0, 1.0)
        assert B.big_C_V(both, *args) <= (B.big_C_V(only1, *args)
                                          + B.big_C_V(only2, *args)) * (1 + 1e-12)

    def test_coulomb_pairwise_below_corollary_bound(self, coulomb_pair_spec):
        gamma = 0.5
        alpha = 2 * 3 / (2 * 1.0 + (2 - 1.0 - gamma))  # the closed-form choice
        beta = 1.0 + (0.0 - gamma) / 2.0
        C = B.big_C_V(coulomb_pair_spec, 0.0, alpha, beta)
        M = B.aggregate_M(coulomb_pair_spec)
        assert M == 1.0
        bound = B.nu_t_n(1.0, 3) * M * (1.0 + 2.0 / (1.0 - gamma))
        assert C <= bound
        assert bound == pytest.approx(4 * (1 + 4), rel=1e-14)

    def test_inadmissible_term_reported(self):
        pot = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("inverse_power", {"t": 1.5}))])
        from flbarron.errors import InadmissibleTermError

        with pytest.raises(InadmissibleTermError) as exc:
            B.big_C_V(pot, 0.0, 2.0, 1.0)
        assert exc.value.term == (1, None, "inverse_power")
        assert str(exc.value) == ("one-particle term inverse_power at i=1 inadmissible "
                                  "at (s=0.0, alpha=2.0)")

    def test_inadmissible_pairwise_term_reported(self):
        pot = PotentialSpec(1, 2, pairwise=[(1, 2, PotentialTerm("inverse_power", {"t": 0.9}))])
        from flbarron.errors import InadmissibleTermError

        with pytest.raises(InadmissibleTermError) as exc:
            B.big_C_V(pot, 0.0, 2.4, 1.0)
        assert exc.value.term == (1, 2, "inverse_power")
        assert str(exc.value) == ("pairwise term inverse_power at (i,j)=(1,2) inadmissible "
                                  "at (s=0.0, alpha=2.4)")

    def test_role_weights_at_negative_s(self):
        # 2^{|s|/2} on V_i and V_ad, 2^{|s|} on V_ij: s = -0.5 tells the weights apart
        from flbarron.potentials import fourier_transform
        from flbarron.spaces import SpaceIndex, SplitIndex, profile_norm_report, split_norm

        s, alpha, beta = -0.5, 3.0, 0.9

        def sum_norm(t):
            return split_norm(fourier_transform(t, 1), SplitIndex(s, alpha, beta), 1)[0]

        one = [(1, PotentialTerm("gaussian", {"kappa": 0.1})),
               (3, PotentialTerm("inverse_power", {"t": 0.3}, coeff=-0.05))]
        pair = [(2, 3, PotentialTerm("gaussian", {"kappa": 0.05, "width": 0.7}))]
        ad = PotentialTerm("gaussian", {"kappa": 0.02}, coeff=-1.5)
        pot = PotentialSpec(1, 3, one_particle=one, pairwise=pair, additive=ad)
        half, full = 2.0 ** 0.25, 2.0 ** 0.5
        expected = (sum(half * abs(t.coeff) * sum_norm(t) for _, t in one)
                    + sum(full * abs(t.coeff) * sum_norm(t) for _, _, t in pair)
                    + half * 1.5 * profile_norm_report(fourier_transform(ad, 3),
                                                       SpaceIndex(s, 1.0), 3).value)
        assert B.big_C_V(pot, s, alpha, beta) == pytest.approx(expected, rel=1e-14)


class TestFrakCV:
    def test_zero(self):
        assert B.frak_C_V(PotentialSpec(1, 1), 0.0, math.inf, 0.5) == 0.0

    def test_s_zero_matches_shifted_big_C(self, coulomb_pair_spec):
        gamma = 0.5
        a = B.frak_C_V(coulomb_pair_spec, 0.0, 2.4, gamma)
        b = B.big_C_V(coulomb_pair_spec, 0.0, 2.4, 1.0 - gamma / 2.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_coulomb_finite(self, coulomb_pair_spec):
        val = B.frak_C_V(coulomb_pair_spec, 0.0, 2.4, 0.5)
        assert 0 < val < 100


class TestCoercivity:
    def ham(self, masses=(1.0,)):
        return HamiltonianSpec(PotentialSpec(1, len(masses)), tuple(masses))

    def test_first_branch(self):
        # frak=1, A=2pi^2, t=1/2: A > t*frak so rho* = frak = 1
        ham = self.ham()
        rho = B.coercivity_rho(ham, 0.0, math.inf, 1.0, frak_C=1.0)
        assert rho == pytest.approx(1.0, rel=1e-14)

    def test_zero_potential(self):
        assert B.coercivity_rho(self.ham(), 0.0, math.inf, 0.5) == 0.0

    def test_second_branch(self):
        # frak = 4A, t = 1/2: rho* = A + A * (t frak / A)^2 * (1/t - 1) = 5A
        A = 2 * math.pi ** 2
        rho = B.coercivity_rho(self.ham(), 0.0, math.inf, 1.0, frak_C=4 * A)
        assert rho == pytest.approx(5 * A, rel=1e-14)

    def test_branch_seam_continuity(self):
        A = 2 * math.pi ** 2
        t = 0.5
        frak = A / t
        below = B.coercivity_rho(self.ham(), 0.0, math.inf, 1.0, frak_C=frak * (1 - 1e-12))
        above = B.coercivity_rho(self.ham(), 0.0, math.inf, 1.0, frak_C=frak * (1 + 1e-12))
        assert abs(below - above) <= 1e-10 * frak

    def test_margin_reciprocal_behaviour(self):
        ham = self.ham()
        eps1 = B.coercivity_margin(ham, 0.0, math.inf, 1.0, rho=2.0, frak_C=1.0)
        eps2 = B.coercivity_margin(ham, 0.0, math.inf, 1.0, rho=4.0, frak_C=1.0)
        assert 0 < eps1 < eps2
        with pytest.raises(InvalidArgumentError):
            B.coercivity_margin(ham, 0.0, math.inf, 1.0, rho=0.5, frak_C=1.0)

    def test_margin_interior_minimum_matches_brute_force(self):
        # heavy mass: A = 2 pi^2 / 50 < t frak_C, so the worst z has w = z^2 > 0
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian"))
        ham = HamiltonianSpec(pot, (50.0,))
        s, alpha, gamma, t = 0.0, math.inf, 1.0, 0.5
        frak, A = B.frak_C_V(pot, s, alpha, gamma), 2 * math.pi ** 2 / 50.0
        rho = 2.0 * B.coercivity_rho(ham, s, alpha, gamma)
        eps = B.coercivity_margin(ham, s, alpha, gamma, rho)  # frak_C from the spec
        assert eps == B.coercivity_margin(ham, s, alpha, gamma, rho, frak_C=frak)
        assert t * frak / (A - eps) > 1.0
        # eps is the minimum over w >= 0 of (A w - frak_C (1+w)^t + rho) / (1 + w)
        w = np.concatenate([[0.0], np.geomspace(1e-6, 1e6, 400001)])
        ratio = (A * w - frak * (1.0 + w) ** t + rho) / (1.0 + w)
        k = int(np.argmin(ratio))
        assert 1.0 < w[k] < 100.0
        assert eps * (1 - 1e-12) <= ratio[k] <= eps * (1 + 1e-8)


class TestContractionRadius:
    def test_closed_form_example(self):
        K = B.contraction_radius(1.0, 8.0, 0.0, 0.0, 0.5)
        assert K == pytest.approx(math.sqrt(255.0), rel=1e-14)

    def test_already_contractive(self):
        assert B.contraction_radius(1.0, 0.2, 0.1, 0.0, 0.5) == 0.0

    def test_zero_exponent_rejected(self):
        with pytest.raises(InvalidArgumentError):
            B.contraction_radius(1.0, 8.0, 0.0, 0.0, 1.0)

    @given(mt=st.floats(0.1, 5.0), en=st.floats(0.0, 10.0), C=st.floats(0.0, 10.0),
           beta=st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_plug_back_identity(self, mt, en, C, beta):
        K = B.contraction_radius(mt, en, C, 0.0, beta)
        e = -2.0 + 2.0 * beta
        value = mt * (en + C) * (1.0 + K * K) ** (e / 2.0)
        if K > 0:
            assert value == pytest.approx(0.5, rel=1e-12)
        else:
            assert value <= 0.5 + 1e-12


class TestEigenCertificate:
    def ctx(self, lam=0.0):
        ham = HamiltonianSpec(PotentialSpec(1, 1), (1.0,))
        return B.BoundContext(ham, 0.0, math.inf, 1.0, lam)

    def test_free_unit(self):
        assert B.eigen_certificate(self.ctx(0.0), 1.0, "barron", C=0.0) == 1.0

    def test_l2_prefactor_formula(self):
        # s=0, nN=1, gamma=1: prefactor 2^(1/4) sqrt(2/1), exponent (1+0.5)/1
        val = B.eigen_certificate(self.ctx(0.0), 1.0, "l2", C=0.0)
        expect = 2 ** 0.25 * math.sqrt(2.0 / 1.0) * (2.0) ** 1.5
        assert val == pytest.approx(expect, rel=1e-14)

    def test_monotone_in_C_and_lambda(self):
        vals_C = [B.eigen_certificate(self.ctx(0.0), 1.0, "barron", C=c)
                  for c in (0.0, 1.0, 5.0)]
        assert vals_C == sorted(vals_C)
        vals_lam = [B.eigen_certificate(self.ctx(lam), 1.0, "l2", C=1.0)
                    for lam in (0.0, 1.0, 3.0)]
        assert vals_lam == sorted(vals_lam)

    def test_l2_monotone_in_gamma(self):
        ham = HamiltonianSpec(PotentialSpec(1, 1), (1.0,))
        vals = []
        for gamma in (0.5, 1.0, 1.5):
            ctx = B.BoundContext(ham, 0.0, math.inf, gamma, 0.0)
            vals.append(B.eigen_certificate(ctx, 1.0, "l2", C=3.0))
        # 2 mu (|lam+1|+C) = 8 > 1, so a larger exponent... exponent decreases
        # with gamma here: (gamma + d/2)/gamma is decreasing, so values decrease
        assert vals == sorted(vals, reverse=True)


class TestInversePowerBounds:
    def test_coulomb_display(self):
        for gamma in (0.3, 0.7, 0.9):
            val = B.inverse_power_C_bound(1.0, 3, gamma, 2.0)
            assert val == pytest.approx(4 * 2.0 * (1 + 2 / (1 - gamma)), rel=1e-14)

    def test_one_dimensional_branches(self):
        low = B.inverse_power_C_bound(0.5, 1, 0.5, 1.0)
        assert low == pytest.approx(B.nu_t_n(0.5, 1) * (1 / 0.5 + math.pi / 1.0), rel=1e-14)
        high = B.inverse_power_C_bound(1.5, 1, 0.4, 1.0)
        assert high == pytest.approx(math.pi * B.nu_t_n(1.5, 1) / (2 * 0.1), rel=1e-12)
        log_case = B.inverse_power_C_bound(1.0, 1, 0.5, 2.0)
        assert log_case == pytest.approx(2.0 * (3 + 7.15 / 0.25 + 5.61 / 0.5), rel=1e-14)

    def test_log_branch_needs_gamma_above_third(self):
        with pytest.raises(InvalidArgumentError):
            B.inverse_power_C_bound(1.0, 1, 0.2, 1.0)


class TestPeetre:
    def test_random_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            d = int(rng.integers(1, 4))
            x = rng.normal(scale=5.0, size=d)
            y = rng.normal(scale=5.0, size=d)
            s = float(rng.uniform(-4.0, 4.0))
            assert B.peetre_holds(x, y, s)

    @given(x=st.floats(-50, 50), y=st.floats(-50, 50), s=st.floats(-4, 4))
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_1d(self, x, y, s):
        assert B.peetre_holds([x], [y], s)


def test_mu_tilde():
    assert B.mu_tilde((1.0,), 1.0) == 1.0
    assert B.mu_tilde((4 * math.pi ** 2,), 1.0) == 2.0
    assert B.mu_tilde((1.0,), 0.25) == 4.0
    with pytest.raises(InvalidArgumentError):
        B.mu_tilde((1.0,), 0.0)


def test_sigma_exponent():
    assert B.sigma_exponent(math.inf, 1.0) == 0.0
    assert B.sigma_exponent(2.0, 1.0) == 0.0
    assert B.sigma_exponent(1.5, 2.0) == pytest.approx(0.25)
