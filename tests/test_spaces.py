import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flbarron.errors import InvalidArgumentError, NoEmbeddingError, NonFiniteError, NotInSpaceError
from flbarron.grid import FreqFunction, RadialProfile, make_radial_grid, make_tensor_grid, sample_profile
from flbarron.potentials import PotentialTerm, fourier_transform
from flbarron.spaces import (
    SpaceIndex,
    SplitIndex,
    conjugate,
    counterexample_norm,
    embedding_constant,
    epsilon_ball_integral,
    fl_norm,
    profile_norm_report,
    split_norm,
)

from conftest import random_complex, reference_fl_norm


class TestFlNorm:
    def test_indicator_mass(self):
        g = make_radial_grid(1, 1.0, 300)
        f = FreqFunction(g, np.ones_like(g.nodes))
        assert fl_norm(f, SpaceIndex(0.0, 1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_sharp_transform_integrates_to_one(self):
        prof = RadialProfile("rational_bracket", (8 * math.pi, 4 * math.pi ** 2, 2.0))
        rep = profile_norm_report(prof, SpaceIndex(0.0, 1.0), 3)
        assert not rep.truncated
        assert rep.value == pytest.approx(1.0, rel=1e-6)

    def test_lorentzian_h1(self):
        prof = RadialProfile("rational_bracket", (1.0, 1.0, 1.0))
        rep = profile_norm_report(prof, SpaceIndex(1.0, 2.0), 1)
        assert rep.value == pytest.approx(math.sqrt(math.pi), rel=1e-4)

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_nan_sample_raises(self, p):
        g = make_tensor_grid(1, 4.0, 9)
        vals = np.ones(g.shape)
        vals[3] = math.nan
        with pytest.raises(NonFiniteError, match="spaces.fl_norm"):
            fl_norm(FreqFunction(g, vals), SpaceIndex(0.0, p))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("s", [-0.7, 0.0, 1.3])
    def test_stack_gives_each_slice_its_own_norm(self, p, s):
        g = make_tensor_grid(2, 3.0, 9)
        stack = np.stack([random_complex(g, k).values for k in range(64)])
        norms = fl_norm(FreqFunction(g, stack), SpaceIndex(s, p))
        ref = [reference_fl_norm(FreqFunction(g, v), SpaceIndex(s, p)) for v in stack]
        assert norms.shape == (64,) and norms.tolist() == ref
        assert [fl_norm(FreqFunction(g, v), SpaceIndex(s, p)) for v in stack] == ref

    def test_nan_in_stack_names_the_slice(self):
        g = make_tensor_grid(1, 4.0, 9)
        vals = np.ones((4,) + g.shape)
        vals[2, 5] = math.nan
        with pytest.raises(NonFiniteError, match=r"spaces.fl_norm.*\(slice 2\)"):
            fl_norm(FreqFunction(g, vals), SpaceIndex(0.0, 1.0))

    def test_nan_index_raises(self):
        # rejected where it enters, before any norm is taken
        for s in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidArgumentError, match="SpaceIndex: s must be finite"):
                SpaceIndex(s, 1.0)

    def test_non_finite_split_index_raises(self):
        for s, beta, name in ((math.inf, 1.0, "s"), (-math.inf, 1.0, "s"),
                              (0.0, math.inf, "beta"), (0.0, -math.inf, "beta")):
            with pytest.raises(InvalidArgumentError, match=f"SplitIndex: {name} must be finite"):
                SplitIndex(s, 2.0, beta)

    def test_sup_norm_is_grid_max(self):
        g = make_radial_grid(1, 10.0, 120)
        f = sample_profile(RadialProfile("rational_bracket", (3.0, 1.0, 0.5)), g)
        assert fl_norm(f, SpaceIndex(1.0, math.inf)) == pytest.approx(3.0, rel=1e-12)

    @given(s=st.floats(-2, 2), t=st.floats(-2, 2))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_smoothness(self, s, t):
        s, t = max(s, t), min(s, t)
        g = make_radial_grid(2, 20.0, 120)
        f = sample_profile(RadialProfile("gaussian", (1.0, 0.3)), g)
        assert fl_norm(f, SpaceIndex(t, 1.0)) <= fl_norm(f, SpaceIndex(s, 1.0)) * (1 + 1e-12)


class TestProfileNormReport:
    @pytest.mark.parametrize("profile, s, bound", [
        # <r> 3 (1 + r^2)^(-1/2) = 3 on the grid; beyond it <r> <= sqrt(2) r bounds it by 3 sqrt(2)
        (RadialProfile("rational_bracket", (3.0, 1.0, 0.5)), 1.0, 3.0 * math.sqrt(2.0)),
        # a Gaussian's tail is negligible, so the grid's sup is the norm
        (RadialProfile("gaussian", (3.0, 0.3)), 0.0, 0.0),
    ], ids=["tail_bound_wins", "grid_sup_wins"])
    def test_sup_norm_is_the_larger_of_grid_sup_and_tail_bound(self, profile, s, bound):
        g = make_radial_grid(3, 10.0, 120)
        idx = SpaceIndex(s, math.inf)
        base = fl_norm(sample_profile(profile, g), idx)
        rep = profile_norm_report(profile, idx, 3, grid=g)
        assert base == pytest.approx(3.0, rel=1e-3)
        assert rep.tail_bound == pytest.approx(bound, rel=1e-15) and not rep.truncated
        assert rep.value == max(base, rep.tail_bound)
        assert rep.space == {"s": s, "p": math.inf}


class TestSplitNorm:
    def test_zero_function(self):
        g = make_radial_grid(3, 10.0, 90)
        prof = RadialProfile("gaussian", (0.0, 1.0))
        value, split = split_norm(prof, SplitIndex(0.0, 2.0, 1.0), 3, grid=g)
        assert value == 0.0
        assert split.method == "trivial"

    def test_alpha_inf_equals_barron(self):
        prof = RadialProfile("gaussian", (2.0, 1.0))
        g = make_radial_grid(3, 30.0, 600)
        value, split = split_norm(prof, SplitIndex(0.5, math.inf, 0.0), 3, grid=g)
        f = sample_profile(prof, g)
        direct = fl_norm(f, SpaceIndex(0.5, 1.0))
        assert value == pytest.approx(direct, rel=1e-9)
        assert split.method == "trivial"

    def test_split_recombines(self):
        prof = fourier_transform(PotentialTerm("coulomb"), 3)
        value, split = split_norm(prof, SplitIndex(0.0, 2.0, 1.0), 3)
        f = split.f1.copy_with(np.asarray(split.f1.values) + np.asarray(split.f2.values))
        grid = split.f1.grid
        orig = sample_profile(prof, grid)
        scale = np.nanmax(np.abs(orig.values))
        assert np.nanmax(np.abs(f.values - orig.values)) <= 1e-12 * scale

    def test_coulomb_value_matches_manual_minimum(self):
        # candidate value at radius R: 4R + c_ab^(1/a) * 0.51311 / R  (alpha' = 3)
        from flbarron.special import c_alpha_beta

        prof = fourier_transform(PotentialTerm("coulomb"), 3)
        value, split = split_norm(prof, SplitIndex(0.0, 1.5, 1.5), 3)
        cab = c_alpha_beta(1.5, 1.5, 3) ** (1 / 1.5)
        part2 = (1 / math.pi) * (4 * math.pi / 3) ** (1 / 3)

        def candidate(R):
            return 4 * R + cab * part2 / R

        R_best = math.sqrt(cab * part2 / 4.0)
        assert value == pytest.approx(candidate(R_best), rel=2e-3)
        assert split.radius == pytest.approx(R_best, rel=2e-2)
        assert value <= candidate(1.0)

    def test_value_is_min_over_radius_candidates(self):
        # the reported value never exceeds the analytic candidate at any radius
        from flbarron.special import c_alpha_beta

        prof = fourier_transform(PotentialTerm("coulomb"), 3)
        idx = SplitIndex(0.0, 2.0, 1.0)
        value, _ = split_norm(prof, idx, 3)
        cab = c_alpha_beta(2.0, 1.0, 3) ** 0.5
        part2_at_1 = (1 / math.pi) * math.sqrt(4 * math.pi / ((3 - 1) * 2 - 3))
        for R in (0.25, 0.5, 1.0, 2.0, 4.0):
            cand = 4 * R + cab * part2_at_1 * R ** (-0.5)
            assert value <= cand * (1 + 2e-3)

    def test_barron_divergence_detected(self):
        prof = fourier_transform(PotentialTerm("yukawa", {"mu": 2.0}), 3)
        with pytest.raises(NotInSpaceError):
            split_norm(prof, SplitIndex(0.0, math.inf, 0.0), 3)

    def test_divergent_tail_at_a_large_beta(self):
        # c_alpha_beta(2, 100, 3) takes the log-gamma ratio, so the tail check is reached
        prof = fourier_transform(PotentialTerm("yukawa", {"mu": 2.0}), 3)
        with pytest.raises(NotInSpaceError, match="tail diverges"):
            split_norm(prof, SplitIndex(1.0, 2.0, 100.0), 3)

    @pytest.mark.parametrize("r_exp", [2.0, 3.0, math.inf])
    def test_threshold_split_inequalities(self, r_exp):
        # level-set split at kappa = ||g||_p gives L^1 mass <= kappa and
        # L^r mass <= ||g||_p for any r >= p, samplewise on the grid
        rng = np.random.default_rng(7)
        g = make_radial_grid(1, 5.0, 150)
        p = 2.0
        for _ in range(10):
            steps = rng.uniform(0, 3, size=len(g.nodes)) * (rng.random(len(g.nodes)) > 0.3)
            w = 2.0 * g.weights  # omega_1 * r^0
            kappa = float(np.sum(w * steps ** p) ** (1 / p))
            if kappa == 0:
                continue
            S = steps > kappa
            l1_mass = float(np.sum(w[S] * steps[S]))
            assert l1_mass <= kappa * (1 + 1e-12)
            if math.isinf(r_exp):
                assert np.all(steps[~S] <= kappa)
            else:
                lr = float(np.sum(w[~S] * steps[~S] ** r_exp)) ** (1 / r_exp)
                lp = float(np.sum(w * steps ** p)) ** (1 / p)
                assert lr <= lp * (1 + 1e-12)


class TestEmbeddings:
    def test_holder_constant_example(self):
        c = embedding_constant((0.0, 1.0), (-2.0, 2.0), 1)
        assert c == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_same_smoothness_is_free(self):
        assert embedding_constant((0.3, 2.0), (0.3, 4.0), 2) == 1.0

    def test_borderline_raises(self):
        with pytest.raises(NoEmbeddingError):
            embedding_constant((0.0, 1.0), (-0.5, 2.0), 1)

    def test_wrong_direction_raises(self):
        with pytest.raises(NoEmbeddingError):
            embedding_constant((0.0, 1.0), (1.0, 2.0), 1)


class TestCounterexample:
    def test_eps_1_matches_asinh(self):
        eps = epsilon_ball_integral(1.0, 1)
        assert eps == pytest.approx(2 * math.asinh(1.0), rel=1e-6)

    def test_source_bound_is_one(self):
        upper, lower = counterexample_norm(100.0, 0.0, 1.0, -0.5, 2.0, 1)
        assert upper == 1.0
        assert lower > 0

    def test_lower_bound_monotone(self):
        values = [counterexample_norm(k, 0.0, 1.0, -0.5, 2.0, 1)[1]
                  for k in (10.0, 1e3, 1e6)]
        assert values[0] < values[1] < values[2]

    def test_equal_alphas_rejected(self):
        with pytest.raises(InvalidArgumentError):
            counterexample_norm(10.0, 0.0, 2.0, 0.0, 2.0, 1)

    def test_off_borderline_rejected(self):
        with pytest.raises(InvalidArgumentError):
            counterexample_norm(10.0, 0.0, 1.0, 0.0, 2.0, 1)


def test_conjugate_pairs():
    assert conjugate(1.0) == math.inf
    assert conjugate(math.inf) == 1.0
    assert conjugate(2.0) == 2.0
    assert conjugate(1.5) == pytest.approx(3.0)
