import math

import numpy as np
import pytest

from flbarron.errors import (
    DivergentPartError,
    InvalidArgumentError,
)
from flbarron.grid import EULER_GAMMA, make_radial_grid, radial_integral, sample_profile
from flbarron.potentials import (
    HamiltonianSpec,
    PotentialSpec,
    PotentialTerm,
    admissible,
    decompose_low_high,
    fourier_transform,
    sharp_example_potential,
)
from flbarron.spaces import SpaceIndex, default_norm_grid, fl_norm


class TestFourierTransform:
    def test_coulomb_3d_coefficient(self):
        prof = fourier_transform(PotentialTerm("coulomb"), 3)
        assert prof.kind == "power"
        C, a = prof.params
        assert C == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert a == -2.0

    def test_coulomb_coefficient_quadrature_cross_check(self):
        # Parseval against a unit gaussian: int |x|^-1 e^(-pi x^2) dx
        # equals c * int |xi|^-2 e^(-pi xi^2) dxi, so c drops out of a ratio
        from flbarron.grid import FreqFunction

        g = make_radial_grid(3, 40.0, 3000)
        gauss = np.exp(-math.pi * g.nodes ** 2)
        lhs = radial_integral(FreqFunction(g, gauss / g.nodes))
        rhs_over_c = radial_integral(FreqFunction(g, gauss / g.nodes ** 2))
        c_quad = lhs / rhs_over_c
        assert c_quad == pytest.approx(1.0 / math.pi, rel=1e-8)

    def test_yukawa_at_origin(self):
        prof = fourier_transform(PotentialTerm("yukawa", {"mu": 2.0}), 3)
        assert prof(np.array([0.0]))[0] == pytest.approx(math.pi, rel=1e-14)

    def test_sharp_example_delta_one(self):
        amp, c, m = sharp_example_potential(1.0, 3).psi_profile.params
        assert amp == pytest.approx(8 * math.pi, rel=1e-14)
        assert c == pytest.approx(4 * math.pi ** 2, rel=1e-14)
        assert m == 2.0

    def test_log_kernel_1d(self):
        prof = fourier_transform(PotentialTerm("inverse_power", {"t": 1.0}), 1)
        assert prof.kind == "log_kernel"
        val = prof(np.array([2.0]))[0]
        assert val == pytest.approx(-2.0 * (math.log(2.0) + EULER_GAMMA), rel=1e-14)

    def test_gaussian_l1_mass(self):
        prof = fourier_transform(PotentialTerm("gaussian", {"kappa": 2.0}), 1)
        g = make_radial_grid(1, 12.0, 600, r_min=1e-3)
        assert radial_integral(sample_profile(prof, g)) == pytest.approx(2.0, rel=1e-10)

    def test_invalid_inverse_power(self):
        with pytest.raises(InvalidArgumentError):
            fourier_transform(PotentialTerm("inverse_power", {"t": 3.0}), 3)
        with pytest.raises(InvalidArgumentError):
            fourier_transform(PotentialTerm("inverse_power", {"t": -0.5}), 3)


class TestDecomposeLowHigh:
    def test_coulomb_parts_at_unit_radius(self):
        sp = decompose_low_high(PotentialTerm("coulomb"), 3, 1.0, 3.0)
        n1, n2 = sp.part_norms
        assert n1 == pytest.approx(4.0, rel=1e-12)
        assert n2 == pytest.approx((1 / math.pi) * (4 * math.pi / 3) ** (1 / 3), rel=1e-12)

    def test_divergent_high_part(self):
        # alpha' = n/(n-t) sits exactly on the divergence boundary
        with pytest.raises(DivergentPartError):
            decompose_low_high(PotentialTerm("inverse_power", {"t": 1.5}), 3, 1.0, 2.0)

    @pytest.mark.parametrize("alpha_prime", [2.0, math.inf])
    def test_log_kernel_has_no_tail_model(self, alpha_prime):
        # its transform grows like ln r: the high part is not truncated at the
        # norm grid's edge and reported as finite
        with pytest.raises(DivergentPartError, match="log_1d: .*log_kernel"):
            decompose_low_high(PotentialTerm("log_1d"), 1, 1.0, alpha_prime)

    def test_high_part_vanishes_as_radius_grows(self):
        norms = [decompose_low_high(PotentialTerm("coulomb"), 3, R, 3.0).part_norms[1]
                 for R in (1.0, 4.0, 16.0)]
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 0.2 * norms[0]

    def test_parts_recombine(self):
        sp = decompose_low_high(PotentialTerm("yukawa", {"mu": 1.0}), 3, 2.0, 3.0)
        total = np.asarray(sp.f1.values) + np.asarray(sp.f2.values)
        grid = sp.f1.grid
        prof = fourier_transform(PotentialTerm("yukawa", {"mu": 1.0}), 3)
        assert np.allclose(total, prof(grid.nodes), rtol=0, atol=1e-14)

    def test_part_norms_use_the_returned_split_at_a_node_radius(self):
        # |xi| <= R on both sides even when R is itself a quadrature node
        term = PotentialTerm("gaussian", {"width": 0.5})
        grid = default_norm_grid(3)
        R = float(grid.nodes[np.searchsorted(grid.nodes, 1.0)])
        sp = decompose_low_high(term, 3, R, 3.0)
        assert sp.f1.values[grid.nodes == R] != 0.0
        assert sp.part_norms == (fl_norm(sp.f1, SpaceIndex(0.0, 1.0)),
                                 fl_norm(sp.f2, SpaceIndex(0.0, 3.0)))


class TestAdmissibleRegion:
    def test_coulomb_examples(self):
        assert admissible(PotentialTerm("coulomb"), 3, 0.0, 2.0)
        assert not admissible(PotentialTerm("inverse_power", {"t": 1.5}), 3, 0.0, 2.0)

    def test_assumption_boundary(self):
        term = PotentialTerm("gaussian", {"kappa": 1.0})
        assert not admissible(term, 3, -1.0, math.inf)
        assert admissible(term, 3, -0.5, math.inf)
        assert not admissible(term, 3, -0.5, 2.9)  # needs alpha > n/(2(1+s)) = 3

    def test_antitone_in_t(self):
        lattice = [(s, a) for s in (-0.5, -0.25, 0.0, 0.5, 1.0)
                   for a in (1.6, 2.0, 3.0, 10.0, math.inf)]
        for t_small, t_big in ((0.5, 0.9), (0.9, 1.4), (1.4, 2.2)):
            small = PotentialTerm("inverse_power", {"t": t_small})
            big = PotentialTerm("inverse_power", {"t": t_big})
            for s, a in lattice:
                if admissible(big, 3, s, a):
                    assert admissible(small, 3, s, a)


class TestSharpExample:
    def test_delta_one_is_attractive_coulomb(self):
        ex = sharp_example_potential(1.0, 3)
        assert ex.eigenvalue == -0.5
        (i, term), = ex.hamiltonian.potential.one_particle
        assert i == 1
        assert term.power_exponent() == 1.0
        # eigenvalue identity forces the attractive sign, coefficient -(n-1)/2
        assert term.coeff == pytest.approx(-1.0)

    def test_delta_half_coefficients(self):
        ex = sharp_example_potential(0.5, 3)
        assert ex.eigenvalue == 0.0
        terms = ex.hamiltonian.potential.one_particle
        data = sorted(((t.params["t"], t.coeff) for _, t in terms))
        assert data[0][0] == pytest.approx(1.0)      # |x|^(2 delta - 2) = |x|^-1
        assert data[0][1] == pytest.approx(1.0 / 8.0)
        assert data[1][0] == pytest.approx(1.5)      # |x|^(delta - 2) = |x|^-1.5
        assert data[1][1] == pytest.approx(-3.0 / 8.0)

    def test_out_of_range_delta(self):
        with pytest.raises(InvalidArgumentError):
            sharp_example_potential(1.5, 3)
        with pytest.raises(InvalidArgumentError):
            sharp_example_potential(0.5, 1)

    def test_psi_transform_inverts_to_one(self):
        from flbarron.spaces import SpaceIndex, profile_norm_report

        ex = sharp_example_potential(1.0, 3)
        rep = profile_norm_report(ex.psi_profile, SpaceIndex(0.0, 1.0), 3)
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_low_part_norm_grows_with_t(self):
        # ||f_hat 1_{<=1}||_{L^1} = nu_{t,n}/t evaluated across the power ladder
        values = [decompose_low_high(PotentialTerm("inverse_power", {"t": t}), 3,
                                     1.0, 4.0).part_norms[0]
                  for t in (0.3, 0.6, 1.0, 1.4, 1.8, 2.2)]
        assert all(a < b for a, b in zip(values[:-1], values[1:]))

    def test_catalog_terms_have_finite_parts_when_admissible(self):
        cases = [
            (PotentialTerm("coulomb"), 3, 0.0, 2.0),
            (PotentialTerm("inverse_power", {"t": 0.5}), 3, 0.0, 4.0),
            (PotentialTerm("inverse_power", {"t": 0.5}), 1, 0.0, 1.5),
            (PotentialTerm("yukawa", {"mu": 1.0}), 3, 0.0, 2.0),
            (PotentialTerm("gaussian", {"kappa": 1.0}), 1, 0.5, math.inf),
        ]
        for term, n, s, alpha in cases:
            assert admissible(term, n, s, alpha)
            ap = math.inf if alpha == 1.0 else (1.0 if math.isinf(alpha)
                                                else alpha / (alpha - 1.0))
            sp = decompose_low_high(term, n, 1.0, ap, s=s)
            assert math.isfinite(sp.part_norms[0])
            assert math.isfinite(sp.part_norms[1])


class TestSpecAssembly:
    def test_index_validation(self):
        with pytest.raises(InvalidArgumentError):
            PotentialSpec(3, 2, one_particle=[(3, PotentialTerm("coulomb"))])
        with pytest.raises(InvalidArgumentError):
            PotentialSpec(3, 2, pairwise=[(2, 1, PotentialTerm("coulomb"))])

    def test_terms_roles_dims_and_order(self):
        g1, p1 = PotentialTerm("gaussian"), PotentialTerm("inverse_power", {"t": 0.3})
        g12, g23 = PotentialTerm("gaussian", {"kappa": 0.5}), PotentialTerm("gaussian", coeff=2.0)
        ad = PotentialTerm("gaussian", {"kappa": 0.1})
        pot = PotentialSpec(1, 3, one_particle=[(3, g1), (1, p1)],
                            pairwise=[(2, 3, g23), (1, 2, g12)], additive=ad)
        assert pot.terms() == [("one_particle", 3, None, g1, 1), ("one_particle", 1, None, p1, 1),
                               ("pairwise", 2, 3, g23, 1), ("pairwise", 1, 2, g12, 1),
                               ("additive", None, None, ad, 3)]
        assert PotentialSpec(2, 2).terms() == []

    @pytest.mark.parametrize("n, N", [(2.7, 1), (0, 1), (1, 0), (-1, 2), (1, 1.5),
                                      (math.nan, 1), (True, 1), ("2", 1)])
    def test_n_and_N_must_be_whole_and_positive(self, n, N):
        with pytest.raises(InvalidArgumentError, match="whole number|>= 1"):
            PotentialSpec(n, N)
        with pytest.raises(InvalidArgumentError, match="whole number|>= 1"):
            PotentialSpec.from_json_dict({"n": n, "N": N})

    def test_whole_floats_become_ints(self):
        pot = PotentialSpec.from_json_dict({"n": 3.0, "N": 2.0, "pairwise": [
            {"i": 1.0, "j": 2, "kind": "coulomb"}]})
        assert (pot.n, pot.N, pot.dim) == (3, 2, 6)
        assert all(type(v) is int for v in (pot.n, pot.N, *pot.pairwise[0][:2]))

    def test_json_indices_are_not_truncated(self):
        with pytest.raises(InvalidArgumentError, match="i must be a whole number"):
            PotentialSpec.from_json_dict({"n": 1, "N": 2, "one_particle": [
                {"i": 1.5, "kind": "gaussian"}]})

    def test_positive_masses(self):
        with pytest.raises(InvalidArgumentError):
            HamiltonianSpec(PotentialSpec(1, 1), (0.0,))

    @pytest.mark.parametrize("build", [
        lambda: PotentialTerm("gaussian", {"kappa": math.nan}),
        lambda: PotentialTerm("yukawa", {"mu": math.inf}),
        lambda: PotentialTerm("coulomb", coeff=math.nan),
        lambda: PotentialTerm("gaussian", shift=(0.0, -math.inf)),
        lambda: HamiltonianSpec(PotentialSpec(1, 1), (math.inf,)),
        lambda: HamiltonianSpec(PotentialSpec(1, 1), (math.nan,)),
    ], ids=["param", "param_inf", "coeff", "shift", "mass_inf", "mass_nan"])
    def test_non_finite_input_rejected(self, build):
        with pytest.raises(InvalidArgumentError):
            build()
