"""Every input check raises its ToolkitError subclass where the input enters.

One row per check that the rest of the suite does not reach: the call, and
the error class it must raise.  A bare Python exception (ValueError,
ZeroDivisionError, ...) or a returned value fails the row.
"""

import math
import re

import numpy as np
import pytest

from flbarron import bounds as B
from flbarron import operators as O
from flbarron import solver as SV
from flbarron import spaces as S
from flbarron import special
from flbarron.errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    PoleError,
    UnsupportedKindError,
    UnsupportedScaleError,
)
from flbarron.grid import (
    FreqFunction,
    FreqGrid,
    RadialKernel3D,
    RadialProfile,
    lattice_kernel,
    make_radial_grid,
    make_tensor_grid,
    radial_integral,
    sample_profile,
)
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm, fourier_transform

GAUSS = RadialProfile("gaussian", (1.0, 1.0))
FREE = HamiltonianSpec(PotentialSpec(1, 1), (1.0,))


def tensor(dim=1):
    return make_tensor_grid(dim, 4.0, 9)


def radial(dim=3):
    return make_radial_grid(dim, 4.0, 30)


def one_particle(n, term, masses=(1.0,)):
    return HamiltonianSpec(PotentialSpec(n, 1, one_particle=[(1, term)]), masses)


def coulomb3(coeff=1.0):
    return one_particle(3, PotentialTerm("coulomb", coeff=coeff))


def context():
    return B.BoundContext(coulomb3(), 0.0, 2.4, 0.4)


def radial_multiply(ham):
    g = radial(ham.n)
    return O.OperatorPlan(ham, g).multiply_V(np.zeros(g.shape))


def margin(gamma):
    # the 3-D Coulomb case of coercivity_margin, with frak_C given
    return B.coercivity_margin(coulomb3(5.0), 0.0, 2.4, gamma, 50.0, 30.0)


CASES = {  # id: (call, error class, message fragment)
    # grids and profiles
    "grid_unknown_kind": (
        lambda: FreqGrid(1, "hex"),
        InvalidArgumentError, "unknown grid kind"),
    "grid_dim_0": (
        lambda: FreqGrid(0, "tensor", extent=1.0, count=3),
        InvalidArgumentError, "dim must be >= 1"),
    "tensor_grid_without_extent": (
        lambda: FreqGrid(1, "tensor", count=3),
        InvalidArgumentError, "needs extent and count"),
    "radial_r_min_above_r_max": (
        lambda: make_radial_grid(3, 1.0, 30, r_min=2.0),
        InvalidArgumentError, "r_min must lie"),
    "radial_r_min_zero": (
        lambda: make_radial_grid(3, 1.0, 30, r_min=0.0),
        InvalidArgumentError, "r_min must lie"),
    "profile_unknown_kind": (
        lambda: RadialProfile("nope")(1.0),
        UnsupportedKindError, "unknown profile kind"),
    "sample_profile_on_tensor": (
        lambda: sample_profile(GAUSS, tensor()),
        DimensionMismatchError, "expects a radial grid"),
    "radial_integral_on_tensor": (
        lambda: radial_integral(FreqFunction(tensor(), np.zeros(9))),
        DimensionMismatchError, "needs a radial"),
    # lattice kernels and radial primitives
    "lattice_kernel_on_radial": (
        lambda: lattice_kernel(GAUSS, radial(), "additive"),
        DimensionMismatchError, "operates on tensor grids"),
    "lattice_kernel_without_n": (
        lambda: lattice_kernel(GAUSS, tensor(), "one_particle", 1),
        InvalidArgumentError, "needs n"),
    "lattice_kernel_pairwise_n2": (
        lambda: lattice_kernel(GAUSS, tensor(2), "pairwise", (1, 2), n=2),
        UnsupportedScaleError, "for n = 1 lattices"),
    "lattice_kernel_unknown_structure": (
        lambda: lattice_kernel(GAUSS, tensor(), "triple", 1, n=1),
        InvalidArgumentError, "unknown convolution structure"),
    "radial_kernel_of_log": (
        lambda: RadialKernel3D(RadialProfile("log_kernel", (-2.0,))),
        UnsupportedKindError, "no radial kernel primitive"),
    "radial_kernel_of_gaussian": (
        lambda: RadialKernel3D(RadialProfile("gaussian", (1.0, 1.0))),
        UnsupportedKindError, "no radial kernel primitive for kind 'gaussian'"),
    # operator plans and probing
    "radial_plan_n1": (
        lambda: radial_multiply(one_particle(1, PotentialTerm("gaussian"))),
        UnsupportedScaleError, "N=1, n=3"),
    "radial_plan_shifted_term": (
        lambda: radial_multiply(one_particle(3, PotentialTerm("coulomb", shift=(0.5, 0.0, 0.0)))),
        UnsupportedScaleError, "shifted terms need a tensor grid"),
    "radial_plan_yukawa_term": (
        lambda: radial_multiply(one_particle(3, PotentialTerm("yukawa", {"mu": 1.0}))),
        UnsupportedKindError, "one_particle term of kind 'yukawa'"),
    "radial_plan_gaussian_term": (
        lambda: radial_multiply(HamiltonianSpec(
            PotentialSpec(3, 1, additive=PotentialTerm("gaussian")), (1.0,))),
        UnsupportedKindError, "additive term of kind 'gaussian'"),
    "probe_zero_probes": (
        lambda: O.empirical_operator_norm("identity", FREE, tensor(), S.SpaceIndex(0, 1),
                                          S.SpaceIndex(0, 1), probes=0, seed=0),
        InvalidArgumentError, "probes must be >= 1"),
    # potential terms and specs
    "yukawa_mu_zero": (
        lambda: PotentialTerm("yukawa", {"mu": 0.0}),
        InvalidArgumentError, "mu > 0"),
    "gaussian_width_zero": (
        lambda: PotentialTerm("gaussian", {"width": 0.0}),
        InvalidArgumentError, "width > 0"),
    "yukawa_n1": (
        lambda: fourier_transform(PotentialTerm("yukawa", {"mu": 1.0}), 1),
        UnsupportedKindError, "for n = 3"),
    "log_1d_n3": (
        lambda: fourier_transform(PotentialTerm("log_1d"), 3),
        InvalidArgumentError, "dimension 1"),
    "shift_length": (
        lambda: PotentialTerm("coulomb", shift=(1.0,)).validate_for_dim(3),
        InvalidArgumentError, "shift length"),
    "mass_count": (
        lambda: HamiltonianSpec(PotentialSpec(3, 2), (1.0,)),
        InvalidArgumentError, "one mass per particle"),
    # solver
    "bootstrap_unknown_mode": (
        lambda: SV.bootstrap_series(FREE, "neither", FreqFunction(tensor(), np.zeros(9)),
                                    0.0, math.inf, 1.0, 0.0),
        InvalidArgumentError, "mode must be"),
    "transform_n2": (
        lambda: SV.stretched_exp_transform(1.0, 0.5, n=2),
        UnsupportedScaleError, "transform implemented for n = 3"),
    "sharpness_n2": (
        lambda: SV.sharpness_experiment(0.5, n=2),
        UnsupportedScaleError, "experiment implemented for n = 3"),
    "c1_at_a_gamma_pole": (
        lambda: SV.c1_constant(3, 2.0),
        PoleError, "Gamma pole"),
    # spaces
    "conjugate_below_1": (
        lambda: S.conjugate(0.5),
        InvalidArgumentError, "alpha must be in"),
    "split_norm_negative_beta_at_inf": (
        lambda: S.split_norm(GAUSS, S.SplitIndex(0.0, math.inf, -1.0), 3),
        InvalidArgumentError, "beta must be >= 0"),
    "embedding_alpha_below_1": (
        lambda: S.embedding_constant((0.0, 0.5), (0.0, 2.0), 1),
        InvalidArgumentError, "must be >= 1"),
    "embedding_wrong_direction": (
        lambda: S.embedding_constant((1.0, 3.0), (0.0, 2.0), 1),
        InvalidArgumentError, "needs alpha1 < alpha2"),
    "counterexample_k_below_1": (
        lambda: S.counterexample_norm(0.5, 0.0, 1.0, -0.5, 2.0, 1),
        InvalidArgumentError, "k must be >= 1"),
    # special functions
    "c_alpha_beta_alpha_below_1": (
        lambda: special.c_alpha_beta(0.5, 2.0, 1),
        InvalidArgumentError, "alpha must be >= 1"),
    "c_alpha_beta_negative_beta_at_inf": (
        lambda: special.c_alpha_beta(math.inf, -1.0, 1),
        InvalidArgumentError, "beta must be >= 0"),
    "c_t_n_t_zero": (
        lambda: special.c_t_n(0.0, 3),
        InvalidArgumentError, "t must be positive"),
    "nu_t_n_t_negative": (
        lambda: special.nu_t_n(-1.0, 3),
        InvalidArgumentError, "t must be positive"),
    "c_t_n_pole": (
        lambda: special.c_t_n(5.0, 3),
        PoleError, "Gamma pole"),
    "gamma_pole": (
        lambda: special.gamma(-1.0),
        PoleError, "Gamma pole"),
    # bounds
    "context_gamma_at_abs_s": (
        lambda: B.BoundContext(coulomb3(), 0.5, 2.0, 0.5),
        InvalidArgumentError, "gamma must exceed |s|"),
    "context_gamma_above_s_plus_2_at_inf": (
        lambda: B.BoundContext(coulomb3(), 0.0, math.inf, 2.5),
        InvalidArgumentError, "<= s + 2"),
    "context_gamma_at_ceiling": (
        lambda: B.BoundContext(coulomb3(), 0.0, 2.0, 0.5),
        InvalidArgumentError, "below s - n/alpha + 2"),
    "context_gamma_above_ceiling": (
        lambda: B.BoundContext(coulomb3(), 0.0, 2.0, 0.7),
        InvalidArgumentError, "below s - n/alpha + 2"),
    "eigen_certificate_negative_norm": (
        lambda: B.eigen_certificate(context(), -1.0, C=1.0),
        InvalidArgumentError, "input_norm must be nonnegative"),
    "eigen_certificate_unknown_which": (
        lambda: B.eigen_certificate(context(), 1.0, "sup", C=1.0),
        InvalidArgumentError, "which must be"),
    "inverse_power_gamma_at_2_minus_t": (
        lambda: B.inverse_power_C_bound(1.0, 3, 1.0, 1.0),
        InvalidArgumentError, "below 2 - t"),
    "inverse_power_t_above_n2": (
        lambda: B.inverse_power_C_bound(2.5, 2, -1.0, 1.0),
        InvalidArgumentError, "only exists for n = 1"),
    "margin_gamma_at_abs_s": (
        lambda: margin(0.0),
        InvalidArgumentError, "gamma > |s|"),
    "margin_gamma_below_abs_s": (
        lambda: margin(-0.2),
        InvalidArgumentError, "gamma > |s|"),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_raises_its_typed_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
