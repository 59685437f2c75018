import math

import numpy as np
import pytest

from flbarron.grid import FreqFunction, convolve, make_tensor_grid
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm, fourier_transform


@pytest.fixture
def grid_1d():
    return make_tensor_grid(1, 8.0, 129)


@pytest.fixture
def gauss_rhs(grid_1d):
    r = grid_1d.radius_mesh()
    return FreqFunction(grid_1d, np.exp(-math.pi * r * r))


@pytest.fixture
def free_ham_1d():
    return HamiltonianSpec(PotentialSpec(1, 1), (1.0,))


@pytest.fixture
def gaussian_ham_1d():
    pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.05}))
    return HamiltonianSpec(pot, (1.0,))


@pytest.fixture
def coulomb_pair_spec():
    return PotentialSpec(3, 2, pairwise=[(1, 2, PotentialTerm("coulomb"))])


def random_complex(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    r = grid.radius_mesh()
    return FreqFunction(grid, np.where(r <= 0.8 * grid.extent, vals, 0.0))


# ---------------------------------------------------------------------------
# reference operators: one grid.convolve per term and application, no plan
# ---------------------------------------------------------------------------

def reference_V(pot: PotentialSpec, u: FreqFunction) -> np.ndarray:
    """F(V u) as the sum over terms of grid.convolve, each kernel sampled anew."""
    terms = ([("one_particle", i, t, pot.n) for i, t in pot.one_particle]
             + [("pairwise", (i, j), t, pot.n) for i, j, t in pot.pairwise]
             + ([("additive", None, pot.additive, pot.dim)] if pot.additive else []))
    out = np.zeros(u.grid.shape, dtype=complex)
    for structure, particle, term, dim in terms:
        shift = np.asarray(term.shift, float) if term.shift else None
        conv = convolve(fourier_transform(term, dim), u, structure, particle=particle,
                        n=pot.n, shift=shift)
        out = out + term.coeff * np.asarray(conv.values)
    shifted = any(np.any(np.asarray(t.shift) != 0) for _, _, t, _ in terms)
    return out if np.iscomplexobj(u.values) or shifted else out.real


def reference_symbol(spec: HamiltonianSpec, grid) -> np.ndarray:
    """h(xi) = 2 pi^2 sum_i |xi_i|^2 / mu_i + 1 from the full coordinate mesh."""
    mesh = np.meshgrid(*([grid.axis] * grid.dim), indexing="ij")
    h = np.ones(grid.shape)
    for k, xi in enumerate(mesh):
        h = h + (2.0 * math.pi ** 2 / spec.masses[k // spec.n]) * xi ** 2
    return h


def reference_R(spec: HamiltonianSpec, u: FreqFunction, rho: float) -> np.ndarray:
    return reference_V(spec.potential, u) / (reference_symbol(spec, u.grid) - 1.0 + rho)


PLAN_CASES = ("gauss1d_additive", "invpow1d", "pair2d", "shifted1d", "coulomb3d")


def plan_case(name: str, coeff: float, mass: float, count: int):
    """(HamiltonianSpec, tensor grid with ``count`` points per axis) for one
    of the operator-plan equivalence cases."""
    if name == "gauss1d_additive":
        pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": coeff}))
        extent = 6.0
    elif name == "invpow1d":
        pot = PotentialSpec(1, 1, one_particle=[
            (1, PotentialTerm("inverse_power", {"t": 0.5}, coeff=coeff))])
        extent = 8.0
    elif name == "pair2d":
        pot = PotentialSpec(1, 2, pairwise=[
            (1, 2, PotentialTerm("inverse_power", {"t": 0.5}, coeff=coeff))])
        extent = 6.0
    elif name == "shifted1d":
        pot = PotentialSpec(1, 1, one_particle=[
            (1, PotentialTerm("gaussian", {"kappa": 1.0}, shift=(0.7,), coeff=coeff))])
        extent = 6.0
    elif name == "coulomb3d":
        pot = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("coulomb", coeff=coeff))])
        extent = 5.0
    else:
        raise ValueError(name)
    masses = (mass, 1.5)[:pot.N]
    return HamiltonianSpec(pot, masses), make_tensor_grid(pot.dim, extent, count)
