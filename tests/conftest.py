import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from flbarron.grid import FreqFunction, _exact_moments, _tail_correction, convolve, make_tensor_grid
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm, fourier_transform
from flbarron.special import omega_d


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
# reference grid geometry: rebuilt from the grid's fields on every call
# ---------------------------------------------------------------------------

def reference_geometry(grid):
    """(axis or None, |xi| at every node, R^d quadrature weights), one
    reshape per axis for tensor grids, omega_d w r^(d-1) for radial ones."""
    if grid.kind == "radial":
        r = grid.nodes
        return None, r, omega_d(grid.dim) * grid.weights * r ** (grid.dim - 1)
    ax = np.linspace(-grid.extent, grid.extent, grid.count)
    w1 = np.full(grid.count, 2.0 * grid.extent / (grid.count - 1))
    w1[0] *= 0.5
    w1[-1] *= 0.5
    sq = np.zeros(grid.shape)
    w = np.ones(grid.shape)
    for k in range(grid.dim):
        shape = [1] * grid.dim
        shape[k] = grid.count
        sq = sq + (ax ** 2).reshape(shape)
        w = w * w1.reshape(shape)
    return ax, np.sqrt(sq), w


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


# ---------------------------------------------------------------------------
# reference radial bipolar convolution: one radius at a time
# ---------------------------------------------------------------------------

_GX7, _GW7 = leggauss(7)


def _gauss7_moments(Qfun, c, lo_s, hi_s):
    mid = 0.5 * (lo_s + hi_s)
    half = 0.5 * (hi_s - lo_s)
    s = mid[..., None] + half[..., None] * _GX7
    K = Qfun(s)
    dd = s - c[..., None]
    m0 = (K * _GW7).sum(-1) * half
    m1 = (K * dd * _GW7).sum(-1) * half
    m2 = (K * dd * dd * _GW7).sum(-1) * half
    return np.stack([m0, m1, m2], axis=-1)


def reference_radial_convolve_3d(kernel, u_hat, r_eval=None, tail_profile=None):
    """grid.radial_convolve_3d evaluated per radius: the cell moments of
    Q(r+s) - Q(|r-s|) for each r, then the quadratic fit's weights."""
    g = u_hat.grid
    bounds = g.cell_bounds
    a, b = bounds[:-1], bounds[1:]
    c = 0.5 * (a + b)
    h = b - a
    ncells = len(a)
    nodes3 = g.nodes.reshape(ncells, 3)
    gvals = (g.nodes * np.real_if_close(u_hat.values)).reshape(ncells, 3)
    d = nodes3 - c[:, None]
    V = np.stack([np.ones_like(d), d, d * d], axis=2)
    VinvT = np.transpose(np.linalg.inv(V), (0, 2, 1))
    if r_eval is None:
        r_eval = g.nodes

    if kernel.smoothQ is not None:
        Qm = lambda r: (lambda s: kernel.smoothQ(np.abs(r - s)))
        Qp = lambda r: (lambda s: kernel.smoothQ(r + s))
        exactable = False
    else:
        q, log = kernel.q, kernel.log
        scale = kernel.scale
        Qm = lambda r: (lambda s: scale * (np.log(np.abs(r - s)) if log else np.abs(r - s) ** q))
        Qp = lambda r: (lambda s: scale * (np.log(r + s) if log else (r + s) ** q))
        exactable = True

    out = np.empty(len(r_eval))
    for idx, r in enumerate(np.asarray(r_eval, dtype=float)):
        m_abs = np.zeros((ncells, 3))
        near = np.abs(r - c) <= 3.0 * h if exactable else np.zeros(ncells, dtype=bool)
        far = ~near
        if far.any():
            m_abs[far] = _gauss7_moments(Qm(r), c[far], a[far], b[far])
        if near.any():
            an, bn, cn = a[near], b[near], c[near]
            acc = np.zeros((near.sum(), 3))
            hi_s = np.minimum(bn, r)
            valid = hi_s > an
            if valid.any():
                acc[valid] += kernel.scale * _exact_moments(
                    r - cn[valid], -1.0, r - hi_s[valid], r - an[valid],
                    kernel.q, kernel.log)
            lo_s = np.maximum(an, r)
            valid = bn > lo_s
            if valid.any():
                acc[valid] += kernel.scale * _exact_moments(
                    r - cn[valid], 1.0, lo_s[valid] - r, bn[valid] - r,
                    kernel.q, kernel.log)
            m_abs[near] = acc
        m_plus = np.zeros((ncells, 3))
        nearp = (r + c) <= 3.0 * h if exactable else np.zeros(ncells, dtype=bool)
        farp = ~nearp
        if farp.any():
            m_plus[farp] = _gauss7_moments(Qp(r), c[farp], a[farp], b[farp])
        if nearp.any():
            m_plus[nearp] = kernel.scale * _exact_moments(
                -(r + c[nearp]), 1.0, r + a[nearp], r + b[nearp], kernel.q, kernel.log)
        m = m_plus - m_abs
        wcell = np.einsum("cij,cj->ci", VinvT, m)
        out[idx] = np.einsum("ci,ci->", wcell, gvals)

    r_arr = np.asarray(r_eval, dtype=float)
    return 2.0 * np.pi / r_arr * out + _tail_correction(kernel, tail_profile, bounds[-1], r_arr)
