import math
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from flbarron.grid import (
    FreqFunction,
    FreqGrid,
    _exact_moments,
    _tail_correction,
    convolve,
    lattice_kernel,
    make_tensor_grid,
)
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


def quad_sharp_transform(rho: float, delta: float) -> float:
    """The n = 3 transform of exp(-|x|^delta) at radius rho by QUADPACK's
    sine-weighted rule on [0, r_cut], where exp(-r_cut^delta) = 1e-18: a
    reference independent of ``solver.sharp_transform_radii``.  A QUADPACK
    warning (round-off, a hit subdivision limit) is raised, not its value returned."""
    from scipy.integrate import IntegrationWarning, quad

    r_cut = (18.0 * math.log(10.0)) ** (1.0 / delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        if rho == 0.0:
            val, _ = quad(lambda r: math.exp(-r ** delta) * r ** 2, 0, r_cut,
                          epsabs=1e-13, epsrel=1e-13, limit=400)
            return omega_d(3) * val
        val, _ = quad(lambda r: math.exp(-r ** delta) * r, 0, r_cut, weight="sin",
                      wvar=2.0 * math.pi * rho, epsabs=1e-13, epsrel=1e-13, limit=4000)
        return 2.0 / rho * val


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


def reference_fl_norm(f: FreqFunction, idx) -> float:
    """FL^p_s norm of one function as one flattened sum, its root a scalar
    power (the grid max of the weighted samples when p = inf)."""
    _, r, w = reference_geometry(f.grid)
    r = r.ravel()
    weighted = (1.0 + r * r) ** (idx.s / 2.0) * np.abs(np.asarray(f.values).ravel())
    if math.isinf(idx.p):
        return float(np.max(weighted))
    return float(np.sum(w.ravel() * weighted ** idx.p) ** (1.0 / idx.p))


def reference_sample_kernel_on_lattice(profile, n: int, grid, shift=None) -> np.ndarray:
    """V_hat times the trapezoid weights on the n-dim lattice of ``grid``
    from a coordinate mesh built on the spot: radii by np.linalg.norm,
    16^n midpoint sub-cells within 3 spacings of the origin for singular
    profiles, and the phase of a nonzero shift.  Each near cell's sub-cell
    mean is taken at its canonical cell (its absolute index offsets from
    the center, sorted ascending); its own weight and phase apply after."""
    ax = np.linspace(-grid.extent, grid.extent, grid.count)
    h = 2.0 * grid.extent / (grid.count - 1)
    m = (grid.count - 1) // 2
    mesh = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)
    radius = np.linalg.norm(mesh, axis=-1)
    if profile.kind in ("power", "log_kernel"):
        vals = np.asarray(profile(np.where(radius > 0, radius, h)), dtype=float).copy()
        sub = ((np.arange(16) + 0.5) / 16.0 - 0.5) * h
        offs = np.stack(np.meshgrid(*([sub] * n), indexing="ij"), axis=-1).reshape(-1, n)
        for idx in np.argwhere(radius <= 3.0 * h + 1e-12 * h):
            canonical = tuple(m + np.sort(np.abs(idx - m)))
            pts = np.linalg.norm(mesh[canonical][None, :] + offs, axis=1)
            vals[tuple(idx)] = float(np.mean(profile(pts)))
    else:
        vals = np.asarray(profile(radius), dtype=float)
    kernel = vals * reference_geometry(FreqGrid(n, "tensor", extent=grid.extent,
                                                count=grid.count))[2]
    if shift is not None and np.any(np.asarray(shift) != 0):
        kernel = kernel * np.exp(-2j * np.pi * (mesh @ np.asarray(shift, dtype=float)))
    return kernel


# ---------------------------------------------------------------------------
# reference operators: one grid.convolve per term and application, no plan
# ---------------------------------------------------------------------------

def reference_V(pot: PotentialSpec, u: FreqFunction) -> np.ndarray:
    """F(V u) as the sum over terms of grid.convolve, each kernel laid out anew."""
    terms = ([("one_particle", i, t, pot.n) for i, t in pot.one_particle]
             + [("pairwise", (i, j), t, pot.n) for i, j, t in pot.pairwise]
             + ([("additive", None, pot.additive, pot.dim)] if pot.additive else []))
    out = np.zeros(u.grid.shape, dtype=complex)
    for structure, particle, term, dim in terms:
        shift = np.asarray(term.shift, float) if term.shift else None
        conv = convolve(lattice_kernel(fourier_transform(term, dim), u.grid, structure,
                                       particle=particle, n=pot.n, shift=shift), u)
        out = out + term.coeff * np.asarray(conv.values)
    shifted = any(np.any(np.asarray(t.shift) != 0) for _, _, t, _ in terms)
    return out if np.iscomplexobj(u.values) or shifted else out.real


def reference_direct_V(pot: PotentialSpec, u: FreqFunction) -> np.ndarray:
    """F(V u) with no FFT: per term, the direct "same" convolution
    out[a] = sum_j kernel[j] u[a - j + m] (m = (M-1)/2 on each kernel axis,
    zero outside the grid) of the kernel laid out here from
    reference_sample_kernel_on_lattice, summed as reference_V sums."""
    g = u.grid
    M, m = g.count, (g.count - 1) // 2
    terms = ([(tuple(range((i - 1) * pot.n, i * pot.n)), t, pot.n) for i, t in pot.one_particle]
             + [(((i - 1) * pot.n, (j - 1) * pot.n), t, pot.n) for i, j, t in pot.pairwise]
             + ([(tuple(range(g.dim)), pot.additive, pot.dim)] if pot.additive else []))
    uv = np.asarray(u.values)
    out = np.zeros(g.shape, dtype=complex)
    for axes, term, n in terms:
        shift = np.asarray(term.shift, float) if term.shift else None
        kernel = reference_sample_kernel_on_lattice(fourier_transform(term, n), n, g, shift)
        if len(axes) != n:  # pairwise: support on theta_j = -theta_i
            k1, kernel = kernel, np.zeros((M, M), dtype=kernel.dtype)
            kernel[np.arange(M), M - 1 - np.arange(M)] = k1
        conv = np.zeros(g.shape, dtype=np.result_type(kernel, uv))
        for j in np.ndindex(kernel.shape):
            dst, src = [slice(None)] * g.dim, [slice(None)] * g.dim
            for ax, jk in zip(axes, j):
                o = jk - m  # out[a] reads u[a - o]
                dst[ax] = slice(max(o, 0), M + min(o, 0))
                src[ax] = slice(max(-o, 0), M - max(o, 0))
            conv[tuple(dst)] += kernel[j] * uv[tuple(src)]
        out = out + term.coeff * conv
    shifted = any(np.any(np.asarray(t.shift) != 0) for _, t, _ in terms)
    return out if np.iscomplexobj(uv) or shifted else out.real


def reference_symbol(spec: HamiltonianSpec, grid) -> np.ndarray:
    """h(xi) = 2 pi^2 sum_i |xi_i|^2 / mu_i + 1 from the full coordinate mesh."""
    mesh = np.meshgrid(*([grid.axis] * grid.dim), indexing="ij")
    h = np.ones(grid.shape)
    for k, xi in enumerate(mesh):
        h = h + (2.0 * math.pi ** 2 / spec.masses[k // spec.n]) * xi ** 2
    return h


def reference_R(spec: HamiltonianSpec, u: FreqFunction, rho: float) -> np.ndarray:
    return reference_V(spec.potential, u) / (reference_symbol(spec, u.grid) - 1.0 + rho)


PLAN_CASES = ("gauss1d_additive", "invpow1d", "pair2d", "mixed2d", "shifted1d", "coulomb3d")


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
    elif name == "mixed2d":  # a one-particle kernel is a delta along the other axis
        pot = PotentialSpec(1, 2, one_particle=[
            (2, PotentialTerm("gaussian", {"kappa": 1.0}, coeff=coeff))], pairwise=[
            (1, 2, PotentialTerm("inverse_power", {"t": 0.5}, coeff=0.5 * coeff))])
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
# reference probing: one probe drawn, applied and normed at a time
# ---------------------------------------------------------------------------

def reference_random_band_limited(grid, seed: int, index: int, band: float = 0.8,
                                  real_space_real: bool = False) -> FreqFunction:
    """One probe: phases then amplitudes over the whole grid from the
    generator seeded with (seed, index), amp * exp(i phase) at every node,
    zeroed outside |xi| <= band * extent, flipped axis by axis when made
    real in real space."""
    rng = np.random.default_rng([seed, index])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=grid.shape)
    amp = rng.uniform(0.2, 1.0, size=grid.shape)
    vals = np.where(grid.radius_mesh() <= band * grid.extent, amp * np.exp(1j * phases), 0.0)
    if real_space_real:
        flipped = vals
        for ax in range(grid.dim):
            flipped = np.flip(flipped, axis=ax)
        vals = 0.5 * (vals + np.conj(flipped))
    return FreqFunction(grid, vals)


def reference_empirical_operator_norm(op_id: str, spec: HamiltonianSpec, grid, src, dst,
                                      probes: int, seed: int, certified: float = math.inf,
                                      params: dict | None = None):
    """The random-probe floor of operators.empirical_operator_norm, as a
    per-probe loop: draw probe k, skip it if ||u||_src = 0, and keep the
    first k of the largest ||op u||_dst / ||u||_src (worst_probe -1 if every
    denominator is 0).  The power method starts from probes 0, 1, 2 and
    only ever raises its ratio, so with ``probes`` <= 3 it gives this report."""
    from flbarron.operators import OperatorPlan, OperatorProbeReport, make_operator
    from flbarron.spaces import fl_norm

    params = dict(params or {})
    op = make_operator(op_id, OperatorPlan(spec, grid), params)
    worst, worst_idx = -1.0, -1
    for k in range(probes):
        u = reference_random_band_limited(grid, seed, k)
        denom = fl_norm(u, src)
        if denom == 0.0:
            continue
        ratio = fl_norm(op(u), dst) / denom
        if ratio > worst:
            worst, worst_idx = ratio, k
    return OperatorProbeReport(
        operator=op_id, src={"s": src.s, "p": src.p}, dst={"s": dst.s, "p": dst.p},
        empirical=float(worst), certified=float(certified), probes=probes, seed=seed,
        worst_probe=worst_idx, applications=probes, params=params)


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


def reference_radial_convolve_3d(kernel, u_hat, tail_profile=None):
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
    r_eval = g.nodes

    q, log, scale = kernel.q, kernel.log, kernel.scale
    Qm = lambda r: (lambda s: scale * (np.log(np.abs(r - s)) if log else np.abs(r - s) ** q))
    Qp = lambda r: (lambda s: scale * (np.log(r + s) if log else (r + s) ** q))

    out = np.empty(len(r_eval))
    for idx, r in enumerate(np.asarray(r_eval, dtype=float)):
        m_abs = np.zeros((ncells, 3))
        near = np.abs(r - c) <= 3.0 * h
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
        nearp = (r + c) <= 3.0 * h
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


# ---------------------------------------------------------------------------
# dense operator matrices: the registry's operators applied to unit vectors
# ---------------------------------------------------------------------------

def dense_matrix(op, grid, columns=None) -> np.ndarray:
    """Matrix of ``op`` (FreqFunction -> FreqFunction) on the flattened
    tensor grid: column j is op applied to the unit vector at flat node
    ``columns[j]`` (every node by default), built 64 columns at a time."""
    assert grid.size <= 4096, "dense matrices stay at 4096 samples or fewer"
    cols = np.arange(grid.size) if columns is None else np.asarray(columns)
    out = np.empty((grid.size, len(cols)), dtype=complex)
    for start in range(0, len(cols), 64):
        chunk = cols[start:start + 64]
        units = np.zeros((len(chunk), grid.size), dtype=complex)
        units[np.arange(len(chunk)), chunk] = 1.0
        image = op(FreqFunction(grid, units.reshape((len(chunk),) + grid.shape)))
        out[:, start:start + len(chunk)] = np.asarray(image.values).reshape(len(chunk), -1).T
    return out


def band_matrix(op_id: str, spec: HamiltonianSpec, grid, params: dict | None = None):
    """(A, band): the operator's dense matrix on the columns of the probes'
    band |xi| <= 0.8 * extent, and those columns' flat node indices."""
    from flbarron.operators import OperatorPlan, make_operator

    band = np.flatnonzero(reference_geometry(grid)[1].ravel() <= 0.8 * grid.extent)
    op = make_operator(op_id, OperatorPlan(spec, grid), dict(params or {}))
    return dense_matrix(op, grid, band), band


def dense_band_norm(A: np.ndarray, band: np.ndarray, grid, src, dst) -> float:
    """Exact discrete norm from the band in src to dst of the operator whose
    band_matrix is (A, band): with a = w^(1/p) <xi>^s (<xi>^s at p = inf),
    the weighted matrix diag(a_dst) A diag(a_src)^-1 has its largest column
    sum at p = 1, its largest singular value at p = 2 and its largest row
    sum at p = inf."""
    assert src.p == dst.p and src.p in (1.0, 2.0, math.inf)
    _, r, w = reference_geometry(grid)
    r, w = r.ravel(), w.ravel()

    def weights(idx):
        a = (1.0 + r * r) ** (idx.s / 2.0)
        return a if math.isinf(idx.p) else a * w ** (1.0 / idx.p)

    Bw = weights(dst)[:, None] * A / weights(src)[band]
    if src.p == 2.0:
        return float(np.linalg.norm(Bw, 2))
    return float(np.abs(Bw).sum(axis=0 if src.p == 1.0 else 1).max())
