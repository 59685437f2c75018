"""Frequency-space operators on sampled functions.

The free resolvent is a pointwise division by the kinetic symbol; potential
multiplication is the structured convolution; the fixed-point operator and
the solver operator are compositions of the two.  An ``OperatorPlan`` builds
the symbol and the potential's kernels once per (spec, grid), so loops that
apply an operator many times reuse them.  ``OPERATORS`` holds each op id's
application, its adjoint, certificate, natural spaces and its form
diag(dg) + diag(rs) C on tensor grids (C the convolution by the plan's
``combined_kernel``).  ``empirical_operator_norm`` computes the discrete norm
of any of them from the probes' band and compares the ratio an explicit
input attains against the certified bound:
- p = 1 and p = inf: the exact norm, the largest weighted column or row sum,
  all sums from one real-FFT correlation or convolution of |K|;
- p = 2: Golub-Kahan-Lanczos bidiagonalization from one random band-limited
  probe, at most 30 forward applications;
- any other p, or src and dst at different p: the p-norm power method,
  started from random band-limited probes.

On tensor grids the plan's operators also take a stack of inputs, values of
shape (B, *grid.shape), and act on each slice exactly as on that slice
alone; the quadratic quantities ``OperatorPlan.quad_form`` and
``sobolev_products`` take one function and raise DimensionMismatchError for
a stack.  The power method moves its start probes as one stack; a replay
(``replay_probe``) rebuilds the attaining input of each method and gets the
same ratio bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial

import numpy as np

from .bounds import mu_tilde, sigma_exponent
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    UnsupportedKindError,
    UnsupportedScaleError,
)
from .grid import (
    FreqFunction,
    FreqGrid,
    RadialKernel3D,
    RadialProfile,
    convolve,
    fast_length,
    lattice_kernel,
    radial_convolve_3d,
)
from .potentials import HamiltonianSpec, PotentialSpec, fourier_transform
from .spaces import SpaceIndex, conjugate, fl_norm

MAX_DENSE_SAMPLES = 4096  # dense oracle cap: I + R is assembled as an M x M matrix


class OperatorPlan:
    """The frequency-side operators of one Hamiltonian on one grid.

    Everything that does not depend on the input is built once per plan, on
    first use: the kinetic symbol h(xi) = 2 pi^2 sum_i |xi_i|^2 / mu_i + 1,
    and per potential term either its lattice kernel with the kernel's
    padded FFT (tensor grids) or its bipolar primitive (radial grids).  The
    methods act on sample arrays of the grid's shape, or on tensor grids on
    stacks (B, *grid.shape) of them; build one plan per (spec, grid) and
    reuse it for every application.  The grid must fit the spec, a tensor
    grid of dimension n*N or a radial grid for N = 1; any other raises
    DimensionMismatchError when the plan is built.
    """

    def __init__(self, spec: HamiltonianSpec, grid: FreqGrid):
        if grid.kind == "radial":
            if spec.N != 1:
                raise DimensionMismatchError(f"radial grids only for N = 1 (got N = {spec.N})")
        elif grid.dim != spec.dim:
            raise DimensionMismatchError(f"grid dim {grid.dim} != n*N = {spec.dim}")
        self.spec = spec
        self.grid = grid

    @cached_property
    def symbol(self) -> np.ndarray:
        """h(xi) at every grid node."""
        spec, grid = self.spec, self.grid
        if grid.kind == "radial":
            return 2.0 * math.pi ** 2 * grid.nodes ** 2 / spec.masses[0] + 1.0
        ax2 = grid.axis ** 2
        return sum(np.ix_(*[(2.0 * math.pi ** 2 / mass) * ax2
                            for mass in spec.masses for _ in range(spec.n)]), np.ones(grid.shape))

    @cached_property
    def _kernels(self) -> list:
        """Per potential term: (coeff, LatticeKernel) on tensor grids, the
        RadialKernel3D with the coefficient folded in on radial grids."""
        pot, g = self.spec.potential, self.grid
        terms = pot.terms()
        if g.kind == "radial":
            if terms and (pot.n != 3 or g.dim != 3):  # V = 0 needs no convolution
                raise UnsupportedScaleError("radial multiplication implemented for N=1, n=3")
            if any(t.shift for _, _, _, t, _ in terms):
                raise UnsupportedScaleError("shifted terms need a tensor grid")
            for role, _, _, t, _ in terms:
                if t.kind not in ("coulomb", "inverse_power"):
                    raise UnsupportedKindError(
                        f"{role} term of kind {t.kind!r}: radial grids convolve power kernels "
                        "only (coulomb, inverse_power)")
            return [RadialKernel3D(fourier_transform(t, dim), coeff=t.coeff)
                    for _, _, _, t, dim in terms]
        return [(t.coeff, lattice_kernel(fourier_transform(t, dim), g, role,
                                         i if j is None else (i, j), pot.n,
                                         np.asarray(t.shift, float) if t.shift else None))
                for role, i, j, t, dim in terms]

    def _samples(self, values) -> np.ndarray:
        values = np.asarray(values)
        self.grid.batch_rank(values)
        return values

    def _resolvent_symbol(self, rho: float) -> np.ndarray:
        if not (math.isfinite(rho) and rho > 0):
            raise InvalidArgumentError(f"rho must be finite and positive (got {rho!r})")
        return self.symbol - 1.0 + rho

    def h0_inverse(self, values, rho: float) -> np.ndarray:
        """(H0 + rho I)^(-1): divide samples by h(xi) - 1 + rho."""
        return self._samples(values) / self._resolvent_symbol(rho)

    def multiply_V(self, values, tail_profile: RadialProfile | None = None) -> np.ndarray:
        """F(V u) via the structured convolutions.

        Radial grids (N = 1, dimension 3) take the high-order bipolar route;
        ``tail_profile`` then supplies u's decay model for the truncation
        correction.  Tensor grids use the lattice convolutions.
        """
        u = FreqFunction(self.grid, self._samples(values))
        if self.grid.kind == "radial":
            total = np.zeros(len(self.grid.nodes))
            for kernel in self._kernels:
                total = total + radial_convolve_3d(kernel, u, tail_profile=tail_profile)
            return total
        out = np.zeros_like(u.values)
        for coeff, kernel in self._kernels:
            out = out + coeff * np.asarray(convolve(kernel, u).values)
        return out

    def R(self, values, rho: float) -> np.ndarray:
        """R u = (H0 + rho)^{-1} (V u)."""
        return self.h0_inverse(self.multiply_V(values), rho)

    def combined_kernel(self) -> np.ndarray:
        """K: the terms' samples on a tensor grid, zero-padded to 2M-1 per
        axis (a delta at M-1 off a kernel's axes) and summed with their
        coefficients.  V's convolution is block-Toeplitz in it:
        F(V u)[a] = sum_b K[a - b + M - 1] u[b], offsets taken per axis."""
        g = self.grid
        M, d, m = g.count, g.dim, (g.count - 1) // 2
        total = np.zeros((2 * M - 1,) * d)  # a shifted term's complex samples upcast it
        for coeff, kernel in self._kernels:
            padded = np.zeros(total.shape, dtype=kernel.samples.dtype)
            padded[tuple(slice(m, m + M) if ax in kernel.axes else slice(M - 1, M)
                         for ax in range(d))] = kernel.samples
            total = total + coeff * padded
        return total

    def matrix(self, rho: float) -> np.ndarray:
        """Dense matrix of I + R on the flattened tensor grid, built with no
        FFT, for grids of at most MAX_DENSE_SAMPLES samples.

        A[a, b] = K[a_i - b_i + M - 1] on each axis, K the
        ``combined_kernel``: the window view of K reversed on every axis,
        with its window starts reversed back, copied out once; row a is
        divided by h(xi_a) - 1 + rho.
        """
        g = self.grid
        if g.kind != "tensor":
            raise DimensionMismatchError("dense oracle needs a tensor grid")
        if g.size > MAX_DENSE_SAMPLES:
            raise UnsupportedScaleError(
                f"dense assembly capped at {MAX_DENSE_SAMPLES} samples (got {g.size})")
        denom = self._resolvent_symbol(rho).reshape(-1, 1)
        M, d = g.count, g.dim
        flip = (slice(None, None, -1),) * d
        windows = np.lib.stride_tricks.sliding_window_view(self.combined_kernel()[flip], (M,) * d)
        A = np.ascontiguousarray(windows[flip]).reshape(g.size, g.size)
        A /= denom
        A[np.diag_indices(g.size)] += 1.0
        return A

    def quad_form(self, u, v) -> float:
        """integral of V u v for real-valued u, v, evaluated in frequency
        space: sum of F(Vu) * conj(v_hat) against the grid weights.  One
        function each: a stack raises DimensionMismatchError."""
        u, v = (_one(self.grid, x, "quad_form") for x in (u, v))
        return float(np.real(np.sum(self.grid.trapezoid_weights() * self.multiply_V(u)
                                    * np.conj(v))))

    def T_lambda(self, values, lam: float,
                 tail_profile: RadialProfile | None = None) -> np.ndarray:
        """T_lambda u = (lambda+1)(H0+I)^{-1} u - (H0+I)^{-1}(V u)."""
        if not math.isfinite(lam):
            raise InvalidArgumentError(f"lam must be finite (got {lam!r})")
        vu = self.multiply_V(values, tail_profile)
        return (lam + 1.0) * self.h0_inverse(values, 1.0) - self.h0_inverse(vu, 1.0)


def apply_h0_inverse(u: FreqFunction, spec: HamiltonianSpec, rho: float) -> FreqFunction:
    """(H0 + rho I)^(-1): divide samples by h(xi) - 1 + rho."""
    return u.copy_with(OperatorPlan(spec, u.grid).h0_inverse(u.values, rho))


def apply_multiply_V(u: FreqFunction, spec: PotentialSpec) -> FreqFunction:
    """F(V u) on u's grid; see ``OperatorPlan.multiply_V``."""
    # V reads no mass; unit masses complete the Hamiltonian a plan is built for
    plan = OperatorPlan(HamiltonianSpec(spec, (1.0,) * spec.N), u.grid)
    return u.copy_with(plan.multiply_V(u.values))


def apply_T_lambda(u: FreqFunction, lam: float, spec: HamiltonianSpec,
                   tail_profile: RadialProfile | None = None) -> FreqFunction:
    """T_lambda u = (lambda+1)(H0+I)^{-1} u - (H0+I)^{-1}(V u)."""
    return u.copy_with(OperatorPlan(spec, u.grid).T_lambda(u.values, lam, tail_profile))


def apply_R(u: FreqFunction, rho: float, spec: HamiltonianSpec) -> FreqFunction:
    """R u = (H0 + rho)^{-1} (V u)."""
    return u.copy_with(OperatorPlan(spec, u.grid).R(u.values, rho))


def project_high(u: FreqFunction, K: float) -> FreqFunction:
    """Zero all samples with |xi| <= K (high-frequency projection)."""
    return u.copy_with(np.where(u.grid.radius_mesh() > _cutoff(K), u.values, 0.0))


def project_low(u: FreqFunction, K: float) -> FreqFunction:
    """Zero all samples with |xi| > K (low-frequency projection)."""
    return u.copy_with(np.where(u.grid.radius_mesh() <= _cutoff(K), u.values, 0.0))


def _cutoff(K: float) -> float:
    if not (math.isfinite(K) and K >= 0):
        raise InvalidArgumentError(f"projection radius K must be finite and >= 0 (got {K!r})")
    return K


def _one(grid: FreqGrid, values, what: str):
    """``values`` of one function on ``grid``; a stack raises DimensionMismatchError."""
    if grid.batch_rank(values):
        raise DimensionMismatchError(f"{what} takes one function (got shape {np.shape(values)})")
    return values


def sobolev_products(u: FreqFunction):
    """(||u||_{L^2}^2, ||grad u||_{L^2}^2) by Parseval: the gradient picks up
    4 pi^2 |xi|^2.  One function: a stack raises DimensionMismatchError."""
    g = u.grid
    w = g.trapezoid_weights()
    r = g.radius_mesh()
    a2 = np.abs(_one(g, u.values, "sobolev_products")) ** 2
    l2 = float(np.sum(w * a2))
    grad2 = float(4.0 * math.pi ** 2 * np.sum(w * r * r * a2))
    return l2, grad2


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------

@dataclass
class OperatorProbeReport:
    """Outcome of an empirical operator-norm probe run.

    ``empirical`` is the ratio that one explicit input attains, named by
    the fields the method sets:
    - p = 1 and p = inf: ``worst_node``, the flat node of the largest
      column (the unit vector there) or row (its conjugate phase on the
      band);
    - p = 2: the top Ritz vector after ``worst_step`` Golub-Kahan-Lanczos
      steps from start probe ``worst_probe`` (0);
    - any other p: the iterate ``worst_step`` steps of the power method
      from start probe ``worst_probe``.
    ``applications`` counts the forward applications of the operator to one
    function, the attaining input's included.
    """

    operator: str
    src: dict
    dst: dict
    empirical: float
    certified: float
    probes: int
    seed: int
    worst_probe: int = -1
    worst_step: int = 0
    worst_node: int = -1
    applications: int = 0
    params: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.empirical <= self.certified * (1.0 + 1e-9)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _band(grid: FreqGrid) -> np.ndarray:
    """The probes' support |xi| <= 0.8 * extent, as a mask of the grid's shape."""
    return grid.radius_mesh() <= 0.8 * grid.extent


def random_band_limited(grid: FreqGrid, seed: int, index,
                        real_space_real: bool = False) -> FreqFunction:
    """Random amplitudes in [0.2, 1) and phases, supported on |xi| <= 0.8 * extent.

    ``index`` is one probe index, or a sequence of them for a stack of
    shape (len(index), *grid.shape).  Probe k draws its phases, then its
    amplitudes, over the whole grid from its own generator seeded with
    (seed, k), so a probe does not depend on the stack it is drawn in.
    Keeping 20% headroom below the grid edge bounds the convolution
    truncation error below the probe comparison tolerance; every input that
    ``empirical_operator_norm`` norms lies on the same band, so the bound
    holds for each of them.
    """
    indices = np.atleast_1d(index)
    inband = np.flatnonzero(_band(grid))
    phases = np.empty((len(indices), len(inband)))
    amp = np.empty_like(phases)
    for row, k in enumerate(indices):
        rng = np.random.default_rng([seed, int(k)])
        phases[row] = rng.uniform(0.0, 2.0 * math.pi, size=grid.size)[inband]
        amp[row] = rng.uniform(0.2, 1.0, size=grid.size)[inband]
    vals = np.zeros((len(indices), grid.size), dtype=complex)
    vals[:, inband] = amp * np.exp(1j * phases)
    vals = vals.reshape((len(indices),) + grid.shape)
    if real_space_real:
        vals = 0.5 * (vals + np.conj(np.flip(vals, axis=tuple(range(1, vals.ndim)))))
    return FreqFunction(grid, vals if np.ndim(index) else vals[0])


# ---------------------------------------------------------------------------
# operator registry: op id -> (apply(plan, u, par), adjoint(plan, v, par),
# certificate(spec, s, beta, C, par), spaces(s, sigma, beta) -> (src s, dst s),
# form(plan, par) -> (dg, rs)), par holding rho / lam / K.  Each row is one
# mapping statement, e.g. (H0+rho)^-1 : B^s -> B^(s+2); the adjoint is taken
# in the plain inner product sum u conj(v) of the samples.  On tensor grids
# every operator is diag(dg) + diag(rs) C, with C the convolution by the
# plan's ``combined_kernel``; dg and rs are scalars or arrays of the grid's
# shape.  Rows name project_high and the plan methods when called, not when
# built.
# ---------------------------------------------------------------------------

def _lifted_spaces(s, sigma, beta):
    return abs(s) + 2 * sigma * beta, s - 2 * (1 - sigma) * beta + 2.0


def _projected(base: str) -> tuple:
    """P_K after ``base``, adjoint base^* P_K: the base certificate times
    (1+K^2)^(e/2), hi -> hi; P_K zeroes the rows of |xi| <= K."""
    apply, adjoint, certificate, spaces, form = OPERATORS[base]

    def projected_certificate(spec, s, beta, C, par):
        e = abs(s) - s - 2.0 + 2.0 * beta
        return certificate(spec, s, beta, C, par) * (1.0 + par["K"] * par["K"]) ** (e / 2.0)

    def projected_form(plan, par):
        kept = _kept(plan, par)
        return tuple(kept * x for x in form(plan, par))

    return (lambda plan, u, par: project_high(apply(plan, u, par), par["K"]),
            lambda plan, v, par: adjoint(plan, project_high(v, par["K"]), par),
            projected_certificate,
            lambda s, sigma, beta: (spaces(s, sigma, beta)[0],) * 2,
            projected_form)


def _identity(plan, u, par):
    return u


def _project(plan, u, par):
    return project_high(u, par["K"])


def _h0_inv(plan, u, par):
    return u.copy_with(plan.h0_inverse(u.values, par["rho"]))


def _multiply_v(plan, u, par):
    return u.copy_with(plan.multiply_V(u.values))


def _r_adjoint(plan, v, par):
    """R^* = V (H0+rho)^-1: the lattice convolutions are Hermitian and the
    resolvent is real."""
    return v.copy_with(plan.multiply_V(plan.h0_inverse(v.values, par["rho"])))


def _t_lambda_adjoint(plan, v, par):
    """T_lambda^* = (lambda+1)(H0+I)^-1 - V (H0+I)^-1."""
    w = plan.h0_inverse(v.values, 1.0)
    return v.copy_with((par["lam"] + 1.0) * w - plan.multiply_V(w))


def _kept(plan, par) -> np.ndarray:
    """P_K's diagonal: 1 where |xi| > K, else 0."""
    return (plan.grid.radius_mesh() > _cutoff(par["K"])).astype(float)


def _t_lambda_form(plan, par):
    d1 = plan._resolvent_symbol(1.0)
    return (par["lam"] + 1.0) / d1, -1.0 / d1


OPERATORS = {  # identity, P_K, (H0+rho)^-1 and V are their own adjoints
    "identity": (_identity, _identity, None, None, lambda plan, par: (1.0, 0.0)),
    "project": (_project, _project, None, None, lambda plan, par: (_kept(plan, par), 0.0)),
    "h0_inv": (
        _h0_inv, _h0_inv,
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, par["rho"]),
        lambda s, sigma, beta: (s, s + 2.0),
        lambda plan, par: (1.0 / plan._resolvent_symbol(par["rho"]), 0.0)),
    "multiply_v": (
        _multiply_v, _multiply_v,
        lambda spec, s, beta, C, par: C,
        lambda s, sigma, beta: (abs(s) + 2 * sigma * beta, s - 2 * (1 - sigma) * beta),
        lambda plan, par: (0.0, 1.0)),
    "t_lambda": (
        lambda plan, u, par: u.copy_with(plan.T_lambda(u.values, par["lam"])),
        _t_lambda_adjoint,
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, 1.0) * (abs(par["lam"] + 1.0) + C),
        _lifted_spaces,
        _t_lambda_form),
    "r": (
        lambda plan, u, par: u.copy_with(plan.R(u.values, par["rho"])),
        _r_adjoint,
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, par["rho"]) * C,
        _lifted_spaces,
        lambda plan, par: (0.0, 1.0 / plan._resolvent_symbol(par["rho"]))),
}
OPERATORS["pk_t_lambda"] = _projected("t_lambda")
OPERATORS["pk_r"] = _projected("r")


def _registry(op_id: str, column: int, what: str):
    if op_id not in OPERATORS:
        raise InvalidArgumentError(f"unknown operator id {op_id!r}")
    entry = OPERATORS[op_id][column]
    if entry is None:
        raise InvalidArgumentError(f"no {what} for operator id {op_id!r}")
    return entry


def _op_params(params: dict | None) -> dict:
    par = {"rho": 1.0, "lam": 0.0, "K": 0.0, **(params or {})}
    for name in ("rho", "lam", "K"):
        if not math.isfinite(par[name]):
            raise InvalidArgumentError(f"{name} must be finite (got {par[name]!r})")
    return par


def make_operator(op_id: str, plan: OperatorPlan, params: dict):
    """Operator closure by id on the plan's grid; params carries rho / lambda / K as needed."""
    apply = _registry(op_id, 0, "application")
    par = _op_params(params)
    return lambda u: apply(plan, u, par)


def natural_spaces(op_id: str, s: float, alpha: float, beta: float,
                   p: float) -> tuple[SpaceIndex, SpaceIndex]:
    """(src, dst) of the operator's mapping statement at (s, alpha, beta) in FL^p."""
    src_s, dst_s = _registry(op_id, 3, "natural spaces")(s, sigma_exponent(alpha, p), beta)
    return SpaceIndex(src_s, p), SpaceIndex(dst_s, p)


# A step that raises no start probe's ratio by more than this, relative, ends the power method.
_RISE = 1e-3
# A p = 2 run spends at most this many forward applications, its Ritz vector's check included.
_GKL_CAP = 30
# Golub-Kahan-Lanczos stops once the top Ritz triple's residual is at most this times its value.
_GKL_TOL = 1e-6


def _method(src: SpaceIndex, dst: SpaceIndex) -> str:
    """How ``empirical_operator_norm`` norms between src and dst: "exact"
    at p = 1 and p = inf, "lanczos" at p = 2, "power" otherwise."""
    if src.p != dst.p:
        return "power"
    if src.p == 1.0 or math.isinf(src.p):
        return "exact"
    return "lanczos" if src.p == 2.0 else "power"


def empirical_operator_norm(op_id: str, spec: HamiltonianSpec, grid: FreqGrid,
                            src: SpaceIndex, dst: SpaceIndex, probes: int, seed: int,
                            certified: float = math.inf,
                            params: dict | None = None) -> OperatorProbeReport:
    """The operator's discrete norm from the band-limited inputs in src to
    dst on the tensor ``grid``, as the ratio ||op u||_dst / ||u||_src that
    an explicit input u attains.

    In the weighted coordinates x = a_src u, where ||u||_idx = ||a u||_p,
    the operator is B = diag(a_dst) op diag(a_src)^-1 on the probes' band.
    With src and dst at the same p:
    - p = 1 and p = inf: the exact norm, B's largest column or row sum
      (``_exact``); u is the unit vector at that column, or the conjugate
      phase of that row on the band.  One forward application.
    - p = 2: Golub-Kahan-Lanczos bidiagonalization of B from start probe 0
      (``_gkl``); u is the top Ritz vector.  At most min(probes, 30)
      forward applications, the Ritz vector's included.
    Any other pair runs the p-norm power method (``_power_method``) from the
    start probes 0 .. min(3, probes) - 1, moved as one stack; it stops after
    a step that raises no probe's ratio by more than ``_RISE`` relative, or
    before a step that would exceed ``probes`` forward applications in total.
    ``params`` carries rho / lam / K as the operator needs them; the report
    keeps them as given, so ``replay_probe`` can rebuild the attaining input.
    """
    if probes < 1:
        raise InvalidArgumentError("probes must be >= 1")
    if grid.kind != "tensor":
        raise DimensionMismatchError("probing needs a tensor grid")
    params = dict(params or {})
    plan, par = OperatorPlan(spec, grid), _op_params(params)
    report = partial(OperatorProbeReport, operator=op_id,
                     src={"s": src.s, "p": src.p}, dst={"s": dst.s, "p": dst.p},
                     certified=float(certified), probes=probes, seed=seed, params=params)
    method = _method(src, dst)
    if method == "exact":
        node, u = _exact(op_id, plan, par, src, dst)
        return report(empirical=_ratio(op_id, plan, par, u, src, dst), worst_node=node,
                      applications=1)
    if method == "lanczos":
        u, steps = _gkl(op_id, plan, par, src, dst, random_band_limited(grid, seed, 0),
                        min(probes, _GKL_CAP) - 1)
        return report(empirical=_ratio(op_id, plan, par, u, src, dst), worst_probe=0,
                      worst_step=steps, applications=steps + 1)
    start = range(min(3, probes))
    steps = _power_method(op_id, plan, par, src, dst, random_band_limited(grid, seed, start))
    worst, worst_idx, worst_step, applied, last = -1.0, -1, 0, 0, None
    for step, ratios in enumerate(steps):
        applied += len(start)
        for k, ratio in zip(start, ratios):
            if ratio > worst:
                worst, worst_idx, worst_step = float(ratio), k, step
        if applied + len(start) > probes or (last is not None
                                            and not np.any(ratios > last * (1.0 + _RISE))):
            break
        last = ratios
    return report(empirical=float(worst), worst_probe=worst_idx, worst_step=worst_step,
                  applications=applied)


def _ratio(op_id: str, plan: OperatorPlan, par: dict, u: FreqFunction, src: SpaceIndex,
           dst: SpaceIndex) -> float:
    """||op u||_dst / ||u||_src for one input u."""
    v = _registry(op_id, 0, "application")(plan, u, par)
    return float(fl_norm(v, dst) / fl_norm(u, src))


def _exact(op_id: str, plan: OperatorPlan, par: dict, src: SpaceIndex, dst: SpaceIndex,
           node: int | None = None) -> tuple[int, FreqFunction]:
    """(node, u) at p = 1 or p = inf: the flat node of B's largest weighted
    column sum over the band (p = 1) or row sum (p = inf), which is the
    exact discrete norm, and the input that attains it; a given ``node``
    skips the search.

    With op = diag(dg) + diag(rs) C and K the plan's ``combined_kernel``,
    B[a, b] = a_dst[a] (dg[a] [a = b] + rs[a] K[a - b + M - 1]) / a_src[b].
    The column sums are one real-FFT correlation of |K| with a_dst |rs|,
    the row sums one convolution of |K| with band / a_src, each plus the
    offset-0 correction |dg + rs K0| - |rs K0|.  Every offset a - b + M - 1
    lies in [0, 2M - 2], so a transform length >= 2M - 1 per axis does not
    wrap.
    """
    g = plan.grid
    M, d = g.count, g.dim
    dg, rs = (np.broadcast_to(x, g.shape) for x in _registry(op_id, 4, "form")(plan, par))
    K = plan.combined_kernel()
    k0 = rs * K[(M - 1,) * d]
    a_src = _norm_weights(g, src).reshape(g.shape)
    band = _band(g)
    if node is None:
        a_dst = _norm_weights(g, dst).reshape(g.shape)
        size, axes = (fast_length(2 * M - 1),) * d, tuple(range(d))
        kernel = np.fft.rfftn(np.abs(K), size, axes)
        if src.p == 1.0:  # column b is the correlation at offset M - 1 - b
            f = np.fft.rfftn(a_dst * np.abs(rs), size, axes)
            corr = np.fft.irfftn(np.conj(f) * kernel, size, axes)[(slice(M - 1, None, -1),) * d]
            sums = np.where(band, (corr + a_dst * (np.abs(dg + k0) - np.abs(k0))) / a_src,
                            -np.inf)
        else:
            x = np.where(band, 1.0 / a_src, 0.0)
            conv = np.fft.irfftn(np.fft.rfftn(x, size, axes) * kernel, size, axes)
            sums = a_dst * (np.abs(rs) * conv[(slice(M - 1, 2 * M - 1),) * d]
                            + (np.abs(dg + k0) - np.abs(k0)) * x)
        node = int(np.argmax(sums))
    if src.p == 1.0:
        u = np.zeros(g.size)
        u[node] = 1.0
        return node, FreqFunction(g, u.reshape(g.shape))
    a = np.unravel_index(node, g.shape)
    row = rs[a] * K[tuple(slice(i, i + M) for i in a)][(slice(None, None, -1),) * d]
    row[a] += dg[a]
    mag = np.abs(row)
    phase = np.divide(np.conj(row), mag, out=np.ones_like(row), where=mag > 0)
    return node, FreqFunction(g, np.where(band, phase / a_src, 0.0))


def _gkl(op_id: str, plan: OperatorPlan, par: dict, src: SpaceIndex, dst: SpaceIndex,
         probe: FreqFunction, steps: int) -> tuple[FreqFunction, int]:
    """(u, k): the top Ritz vector of B, as an input u, after k <= ``steps``
    steps of Golub-Kahan-Lanczos bidiagonalization (Golub & Kahan, SIAM J.
    Numer. Anal. B 2, 1965) from the start ``probe``; u is the probe itself
    when k = 0.

    Step k applies B to v_k and B^* to u_k, each new vector orthogonalized
    against its basis by two passes of classical Gram-Schmidt with einsum
    reductions, so no BLAS call touches u.  The run stops once the top
    Ritz triple (sigma, p, q) of the k x k bidiagonal matrix has residual
    beta_k |p_k| <= ``_GKL_TOL`` sigma, or once the Krylov space is
    invariant.  The bases grow with the steps taken.
    """
    apply = _registry(op_id, 0, "application")
    adjoint = OPERATORS[op_id][1]
    g = plan.grid
    band = _band(g).ravel()
    a_src, a_dst = _norm_weights(g, src), _norm_weights(g, dst)
    x = a_src * probe.values.ravel()
    V, U, alphas, betas = [x / _norm(x)], [], [], []
    for k in range(1, steps + 1):
        w = a_dst * apply(plan, probe.copy_with((V[-1] / a_src).reshape(g.shape)),
                          par).values.ravel()
        if U:
            w = w - betas[-1] * U[-1]
        alpha = _norm(_orthogonalize(w, U))
        alphas.append(alpha)
        P, sigma, Qh = np.linalg.svd(np.diag(alphas) + np.diag(betas, 1))
        q = Qh[0]
        if alpha == 0.0 or k == steps:
            break
        U.append(w / alpha)
        z = adjoint(plan, probe.copy_with((a_dst * U[-1]).reshape(g.shape)), par).values.ravel()
        z = np.where(band, z / a_src, 0.0) - alpha * V[-1]
        beta = _norm(_orthogonalize(z, V))
        if beta * abs(P[-1, 0]) <= _GKL_TOL * sigma[0]:
            break
        betas.append(beta)
        V.append(z / beta)
    if not alphas:
        return probe, 0
    x = np.einsum("kj,k->j", np.array(V), q)
    return probe.copy_with(np.where(band, x / a_src, 0.0).reshape(g.shape)), len(alphas)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector by an einsum reduction, no BLAS call."""
    return math.sqrt(np.einsum("i,i->", v.conj(), v).real)


def _orthogonalize(w: np.ndarray, basis: list) -> np.ndarray:
    """w, in place, less its projection on the orthonormal vectors ``basis``:
    two passes of classical Gram-Schmidt with einsum reductions."""
    if basis:
        Q = np.array(basis)
        for _ in range(2):
            w -= np.einsum("kj,k->j", Q, np.einsum("kj,j->k", Q, w.conj()).conj())
    return w


def _power_method(op_id: str, plan: OperatorPlan, par: dict, src: SpaceIndex,
                  dst: SpaceIndex, u: FreqFunction):
    """The p-norm power method (Boyd 1974; Higham, Numer. Math. 62, 1992)
    from the stack ``u``: yields the array of its slices' ratios
    ||op u_k||_dst / ||u_k||_src (nan where ||u_k||_src = 0), then moves
    every slice one step, without end; the caller decides when to stop.

    In the weighted coordinates x = a_src u, where ||u||_idx = ||a u||_p, the
    operator is B = diag(a_dst) op diag(a_src)^-1; a step is y = B x, then
    x = dual_q(B^* dual_p(y)) with q the conjugate of src's p, the input
    restricted to the probes' band before its dual map.
    """
    apply = _registry(op_id, 0, "application")
    adjoint = OPERATORS[op_id][1]
    g = plan.grid
    band = _band(g).ravel()
    a_src, a_dst = _norm_weights(g, src), _norm_weights(g, dst)
    while True:
        v = apply(plan, u, par)
        denom = fl_norm(u, src)
        yield np.divide(fl_norm(v, dst), denom, out=np.full(len(denom), np.nan),
                        where=denom > 0)
        y = a_dst * v.values.reshape(len(denom), -1)
        z = adjoint(plan, u.copy_with((a_dst * _dual(y, dst.p)).reshape(u.values.shape)), par)
        z = np.where(band, z.values.reshape(len(denom), -1) / a_src, 0.0)
        u = u.copy_with((_dual(z, conjugate(src.p)) / a_src).reshape(u.values.shape))


def _norm_weights(grid: FreqGrid, idx: SpaceIndex) -> np.ndarray:
    """a with ||u||_idx = ||a u||_p over the flattened grid: w^(1/p) <xi>^s,
    or <xi>^s when p = inf."""
    a = grid.bracket_power(idx.s)
    return a if math.isinf(idx.p) else a * grid.trapezoid_weights().ravel() ** (1.0 / idx.p)


def _dual(y: np.ndarray, p: float) -> np.ndarray:
    """Per row of ``y``, a vector x with sum y conj(x) = ||y||_p ||x||_p'
    (p' the conjugate of p): phase(y) (|y| / max|y|)^(p-1), the phase alone
    when p = 1, and only the first node of largest |y| when p = inf."""
    mag = np.abs(y)
    phase = np.divide(y, mag, out=np.zeros_like(y), where=mag > 0)
    if math.isinf(p):
        return np.where(np.arange(y.shape[-1]) == np.argmax(mag, axis=-1)[:, None], phase, 0.0)
    top = mag.max(axis=-1, keepdims=True)
    return phase * np.divide(mag, top, out=np.zeros_like(mag), where=top > 0) ** (p - 1.0)


def replay_probe(report_dict: dict, spec: HamiltonianSpec, grid: FreqGrid) -> float:
    """Recompute the ratio of the report's attaining input, bit for bit: the
    input at node ``worst_node`` (p = 1, p = inf), the Ritz vector after
    ``worst_step`` Golub-Kahan-Lanczos steps from start probe ``worst_probe``
    (p = 2), or that start probe moved ``worst_step`` steps by the power
    method (any other p)."""
    if grid.kind != "tensor":
        raise DimensionMismatchError("probing needs a tensor grid")
    src = SpaceIndex(report_dict["src"]["s"], report_dict["src"]["p"])
    dst = SpaceIndex(report_dict["dst"]["s"], report_dict["dst"]["p"])
    op_id, seed = report_dict["operator"], report_dict["seed"]
    plan, par = OperatorPlan(spec, grid), _op_params(report_dict.get("params"))
    method = _method(src, dst)
    if method == "exact":
        u = _exact(op_id, plan, par, src, dst, report_dict["worst_node"])[1]
    elif method == "lanczos":
        u = _gkl(op_id, plan, par, src, dst,
                 random_band_limited(grid, seed, report_dict["worst_probe"]),
                 report_dict["worst_step"])[0]
    else:
        u = random_band_limited(grid, seed, [report_dict["worst_probe"]])
        steps = _power_method(op_id, plan, par, src, dst, u)
        (ratio,) = next(itertools.islice(steps, report_dict["worst_step"], None))
        return float(ratio)
    return _ratio(op_id, plan, par, u, src, dst)


def certified_bound(op_id: str, spec: HamiltonianSpec, s: float, alpha: float,
                    beta: float, C: float, params: dict | None = None) -> float:
    """The paper-side certificate matching each operator id at (s, alpha, beta)."""
    return _registry(op_id, 2, "certificate")(spec, s, beta, C, _op_params(params))
