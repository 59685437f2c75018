"""Frequency-space operators on sampled functions.

The free resolvent is a pointwise division by the kinetic symbol; potential
multiplication is the structured convolution; the fixed-point operator and
the solver operator are compositions of the two.  An ``OperatorPlan`` builds
the symbol and the potential's kernels once per (spec, grid), so loops that
apply an operator many times reuse them.  ``OPERATORS`` holds each op id's
application, certificate and natural spaces; ``empirical_operator_norm``
probes any of them with random band-limited inputs and compares the measured
ratio against the certified bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .bounds import mu_tilde, sigma_exponent
from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    UnsupportedScaleError,
)
from .grid import (
    FreqFunction,
    FreqGrid,
    RadialKernel3D,
    RadialProfile,
    convolve,
    lattice_kernel,
    radial_convolve_3d,
)
from .potentials import HamiltonianSpec, PotentialSpec, fourier_transform
from .spaces import SpaceIndex, fl_norm


class OperatorPlan:
    """The frequency-side operators of one Hamiltonian on one grid.

    Everything that does not depend on the input is built once per plan, on
    first use: the kinetic symbol h(xi) = 2 pi^2 sum_i |xi_i|^2 / mu_i + 1,
    and per potential term either its lattice kernel with the kernel's
    padded FFT (tensor grids) or its bipolar primitive (radial grids).  The
    methods act on sample arrays of the grid's shape; build one plan per
    (spec, grid) and reuse it for every application.
    """

    def __init__(self, spec: HamiltonianSpec, grid: FreqGrid):
        self.spec = spec
        self.grid = grid

    @cached_property
    def symbol(self) -> np.ndarray:
        """h(xi) at every grid node."""
        spec, grid = self.spec, self.grid
        n, N = spec.n, spec.N
        if grid.kind == "radial":
            if N != 1:
                raise DimensionMismatchError("radial symbol only for N = 1")
            return 2.0 * math.pi ** 2 * grid.nodes ** 2 / spec.masses[0] + 1.0
        if grid.dim != n * N:
            raise DimensionMismatchError(f"grid dim {grid.dim} != n*N = {n * N}")
        ax2 = grid.axis ** 2
        return sum(np.ix_(*[(2.0 * math.pi ** 2 / spec.masses[i]) * ax2
                            for i in range(N) for _ in range(n)]), np.ones(grid.shape))

    @cached_property
    def _kernels(self) -> list:
        """Per potential term: (coeff, LatticeKernel) on tensor grids, the
        RadialKernel3D with the coefficient folded in on radial grids."""
        pot, g = self.spec.potential, self.grid
        terms = ([("one_particle", i, t, pot.n) for i, t in pot.one_particle]
                 + [("pairwise", (i, j), t, pot.n) for i, j, t in pot.pairwise]
                 + ([("additive", None, pot.additive, pot.dim)] if pot.additive else []))
        if g.kind == "radial":
            if pot.N != 1 or pot.n != 3 or g.dim != 3:
                raise UnsupportedScaleError("radial multiplication implemented for N=1, n=3")
            if any(t.shift for _, _, t, _ in terms):
                raise UnsupportedScaleError("shifted terms need a tensor grid")
            return [RadialKernel3D(fourier_transform(t, dim), coeff=t.coeff)
                    for _, _, t, dim in terms]
        if g.dim != pot.dim:
            raise DimensionMismatchError(f"grid dim {g.dim} != n*N = {pot.dim}")
        return [(t.coeff, lattice_kernel(fourier_transform(t, dim), g, structure, particle,
                                         pot.n, np.asarray(t.shift, float) if t.shift else None))
                for structure, particle, t, dim in terms]

    @cached_property
    def complex_kernel(self) -> bool:
        """Whether F(V u) of a real u can be complex: some term is shifted
        (shifted terms need a tensor grid, so radial plans answer False)."""
        return self.grid.kind == "tensor" and any(k.complex_kernel for _, k in self._kernels)

    def _samples(self, values) -> np.ndarray:
        values = np.asarray(values)
        if values.shape != self.grid.shape:
            raise DimensionMismatchError(
                f"values shape {values.shape} does not match grid {self.grid.shape}")
        return values

    def h0_inverse(self, values, rho: float) -> np.ndarray:
        """(H0 + rho I)^(-1): divide samples by h(xi) - 1 + rho."""
        if not rho > 0:
            raise InvalidArgumentError(f"rho must be positive (got {rho!r})")
        return self._samples(values) / (self.symbol - 1.0 + rho)

    def multiply_V(self, values, tail_profile: RadialProfile | None = None) -> np.ndarray:
        """F(V u) via the structured convolutions.

        Radial grids (N = 1, dimension 3) take the high-order bipolar route;
        ``tail_profile`` then supplies u's decay model for the truncation
        correction.  Tensor grids use the lattice convolutions.
        """
        u = FreqFunction(self.grid, self._samples(values))
        if self.spec.potential.is_zero():
            return np.zeros_like(u.values)
        if self.grid.kind == "radial":
            total = np.zeros(len(self.grid.nodes))
            for kernel in self._kernels:
                total = total + radial_convolve_3d(kernel, u, tail_profile=tail_profile)
            return total
        out = np.zeros(self.grid.shape, dtype=complex)
        for coeff, kernel in self._kernels:
            out = out + coeff * np.asarray(convolve(kernel, u).values)
        if not (np.iscomplexobj(u.values) or self.complex_kernel):
            out = out.real
        return out

    def R(self, values, rho: float, tail_profile: RadialProfile | None = None) -> np.ndarray:
        """R u = (H0 + rho)^{-1} (V u)."""
        return self.h0_inverse(self.multiply_V(values, tail_profile), rho)

    def T_lambda(self, values, lam: float,
                 tail_profile: RadialProfile | None = None) -> np.ndarray:
        """T_lambda u = (lambda+1)(H0+I)^{-1} u - (H0+I)^{-1}(V u)."""
        vu = self.multiply_V(values, tail_profile)
        return (lam + 1.0) * self.h0_inverse(values, 1.0) - self.h0_inverse(vu, 1.0)


def apply_h0_inverse(u: FreqFunction, spec: HamiltonianSpec, rho: float) -> FreqFunction:
    """(H0 + rho I)^(-1): divide samples by h(xi) - 1 + rho."""
    return u.copy_with(OperatorPlan(spec, u.grid).h0_inverse(u.values, rho))


def apply_multiply_V(u: FreqFunction, spec: PotentialSpec,
                     tail_profile: RadialProfile | None = None) -> FreqFunction:
    """F(V u) on u's grid; see ``OperatorPlan.multiply_V``."""
    # V reads no mass; unit masses complete the Hamiltonian a plan is built for
    plan = OperatorPlan(HamiltonianSpec(spec, (1.0,) * spec.N), u.grid)
    return u.copy_with(plan.multiply_V(u.values, tail_profile))


def apply_T_lambda(u: FreqFunction, lam: float, spec: HamiltonianSpec,
                   tail_profile: RadialProfile | None = None) -> FreqFunction:
    """T_lambda u = (lambda+1)(H0+I)^{-1} u - (H0+I)^{-1}(V u)."""
    return u.copy_with(OperatorPlan(spec, u.grid).T_lambda(u.values, lam, tail_profile))


def apply_R(u: FreqFunction, rho: float, spec: HamiltonianSpec,
            tail_profile: RadialProfile | None = None) -> FreqFunction:
    """R u = (H0 + rho)^{-1} (V u)."""
    return u.copy_with(OperatorPlan(spec, u.grid).R(u.values, rho, tail_profile))


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


# ---------------------------------------------------------------------------
# quadratic form via Parseval
# ---------------------------------------------------------------------------

def quad_form_V(u: FreqFunction, v: FreqFunction, spec: PotentialSpec) -> float:
    """integral of V u v for real-valued u, v, evaluated in frequency space:
    sum of F(Vu) * conj(v_hat) against the grid weights."""
    vu = apply_multiply_V(u, spec)
    w = u.grid.trapezoid_weights()
    val = np.sum(w * np.asarray(vu.values) * np.conj(np.asarray(v.values)))
    return float(np.real(val))


def sobolev_products(u: FreqFunction):
    """(||u||_{L^2}^2, ||grad u||_{L^2}^2) by Parseval: the gradient picks up 4 pi^2 |xi|^2."""
    g = u.grid
    w = g.trapezoid_weights()
    r = g.radius_mesh()
    a2 = np.abs(np.asarray(u.values)) ** 2
    l2 = float(np.sum(w * a2))
    grad2 = float(4.0 * math.pi ** 2 * np.sum(w * r * r * a2))
    return l2, grad2


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------

@dataclass
class OperatorProbeReport:
    """Outcome of an empirical operator-norm probe run."""

    operator: str
    src: dict
    dst: dict
    empirical: float
    certified: float
    probes: int
    seed: int
    worst_probe: int = -1
    params: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.empirical <= self.certified * (1.0 + 1e-9)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def random_band_limited(grid: FreqGrid, seed: int, index: int,
                        band: float = 0.8, real_space_real: bool = False) -> FreqFunction:
    """Unit-amplitude random phases supported on |xi| <= band * extent.

    Keeping 20% headroom below the grid edge bounds the convolution
    truncation error below the probe comparison tolerance.
    """
    rng = np.random.default_rng([seed, index])
    r = grid.radius_mesh()
    phases = rng.uniform(0.0, 2.0 * math.pi, size=grid.shape)
    amp = rng.uniform(0.2, 1.0, size=grid.shape)
    vals = amp * np.exp(1j * phases)
    vals = np.where(r <= band * grid.extent, vals, 0.0)
    if real_space_real:
        flipped = vals
        for ax in range(grid.dim):
            flipped = np.flip(flipped, axis=ax)
        vals = 0.5 * (vals + np.conj(flipped))
    return FreqFunction(grid, vals)


# ---------------------------------------------------------------------------
# operator registry: op id -> (apply(plan, u, par), certificate(spec, s, beta,
# C, par), spaces(s, sigma, beta) -> (src s, dst s)), par holding rho / lam / K.
# Each row is one mapping statement, e.g. (H0+rho)^-1 : B^s -> B^(s+2); rows
# name project_high and the plan methods when called, not when built.
# ---------------------------------------------------------------------------

def _lifted_spaces(s, sigma, beta):
    return abs(s) + 2 * sigma * beta, s - 2 * (1 - sigma) * beta + 2.0


def _projected(base: str) -> tuple:
    """P_K after ``base``: the base certificate times (1+K^2)^(e/2), hi -> hi."""
    apply, certificate, spaces = OPERATORS[base]

    def projected_certificate(spec, s, beta, C, par):
        e = abs(s) - s - 2.0 + 2.0 * beta
        return certificate(spec, s, beta, C, par) * (1.0 + par["K"] * par["K"]) ** (e / 2.0)

    return (lambda plan, u, par: project_high(apply(plan, u, par), par["K"]),
            projected_certificate,
            lambda s, sigma, beta: (spaces(s, sigma, beta)[0],) * 2)


OPERATORS = {
    "identity": (lambda plan, u, par: u, None, None),
    "project": (lambda plan, u, par: project_high(u, par["K"]), None, None),
    "h0_inv": (
        lambda plan, u, par: u.copy_with(plan.h0_inverse(u.values, par["rho"])),
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, par["rho"]),
        lambda s, sigma, beta: (s, s + 2.0)),
    "multiply_v": (
        lambda plan, u, par: u.copy_with(plan.multiply_V(u.values)),
        lambda spec, s, beta, C, par: C,
        lambda s, sigma, beta: (abs(s) + 2 * sigma * beta, s - 2 * (1 - sigma) * beta)),
    "t_lambda": (
        lambda plan, u, par: u.copy_with(plan.T_lambda(u.values, par["lam"])),
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, 1.0) * (abs(par["lam"] + 1.0) + C),
        _lifted_spaces),
    "r": (
        lambda plan, u, par: u.copy_with(plan.R(u.values, par["rho"])),
        lambda spec, s, beta, C, par: mu_tilde(spec.masses, par["rho"]) * C,
        _lifted_spaces),
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
    return {"rho": 1.0, "lam": 0.0, "K": 0.0, **(params or {})}


def make_operator(op_id: str, plan: OperatorPlan, params: dict):
    """Operator closure by id on the plan's grid; params carries rho / lambda / K as needed."""
    apply = _registry(op_id, 0, "application")
    par = _op_params(params)
    return lambda u: apply(plan, u, par)


def natural_spaces(op_id: str, s: float, alpha: float, beta: float,
                   p: float) -> tuple[SpaceIndex, SpaceIndex]:
    """(src, dst) of the operator's mapping statement at (s, alpha, beta) in FL^p."""
    src_s, dst_s = _registry(op_id, 2, "natural spaces")(s, sigma_exponent(alpha, p), beta)
    return SpaceIndex(src_s, p), SpaceIndex(dst_s, p)


def empirical_operator_norm(op_id: str, spec: HamiltonianSpec, src: SpaceIndex,
                            dst: SpaceIndex, probes: int, seed: int,
                            certified: float = math.inf,
                            params: dict | None = None) -> OperatorProbeReport:
    """Max over random band-limited probes of ||op u||_dst / ||u||_src."""
    if probes < 1:
        raise InvalidArgumentError("probes must be >= 1")
    params = dict(params or {})
    grid = params.get("grid")
    if grid is None:
        raise InvalidArgumentError("a tensor grid is required for probing")
    op = make_operator(op_id, OperatorPlan(spec, grid), params)
    worst = -1.0
    worst_idx = -1
    for k in range(probes):
        u = random_band_limited(grid, seed, k, real_space_real=params.get("real", False))
        denom = fl_norm(u, src)
        if denom == 0.0:
            continue
        ratio = fl_norm(op(u), dst) / denom
        if ratio > worst:
            worst, worst_idx = ratio, k
    return OperatorProbeReport(
        operator=op_id,
        src={"s": src.s, "p": src.p}, dst={"s": dst.s, "p": dst.p},
        empirical=float(worst), certified=float(certified),
        probes=probes, seed=seed, worst_probe=worst_idx,
        params={k: v for k, v in params.items() if k not in ("grid",)},
    )


def replay_probe(report_dict: dict, spec: HamiltonianSpec, grid: FreqGrid) -> float:
    """Recompute the worst probe's ratio from a serialized report."""
    src = SpaceIndex(report_dict["src"]["s"], report_dict["src"]["p"])
    dst = SpaceIndex(report_dict["dst"]["s"], report_dict["dst"]["p"])
    params = dict(report_dict.get("params", {}))
    op = make_operator(report_dict["operator"], OperatorPlan(spec, grid), params)
    u = random_band_limited(grid, report_dict["seed"], report_dict["worst_probe"],
                            real_space_real=params.get("real", False))
    return fl_norm(op(u), dst) / fl_norm(u, src)


def certified_bound(op_id: str, spec: HamiltonianSpec, s: float, alpha: float,
                    beta: float, C: float, params: dict | None = None) -> float:
    """The paper-side certificate matching each operator id at (s, alpha, beta)."""
    return _registry(op_id, 1, "certificate")(spec, s, beta, C, _op_params(params))
