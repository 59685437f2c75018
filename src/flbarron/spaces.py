"""Norms of the Fourier-Lebesgue family FL^p_s and the rescaled sum norm.

``fl_norm`` handles sampled functions on either grid kind; profile-backed
norms add analytic truncation tails where the decay exponent is known.
``split_norm`` returns a certified upper bound on the sum-space infimum
together with the split that achieves it: the true infimum has no closed
form, so the bound is the minimum over an explicit candidate family
(indicator splits at every grid radius plus the level-set threshold split),
which only ever shrinks when candidates are added.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NoEmbeddingError,
    NonFiniteError,
    NotInSpaceError,
)
from .grid import FreqFunction, FreqGrid, RadialProfile, make_radial_grid, sample_profile
from .special import bracket_lp_norm, c_alpha_beta, omega_d


def conjugate(alpha: float) -> float:
    """Holder conjugate: 1/alpha + 1/alpha' = 1."""
    if math.isinf(alpha):
        return 1.0
    if alpha < 1:
        raise InvalidArgumentError("alpha must be in [1, inf]")
    if alpha == 1.0:
        return math.inf
    return alpha / (alpha - 1.0)


@dataclass(frozen=True)
class SpaceIndex:
    """(s, p) of FL^p_s; p = 1 is the Barron space, p = 2 is H^s."""

    s: float
    p: float

    def __post_init__(self):
        if not (self.p >= 1):
            raise InvalidArgumentError("p must be >= 1 (inf allowed)")


@dataclass(frozen=True)
class SplitIndex:
    """(s, alpha, beta) of the rescaled sum norm on FL^1_s + FL^alpha'_s."""

    s: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= 1):
            raise InvalidArgumentError("alpha must be in [1, inf]")

    @property
    def alpha_prime(self) -> float:
        return conjugate(self.alpha)

    def validate(self, n: int) -> None:
        if math.isinf(self.alpha):
            if self.beta < 0:
                raise InvalidArgumentError("beta must be >= 0 when alpha = inf")
        elif not (self.beta > n / (2.0 * self.alpha)):
            raise InvalidArgumentError(
                f"beta = {self.beta} must exceed n/(2 alpha) = {n / (2 * self.alpha)}")


@dataclass
class Split:
    """A concrete decomposition f = f1 + f2 realizing a sum-space bound."""

    f1: FreqFunction
    f2: FreqFunction
    method: str               # "radius" | "threshold" | "analytic" | "trivial"
    radius: float | None = None
    part_norms: tuple = (0.0, 0.0)   # (FL^1_s of f1, FL^alpha'_s of f2)


@dataclass
class NormReport:
    """Norm value with truncation bookkeeping, JSON-serializable."""

    space: dict
    value: float
    tail_bound: float | None
    truncated: bool
    split_method: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "space": self.space,
            "value": self.value,
            "tail_bound": self.tail_bound,
            "truncated": self.truncated,
            "split_method": self.split_method,
        }


# ---------------------------------------------------------------------------
# plain FL norms
# ---------------------------------------------------------------------------

def _weighted_samples(f: FreqFunction, s: float):
    """(|<xi>^s f(xi)|, the grid's R^d weights), both flattened."""
    g = f.grid
    r = g.radius_mesh().ravel()
    vals = np.abs(np.asarray(f.values).ravel())
    return (1.0 + r * r) ** (s / 2.0) * vals, g.trapezoid_weights().ravel()


def fl_norm(f: FreqFunction, idx: SpaceIndex) -> float:
    """||<.>^s f_hat||_{L^p} by grid quadrature (grid max when p = inf)."""
    weighted, w = _weighted_samples(f, idx.s)
    if math.isinf(idx.p):
        value = float(np.max(weighted))
    else:
        value = float(np.sum(w * weighted ** idx.p) ** (1.0 / idx.p))
    if not math.isfinite(value):
        raise NonFiniteError(f"spaces.fl_norm: FL^{idx.p:g}_{idx.s:g} norm is {value}")
    return value


def _power_tail(C: float, expo: float, p: float, s: float, n: int, R: float):
    """tail of int_R^inf (<r>^s C r^expo)^p r^(n-1) dr (times omega_n); None if divergent.

    Uses <r> <= sqrt(2) r for r >= 1 to stay an upper bound.
    """
    if C is not None and C == 0.0:
        return 0.0
    if C is None or expo is None:
        return None
    if math.isinf(p):
        e = s + expo
        return None if e > 0 else C * (2.0 ** (abs(s) / 2.0)) * max(R, 1.0) ** e
    e = (s + expo) * p + n
    if e >= 0:
        return None
    amp = (C * 2.0 ** (abs(s) / 2.0)) ** p
    return omega_d(n) * amp * R ** e / (-e)


def _power_tail_accurate(C: float, expo: float, p: float, s: float, n: int, R: float):
    """Two-term estimate of the same tail, without the bracket inflation."""
    if C is not None and C == 0.0:
        return 0.0
    if C is None or expo is None or math.isinf(p):
        return None
    e = (s + expo) * p + n
    if e >= 0:
        return None
    lead = C ** p * omega_d(n) * R ** e / (-e)
    corr = C ** p * omega_d(n) * (p * s / 2.0) * R ** (e - 2) / (2 - e)
    return lead + corr


def profile_norm_report(profile: RadialProfile, idx: SpaceIndex, n: int,
                        grid: FreqGrid | None = None) -> NormReport:
    """FL^p_s norm of a radial profile.

    The value includes an accurate two-term tail estimate; ``tail_bound``
    is the conservative (bracket-inflated) remainder bound.
    """
    if grid is None:
        grid = default_norm_grid(n)
    f = sample_profile(profile, grid)
    base = fl_norm(f, idx)
    R = grid.upper_edge()
    bound = _power_tail(profile.tail_coefficient(), profile.tail_exponent(),
                        idx.p, idx.s, n, R)
    if bound is None:
        return NormReport({"s": idx.s, "p": idx.p}, base, None, True)
    if math.isinf(idx.p):
        return NormReport({"s": idx.s, "p": idx.p}, max(base, bound), bound, False)
    tail = _power_tail_accurate(profile.tail_coefficient(), profile.tail_exponent(),
                                idx.p, idx.s, n, R)
    value = (base ** idx.p + max(tail, 0.0)) ** (1.0 / idx.p)
    return NormReport({"s": idx.s, "p": idx.p}, value, bound, False)


def default_norm_grid(n: int, r_max: float = 200.0, count: int = 3 * 1200) -> FreqGrid:
    return make_radial_grid(n, r_max, count, "log-uniform", r_min=1e-8)


# ---------------------------------------------------------------------------
# sum-space norm with constructive splits
# ---------------------------------------------------------------------------

def _as_radial_function(f, n: int, grid: FreqGrid | None):
    if isinstance(f, RadialProfile):
        g = grid if grid is not None else default_norm_grid(n)
        return sample_profile(f, g), f
    return f, None


def split_norm(f, idx: SplitIndex, n: int, grid: FreqGrid | None = None):
    """Certified upper bound on ||f||_{s,alpha;beta} and the achieving split.

    Candidates: every indicator split f*1_{|xi|<=R} + f*1_{|xi|>R} at grid
    radii R (part norms get analytic tails when the profile decay is
    known), and the threshold split at level kappa = ||<.>^s f||_{L^alpha'}.
    With alpha = inf the norm is plainly the Barron norm and the split is
    trivial.
    """
    idx.validate(n)
    func, profile = _as_radial_function(f, n, grid)
    g = func.grid
    s, alpha = idx.s, idx.alpha
    ap = idx.alpha_prime
    zero = func.copy_with(np.zeros_like(func.values))

    if np.all(np.asarray(func.values) == 0):
        return 0.0, Split(func, zero, "trivial", part_norms=(0.0, 0.0))

    if math.isinf(alpha):
        value = fl_norm(func, SpaceIndex(s, 1.0))
        if profile is not None:
            texp = profile.tail_exponent()
            if texp is not None and (s + texp) + n >= 0:
                raise NotInSpaceError(
                    f"Barron integral diverges: tail exponent {texp} at s = {s}")
            rep = profile_norm_report(profile, SpaceIndex(s, 1.0), n, grid=g)
            value = rep.value
        return value, Split(func, zero, "trivial", part_norms=(value, 0.0))

    cab_root = c_alpha_beta(alpha, idx.beta, n) ** (1.0 / alpha)
    weighted, w = _weighted_samples(func, s)
    rmesh = g.radius_mesh().ravel()

    # cumulative partial norms over |xi| <= R and |xi| > R for all radii
    order = np.argsort(rmesh)
    r_sorted = rmesh[order]
    l1_terms = (w * weighted)[order]
    lap_terms = (w * weighted ** ap)[order]
    c1 = np.cumsum(l1_terms)
    cap_tail = np.cumsum(lap_terms[::-1])[::-1] - lap_terms  # strictly above each radius
    tail_extra = 0.0
    truncated_tail = False
    if profile is not None:
        t = _power_tail(profile.tail_coefficient(), profile.tail_exponent(),
                        ap, s, n, g.upper_edge())
        if t is None:
            truncated_tail = True
        else:
            tail_extra = t
    best = None
    if not truncated_tail:
        n2 = (np.maximum(cap_tail + tail_extra, 0.0)) ** (1.0 / ap)
        totals = c1 + cab_root * n2
        k = int(np.argmin(totals))
        best = (float(totals[k]), float(r_sorted[k]), float(c1[k]), float(n2[k]))

    # threshold split at kappa = ||<.>^s f||_{L^alpha'}
    thresh = None
    if not truncated_tail:
        kappa = float(np.sum(lap_terms) + tail_extra) ** (1.0 / ap)
        mask = weighted > kappa
        n1t = float(np.sum((w * weighted)[mask]))
        n2t = float((np.sum((w * weighted ** ap)[~mask]) + tail_extra) ** (1.0 / ap))
        thresh = (n1t + cab_root * n2t, kappa, n1t, n2t)

    if best is None and thresh is None:
        raise NotInSpaceError(
            f"profile not in FL^1_{s} + FL^{ap}_{s}: every candidate split diverges")

    vals = np.asarray(func.values)
    if thresh is not None and (best is None or thresh[0] < best[0]):
        value, kappa, n1v, n2v = thresh
        mask_full = weighted.reshape(vals.shape) > kappa
        f1 = func.copy_with(np.where(mask_full, vals, 0.0))
        f2 = func.copy_with(np.where(mask_full, 0.0, vals))
        return value, Split(f1, f2, "threshold", part_norms=(n1v, n2v))
    value, R, n1v, n2v = best
    mask_full = (rmesh.reshape(vals.shape) <= R)
    f1 = func.copy_with(np.where(mask_full, vals, 0.0))
    f2 = func.copy_with(np.where(mask_full, 0.0, vals))
    return value, Split(f1, f2, "radius", radius=R, part_norms=(n1v, n2v))


# ---------------------------------------------------------------------------
# embeddings (roles of s and alpha)
# ---------------------------------------------------------------------------

def embedding_constant(src: tuple, dst: tuple, n: int) -> float:
    """Holder constant for FL^1_{s1}+FL^{a1'}_{s1} -> FL^1_{s2}+FL^{a2'}_{s2}.

    Requires the strict direction s2 - n/a2 < s1 - n/a1 with a1 < a2 (or the
    trivial same-index case, constant 1).  On the borderline and above the
    embedding fails and NoEmbeddingError is raised.
    """
    s1, a1 = src
    s2, a2 = dst
    if a1 < 1 or a2 < 1:
        raise InvalidArgumentError("alpha indices must be >= 1")
    inv = lambda a: 0.0 if math.isinf(a) else 1.0 / a
    if s2 - n * inv(a2) >= s1 - n * inv(a1) and not (s2 == s1 and a2 >= a1):
        raise NoEmbeddingError(
            f"no embedding: s2 - n/a2 = {s2 - n * inv(a2)} >= s1 - n/a1 = {s1 - n * inv(a1)}")
    if s2 == s1 and a2 >= a1:
        return 1.0
    if not a1 < a2:
        raise InvalidArgumentError("embedding direction needs alpha1 < alpha2")
    tau = 1.0 / conjugate(a2) - 1.0 / conjugate(a1)
    m = s1 - s2
    q = 1.0 / tau
    # ||<.>^{-m}||_{L^q}^q = bracket_lp_norm(m q / 2)
    return bracket_lp_norm(m * q / 2.0, n) ** (1.0 / q)


def epsilon_ball_integral(k: float, n: int) -> float:
    """int_{|xi|<=k} <xi>^(-n) d xi by radial quadrature."""
    grid = make_radial_grid(n, float(k), 3000, "log-uniform", r_min=min(1e-8 * k, 1e-8))
    r = grid.nodes
    return float(np.sum(grid.trapezoid_weights() * (1 + r * r) ** (-n / 2.0)))


def counterexample_norm(k: float, s1: float, alpha1: float, s2: float, alpha2: float, n: int):
    """Witness family for the borderline non-embedding.

    f_k has transform eps_k^(-1/a1') <xi>^(-s1 - n/a1') on |xi| <= k with
    eps_k the bracket-ball integral; returns the source-norm upper bound
    (exactly 1 by construction) and the destination lower bound
    eps_k^(1/a2' - 1/a1') - 1, which is unbounded in k.
    """
    if not alpha1 < alpha2:
        raise InvalidArgumentError("need alpha1 < alpha2")
    inv = lambda a: 0.0 if math.isinf(a) else 1.0 / a
    lhs = s2 - n * inv(alpha2)
    rhs = s1 - n * inv(alpha1)
    if abs(lhs - rhs) > 1e-12:
        raise InvalidArgumentError(
            f"borderline construction needs s2 - n/alpha2 = s1 - n/alpha1 (got {lhs} vs {rhs})")
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    eps = epsilon_ball_integral(k, n)
    tau = inv(conjugate(alpha2)) - inv(conjugate(alpha1))
    lower = eps ** tau - 1.0
    return 1.0, lower
