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
from dataclasses import asdict, dataclass

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
        if not math.isfinite(self.s):
            raise InvalidArgumentError(f"SpaceIndex: s must be finite (got {self.s!r})")
        if not (self.p >= 1):
            raise InvalidArgumentError("p must be >= 1 (inf allowed)")


@dataclass(frozen=True)
class SplitIndex:
    """(s, alpha, beta) of the rescaled sum norm on FL^1_s + FL^alpha'_s."""

    s: float
    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("s", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidArgumentError(
                    f"SplitIndex: {name} must be finite (got {getattr(self, name)!r})")
        if not (self.alpha >= 1):
            raise InvalidArgumentError("alpha must be in [1, inf]")

    @property
    def alpha_prime(self) -> float:
        return conjugate(self.alpha)


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
        return asdict(self)


# ---------------------------------------------------------------------------
# plain FL norms
# ---------------------------------------------------------------------------

def _weighted_samples(f: FreqFunction, s: float):
    """(|<xi>^s f(xi)|, the grid's R^d weights), flattened over the grid
    axes; a stack keeps its leading axis."""
    g = f.grid
    vals = np.abs(np.asarray(f.values))
    vals = vals.reshape(vals.shape[:g.batch_rank(vals)] + (g.size,))
    return g.bracket_power(s) * vals, g.trapezoid_weights().ravel()


def fl_norm(f: FreqFunction, idx: SpaceIndex):
    """||<.>^s f_hat||_{L^p} by grid quadrature (grid max when p = inf).

    A float for one function; for a stack, values of shape (B, *grid.shape),
    the array of the B slices' norms, each equal to that slice's own norm.
    """
    weighted, w = _weighted_samples(f, idx.s)
    if math.isinf(idx.p):
        sums, root = np.max(weighted, axis=-1), 1.0
    else:
        sums, root = np.sum(w * weighted ** idx.p, axis=-1), 1.0 / idx.p
    # the root as a scalar power per slice: the array power may round differently
    values = [float(t ** root) for t in np.atleast_1d(sums)]
    for k, value in enumerate(values):
        if not math.isfinite(value):
            where = f" (slice {k})" if np.ndim(sums) else ""
            raise NonFiniteError(f"spaces.fl_norm: FL^{idx.p:g}_{idx.s:g} norm is {value}{where}")
    return np.array(values) if np.ndim(sums) else values[0]


def _power_tail(terms, p: float, s: float, n: int, R: float):
    """Upper bound on the FL^p_s mass of a profile beyond radius R, from the
    leading term (C, expo) of its ``tail_terms()``: omega_n times
    int_R^inf (<r>^s |C| r^expo)^p r^(n-1) dr, or the sup beyond R when
    p = inf.  0 for a negligible tail; None when the leading term diverges
    or there is no tail model, the one divergence rule of every norm and
    split.

    Uses <r> <= sqrt(2) r for r >= 1 to stay an upper bound.
    """
    if terms is None:
        return None
    if not terms:
        return 0.0
    C, expo = terms[0]
    if math.isinf(p):
        e = s + expo
        return None if e > 0 else abs(C) * (2.0 ** (abs(s) / 2.0)) * max(R, 1.0) ** e
    e = (s + expo) * p + n
    if e >= 0:
        return None
    amp = (abs(C) * 2.0 ** (abs(s) / 2.0)) ** p
    return omega_d(n) * amp * R ** e / (-e)


def _power_tail_accurate(terms, p: float, s: float, n: int, R: float):
    """Two-term estimate of a finite ``_power_tail`` (p < inf), without the
    bracket inflation."""
    if not terms:
        return 0.0
    C, expo = terms[0]
    e = (s + expo) * p + n
    lead = abs(C) ** p * omega_d(n) * R ** e / (-e)
    corr = abs(C) ** p * omega_d(n) * (p * s / 2.0) * R ** (e - 2) / (2 - e)
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
    tail = profile.tail_terms()
    bound = _power_tail(tail, idx.p, idx.s, n, R)
    if bound is None:
        return NormReport({"s": idx.s, "p": idx.p}, base, None, True)
    if math.isinf(idx.p):
        return NormReport({"s": idx.s, "p": idx.p}, max(base, bound), bound, False)
    accurate = _power_tail_accurate(tail, idx.p, idx.s, n, R)
    value = (base ** idx.p + max(accurate, 0.0)) ** (1.0 / idx.p)
    return NormReport({"s": idx.s, "p": idx.p}, value, bound, False)


def default_norm_grid(n: int) -> FreqGrid:
    """The radial grid profile norms take by default: 3600 log-uniform nodes on [0, 200]."""
    return make_radial_grid(n, 200.0, 3 * 1200, r_min=1e-8)


# ---------------------------------------------------------------------------
# sum-space norm with constructive splits
# ---------------------------------------------------------------------------

def split_norm(profile: RadialProfile, idx: SplitIndex, n: int, grid: FreqGrid | None = None):
    """Certified upper bound on ||f||_{s,alpha;beta} of the radial profile f,
    sampled on ``grid`` (``default_norm_grid(n)`` when None), and the
    achieving split.

    Candidates: every indicator split f*1_{|xi|<=R} + f*1_{|xi|>R} at grid
    radii R (part norms get analytic tails when the profile decay is
    known), and the threshold split at level kappa = ||<.>^s f||_{L^alpha'}.
    With alpha = inf the norm is plainly the Barron norm and the split is
    trivial.  The index is checked first: ``c_alpha_beta`` rejects
    alpha*beta <= n/2, and beta < 0 at alpha = inf.
    """
    cab = c_alpha_beta(idx.alpha, idx.beta, n)
    g = grid if grid is not None else default_norm_grid(n)
    func = sample_profile(profile, g)
    s, alpha = idx.s, idx.alpha
    ap = idx.alpha_prime
    zero = func.copy_with(np.zeros_like(func.values))

    if np.all(np.asarray(func.values) == 0):
        return 0.0, Split(func, zero, "trivial", part_norms=(0.0, 0.0))

    # the profile's mass beyond the grid in FL^ap_s; at alpha = inf, ap = 1: the Barron tail
    tail_extra = _power_tail(profile.tail_terms(), ap, s, n, g.upper_edge())
    if tail_extra is None:
        raise NotInSpaceError(f"{profile.kind} profile not in FL^1_{s} + FL^{ap}_{s}: "
                              "its tail diverges or has no model")

    if math.isinf(alpha):
        value = profile_norm_report(profile, SpaceIndex(s, 1.0), n, grid=g).value
        return value, Split(func, zero, "trivial", part_norms=(value, 0.0))

    cab_root = cab ** (1.0 / alpha)
    weighted, w = _weighted_samples(func, s)
    rmesh = g.radius_mesh().ravel()

    # cumulative partial norms over |xi| <= R and |xi| > R for all radii
    order = np.argsort(rmesh)
    r_sorted = rmesh[order]
    l1_terms = (w * weighted)[order]
    lap_terms = (w * weighted ** ap)[order]
    c1 = np.cumsum(l1_terms)
    cap_tail = np.cumsum(lap_terms[::-1])[::-1] - lap_terms  # strictly above each radius
    n2 = (np.maximum(cap_tail + tail_extra, 0.0)) ** (1.0 / ap)
    totals = c1 + cab_root * n2
    k = int(np.argmin(totals))

    # threshold split at kappa = ||<.>^s f||_{L^alpha'}
    kappa = float(np.sum(lap_terms) + tail_extra) ** (1.0 / ap)
    mask = weighted > kappa
    n1t = float(np.sum((w * weighted)[mask]))
    n2t = float((np.sum((w * weighted ** ap)[~mask]) + tail_extra) ** (1.0 / ap))
    threshold_value = n1t + cab_root * n2t

    vals = np.asarray(func.values)
    if threshold_value < float(totals[k]):
        method, value, radius, part_norms = "threshold", threshold_value, None, (n1t, n2t)
        keep = mask.reshape(vals.shape)
    else:
        method, value, radius = "radius", float(totals[k]), float(r_sorted[k])
        part_norms = (float(c1[k]), float(n2[k]))
        keep = rmesh.reshape(vals.shape) <= radius
    f1 = func.copy_with(np.where(keep, vals, 0.0))
    f2 = func.copy_with(np.where(keep, 0.0, vals))
    return value, Split(f1, f2, method, radius=radius, part_norms=part_norms)


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
    grid = make_radial_grid(n, float(k), 3000, r_min=min(1e-8 * k, 1e-8))
    return float(np.sum(grid.trapezoid_weights() * grid.bracket_power(-n)))


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
