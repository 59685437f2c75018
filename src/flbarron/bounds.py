"""Certified constants: multiplier norms, coercivity thresholds, contraction
radii, and eigenfunction-norm certificates.

All certificates are upper bounds assembled from Gamma-function constants
and the certified sum-space norms of the potential terms; nothing here is
an infimal operator norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InadmissibleTermError, InvalidArgumentError
from .potentials import HamiltonianSpec, PotentialSpec, admissible, fourier_transform
from .spaces import SpaceIndex, SplitIndex, profile_norm_report, split_norm
from .special import (  # noqa: F401  (public surface of this module)
    bracket_lp_norm,
    c_alpha_beta,
    c_t_n,
    gamma_ratio,
    gamma_ratio_monotone,
    nu_t_n,
    omega_d,
)


def mu_tilde(masses, rho: float) -> float:
    """max_i max(mu_i / (2 pi^2), 1/rho): the resolvent weight constant."""
    if not (math.isfinite(rho) and rho > 0):
        raise InvalidArgumentError(f"rho must be finite and positive (got {rho!r})")
    return max(max(m / (2.0 * math.pi ** 2) for m in masses), 1.0 / rho)


def sigma_exponent(alpha: float, p: float) -> float:
    """sigma = (1 - alpha/p)_+; always 0 for p = 1."""
    if math.isinf(alpha):
        return 0.0
    return max(1.0 - alpha / p, 0.0)


# ---------------------------------------------------------------------------
# potential aggregation constants
# ---------------------------------------------------------------------------

def big_C_V(spec: PotentialSpec, s: float, alpha: float, beta: float) -> float:
    """The multiplier-norm constant

        2^{|s|/2} sum_i ||V_i||_{s,a;b} + 2^{|s|} sum_{i<j} ||V_ij||_{s,a;b}
        + 2^{|s|/2} ||V_ad||_{FL^1_s}.

    Shifted terms enter with |coeff| times the centered-profile norm.  A
    one-particle or pairwise term that fails ``potentials.admissible`` at
    (s, alpha) raises InadmissibleTermError naming it; ``split_norm`` rejects
    alpha*beta <= n/2.
    """
    total = 0.0
    for role, i, j, term, dim in spec.terms():
        if role == "additive":
            norm = profile_norm_report(fourier_transform(term, dim), SpaceIndex(s, 1.0), dim).value
        else:
            if not admissible(term, dim, s, alpha):
                where = f"i={i}" if j is None else f"(i,j)=({i},{j})"
                raise InadmissibleTermError(
                    f"{role.replace('_', '-')} term {term.kind} at {where} "
                    f"inadmissible at (s={s}, alpha={alpha})", term=(i, j, term.kind))
            norm, _ = split_norm(fourier_transform(term, dim), SplitIndex(s, alpha, beta), dim)
        weight = 2.0 ** abs(s) if role == "pairwise" else 2.0 ** (abs(s) / 2.0)
        total += weight * abs(term.coeff) * norm
    return total


def frak_C_V(spec: PotentialSpec, s: float, alpha: float, gamma: float) -> float:
    """Form-bound constant: big_C_V at indices ((s-|s|)/2, alpha, 1+(s-gamma)/2)."""
    return big_C_V(spec, (s - abs(s)) / 2.0, alpha, 1.0 + (s - gamma) / 2.0)


def form_bound_constant(spec: PotentialSpec, s: float, alpha: float, t: float) -> float:
    """Quadratic-form constant at Sobolev exponent t:
    big_C_V at ((s-|s|)/2, alpha, t + (s-|s|)/2)."""
    return big_C_V(spec, (s - abs(s)) / 2.0, alpha, t + (s - abs(s)) / 2.0)


def aggregate_M(spec: PotentialSpec) -> float:
    """sum of |coefficients| over one-particle terms plus over pairs."""
    return sum(abs(t.coeff) for role, _, _, t, _ in spec.terms() if role != "additive")


def inverse_power_C_bound(t: float, n: int, gamma: float, M: float) -> float:
    """Closed-form certificate for inverse-power potentials |x|^(-t).

    Three branches (t < n, t > n with n = 1, t = n = 1) with the explicit
    numeric prefactors of the t = n = 1 case kept as published (7.15, 5.61).
    """
    delta = 2.0 - t - gamma
    if delta <= 0:
        raise InvalidArgumentError("gamma must be below 2 - t")
    if t < n:
        extra = math.pi if n == 1 else 2.0
        return nu_t_n(t, n) * M * (1.0 / t + extra / delta)
    if t > n:
        if n != 1:
            raise InvalidArgumentError("t > n branch only exists for n = 1")
        return math.pi * nu_t_n(t, 1) * M / (2.0 * delta)
    # t = n = 1, gamma > 1/3
    if gamma <= 1.0 / 3.0:
        raise InvalidArgumentError("t = n = 1 branch needs gamma > 1/3")
    return M * (3.0 + 7.15 / delta ** 2 + 5.61 / delta)


# ---------------------------------------------------------------------------
# contexts and certificates
# ---------------------------------------------------------------------------

@dataclass
class BoundContext:
    """Parameter bundle (s, alpha, gamma, lambda-or-rho) for one certificate.

    beta is pinned to 1 + (s - gamma)/2; gamma must exceed |s| and stay
    below the regularity ceiling s - n/alpha + 2 (alpha < inf) or s + 2.
    """

    spec: HamiltonianSpec
    s: float
    alpha: float
    gamma: float
    lambda_or_rho: float = 0.0

    def __post_init__(self):
        s, a, g = self.s, self.alpha, self.gamma
        if not g > abs(s):
            raise InvalidArgumentError("gamma must exceed |s|")
        ceiling = s + 2.0 if math.isinf(a) else s - self.spec.n / a + 2.0
        if math.isinf(a):
            if g > ceiling:
                raise InvalidArgumentError("gamma must be <= s + 2 for alpha = inf")
        elif not g < ceiling:
            raise InvalidArgumentError(f"gamma must be below s - n/alpha + 2 = {ceiling}")


def contraction_radius(mu_tilde_val: float, energy: float, C: float,
                       s: float, beta: float) -> float:
    """K with mu_tilde * (energy + C) * <K>^(|s|-s-2+2beta) = 1/2 (0 if already
    contractive on all frequencies)."""
    e = abs(s) - s - 2.0 + 2.0 * beta
    if e >= 0:
        raise InvalidArgumentError(
            f"projection exponent {e} must be negative (beta below 1 + (s-|s|)/2)")
    B = 2.0 * mu_tilde_val * (energy + C)
    if B <= 1.0:
        return 0.0
    bracket = B ** (1.0 / (-e))
    return math.sqrt(bracket * bracket - 1.0)


def _coercive_form(spec: HamiltonianSpec, s: float, alpha: float, gamma: float,
                   frak_C: float | None) -> tuple:
    """(t, frak_C, A) of the form A z^2 - frak_C <z>^(2t): t = (|s| - gamma)/2 + 1,
    which must be below 1 (gamma > |s|), frak_C as given or frak_C_V, and
    A = min_i 2 pi^2 / mu_i."""
    t = (abs(s) - gamma) / 2.0 + 1.0
    if not t < 1.0:
        raise InvalidArgumentError("need gamma > |s| so that t < 1")
    if frak_C is None:
        frak_C = frak_C_V(spec.potential, s, alpha, gamma)
    return t, frak_C, min(2.0 * math.pi ** 2 / m for m in spec.masses)


def coercivity_rho(spec: HamiltonianSpec, s: float, alpha: float, gamma: float,
                   frak_C: float | None = None) -> float:
    """Threshold rho*: any rho > rho* makes the shifted form coercive.

    rho* = frak_C if A > t*frak_C, else A + (1/t - 1) A (t frak_C / A)^(1/(1-t)),
    with A = min_i 2 pi^2 / mu_i and t = (|s| - gamma)/2 + 1; gamma <= |s|
    (t >= 1) raises InvalidArgumentError.
    """
    t, frak_C, A = _coercive_form(spec, s, alpha, gamma, frak_C)
    if A > t * frak_C:
        return frak_C
    return A + (1.0 / t - 1.0) * A * (t * frak_C / A) ** (1.0 / (1.0 - t))


def coercivity_margin(spec: HamiltonianSpec, s: float, alpha: float, gamma: float,
                      rho: float, frak_C: float | None = None) -> float:
    """Largest eps with A z^2 - frak_C <z>^(2t) + rho >= eps (1 + z^2) for all z.

    1/eps is the H^1 stability constant of the weak form; requires
    gamma > |s| (t < 1) and rho strictly above the coercivity threshold,
    else InvalidArgumentError.
    """
    t, frak_C, A = _coercive_form(spec, s, alpha, gamma, frak_C)

    def worst(eps: float) -> float:
        # min over w = z^2 >= 0 of (A-eps) w - frak_C (1+w)^t + rho - eps
        if eps >= A:
            return -math.inf
        if frak_C == 0.0:
            return rho - eps
        ratio = t * frak_C / (A - eps)
        if ratio <= 1.0:
            w = 0.0
        else:
            w = ratio ** (1.0 / (1.0 - t)) - 1.0
        return (A - eps) * w - frak_C * (1.0 + w) ** t + rho - eps

    if worst(0.0) < 0:
        raise InvalidArgumentError("rho is not above the coercivity threshold")
    lo, hi = 0.0, min(A, rho)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if worst(mid) >= 0:
            lo = mid
        else:
            hi = mid
    return lo


def eigen_certificate(ctx: BoundContext, input_norm: float, which: str = "barron", *,
                      C: float) -> float:
    """Right-hand side of the eigenfunction norm estimates.

    which = "barron": mu~_1 [|lambda+1| + C] * ||psi||_{B^{|s|}};
    which = "l2":     2^{(2|s|+nN)/4} sqrt(w_{nN}/(2|s|+nN)) *
                      [2 mu~_1 (|lambda+1| + C)]^{(gamma+nN/2)/(gamma-|s|)} * ||psi||_{L^2}.
    """
    if input_norm < 0:
        raise InvalidArgumentError("input_norm must be nonnegative")
    lam = ctx.lambda_or_rho
    mu1 = mu_tilde(ctx.spec.masses, 1.0)
    core = abs(lam + 1.0) + C
    if which == "barron":
        return mu1 * core * input_norm
    if which == "l2":
        d = ctx.spec.dim
        s = abs(ctx.s)
        pref = 2.0 ** ((2 * s + d) / 4.0) * math.sqrt(omega_d(d) / (2 * s + d))
        expo = (ctx.gamma + d / 2.0) / (ctx.gamma - s)
        return pref * (2.0 * mu1 * core) ** expo * input_norm
    raise InvalidArgumentError("which must be 'barron' or 'l2'")


def low_frequency_l2_bound(s: float, d: int, K: float) -> float:
    """Upper bound 2^{|s|/2 + d/4} sqrt(omega_d/(2|s|+d)) <K>^{|s|+d/2} for
    the L^2 norm of <xi>^{|s|} on the ball |xi| <= K."""
    s = abs(s)
    return (2.0 ** (s / 2.0 + d / 4.0) * math.sqrt(omega_d(d) / (2 * s + d))
            * (1.0 + K * K) ** ((s + d / 2.0) / 2.0))


def peetre_holds(x, y, s: float) -> bool:
    """<x>^s <= 2^{|s|/2} <y>^s <x-y>^{|s|} (the weighted-convolution workhorse)."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx = math.sqrt(1.0 + float(np.dot(x, x)))
    by = math.sqrt(1.0 + float(np.dot(y, y)))
    bxy = math.sqrt(1.0 + float(np.dot(x - y, x - y)))
    return bx ** s <= 2.0 ** (abs(s) / 2.0) * by ** s * bxy ** abs(s) * (1.0 + 1e-12)
