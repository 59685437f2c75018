"""Gamma-function constants used throughout the norm and bound machinery.

Everything here reduces to ratios of Gamma values; the platform Gamma
(Lanczos-class, 15+ significant digits, raises at poles) is used directly
and cross-checked against quadrature in the test suite.
"""

from __future__ import annotations

import math

from .errors import DomainError, GammaOverflowError, InvalidArgumentError, PoleError


def gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except ValueError as exc:
        raise PoleError(f"Gamma pole at x = {x}") from exc
    except OverflowError as exc:
        raise GammaOverflowError(f"Gamma({x}) overflows a float") from exc


def omega_d(d: int) -> float:
    """Surface area of the unit sphere S^(d-1)."""
    return 2.0 * math.pi ** (d / 2.0) / gamma(d / 2.0)


def c_alpha_beta(alpha: float, beta: float, n: int) -> float:
    """pi^(n/2) Gamma(alpha*beta - n/2) / Gamma(alpha*beta); 1 when alpha = inf.

    Equals the L^alpha norm (to the alpha) of the weight splitting between
    the two halves of the rescaled sum norm.
    """
    if math.isinf(alpha):
        if beta < 0:
            raise InvalidArgumentError("beta must be >= 0 when alpha = inf")
        return 1.0
    if alpha < 1:
        raise InvalidArgumentError("alpha must be >= 1")
    ab = alpha * beta
    if ab <= n / 2.0:
        raise InvalidArgumentError(
            f"alpha*beta = {ab} must exceed n/2 = {n / 2}")
    if not math.isfinite(ab):
        raise InvalidArgumentError(f"alpha*beta = {ab} must be finite")
    return bracket_lp_norm(ab, n)


def bracket_lp_norm(gamma_idx: float, n: int) -> float:
    """integral over R^n of (1+|xi|^2)^(-gamma): pi^(n/2) Gamma(g-n/2)/Gamma(g).

    This is the 2g-th power of the L^(2g) norm of the bracket weight
    (1+|xi|^2)^(-1/2); it equals c_alpha_beta at alpha*beta = gamma.  Where
    the two Gamma values overflow a float, the ratio is taken from
    ``gamma_ratio``; beyond g where that loses 1e-10 relative, the overflow
    is raised (GammaOverflowError).
    """
    if gamma_idx <= n / 2.0:
        raise InvalidArgumentError(f"gamma = {gamma_idx} must exceed n/2 = {n / 2}")
    try:
        return math.pi ** (n / 2.0) * gamma(gamma_idx - n / 2.0) / gamma(gamma_idx)
    except GammaOverflowError:
        # the log-gamma ratio is good to about eps * lgamma(g), relative: 1e-10 up to g ~ 4e4
        if math.lgamma(gamma_idx) * math.ulp(1.0) > 1e-10:
            raise
        return math.pi ** (n / 2.0) * gamma_ratio(gamma_idx, -n / 2.0)


def c_t_n(t: float, n: int) -> float:
    """Coefficient of |xi|^(t-n) in the transform of |x|^(-t):
    pi^(t - n/2) Gamma((n-t)/2) / Gamma(t/2)."""
    if t <= 0:
        raise InvalidArgumentError("t must be positive")
    if (n - t) / 2.0 <= 0 and float((n - t) / 2.0).is_integer():
        raise PoleError(f"Gamma pole at (n-t)/2 = {(n - t) / 2}")
    return math.pi ** (t - n / 2.0) * gamma((n - t) / 2.0) / gamma(t / 2.0)


def nu_t_n(t: float, n: int) -> float:
    """2 pi^t |Gamma((n-t)/2)| / (Gamma(t/2) Gamma(n/2))."""
    if t <= 0:
        raise InvalidArgumentError("t must be positive")
    arg = (n - t) / 2.0
    if arg <= 0 and float(arg).is_integer():
        raise PoleError(f"Gamma pole at (n-t)/2 = {arg}; use the t = n branch")
    return 2.0 * math.pi ** t * abs(gamma(arg)) / (gamma(t / 2.0) * gamma(n / 2.0))


def gamma_ratio(x: float, a: float) -> float:
    """Gamma(x+a)/Gamma(x) for x > max(-a, 0), via log-gamma."""
    if x <= max(-a, 0.0):
        raise DomainError(f"x = {x} outside (max(-a,0), inf) for a = {a}")
    return math.exp(math.lgamma(x + a) - math.lgamma(x))


def gamma_ratio_monotone(a: float, xs) -> bool:
    """Check Gamma(x+a)/Gamma(x) is nondecreasing (a >= 0) or nonincreasing
    (a <= 0) along the sorted sample points xs, to 1e-12 relative slack."""
    vals = [gamma_ratio(float(x), a) for x in xs]
    for lo, hi in zip(vals[:-1], vals[1:]):
        slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
        if a >= 0 and hi < lo - slack:
            return False
        if a <= 0 and hi > lo + slack:
            return False
    return True
