"""Analytic potential catalog and many-body potential assembly.

Every catalog term carries a closed-form radial Fourier transform; shifted
copies contribute a phase only, so all norms are taken on the unshifted
profile and aggregated with |coefficient| weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivergentPartError,
    InvalidArgumentError,
    UnsupportedKindError,
)
from .grid import RadialProfile, sample_profile
from .spaces import Split, SpaceIndex, default_norm_grid, fl_norm
from .special import c_t_n, omega_d

_KINDS = ("inverse_power", "coulomb", "yukawa", "log_1d", "gaussian", "sharp_example", "custom")


@dataclass(frozen=True)
class PotentialTerm:
    """One catalog potential b * f(. - a): kind + params + shift + coefficient."""

    kind: str
    params: dict = field(default_factory=dict)
    shift: tuple = ()
    coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown potential kind {self.kind!r}")
        numeric = [v for v in (*self.params.values(), self.coeff, *self.shift)
                   if isinstance(v, numbers.Real)]
        if not all(math.isfinite(v) for v in numeric):
            raise InvalidArgumentError(f"{self.kind} term has a non-finite param, coeff or shift")
        if self.kind == "yukawa" and not self.params.get("mu", 0) > 0:
            raise InvalidArgumentError("yukawa needs mu > 0")
        if self.kind == "gaussian" and self.params.get("width", 1.0) <= 0:
            raise InvalidArgumentError("gaussian needs width > 0")

    def power_exponent(self, n: int) -> float | None:
        """t with V ~ |x|^(-t), None for non-power kinds."""
        if self.kind == "coulomb":
            return 1.0
        if self.kind == "inverse_power":
            return float(self.params["t"])
        if self.kind == "log_1d":
            return 1.0
        if self.kind == "yukawa":
            return 1.0
        return None

    def validate_for_dim(self, n: int) -> None:
        if self.kind in ("inverse_power", "coulomb"):
            t = 1.0 if self.kind == "coulomb" else float(self.params["t"])
            ok = (0 < t < n) or (n == 1 and 1 < t < 2) or (t == n == 1)
            if not ok:
                raise InvalidArgumentError(
                    f"inverse power t = {t} invalid in dimension {n}")
        if self.kind == "yukawa" and n != 3:
            raise UnsupportedKindError("yukawa transform implemented for n = 3")
        if self.kind == "log_1d" and n != 1:
            raise InvalidArgumentError("log potential lives in dimension 1")
        if self.shift and len(self.shift) != n:
            raise InvalidArgumentError("shift length must equal the particle dimension")


def fourier_transform(term: PotentialTerm, n: int) -> RadialProfile:
    """Closed-form |transform| profile of the unshifted term.

    Shifts only rotate the phase, which no norm in this toolkit sees, so
    the returned profile is always the centered one.
    """
    term.validate_for_dim(n)
    k, p = term.kind, term.params
    if k in ("inverse_power", "coulomb"):
        t = 1.0 if k == "coulomb" else float(p["t"])
        if t == n == 1:
            return RadialProfile("log_kernel", (-2.0,), valid_min=1e-300, decay=None)
        return RadialProfile("power", (c_t_n(t, n), t - n), valid_min=1e-300)
    if k == "log_1d":
        return RadialProfile("log_kernel", (-2.0,), valid_min=1e-300)
    if k == "yukawa":
        mu = float(p["mu"])
        return RadialProfile("rational_bracket",
                             (4 * math.pi / mu ** 2, 4 * math.pi ** 2 / mu ** 2, 1.0))
    if k == "gaussian":
        kappa = float(p.get("kappa", 1.0))
        w = float(p.get("width", 1.0))
        return RadialProfile("gaussian", (kappa, math.pi * w * w))
    if k == "sharp_example":
        delta = float(p["delta"])
        if delta == 1.0:
            amp = 2.0 ** n * math.pi ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0)
            return RadialProfile("rational_bracket", (amp, 4 * math.pi ** 2, (n + 1) / 2.0))
        raise UnsupportedKindError(
            "transform of exp(-|x|^delta) has no closed form for delta < 1; "
            "use the sharpness experiment's tabulated transform")
    if k == "custom":
        prof = p.get("profile")
        if prof is None:
            raise UnsupportedKindError("custom term without a profile")
        return prof
    raise UnsupportedKindError(k)


# ---------------------------------------------------------------------------
# low/high decomposition
# ---------------------------------------------------------------------------

def decompose_low_high(term: PotentialTerm, n: int, R: float, alpha_prime: float,
                       s: float = 0.0) -> Split:
    """Indicator split f_hat*1_{|xi|<=R} + f_hat*1_{|xi|>R} with part norms.

    Part norms are (||f1||_{FL^1_s}, ||f2||_{FL^alpha'_s}); inverse-power
    kinds at s = 0 use the exact Gamma formulas, everything else is
    quadrature plus an analytic tail.
    """
    if not R > 0:
        raise InvalidArgumentError("R must be positive")
    prof = fourier_transform(term, n)
    texp = prof.tail_exponent()
    if texp is not None and not math.isinf(alpha_prime):
        if (s + texp) * alpha_prime + n >= 0:
            raise DivergentPartError(
                f"high part not in L^{alpha_prime}: decay exponent {texp} too weak")
    if math.isinf(alpha_prime) and texp is not None and s + texp > 0:
        raise DivergentPartError("high part unbounded")

    t = term.power_exponent(n)
    if prof.kind == "power" and s == 0.0:
        c = abs(prof.params[0])
        n1 = c * omega_d(n) * R ** t / t
        expo = (t - n) * alpha_prime + n
        n2 = c * (omega_d(n) / (-expo)) ** (1.0 / alpha_prime) * R ** (expo / alpha_prime)
        method = "analytic"
    else:
        grid = default_norm_grid(n)
        low = sample_profile(prof.windowed(hi=R), grid)
        high = sample_profile(prof.windowed(lo=R), grid)
        n1 = fl_norm(low, SpaceIndex(s, 1.0))
        n2 = fl_norm(high, SpaceIndex(s, alpha_prime))
        if texp is not None and not math.isinf(alpha_prime):
            from .spaces import _power_tail

            tail = _power_tail(prof.tail_coefficient(), texp, alpha_prime, s, n,
                               grid.upper_edge())
            if tail is not None:
                n2 = (n2 ** alpha_prime + tail) ** (1.0 / alpha_prime)
        method = "radius"

    grid = default_norm_grid(n)
    f = sample_profile(prof, grid)
    mask = grid.nodes <= R
    f1 = f.copy_with(np.where(mask, f.values, 0.0))
    f2 = f.copy_with(np.where(mask, 0.0, f.values))
    return Split(f1, f2, method, radius=R, part_norms=(float(n1), float(n2)))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def assumption_region_ok(s: float, alpha: float, n: int) -> bool:
    """2 + s - |s| - n/alpha > 0, reshaped: s >= 0 with alpha > n/2, or
    -1 < s < 0 with alpha > n/(2(1+s))."""
    if s >= 0:
        return alpha > n / 2.0
    if s > -1:
        return alpha > n / (2.0 * (1.0 + s))
    return False


@dataclass(frozen=True)
class AdmissibleRegion:
    """Open (s, alpha) region where a term fits FL^1_s + FL^alpha'_s and the
    standing assumption holds."""

    n: int
    t_effective: float | None  # None: only the standing assumption constrains

    def contains(self, s: float, alpha: float) -> bool:
        if not assumption_region_ok(s, alpha, self.n):
            return False
        if self.t_effective is None:
            return True
        inv = 0.0 if math.isinf(alpha) else 1.0 / alpha
        return s < self.n * inv - self.t_effective


def admissible_region(term: PotentialTerm, n: int) -> AdmissibleRegion:
    term.validate_for_dim(n)
    if term.kind == "sharp_example":
        raise UnsupportedKindError("sharp_example is a wave function, not a potential term")
    if term.kind == "custom":
        prof = term.params.get("profile")
        texp = prof.tail_exponent() if prof is not None else None
        t_eff = None if texp is None else n + texp
        return AdmissibleRegion(n, t_eff)
    if term.kind == "gaussian":
        return AdmissibleRegion(n, None)
    return AdmissibleRegion(n, term.power_exponent(n))


# ---------------------------------------------------------------------------
# many-body assembly
# ---------------------------------------------------------------------------

@dataclass
class PotentialSpec:
    """V = sum_i V_i(x_i) + sum_{i<j} V_ij(x_i - x_j) + V_ad(x)."""

    n: int
    N: int
    one_particle: list = field(default_factory=list)   # [(i, PotentialTerm)]
    pairwise: list = field(default_factory=list)       # [(i, j, PotentialTerm)]
    additive: PotentialTerm | None = None

    def __post_init__(self):
        for i, term in self.one_particle:
            if not 1 <= i <= self.N:
                raise InvalidArgumentError(f"one-particle index {i} outside 1..{self.N}")
            term.validate_for_dim(self.n)
        for i, j, term in self.pairwise:
            if not (1 <= i <= self.N and 1 <= j <= self.N and i < j):
                raise InvalidArgumentError(f"pairwise indices ({i},{j}) invalid")
            term.validate_for_dim(self.n)
        if self.additive is not None:
            self.additive.validate_for_dim(self.n * self.N)

    @property
    def dim(self) -> int:
        return self.n * self.N

    def is_zero(self) -> bool:
        return not self.one_particle and not self.pairwise and self.additive is None

    def to_json_dict(self) -> dict:
        def term_dict(t: PotentialTerm) -> dict:
            return {"kind": t.kind, "params": dict(t.params),
                    "shift": list(t.shift), "coeff": t.coeff}

        return {
            "n": self.n,
            "N": self.N,
            "one_particle": [{"i": i, **term_dict(t)} for i, t in self.one_particle],
            "pairwise": [{"i": i, "j": j, **term_dict(t)} for i, j, t in self.pairwise],
            "additive": term_dict(self.additive) if self.additive else None,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "PotentialSpec":
        def term_of(e: dict) -> PotentialTerm:
            return PotentialTerm(kind=e["kind"], params=dict(e.get("params", {})),
                                 shift=tuple(e.get("shift", ())), coeff=float(e.get("coeff", 1.0)))

        return PotentialSpec(
            n=int(d["n"]), N=int(d["N"]),
            one_particle=[(int(e["i"]), term_of(e)) for e in d.get("one_particle", [])],
            pairwise=[(int(e["i"]), int(e["j"]), term_of(e)) for e in d.get("pairwise", [])],
            additive=term_of(d["additive"]) if d.get("additive") else None,
        )


@dataclass
class HamiltonianSpec:
    """H = -sum_i (1/(2 mu_i)) Delta_i + V."""

    potential: PotentialSpec
    masses: tuple

    def __post_init__(self):
        self.masses = tuple(float(m) for m in self.masses)
        if len(self.masses) != self.potential.N:
            raise InvalidArgumentError("need one mass per particle")
        if not all(0 < m < math.inf for m in self.masses):
            raise InvalidArgumentError("masses must be finite and strictly positive")

    @property
    def n(self) -> int:
        return self.potential.n

    @property
    def N(self) -> int:
        return self.potential.N

    @property
    def dim(self) -> int:
        return self.potential.dim

    def to_json_dict(self) -> dict:
        d = self.potential.to_json_dict()
        d["masses"] = list(self.masses)
        return d

    @staticmethod
    def from_json_dict(d: dict) -> "HamiltonianSpec":
        pot = PotentialSpec.from_json_dict(d)
        return HamiltonianSpec(pot, tuple(d.get("masses", [1.0] * pot.N)))


# ---------------------------------------------------------------------------
# the sharpness example potential
# ---------------------------------------------------------------------------

@dataclass
class SharpExample:
    """Radial model with eigenfunction exp(-|x|^delta) and known eigenvalue."""

    hamiltonian: HamiltonianSpec
    delta: float
    n: int
    eigenvalue: float
    psi_profile: RadialProfile | None  # closed form at delta = 1, else tabulated later


def sharp_example_potential(delta: float, n: int) -> SharpExample:
    """One-particle potential whose eigenfunction is exp(-|x|^delta).

    delta = 1 gives the attractive Coulomb-type potential -(n-1)/(2|x|)
    with eigenvalue -1/2 (the quoted positive-sign variant fails the
    eigenvalue identity, which fixes the sign); delta < 1 gives the stated
    two-power combination with eigenvalue 0.
    """
    if not (0 < delta <= 1):
        raise InvalidArgumentError("delta must lie in (0, 1]")
    if n < 2:
        raise InvalidArgumentError("the example needs dimension n >= 2")
    if delta == 1.0:
        terms = [(1, PotentialTerm("inverse_power", {"t": 1.0}, coeff=-(n - 1) / 2.0))]
        lam = -0.5
        amp = 2.0 ** n * math.pi ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0)
        psi = RadialProfile("rational_bracket", (amp, 4 * math.pi ** 2, (n + 1) / 2.0))
    else:
        terms = [
            (1, PotentialTerm("inverse_power", {"t": 2.0 - 2.0 * delta},
                              coeff=delta ** 2 / 2.0)),
            (1, PotentialTerm("inverse_power", {"t": 2.0 - delta},
                              coeff=-delta * (n + delta - 2.0) / 2.0)),
        ]
        lam = 0.0
        psi = None
    pot = PotentialSpec(n=n, N=1, one_particle=terms)
    ham = HamiltonianSpec(pot, (1.0,))
    return SharpExample(ham, delta, n, lam, psi)
