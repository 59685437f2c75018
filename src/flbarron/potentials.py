"""Analytic potential catalog and many-body potential assembly.

``_CATALOG`` declares the five kinds and their parameters once:
inverse_power (t), coulomb, yukawa (mu), log_1d and gaussian (kappa and
width, each 1 by default).  ``PotentialTerm`` checks every term against it,
so an unknown kind or parameter, a missing ``t`` or ``mu``, or an entry that
is not a finite real number raises ``InvalidArgumentError`` naming it.
Every term carries a closed-form radial Fourier transform; shifted copies
contribute a phase only, so all norms are taken on the unshifted profile
and aggregated with |coefficient| weights.  ``_SPEC_KEYS`` and ``_ENTRY_KEYS``
declare the spec file's keys once; ``from_json_dict`` reads a spec through them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergentPartError, InvalidArgumentError, UnsupportedKindError
from .grid import RadialProfile, sample_profile
from .spaces import Split, SpaceIndex, _power_tail, default_norm_grid, fl_norm
from .special import c_t_n, gamma, omega_d

# kind -> {parameter: default}; a default of None marks a required parameter
_CATALOG = {
    "inverse_power": {"t": None},
    "coulomb": {},
    "yukawa": {"mu": None},
    "log_1d": {},
    "gaussian": {"kappa": 1.0, "width": 1.0},
}


# spec-file key -> (JSON type, default), _REQUIRED for a key without one; a number may be
# any JSON scalar here, as _whole, _finite_real and PotentialTerm check it where it is used
_REQUIRED = object()
_REQUIRED_NUMBER = ("a number", _REQUIRED)
_TERM_KEYS = {"kind": ("a string", _REQUIRED), "params": ("an object", {}),
              "shift": ("a list", ()), "coeff": ("a number", 1.0)}
_SPEC_KEYS = {"n": _REQUIRED_NUMBER, "N": _REQUIRED_NUMBER,
              "masses": ("a list", None),  # None: mass 1 for every particle
              "one_particle": ("a list", ()), "pairwise": ("a list", ()),
              "additive": ("an object or null", None)}
_ENTRY_KEYS = {"one_particle": {"i": _REQUIRED_NUMBER, **_TERM_KEYS},
               "pairwise": {"i": _REQUIRED_NUMBER, "j": _REQUIRED_NUMBER, **_TERM_KEYS}}
_JSON_TYPES = {"an object": dict, "a list": list, "an object or null": (dict, type(None)),
               "a string": str, "a number": (str, numbers.Number, type(None))}
_JSON_NAMES = {dict: "an object", list: "a list", type(None): "null"}


def _read(d, keys: dict, path: str) -> dict:
    """The object ``d`` at JSON path ``path`` with each key of ``keys``, absent ones
    at their default.  A non-object, an unknown or missing key, or a value of the
    wrong JSON type raises InvalidArgumentError naming its path."""
    if not isinstance(d, dict):
        got = _JSON_NAMES.get(type(d), repr(d))
        raise InvalidArgumentError(f"{path or 'the spec'} must be an object (got {got})")
    at = f"{path}." if path else ""
    for key, value in d.items():
        if key not in keys:
            raise InvalidArgumentError(f"{at}{key}: unknown key (known: {', '.join(keys)})")
        if not isinstance(value, _JSON_TYPES[keys[key][0]]):
            got = _JSON_NAMES.get(type(value), repr(value))
            raise InvalidArgumentError(f"{at}{key} must be {keys[key][0]} (got {got})")
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in d:
            raise InvalidArgumentError(f"{at}{key}: required key is missing")
    return {key: d.get(key, default) for key, (_, default) in keys.items()}


def _finite_real(value) -> bool:
    """A finite int or float (an int beyond the float range is not); a bool is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


@dataclass(frozen=True)
class PotentialTerm:
    """One catalog potential b * f(. - a): kind + params + shift + coefficient."""

    kind: str
    params: dict = field(default_factory=dict)
    shift: tuple = ()
    coeff: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _CATALOG:
            raise InvalidArgumentError(
                f"unknown potential kind {self.kind!r} (known: {', '.join(_CATALOG)})")
        k, declared = self.kind, _CATALOG[self.kind]
        if not (isinstance(self.params, dict) and isinstance(self.shift, (tuple, list))):
            raise InvalidArgumentError(f"{k} params must be an object and its shift a list")
        for name in self.params:
            if name not in declared:
                raise InvalidArgumentError(f"{k} has no parameter {name!r} "
                                           f"(it takes: {', '.join(declared) or 'none'})")
        for name, default in declared.items():
            if default is None and name not in self.params:
                raise InvalidArgumentError(f"{k} needs parameter {name!r}")
        for what, value in [*((f"parameter {p!r}", v) for p, v in self.params.items()),
                            ("coeff", self.coeff), *(("shift", v) for v in self.shift)]:
            if not _finite_real(value):
                raise InvalidArgumentError(
                    f"{k} {what} must be a finite real number (got {value!r})")
        object.__setattr__(self, "shift", tuple(self.shift))
        if k == "yukawa" and not self.param("mu") > 0:
            raise InvalidArgumentError("yukawa needs mu > 0")
        if k == "gaussian" and not self.param("width") > 0:
            raise InvalidArgumentError("gaussian needs width > 0")

    def param(self, name: str) -> float:
        """Parameter ``name`` as a float; the catalog default when not given."""
        return float(self.params.get(name, _CATALOG[self.kind][name]))

    def power_exponent(self) -> float | None:
        """t with V ~ |x|^(-t), None for the Gaussian."""
        if self.kind == "inverse_power":
            return self.param("t")
        return None if self.kind == "gaussian" else 1.0

    def validate_for_dim(self, n: int) -> None:
        if self.kind in ("inverse_power", "coulomb"):
            t = self.power_exponent()
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
    k = term.kind
    if k in ("inverse_power", "coulomb"):
        t = term.power_exponent()
        if t == n == 1:
            return RadialProfile("log_kernel", (-2.0,))
        return RadialProfile("power", (c_t_n(t, n), t - n))
    if k == "log_1d":
        return RadialProfile("log_kernel", (-2.0,))
    if k == "yukawa":
        mu = term.param("mu")
        return RadialProfile("rational_bracket",
                             (4 * math.pi / mu ** 2, 4 * math.pi ** 2 / mu ** 2, 1.0))
    kappa, w = term.param("kappa"), term.param("width")  # gaussian
    return RadialProfile("gaussian", (kappa, math.pi * w * w))


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
    grid = default_norm_grid(n)
    tail = _power_tail(prof.tail_terms(), alpha_prime, s, n, grid.upper_edge())
    if tail is None:
        raise DivergentPartError(f"{term.kind}: high part not in FL^{alpha_prime}_{s}: "
                                 f"the {prof.kind} transform's tail diverges or has no model")
    f = sample_profile(prof, grid)
    mask = grid.nodes <= R
    f1 = f.copy_with(np.where(mask, f.values, 0.0))
    f2 = f.copy_with(np.where(mask, 0.0, f.values))
    t = term.power_exponent()
    if prof.kind == "power" and s == 0.0:
        c = abs(prof.params[0])
        n1 = c * omega_d(n) * R ** t / t
        expo = (t - n) * alpha_prime + n
        n2 = c * (omega_d(n) / (-expo)) ** (1.0 / alpha_prime) * R ** (expo / alpha_prime)
        method = "analytic"
    else:
        n1 = fl_norm(f1, SpaceIndex(s, 1.0))
        n2 = fl_norm(f2, SpaceIndex(s, alpha_prime))
        if tail and not math.isinf(alpha_prime):  # 0 for a negligible tail
            n2 = (n2 ** alpha_prime + tail) ** (1.0 / alpha_prime)
        method = "radius"
    return Split(f1, f2, method, radius=R, part_norms=(float(n1), float(n2)))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def admissible(term: PotentialTerm, n: int, s: float, alpha: float) -> bool:
    """Whether ``term`` on R^n lies in FL^1_s + FL^alpha'_s at (s, alpha) under
    the standing assumption 2 + s - |s| - n/alpha > 0, which reads: s >= 0 with
    alpha > n/2, or -1 < s < 0 with alpha > n/(2(1+s)).  A term decaying like
    |x|^(-t) also needs s < n/alpha - t.  The term is checked for R^n first."""
    term.validate_for_dim(n)
    if not (alpha > n / 2.0 if s >= 0 else s > -1 and alpha > n / (2.0 * (1.0 + s))):
        return False
    t = term.power_exponent()
    inv = 0.0 if math.isinf(alpha) else 1.0 / alpha
    return t is None or s < n * inv - t


# ---------------------------------------------------------------------------
# many-body assembly
# ---------------------------------------------------------------------------

def _whole(value, name: str) -> int:
    """``value`` as an int when it is a whole number (2 or 2.0), never truncated."""
    if not _finite_real(value) or value != int(value):
        raise InvalidArgumentError(f"{name} must be a whole number (got {value!r})")
    return int(value)


def _entry(e, keys: dict, path: str) -> tuple:
    """(i, term), (i, j, term) or (term,): the term entry ``e`` at JSON path
    ``path`` with the particle indices that ``keys`` declares."""
    e = _read(e, keys, path)
    indices = tuple(_whole(e[k], f"{path}.{k}") for k in ("i", "j") if k in keys)
    return (*indices, PotentialTerm(e["kind"], dict(e["params"]), e["shift"], e["coeff"]))


@dataclass
class PotentialSpec:
    """V = sum_i V_i(x_i) + sum_{i<j} V_ij(x_i - x_j) + V_ad(x)."""

    n: int
    N: int
    one_particle: list = field(default_factory=list)   # [(i, PotentialTerm)]
    pairwise: list = field(default_factory=list)       # [(i, j, PotentialTerm)]
    additive: PotentialTerm | None = None

    def __post_init__(self):
        self.n, self.N = _whole(self.n, "n"), _whole(self.N, "N")
        if self.n < 1 or self.N < 1:
            raise InvalidArgumentError(f"n and N must be >= 1 (got n = {self.n}, N = {self.N})")
        for role, i, j, term, dim in self.terms():
            if role == "one_particle" and not 1 <= i <= self.N:
                raise InvalidArgumentError(f"one-particle index {i} outside 1..{self.N}")
            if role == "pairwise" and not 1 <= i < j <= self.N:
                raise InvalidArgumentError(f"pairwise indices ({i},{j}) invalid")
            term.validate_for_dim(dim)

    @property
    def dim(self) -> int:
        return self.n * self.N

    def terms(self) -> list:
        """(role, i, j, term, dim) per term of V, in the operators' summation order:
        one_particle (i, None) and pairwise (i, j) on n, then additive on n*N."""
        return ([("one_particle", i, None, t, self.n) for i, t in self.one_particle]
                + [("pairwise", i, j, t, self.n) for i, j, t in self.pairwise]
                + ([("additive", None, None, self.additive, self.dim)]
                   if self.additive is not None else []))

    @staticmethod
    def from_json_dict(d: dict) -> "PotentialSpec":
        """The potential of a spec-file object, read through ``_SPEC_KEYS``;
        an unknown, missing or mistyped key raises InvalidArgumentError naming its path."""
        top = _read(d, _SPEC_KEYS, "")
        entries = {role: [_entry(e, keys, f"{role}[{k}]") for k, e in enumerate(top[role])]
                   for role, keys in _ENTRY_KEYS.items()}
        ad = top["additive"]
        return PotentialSpec(top["n"], top["N"], **entries,
                             additive=None if ad is None else _entry(ad, _TERM_KEYS, "additive")[0])


@dataclass
class HamiltonianSpec:
    """H = -sum_i (1/(2 mu_i)) Delta_i + V."""

    potential: PotentialSpec
    masses: tuple

    def __post_init__(self):
        for k, m in enumerate(self.masses):
            if not (_finite_real(m) and m > 0):
                raise InvalidArgumentError(f"masses[{k}] must be a finite number > 0 (got {m!r})")
        self.masses = tuple(float(m) for m in self.masses)
        if len(self.masses) != self.potential.N:
            raise InvalidArgumentError("need one mass per particle")

    @property
    def n(self) -> int:
        return self.potential.n

    @property
    def N(self) -> int:
        return self.potential.N

    @property
    def dim(self) -> int:
        return self.potential.dim

    @staticmethod
    def from_json_dict(d: dict) -> "HamiltonianSpec":
        pot, masses = PotentialSpec.from_json_dict(d), _read(d, _SPEC_KEYS, "")["masses"]
        return HamiltonianSpec(pot, (1.0,) * pot.N if masses is None else masses)


# ---------------------------------------------------------------------------
# the sharpness example potential
# ---------------------------------------------------------------------------

@dataclass
class SharpExample:
    """Radial model with eigenfunction exp(-|x|^delta) and known eigenvalue."""

    hamiltonian: HamiltonianSpec
    eigenvalue: float
    psi_profile: RadialProfile | None  # the closed-form transform; None where none exists


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
        amp = 2.0 ** n * math.pi ** ((n - 1) / 2.0) * gamma((n + 1) / 2.0)
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
    return SharpExample(ham, lam, psi)
