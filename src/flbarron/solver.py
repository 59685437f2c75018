"""Certified Neumann solver, bootstrap series, and sharpness experiments.

The solver iterates u_{k+1} = (H0 + rho)^{-1} f - R u_k, whose fixed point
solves (H + rho) u = f on the grid; the certified contraction factor is
q = mu~_rho * C(V).  A dense direct solve of the same discrete operator
serves as the oracle.  The sharpness experiments tabulate the transform of
exp(-|x|^delta) in n = 3 (by a fixed Gauss rule in t = r^delta at small
radii and one on a rotated ray of integration at the others), fit its tail
decay and amplitude, and measure the Barron blow-up rate of its diverging
high-frequency mass.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .bounds import big_C_V, contraction_radius, low_frequency_l2_bound, mu_tilde
from .errors import (
    ContractionViolationError,
    FitDegenerateError,
    InvalidArgumentError,
    NonConvergenceError,
    NonFiniteError,
    NoContractionError,
    NotInSpaceError,
    SingularSystemError,
    UnsupportedKindError,
    UnsupportedScaleError,
)
from .grid import (
    _BLOCK_ELEMS,
    FreqFunction,
    FreqGrid,
    RadialProfile,
    check_table_nodes,
    make_radial_grid,
    sample_profile,
    tabulated_profile,
)
from .operators import (  # noqa: F401  perfbench's tracer tests rebind apply_R here
    OperatorPlan,
    _norm,
    apply_R,
    make_operator,
    project_high,
    project_low,
)
from .potentials import HamiltonianSpec, SharpExample, sharp_example_potential
from .spaces import SpaceIndex, _power_tail, fl_norm
from .special import gamma as Gamma, omega_d

MAX_ITER = 400  # Neumann iterations before NonConvergenceError, and the GMRES step cap


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class SolveReport:
    converged: bool
    iterations: int
    residual_history: list
    certificate: dict            # {"q": ..., "K": ...} contraction data
    final_norms: dict            # norms of the returned solution
    aposteriori: float | None = None
    oracle_error: float | None = None
    extras: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class EigenReport:
    delta: float
    n: int
    eigenvalue: float
    residual: float | None
    decay_exponent: float | None = None
    decay_ci: float | None = None
    tail_amplitude: float | None = None
    tail_amplitude_ref: float | None = None
    tail_sign: int | None = None
    blowup_slope: float | None = None
    blowup_ci: float | None = None
    blowup_gammas: tuple = ()
    transform_check: float | None = None
    fit_window: tuple = ()
    blowup_norms: tuple = ()  # high-band Barron norm per blowup_gammas entry

    def to_json_dict(self) -> dict:
        """Every field but ``blowup_norms``, which the CSV carries."""
        return {k: v for k, v in asdict(self).items() if k != "blowup_norms"}


# ---------------------------------------------------------------------------
# Neumann iteration and the dense oracle
# ---------------------------------------------------------------------------

def solve_neumann(spec: HamiltonianSpec, rho: float, f: FreqFunction, s: float = 0.0,
                  tol: float = 1e-10, alpha: float = math.inf, beta: float = 0.0):
    """Fixed-point iteration for u + R u = (H0 + rho)^(-1) f.

    Requires the global contraction q = mu~_rho C(V) < 1; the error of the
    returned iterate is a-posteriori bounded by q/(1-q) times the last
    update norm (both recorded in the report).
    """
    if not 0 <= tol < math.inf:
        raise InvalidArgumentError(f"tol must be finite and >= 0 (got {tol})")
    q = mu_tilde(spec.masses, rho) * big_C_V(spec.potential, s, alpha, beta)
    plan = OperatorPlan(spec, f.grid)
    b = f.copy_with(plan.h0_inverse(f.values, rho))
    idx = SpaceIndex(s, 1.0)
    if not spec.potential.terms():
        report = SolveReport(True, 1, [0.0], {"q": 0.0, "K": None},
                             {"B_s+2": fl_norm(b, SpaceIndex(s + 2.0, 1.0)),
                              "H^1": fl_norm(b, SpaceIndex(1.0, 2.0))},
                             aposteriori=0.0)
        return b, report
    if q >= 1.0:
        raise NoContractionError(
            f"q = {q:.6g} >= 1: no global contraction, use the projected series", q=q)
    u = b.copy_with(np.zeros_like(b.values))
    history = []
    converged = False
    for k in range(1, MAX_ITER + 1):
        u_next = b.copy_with(b.values - plan.R(u.values, rho))
        try:
            resid = _diff_norm(u_next, u, idx)
        except NonFiniteError as exc:
            raise NonFiniteError(f"solver.solve_neumann: update {k} is not finite ({exc})") from exc
        history.append(resid)
        u = u_next
        if resid <= tol:
            converged = True
            break
        if k > 1 and resid >= history[-2]:
            # R contracts by q < 1 in this norm, so a non-shrinking update disproves q
            raise ContractionViolationError(
                f"solver.solve_neumann: update {k} did not shrink (ratio "
                f"{resid / history[-2]:.6g} >= 1, certified q = {q:.15g})")
    if not converged:
        raise NonConvergenceError(f"no convergence after {MAX_ITER} iterations "
                                  f"(last update {history[-1]:.3e})")
    report = SolveReport(
        True, len(history), history,
        {"q": q, "K": None},
        {"B_s+2": fl_norm(u, SpaceIndex(s + 2.0, 1.0)),
         "H^1": fl_norm(u, SpaceIndex(1.0, 2.0)),
         "B_s": fl_norm(u, idx)},
        aposteriori=q / (1.0 - q) * history[-1],
    )
    return u, report


def assemble_dense(spec: HamiltonianSpec, rho: float, grid) -> np.ndarray:
    """Dense matrix of I + R on the flattened tensor grid: ``OperatorPlan.matrix``."""
    return OperatorPlan(spec, grid).matrix(rho)


def solve_direct(spec: HamiltonianSpec, rho: float, f: FreqFunction,
                 matrix: np.ndarray | None = None) -> FreqFunction:
    """Dense oracle for u + R u = (H0 + rho)^(-1) f, by GMRES on I + R.

    The matrix shares the discretization of the iteration exactly; a
    precomputed ``matrix`` from ``OperatorPlan.matrix`` is reused when
    given, and only read.  A complex right-hand side of a real system is
    solved as two real systems, its real and imaginary parts, so the
    result is complex exactly when I + R or f is.
    """
    g = f.grid
    plan = OperatorPlan(spec, g)
    # one memory layout, so C- and Fortran-ordered input give the same bits
    A = np.ascontiguousarray(plan.matrix(rho) if matrix is None else matrix)
    b = plan.h0_inverse(f.values, rho).ravel()
    if np.iscomplexobj(b) and not np.iscomplexobj(A):
        x = _gmres(A, np.ascontiguousarray(b.real)) + 1j * _gmres(A, np.ascontiguousarray(b.imag))
    else:
        x = _gmres(A, b)
    return FreqFunction(g, x.reshape(g.shape))


def _gmres(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b by full GMRES from x = 0 (Saad & Schultz 1986).

    A is applied by ``np.einsum`` and each new basis vector orthogonalized
    by two passes of classical Gram-Schmidt with einsum reductions, so no
    BLAS call, and no BLAS thread count, touches x.  The iteration stops
    once the least-squares residual of the Hessenberg system is at most
    1e-14 ||b||, after at most min(MAX_ITER, M) steps.  Raises
    SingularSystemError when the 2-norm condition number of the Hessenberg
    matrix (a lower bound on cond_2(A)) is above 1e12 or not finite, or
    when the relative residual ||A x - b|| / ||b|| is above 1e-10;
    NonFiniteError when A or b is not finite.
    """
    beta = _norm(b)
    if beta == 0.0:
        return np.zeros_like(b)
    steps = min(MAX_ITER, b.size)
    dtype = np.result_type(A, b)
    V = np.empty((steps + 1, b.size), dtype)  # the Krylov basis, one vector a row
    T = np.zeros((steps, steps), dtype)  # the Hessenberg matrix after the Givens rotations
    rotations = []
    g = [beta]  # beta e_1 after the rotations; |g[-1]| is the residual norm
    V[0] = b / beta
    for k in range(steps):
        w = np.einsum("ij,j->i", A, V[k])
        h = np.zeros(k + 1, dtype)  # column k of the Hessenberg matrix, above h_next
        for _ in range(2):
            proj = np.einsum("kj,j->k", V[:k + 1], w.conj()).conj()
            w -= np.einsum("kj,k->j", V[:k + 1], proj)
            h += proj
        h_next = _norm(w)
        if not math.isfinite(h_next):
            raise NonFiniteError(f"solver.solve_direct: GMRES step {k + 1} is not finite")
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s.conjugate() * h[i]
        # the rotation that zeroes h_next, which is real and >= 0
        a = h[k]
        r = math.hypot(abs(a), h_next)
        phase = a / abs(a) if a != 0 else 1.0
        c, s = (abs(a) / r, phase * h_next / r) if r > 0 else (1.0, 0.0)
        h[k] = c * a + s * h_next
        T[:k + 1, k] = h
        rotations.append((c, s))
        g.append(-s.conjugate() * g[k])
        g[k] = c * g[k]
        if abs(g[k + 1]) <= 1e-14 * beta:
            break
        V[k + 1] = w / h_next
    m = len(rotations)
    # T[:m, :m] has the singular values of the (m + 1) x m Hessenberg matrix
    cond = np.linalg.cond(T[:m, :m])
    if not cond <= 1e12:
        raise SingularSystemError(f"I + R numerically singular (cond = {cond:.3e})")
    y = np.zeros(m, dtype)
    for i in range(m - 1, -1, -1):
        y[i] = (g[i] - np.sum(T[i, i + 1:m] * y[i + 1:])) / T[i, i]
    x = np.einsum("kj,k->j", V[:m], y)
    resid = _norm(np.einsum("ij,j->i", A, x) - b) / beta
    if resid > 1e-10:
        raise SingularSystemError(f"direct solve residual {resid:.3e} > 1e-10")
    return x


def oracle_error(u_iter: FreqFunction, u_direct: FreqFunction, s: float = 0.0) -> float:
    idx = SpaceIndex(s, 1.0)
    err, denom = _diff_norm(u_iter, u_direct, idx), fl_norm(u_direct, idx)
    return err / denom if denom > 0 else err


# ---------------------------------------------------------------------------
# high-frequency bootstrap series
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 60
_SERIES_TOL = 1e-12
_RATIO_CAP = 0.52  # the certified 1/2 plus headroom for discretization


def bootstrap_series(spec: HamiltonianSpec, mode: str, data: FreqFunction, s: float,
                     alpha: float, beta: float, energy: float) -> SolveReport:
    """Reconstruct the high-frequency part from the low-frequency part.

    mode = "eigen": data is an eigenfunction psi with eigenvalue ``energy``;
    the series is sum_k (P_K T_lambda)^k (psi - P_K psi).
    mode = "solve": data is the right-hand side f at rho = ``energy``; the
    series is sum_k (-P_K R)^k [P_K (H0+rho)^(-1) f - P_K R (u - P_K u)].
    K is chosen so the projected operator is a certified 1/2-contraction.
    At most 60 terms are summed, stopping at the first term below 1e-12
    times the low part's norm; a step ratio above 0.52 raises
    ContractionViolationError.
    """
    if not math.isfinite(energy):
        raise InvalidArgumentError(f"energy must be finite (got {energy})")
    C = big_C_V(spec.potential, s, alpha, beta)
    idx = SpaceIndex(abs(s), 1.0)
    plan = OperatorPlan(spec, data.grid)
    if mode == "eigen":
        K = contraction_radius(mu_tilde(spec.masses, 1.0), abs(energy + 1.0), C, s, beta)
        low, target = project_low(data, K), project_high(data, K)
        apply_step = make_operator("pk_t_lambda", plan, {"lam": energy, "K": K})
        seed_term = apply_step(low)
    elif mode == "solve":
        rho = energy
        K = contraction_radius(mu_tilde(spec.masses, rho), 0.0, C, s, beta)
        u_star = solve_direct(spec, rho, data, matrix=plan.matrix(rho))
        low, target = project_low(u_star, K), project_high(u_star, K)
        pk_r = make_operator("pk_r", plan, {"rho": rho, "K": K})
        g0 = project_high(data.copy_with(plan.h0_inverse(data.values, rho)), K)
        seed_term = g0.copy_with(g0.values - pk_r(low).values)

        def apply_step(w):
            return w.copy_with(-pk_r(w).values)
    else:
        raise InvalidArgumentError("mode must be 'eigen' or 'solve'")

    low_norm = fl_norm(low, idx)
    term = seed_term
    partial = term.copy_with(term.values.copy())
    term_norms = [fl_norm(term, idx)]
    errors = [_diff_norm(target, partial, idx)]
    for _ in range(_SERIES_MAX_TERMS - 1):
        term = apply_step(term)
        tn = fl_norm(term, idx)
        term_norms.append(tn)
        partial = partial.copy_with(partial.values + term.values)
        errors.append(_diff_norm(target, partial, idx))
        if tn <= _SERIES_TOL * max(low_norm, 1e-300):
            break
    ratios = [b / a for a, b in zip(term_norms[:-1], term_norms[1:]) if a > 0]
    v_norm = fl_norm(partial, idx)
    lhs_low = _ball_weight_l2(data.grid, abs(s), K)
    rhs_low = low_frequency_l2_bound(s, data.grid.dim, K)
    max_ratio = max(ratios) if ratios else 0.0
    report = SolveReport(
        converged=errors[-1] <= max(1e-6 * max(v_norm, 1e-300), _SERIES_TOL),
        iterations=len(term_norms),
        residual_history=errors,
        certificate={"q": 0.5, "K": K},
        final_norms={"series_B|s|": v_norm, "low_B|s|": low_norm,
                     "reconstruction_error": errors[-1]},
        extras={"term_ratios": ratios, "max_ratio": max_ratio,
                "series_bounded_by_low": v_norm <= low_norm * (1 + 1e-9),
                "low_freq_l2_lhs": lhs_low, "low_freq_l2_rhs": rhs_low},
    )
    if max_ratio > _RATIO_CAP:
        raise ContractionViolationError(
            f"projected step ratio {max_ratio:.4f} exceeded {_RATIO_CAP}")
    return report


def _diff_norm(a: FreqFunction, b: FreqFunction, idx: SpaceIndex) -> float:
    return fl_norm(a.copy_with(a.values - b.values), idx)


def _ball_weight_l2(grid: FreqGrid, s: float, K: float) -> float:
    """L^2 norm of <xi>^s restricted to |xi| <= K, by the grid quadrature."""
    w = grid.trapezoid_weights().ravel() * grid.bracket_power(2.0 * s)
    return float(np.sqrt(np.sum(np.where(grid.radius_mesh().ravel() <= K, w, 0.0))))


# ---------------------------------------------------------------------------
# eigen residual
# ---------------------------------------------------------------------------

def eigen_residual(spec: HamiltonianSpec, psi: FreqFunction, lam: float,
                   tail_profile: RadialProfile | None = None,
                   r_eval_max: float | None = None) -> float:
    """||T_lambda psi - psi||_{B^0} on psi's grid.

    ``r_eval_max`` restricts the norm to the ball |xi| <= r_eval_max while
    the convolution still uses the whole grid; tabulated transforms carry
    noise at extreme radii that would otherwise floor the measurement.
    """
    t_psi = OperatorPlan(spec, psi.grid).T_lambda(psi.values, lam, tail_profile)
    resid = psi.copy_with(t_psi - psi.values)
    if r_eval_max is not None:
        resid = project_low(resid, r_eval_max)
    return fl_norm(resid, SpaceIndex(0.0, 1.0))


# ---------------------------------------------------------------------------
# radial transform of exp(-r^delta) and the sharpness experiment
# ---------------------------------------------------------------------------

_T_CUT = 18.0 * math.log(10.0)  # t = r^delta beyond which exp(-t) < 1e-18
_RULE_X, _RULE_W = leggauss(12)  # Gauss-Legendre nodes per panel of the small-radius rule
_RULE_PANELS = 80                # rule panels of width _T_CUT / _RULE_PANELS in t ...
_RULE_GRADED = 24                # ... the first one split geometrically toward t = 0
_THETA = math.pi / 4             # the ray r = y e^(i theta) of the large-radius rule
_SEAM = 160.0                    # radius beyond which the tabulated transform is its fitted tail
_BAND_LO = 1.0                   # the blow-up norm's band _BAND_LO < |xi| < _BAND_R_MAX is
_BAND_R_MAX = 60.0               # ... sampled from the profile, its tail model beyond


def _ray_rule():
    """(s, w s e^(-s sin theta), 2 theta + s cos theta) at the nodes s = 2 pi rho y of
    the ray rule: Gauss-16 on [0, 1e-7] and on each of 27 geometric panels (3 per
    decade) from there to 60 / sin theta, where e^(-s sin theta) = e^(-60)."""
    x, w = leggauss(16)
    edges = np.concatenate([[0.0], np.geomspace(1e-7, 60.0 / math.sin(_THETA), 28)])
    half = 0.5 * np.diff(edges)
    s = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
    c = (half[:, None] * w).ravel() * s * np.exp(-s * math.sin(_THETA))
    return s, c, 2.0 * _THETA + s * math.cos(_THETA)


_RAY_S, _RAY_C, _RAY_PHASE = _ray_rule()


def c1_constant(n: int, delta: float) -> float:
    """Leading tail coefficient of the transform of exp(-|x|^delta), which
    is positive: F(xi) ~ c1 |xi|^(-delta-n) as |xi| -> inf, with
    c1 = delta Gamma((delta+n)/2) / (2 pi^(n/2+delta) Gamma(1-delta/2)).

    This is the coefficient of the k = 1 term -F[|x|^delta] of the series
    of exp(-r^delta) = sum_k (-r^delta)^k / k!: by
    Gamma(1-delta/2) = (-delta/2) Gamma(-delta/2) it equals
    -pi^(-delta-n/2) Gamma((delta+n)/2) / Gamma(-delta/2).
    """
    return (delta * Gamma((delta + n) / 2.0)
            / (2.0 * math.pi ** (n / 2.0 + delta) * Gamma(1.0 - delta / 2.0)))


def _check_delta(delta: float) -> None:
    if not 0 < delta < 2:
        raise InvalidArgumentError(f"delta must lie in (0, 2) (got {delta})")


def stretched_exp_transform(rho: float, delta: float, n: int = 3) -> float:
    """Transform of exp(-|x|^delta) at radius rho in n = 3: ``sharp_transform_radii``
    at the one radius."""
    if n != 3:
        raise UnsupportedScaleError(f"transform implemented for n = 3 (got n = {n})")
    _check_delta(delta)
    if not 0 <= rho < math.inf:
        raise InvalidArgumentError(f"rho must be finite and >= 0 (got {rho})")
    return float(sharp_transform_radii(np.array([rho]), delta)[0])


def sharp_transform_radii(rhos, delta: float) -> np.ndarray:
    """n = 3 transform F(rho) = (2/rho) int_0^inf exp(-r^delta) r sin(2 pi rho r) dr
    of exp(-|x|^delta) at every radius of ``rhos``, in blocks of radii, by one of
    two fixed rules that a phase test picks per radius:

    - where no panel of a composite Gauss-Legendre rule in t = r^delta spans more
      than 1 radian of sin(2 pi rho r), rho = 0 included: that rule, from t = 0
      (panels graded toward t = 0, where the integrand carries a fractional
      power) to where exp(-t) t^(3/delta - 1) is negligible;
    - at every other radius: the integral turned onto the ray r = y e^(i theta),
      theta = pi/4, where exp(-r^delta) and e^(2 pi i rho r) both decay.  With
      s = 2 pi rho y, A = (s / 2 pi rho)^delta and z = e^(i delta theta),
      F(rho) = 2 Im[e^(2i theta) int s exp(-A z) e^(i s e^(i theta)) ds] / (rho (2 pi rho)^2),
      by a fixed Gauss rule in s.  Where 2 pi rho >= 1 the integrand takes
      exp(-A z) - 1 in place of exp(-A z): the subtracted term integrates to 0,
      and with A small there the difference keeps the rounding relative.

    The ray rule alone would lose about eps/rho at small radii, where e^(2i theta)
    turns the O(1) real part into the imaginary one; for delta < 0.25 it still
    loses digits just above the phase test's cut (at delta = 0.2, 1.5e-11 at
    rho = 1e-8 and 1.2e-14 at 1e-7).  A radius's value depends on that radius
    alone, not on the other radii of the call.
    """
    _check_delta(delta)
    rhos = np.asarray(rhos, dtype=float)
    if not np.all((rhos >= 0) & (rhos < np.inf)):
        raise InvalidArgumentError("rho must be finite and >= 0 at every radius")
    rule, max_phase = _rule_table(delta)
    ray = (_RAY_S ** delta, _RAY_C, _RAY_PHASE)
    near = rhos * max_phase <= 1.0
    far = 2.0 * math.pi * rhos >= 1.0
    vals = np.empty_like(rhos)
    # three block-sized scratch arrays that every block of this call reuses: with
    # fresh temporaries per block, malloc may hand the freed top of the heap
    # back to the OS after each block and page it in again for the next one
    work = np.empty((3, max(_BLOCK_ELEMS, rule[0].size)))
    for mask, block, table in ((near, _rule_block, rule),
                               (~near & ~far, _ray_block, (*ray, delta, False)),
                               (~near & far, _ray_block, (*ray, delta, True))):
        idx = np.flatnonzero(mask)
        step = max(1, _BLOCK_ELEMS // table[0].size)
        for lo in range(0, idx.size, step):
            i = idx[lo:lo + step]
            vals[i] = block(rhos[i], *table, work=work)
    return vals


def _block_views(work, rows: int, cols: int):
    """(rows, cols) C-contiguous views of the scratch rows of ``work``."""
    return [w[:rows * cols].reshape(rows, cols) for w in work]


def _rule_table(delta: float):
    """((2 pi r, c), largest phase per panel over rho): nodes and weights with
    F(rho) = sum c sinc(2 rho r)."""
    h = _T_CUT / _RULE_PANELS
    # beyond t_max, exp(-t) t^(3/delta - 1) holds below 1e-20 of the integral at rho = 0
    t_max = _T_CUT + (3.0 / delta) * math.log(_T_CUT)
    edges = np.concatenate([[0.0], h * 2.0 ** -np.arange(_RULE_GRADED, 0, -1),
                            h * np.arange(1, math.ceil(t_max / h) + 1)])
    half = 0.5 * np.diff(edges)
    t = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _RULE_X).ravel()
    r = t ** (1.0 / delta)
    # 4 pi int exp(-r^delta) r^2 sinc(2 rho r) dr with dr = r / (delta t) dt
    c = (4.0 * math.pi / delta) * (half[:, None] * _RULE_W).ravel() * np.exp(-t) * r ** 3 / t
    max_phase = 2.0 * math.pi * float(np.max(np.diff(edges ** (1.0 / delta))))
    return (2.0 * math.pi * r, c), max_phase


def _rule_block(rho, two_pi_r, c, work):
    """Values of the rule in t.  Row sums, not a matrix product, so a radius's
    value never depends on the other radii of its block."""
    phase, kern, _ = _block_views(work, rho.size, c.size)
    np.multiply.outer(rho, two_pi_r, out=phase)
    np.sin(phase, out=kern)
    with np.errstate(invalid="ignore"):
        np.divide(kern, phase, out=kern)  # sinc(2 rho r); 0/0 only at rho = 0
    kern[rho == 0] = 1.0
    return np.multiply(kern, c, out=kern).sum(axis=1)


def _ray_block(rho, s_pow, c, phase, delta, minus_one, work):
    """Values of the ray rule: the sum over its nodes of
    Im[c e^(i phase) exp(-A z)] = c exp(-a) sin(phase - b), a = A cos(delta theta)
    and b = A sin(delta theta), or with ``minus_one`` of Im[c e^(i phase) (exp(-A z) - 1)]
    = c (expm1(-a) sin(phase - b) - 2 cos(phase - b/2) sin(b/2)), whose terms are
    small where A is."""
    k = 2.0 * math.pi * rho
    A, b, u = _block_views(work, rho.size, c.size)
    np.multiply.outer(k ** -delta, s_pow, out=A)
    np.multiply(A, math.sin(delta * _THETA), out=b)
    np.sin(np.subtract(phase, b, out=u), out=u)
    decay = np.expm1 if minus_one else np.exp
    terms = np.multiply(decay(np.multiply(A, -math.cos(delta * _THETA), out=A), out=A), u, out=A)
    if minus_one:
        half = np.multiply(b, 0.5, out=b)
        np.multiply(np.cos(np.subtract(phase, half, out=u), out=u), np.sin(half, out=b), out=u)
        terms -= u
        terms -= u
    return 2.0 * np.multiply(terms, c, out=terms).sum(axis=1) / (rho * k * k)


def seam_tail_model(delta: float) -> tuple:
    """((A, -delta-3), (B, -2 delta-3)): the two-term tail fitted on [160/3, 160]."""
    A, B, _ = _tail_fit(_SEAM / 3.0, _SEAM, 16, delta)
    return (A, -(delta + 3)), (B, -(2 * delta + 3))


def tabulate_sharp_transform(nodes: np.ndarray, delta: float,
                             tail_model: tuple | None = None) -> RadialProfile:
    """Tabulated n = 3 transform profile: ``sharp_transform_radii`` at nodes up
    to radius 160, beyond it ``tail_model``, which is also the profile's tail
    model.  Without one, ``seam_tail_model(delta)`` is fitted here."""
    nodes = check_table_nodes(nodes)
    vals = np.empty_like(nodes)
    low = nodes <= _SEAM
    vals[low] = sharp_transform_radii(nodes[low], delta)
    model = seam_tail_model(delta) if tail_model is None else tail_model
    hi = ~low
    if hi.any():
        vals[hi] = sum(C * nodes[hi] ** p for C, p in model)
    return tabulated_profile(nodes, vals, tail_model=model)


def _tail_fit(lo: float, hi: float, count: int, delta: float):
    """Two-term tail model |F(x)| = A x^(-delta-3) + B x^(-2 delta-3), fitted by
    least squares on ``count`` geometric radii of [lo, hi]: (A, B, (radii, F))."""
    xs = np.geomspace(lo, hi, count)
    F = sharp_transform_radii(xs, delta)
    B, A = np.polyfit(xs ** -delta, np.abs(F) * xs ** (delta + 3), 1)
    return A, B, (xs, F)


def _ols_slope(x: np.ndarray, y: np.ndarray):
    """(slope, 95% halfwidth) of the least-squares line."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    m = len(x)
    if m > 2:
        resid = y - A @ coef
        se = math.sqrt(float(resid @ resid) / (m - 2) / float(np.sum((x - x.mean()) ** 2)))
    else:
        se = 0.0
    return float(coef[0]), 1.96 * se


def high_band_barron_norm(profile: RadialProfile, gamma: float) -> float:
    """Barron-gamma mass in n = 3 of the band |xi| > 1: by quadrature on a
    4500-node log-uniform grid up to radius 60, plus the profile's analytic
    tail beyond.  A tabulated profile is read only on (1, 60), so its table
    needs just the nodes of ``band_table_nodes``, but must start at or below 1.

    This is the component of the norm that diverges as gamma approaches the
    sharp index; the complementary ball contributes an analytic-in-gamma
    constant that would mask the blow-up rate.  Where the tail's leading
    term diverges (gamma >= delta for the sharp example) the profile is not
    in B^gamma and NotInSpaceError is raised.
    """
    terms = profile.tail_terms()
    if terms is None:
        raise UnsupportedKindError(f"no tail model for a {profile.kind} profile")
    nodes = profile.table_nodes
    if nodes is not None and nodes[0] > _BAND_LO:
        # np.interp would clamp the band's samples below the table to its first value
        raise InvalidArgumentError(f"tabulated profile starts at radius {float(nodes[0])!r}, "
                                   f"above the band's low edge {_BAND_LO!r}")
    r_max = _BAND_R_MAX
    if _power_tail(terms, 1.0, gamma, 3, r_max) is None:
        raise NotInSpaceError(f"{profile.kind} profile not in B^{gamma}: its tail diverges")
    grid = make_radial_grid(3, r_max, 3 * 1500, r_min=1e-6)
    base = fl_norm(project_high(sample_profile(profile, grid), _BAND_LO), SpaceIndex(gamma, 1.0))
    tail = 0.0
    for A, p in terms:
        # int_R^inf <r>^gamma A r^p r^2 dr with <r>^gamma ~ r^gamma (1 + gamma/(2 r^2)),
        # finite for every term once the leading one is
        e = gamma + p + 3
        tail += A * (r_max ** e / (-e) + (gamma / 2.0) * r_max ** (e - 2) / (2 - e))
    return base + omega_d(3) * tail


def band_table_nodes(nodes: np.ndarray) -> np.ndarray:
    """The contiguous run of the increasing ``nodes`` from the last one <= 1
    to the first one >= 60: every node that linear interpolation on the band
    of ``high_band_barron_norm`` reads.  Each tabulated value depends on its
    own radius alone, so the norm on this run equals the norm on all of ``nodes``."""
    lo = max(int(np.searchsorted(nodes, _BAND_LO, side="right")) - 1, 0)
    return nodes[lo:int(np.searchsorted(nodes, _BAND_R_MAX)) + 1]


def sharpness_experiment(delta: float, n: int = 3, gammas=(0.90, 0.95, 0.99),
                         residual_cells: int = 3 * 150) -> EigenReport:
    """Residual, decay-rate, tail-amplitude and blow-up measurements for
    exp(-|x|^delta) in n = 3, the one dimension ``n`` may take.

    A pilot fit on [4, 40] places the decay window [xi_lo, 10 xi_lo], with
    xi_lo >= 4, widened until the next-order tail
    correction contributes below 1% at xi_lo (capped at 32 to stay clear of
    quadrature noise); the amplitude removes the first correction by a
    two-term extrapolation, and the blow-up slope is fitted on the diverging
    high-frequency band of the Barron norm.  ``residual_cells`` counts the
    residual grid's nodes, three per cell (450 are 150 cells); a count that
    ``make_radial_grid`` rejects fails before any transform.  Without a closed-form
    profile (delta < 1) the residual and blow-up tables share one ``seam_tail_model``.
    """
    if not (0 < delta <= 1):
        raise InvalidArgumentError("delta must lie in (0, 1] for the experiment")
    if n != 3:
        raise UnsupportedScaleError(f"sharpness experiment implemented for n = 3 (got n = {n})")
    if not all(0 < g < delta for g in gammas):
        raise InvalidArgumentError(
            f"blow-up gammas must lie in (0, delta) = (0, {delta:g}) (got {list(gammas)})")
    example = sharp_example_potential(delta, 3)
    closed = example.psi_profile
    seam = None
    if closed is None:
        _residual_grid(example, residual_cells)  # a rejected count fails before any transform
        seam = seam_tail_model(delta)
    resid = sharp_example_residual(delta, ncells=residual_cells, tail_model=seam)
    c1 = c1_constant(3, delta)

    # pilot fit to place the window
    seed_window = 4.0
    A0, B0, _ = _tail_fit(seed_window, 10 * seed_window, 16, delta)
    if A0 <= 0:
        raise FitDegenerateError("pilot amplitude fit degenerate")
    xi_lo = (100.0 * abs(B0 / A0)) ** (1.0 / delta) if B0 != 0 else seed_window
    xi_lo = min(max(xi_lo, seed_window), 32.0)

    Ac, _, (xs, ys) = _tail_fit(xi_lo, 10 * xi_lo, 24, delta)
    if np.any(ys == 0):
        raise FitDegenerateError("transform vanished inside the fit window")
    slope, ci = _ols_slope(np.log(xs), np.log(np.abs(ys)))
    tail_sign = int(np.sign(ys[-1]))

    # blow-up of the high-frequency Barron mass
    psi_prof = closed
    if psi_prof is None:
        psi_prof = tabulate_sharp_transform(band_table_nodes(np.geomspace(1e-4, 400.0, 1200)),
                                            delta, seam)
    norms = [high_band_barron_norm(psi_prof, g) for g in gammas]
    bx = [-math.log(delta - g) for g in gammas]
    blow, blow_ci = _ols_slope(np.array(bx), np.log(np.array(norms)))

    check = None
    if closed is not None:
        sample = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 25)])
        numeric = np.array([stretched_exp_transform(x, delta) for x in sample])
        exact = closed(sample)
        check = float(np.max(np.abs(numeric - exact) / np.abs(exact)))

    return EigenReport(
        delta=delta, n=3, eigenvalue=example.eigenvalue, residual=resid,
        decay_exponent=slope, decay_ci=ci,
        tail_amplitude=float(Ac), tail_amplitude_ref=abs(c1), tail_sign=tail_sign,
        blowup_slope=blow, blowup_ci=blow_ci, blowup_gammas=tuple(gammas),
        transform_check=check, fit_window=(float(xi_lo), float(10 * xi_lo)),
        blowup_norms=tuple(norms),
    )


def sharp_example_residual(delta: float, ncells: int = 3 * 150,
                           tail_model: tuple | None = None) -> float:
    """Fixed-point residual of the n = 3 sharpness example on ``_residual_grid``
    (``ncells`` nodes, three per cell) with the example's closed-form profile;
    without one, the transform tabulated with ``tail_model`` as in
    ``tabulate_sharp_transform``, its residual measured on |xi| <= 40."""
    example = sharp_example_potential(delta, 3)
    grid = _residual_grid(example, ncells)
    psi_prof, r_eval_max = example.psi_profile, None
    if psi_prof is None:
        psi_prof, r_eval_max = tabulate_sharp_transform(grid.nodes, delta, tail_model), 40.0
    return eigen_residual(example.hamiltonian, sample_profile(psi_prof, grid), example.eigenvalue,
                          tail_profile=psi_prof, r_eval_max=r_eval_max)


def _residual_grid(example: SharpExample, ncells: int) -> FreqGrid:
    """``ncells`` log-uniform nodes up to radius 2000, 800 for a tabulated profile."""
    r_max = 800.0 if example.psi_profile is None else 2000.0
    return make_radial_grid(3, r_max, ncells, r_min=1e-4)
