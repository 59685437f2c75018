"""Certified Neumann solver, bootstrap series, and sharpness experiments.

The solver iterates u_{k+1} = (H0 + rho)^{-1} f - R u_k, whose fixed point
solves (H + rho) u = f on the grid; the certified contraction factor is
q = mu~_rho * C(V).  A dense direct solve of the same discrete operator
serves as the oracle.  The sharpness experiments tabulate the transform of
exp(-|x|^delta) by oscillatory quadrature, fit its tail decay and amplitude,
and measure the Barron blow-up rate of its diverging high-frequency mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .bounds import big_C_V, contraction_radius, low_frequency_l2_bound, mu_tilde
from .errors import (
    ContractionViolationError,
    FitDegenerateError,
    InvalidArgumentError,
    NonConvergenceError,
    NonFiniteError,
    NoContractionError,
    SingularSystemError,
    UnsupportedScaleError,
)
from .grid import (
    FreqFunction,
    FreqGrid,
    RadialProfile,
    make_radial_grid,
    sample_profile,
    tabulated_profile,
)
from .operators import (  # noqa: F401  perfbench's tracer tests rebind apply_R here
    OperatorPlan,
    apply_R,
    apply_T_lambda,
    apply_h0_inverse,
    project_high,
    project_low,
)
from .potentials import HamiltonianSpec, sharp_example_potential
from .spaces import SpaceIndex, fl_norm
from .special import omega_d

MAX_DENSE_SAMPLES = 4096  # dense oracle cap: I + R is assembled as an M x M matrix


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
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_history": list(map(float, self.residual_history)),
            "certificate": self.certificate,
            "final_norms": self.final_norms,
            "aposteriori": self.aposteriori,
            "oracle_error": self.oracle_error,
            "extras": self.extras,
        }


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
        d = dict(self.__dict__)
        del d["blowup_norms"]
        d["blowup_gammas"] = list(self.blowup_gammas)
        d["fit_window"] = list(self.fit_window)
        return d


# ---------------------------------------------------------------------------
# Neumann iteration and the dense oracle
# ---------------------------------------------------------------------------

def solve_neumann(spec: HamiltonianSpec, rho: float, f: FreqFunction, s: float = 0.0,
                  tol: float = 1e-10, max_iter: int = 400,
                  alpha: float = math.inf, beta: float = 0.0,
                  C: float | None = None):
    """Fixed-point iteration for u + R u = (H0 + rho)^(-1) f.

    Requires the global contraction q = mu~_rho C(V) < 1; the error of the
    returned iterate is a-posteriori bounded by q/(1-q) times the last
    update norm (both recorded in the report).
    """
    if C is None:
        C = big_C_V(spec.potential, s, alpha, beta) if not spec.potential.is_zero() else 0.0
    q = mu_tilde(spec.masses, rho) * C
    plan = OperatorPlan(spec, f.grid)
    b = f.copy_with(plan.h0_inverse(f.values, rho))
    idx = SpaceIndex(s, 1.0)
    if spec.potential.is_zero():
        report = SolveReport(True, 1, [0.0], {"q": 0.0, "K": None},
                             {"B_s+2": fl_norm(b, SpaceIndex(s + 2.0, 1.0)),
                              "H^1": fl_norm(b, SpaceIndex(1.0, 2.0))},
                             aposteriori=0.0)
        return b, report
    if q >= 1.0:
        raise NoContractionError(
            f"q = {q:.6g} >= 1: no global contraction, use the projected series", q=q)
    u = b.copy_with(np.zeros_like(np.asarray(b.values)))
    history = []
    converged = False
    for k in range(1, max_iter + 1):
        u_next = b.copy_with(np.asarray(b.values) - plan.R(u.values, rho))
        diff = u_next.copy_with(np.asarray(u_next.values) - np.asarray(u.values))
        try:
            resid = fl_norm(diff, idx)
        except NonFiniteError as exc:
            raise NonFiniteError(f"solver.solve_neumann: update {k} is not finite ({exc})") from exc
        history.append(resid)
        u = u_next
        if resid <= tol:
            converged = True
            break
    if not converged:
        raise NonConvergenceError(f"no convergence after {max_iter} iterations "
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
    """Dense matrix of I + R on the flattened grid, one column per basis
    vector through the same operator application as the iteration."""
    M = grid.size
    if M > MAX_DENSE_SAMPLES:
        raise UnsupportedScaleError(f"dense assembly capped at {MAX_DENSE_SAMPLES} samples (got {M})")
    if spec.potential.is_zero():
        return np.eye(M)
    plan = OperatorPlan(spec, grid)
    dtype = complex if plan.complex_kernel else float
    A = np.eye(M, dtype=dtype)
    for m in range(M):
        e = np.zeros(M, dtype=dtype)
        e[m] = 1.0
        col = plan.R(e.reshape(grid.shape), rho).ravel()
        A[:, m] += col.real if dtype is float else col
    return A


def solve_direct(spec: HamiltonianSpec, rho: float, f: FreqFunction,
                 matrix: np.ndarray | None = None) -> FreqFunction:
    """Dense factorization oracle for u + R u = (H0 + rho)^(-1) f.

    The matrix shares the discretization of the iteration exactly; a
    precomputed ``matrix`` from assemble_dense is reused when given.
    """
    g = f.grid
    M = g.size
    A = assemble_dense(spec, rho, g) if matrix is None else matrix
    b = np.asarray(apply_h0_inverse(f, spec, rho).values).ravel()
    if np.iscomplexobj(b) and not np.iscomplexobj(A):
        A = A.astype(complex)
    if M <= 1024:
        cond = np.linalg.cond(A, 1)
        if not np.isfinite(cond) or cond > 1e12:
            raise SingularSystemError(f"I + R numerically singular (cond = {cond:.3e})")
    try:
        x = np.linalg.solve(A, b.astype(A.dtype))
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc
    resid = np.linalg.norm(A @ x - b) / max(np.linalg.norm(b), 1e-300)
    if resid > 1e-10:
        raise SingularSystemError(f"direct solve residual {resid:.3e} > 1e-10")
    vals = x.reshape(g.shape)
    if not np.iscomplexobj(f.values) and np.iscomplexobj(vals) and np.max(
            np.abs(vals.imag)) < 1e-13 * max(np.max(np.abs(vals.real)), 1e-300):
        vals = vals.real
    return FreqFunction(g, vals)


def oracle_error(u_iter: FreqFunction, u_direct: FreqFunction, s: float = 0.0) -> float:
    idx = SpaceIndex(s, 1.0)
    diff = u_iter.copy_with(np.asarray(u_iter.values) - np.asarray(u_direct.values))
    denom = fl_norm(u_direct, idx)
    return fl_norm(diff, idx) / denom if denom > 0 else fl_norm(diff, idx)


# ---------------------------------------------------------------------------
# high-frequency bootstrap series
# ---------------------------------------------------------------------------

def bootstrap_series(spec: HamiltonianSpec, mode: str, data: FreqFunction, s: float,
                     alpha: float, beta: float, energy: float,
                     C: float | None = None, max_terms: int = 60,
                     tol: float = 1e-12, ratio_cap: float = 0.52) -> SolveReport:
    """Reconstruct the high-frequency part from the low-frequency part.

    mode = "eigen": data is an eigenfunction psi with eigenvalue ``energy``;
    the series is sum_k (P_K T_lambda)^k (psi - P_K psi).
    mode = "solve": data is the right-hand side f at rho = ``energy``; the
    series is sum_k (-P_K R)^k [P_K (H0+rho)^(-1) f - P_K R (u - P_K u)].
    K is chosen so the projected operator is a certified 1/2-contraction.
    """
    pot = spec.potential
    if C is None:
        C = big_C_V(pot, s, alpha, beta) if not pot.is_zero() else 0.0
    idx = SpaceIndex(abs(s), 1.0)
    plan = OperatorPlan(spec, data.grid)
    if mode == "eigen":
        lam = energy
        mt = mu_tilde(spec.masses, 1.0)
        K = contraction_radius(mt, abs(lam + 1.0), C, s, beta)
        apply_step = lambda w: project_high(w.copy_with(plan.T_lambda(w.values, lam)), K)
        low = project_low(data, K)
        target = project_high(data, K)
        seed_term = apply_step(low)
    elif mode == "solve":
        rho = energy
        mt = mu_tilde(spec.masses, rho)
        K = contraction_radius(mt, 0.0, C, s, beta)
        u_star = solve_direct(spec, rho, data)
        low = project_low(u_star, K)
        target = project_high(u_star, K)
        g0 = project_high(data.copy_with(plan.h0_inverse(data.values, rho)), K)
        g1 = project_high(low.copy_with(plan.R(low.values, rho)), K)
        seed_term = g0.copy_with(np.asarray(g0.values) - np.asarray(g1.values))

        def apply_step(w, _rho=rho, _K=K):
            pkr = project_high(w.copy_with(plan.R(w.values, _rho)), _K)
            return pkr.copy_with(-np.asarray(pkr.values))
    else:
        raise InvalidArgumentError("mode must be 'eigen' or 'solve'")

    low_norm = fl_norm(low, idx)
    term = seed_term
    partial = term.copy_with(np.asarray(term.values).copy())
    term_norms = [fl_norm(term, idx)]
    errors = [_diff_norm(target, partial, idx)]
    for _ in range(max_terms - 1):
        term = apply_step(term)
        tn = fl_norm(term, idx)
        term_norms.append(tn)
        partial = partial.copy_with(np.asarray(partial.values) + np.asarray(term.values))
        errors.append(_diff_norm(target, partial, idx))
        if tn <= tol * max(low_norm, 1e-300):
            break
    ratios = [b / a for a, b in zip(term_norms[:-1], term_norms[1:]) if a > 0]
    v_norm = fl_norm(partial, idx)
    lhs_low = _ball_weight_l2(data.grid, abs(s), K)
    rhs_low = low_frequency_l2_bound(s, data.grid.dim, K)
    max_ratio = max(ratios) if ratios else 0.0
    report = SolveReport(
        converged=errors[-1] <= max(1e-6 * max(v_norm, 1e-300), tol),
        iterations=len(term_norms),
        residual_history=errors,
        certificate={"q": 0.5, "K": K},
        final_norms={"series_B|s|": v_norm, "low_B|s|": low_norm,
                     "reconstruction_error": errors[-1]},
        extras={"term_ratios": ratios, "max_ratio": max_ratio,
                "series_bounded_by_low": v_norm <= low_norm * (1 + 1e-9),
                "low_freq_l2_lhs": lhs_low, "low_freq_l2_rhs": rhs_low},
    )
    if max_ratio > ratio_cap:
        raise ContractionViolationError(
            f"projected step ratio {max_ratio:.4f} exceeded {ratio_cap}")
    return report


def _diff_norm(a: FreqFunction, b: FreqFunction, idx: SpaceIndex) -> float:
    return fl_norm(a.copy_with(np.asarray(a.values) - np.asarray(b.values)), idx)


def _ball_weight_l2(grid: FreqGrid, s: float, K: float) -> float:
    """L^2 norm of <xi>^s restricted to |xi| <= K, by the grid quadrature."""
    r = grid.radius_mesh()
    w = grid.trapezoid_weights()
    return float(np.sqrt(np.sum(np.where(r <= K, w * (1 + r * r) ** s, 0.0))))


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
    if np.all(np.asarray(psi.values) == 0):
        return 0.0
    t_psi = apply_T_lambda(psi, lam, spec, tail_profile=tail_profile)
    resid = t_psi.copy_with(np.asarray(t_psi.values) - np.asarray(psi.values))
    if r_eval_max is None:
        return fl_norm(resid, SpaceIndex(0.0, 1.0))
    restricted = project_low(resid, r_eval_max)
    return fl_norm(restricted, SpaceIndex(0.0, 1.0))


# ---------------------------------------------------------------------------
# radial transform of exp(-r^delta) and the sharpness experiment
# ---------------------------------------------------------------------------

def c1_constant(n: int, delta: float) -> float:
    """Leading tail coefficient of the transform of exp(-|x|^delta):
    -delta Gamma((delta+n)/2) / (2 pi^(n/2+delta) Gamma(1-delta/2))."""
    return (-delta * math.gamma((delta + n) / 2.0)
            / (2.0 * math.pi ** (n / 2.0 + delta) * math.gamma(1.0 - delta / 2.0)))


def stretched_exp_transform(rho: float, delta: float, n: int = 3, tol: float = 1e-13) -> float:
    """Transform of exp(-|x|^delta) at radius rho (n = 3 via the sine kernel,
    n = 2 via a Bessel-segment sum)."""
    if delta <= 0 or delta >= 2:
        raise InvalidArgumentError("delta must lie in (0, 2)")
    r_cut = (18.0 * math.log(10.0)) ** (1.0 / delta)
    if rho == 0.0:
        val, _ = quad(lambda r: math.exp(-r ** delta) * r ** (n - 1), 0, r_cut,
                      epsabs=tol, epsrel=tol, limit=400)
        return omega_d(n) * val
    if n == 3:
        val, _ = quad(lambda r: math.exp(-r ** delta) * r, 0, r_cut,
                      weight="sin", wvar=2.0 * math.pi * rho,
                      epsabs=tol, epsrel=tol, limit=4000)
        return 2.0 / rho * val
    if n == 2:
        from scipy.special import j0, jn_zeros

        w = 2.0 * math.pi * rho
        zeros = jn_zeros(0, max(8, int(w * r_cut / math.pi) + 8)) / w
        pts = [0.0] + [z for z in zeros if z < r_cut] + [r_cut]
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            v, _ = quad(lambda r: math.exp(-r ** delta) * r * j0(w * r), a, b,
                        epsabs=tol, epsrel=1e-12, limit=200)
            total += v
        return 2.0 * math.pi * total
    raise UnsupportedScaleError("transform implemented for n in {2, 3}")


def closed_form_sharp_transform(rho, n: int):
    """delta = 1 closed form: 2^n pi^((n-1)/2) Gamma((n+1)/2) (1+4pi^2 rho^2)^(-(n+1)/2)."""
    amp = 2.0 ** n * math.pi ** ((n - 1) / 2.0) * math.gamma((n + 1) / 2.0)
    return amp * (1.0 + 4.0 * math.pi ** 2 * np.asarray(rho) ** 2) ** (-(n + 1) / 2.0)


def tabulate_sharp_transform(nodes: np.ndarray, delta: float, n: int = 3,
                             seam: float = 160.0) -> RadialProfile:
    """Tabulated transform profile: quadrature below ``seam``, fitted two-term
    power model A r^(-delta-n) (1 + b r^(-delta)) beyond."""
    nodes = np.asarray(nodes, float)
    vals = np.empty_like(nodes)
    low = nodes <= seam
    vals[low] = [stretched_exp_transform(r, delta, n) for r in nodes[low]]
    xs = np.geomspace(seam / 3.0, seam, 16)
    ys = np.array([stretched_exp_transform(x, delta, n) for x in xs])
    wv = ys * xs ** (delta + n)
    Bc, Ac = np.polyfit(xs ** -delta, wv, 1)
    hi = ~low
    if hi.any():
        vals[hi] = Ac * nodes[hi] ** -(delta + n) + Bc * nodes[hi] ** -(2 * delta + n)
    return tabulated_profile(nodes, vals,
                             tail_model=(Ac, -(delta + n), Bc, -(2 * delta + n)),
                             decay=-(delta + n))


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


def _profile_tail_terms(profile: RadialProfile):
    """Two-term power model (A1, p1, A2, p2) of the profile's tail."""
    if profile.kind == "tabulated" and profile.tail_model is not None:
        return profile.tail_model
    if profile.kind == "rational_bracket":
        A, c, m = profile.params
        lead = A * c ** (-m)
        return (lead, -2.0 * m, -lead * m / c, -2.0 * m - 2.0)
    raise UnsupportedScaleError("no tail model for this profile kind")


def high_band_barron_norm(profile: RadialProfile, gamma: float, n: int,
                          cutoff: float = 1.0, r_max: float = 60.0,
                          count: int = 3 * 1500) -> float:
    """Barron-gamma mass of the band |xi| > cutoff with an analytic tail.

    This is the component of the norm that diverges as gamma approaches the
    sharp index; the complementary ball contributes an analytic-in-gamma
    constant that would mask the blow-up rate.
    """
    grid = make_radial_grid(n, r_max, count, "log-uniform", r_min=1e-6)
    base = fl_norm(project_high(sample_profile(profile, grid), cutoff), SpaceIndex(gamma, 1.0))
    tail = 0.0
    for (A, p) in zip(*[iter(_profile_tail_terms(profile))] * 2):
        # int_R^inf <r>^gamma A r^p r^(n-1) dr with <r>^gamma ~ r^gamma (1 + gamma/(2 r^2))
        e = gamma + p + n
        if e < 0:
            tail += A * (r_max ** e / (-e) + (gamma / 2.0) * r_max ** (e - 2) / (2 - e))
    return base + omega_d(n) * tail


def sharpness_experiment(delta: float, n: int = 3, gammas=(0.90, 0.95, 0.99),
                         residual_cells: int = 3 * 150, seed_window: float = 4.0,
                         compute_residual: bool = True) -> EigenReport:
    """Decay-rate, tail-amplitude and blow-up measurements for exp(-|x|^delta).

    The decay window [xi_lo, 10 xi_lo] is widened until the next-order tail
    correction contributes below 1% at xi_lo (capped at 32 to stay clear of
    quadrature noise); the amplitude removes the first correction by a
    two-term extrapolation, and the blow-up slope is fitted on the diverging
    high-frequency band of the Barron norm.
    """
    if not (0 < delta <= 1):
        raise InvalidArgumentError("delta must lie in (0, 1] for the experiment")
    if n < 2:
        raise InvalidArgumentError("the radial example needs n >= 2")
    if not all(0 < g < delta for g in gammas):
        raise InvalidArgumentError(
            f"blow-up gammas must lie in (0, delta) = (0, {delta:g}) (got {list(gammas)})")
    example = sharp_example_potential(delta, n)
    c1 = c1_constant(n, delta)

    # pilot fit to place the window
    xs0 = np.geomspace(seed_window, 10 * seed_window, 16)
    ys0 = np.array([stretched_exp_transform(x, delta, n) for x in xs0])
    w0 = np.abs(ys0) * xs0 ** (delta + n)
    B0, A0 = np.polyfit(xs0 ** -delta, w0, 1)
    if A0 <= 0:
        raise FitDegenerateError("pilot amplitude fit degenerate")
    xi_lo = (100.0 * abs(B0 / A0)) ** (1.0 / delta) if B0 != 0 else seed_window
    xi_lo = min(max(xi_lo, seed_window), 32.0)

    xs = np.geomspace(xi_lo, 10 * xi_lo, 24)
    ys = np.array([stretched_exp_transform(x, delta, n) for x in xs])
    if np.any(ys == 0):
        raise FitDegenerateError("transform vanished inside the fit window")
    slope, ci = _ols_slope(np.log(xs), np.log(np.abs(ys)))
    wv = np.abs(ys) * xs ** (delta + n)
    Bc, Ac = np.polyfit(xs ** -delta, wv, 1)
    tail_sign = int(np.sign(ys[-1]))

    # blow-up of the high-frequency Barron mass
    if delta == 1.0:
        psi_prof = example.psi_profile
    else:
        probe_nodes = np.geomspace(1e-4, 400.0, 1200)
        psi_prof = tabulate_sharp_transform(probe_nodes, delta, n)
    norms = [high_band_barron_norm(psi_prof, g, n) for g in gammas]
    bx = [-math.log(delta - g) for g in gammas]
    blow, blow_ci = _ols_slope(np.array(bx), np.log(np.array(norms)))

    resid = None
    if compute_residual:
        resid = sharp_example_residual(delta, n, ncells=residual_cells)

    check = None
    if delta == 1.0:
        sample = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 25)])
        numeric = np.array([stretched_exp_transform(x, delta, n) for x in sample])
        closed = closed_form_sharp_transform(sample, n)
        check = float(np.max(np.abs(numeric - closed) / np.abs(closed)))

    return EigenReport(
        delta=delta, n=n, eigenvalue=example.eigenvalue, residual=resid,
        decay_exponent=slope, decay_ci=ci,
        tail_amplitude=float(Ac), tail_amplitude_ref=abs(c1), tail_sign=tail_sign,
        blowup_slope=blow, blowup_ci=blow_ci, blowup_gammas=tuple(gammas),
        transform_check=check, fit_window=(float(xi_lo), float(10 * xi_lo)),
        blowup_norms=tuple(norms),
    )


def sharp_example_residual(delta: float, n: int = 3, ncells: int = 3 * 150,
                           r_max: float | None = None,
                           r_eval_max: float | None = None) -> float:
    """Fixed-point residual of the sharpness example on a default radial grid."""
    if n != 3:
        raise UnsupportedScaleError("residual check implemented for n = 3")
    example = sharp_example_potential(delta, n)
    if delta == 1.0:
        r_max = 2000.0 if r_max is None else r_max
        grid = make_radial_grid(3, r_max, ncells, "log-uniform", r_min=1e-4)
        psi_prof = example.psi_profile
        psi = sample_profile(psi_prof, grid)
        return eigen_residual(example.hamiltonian, psi, example.eigenvalue,
                              tail_profile=psi_prof, r_eval_max=r_eval_max)
    r_max = 800.0 if r_max is None else r_max
    r_eval_max = 40.0 if r_eval_max is None else r_eval_max
    grid = make_radial_grid(3, r_max, ncells, "log-uniform", r_min=1e-4)
    psi_prof = tabulate_sharp_transform(grid.nodes, delta, n)
    psi = FreqFunction(grid, psi_prof.table_values)
    return eigen_residual(example.hamiltonian, psi, example.eigenvalue,
                          tail_profile=psi_prof, r_eval_max=r_eval_max)
