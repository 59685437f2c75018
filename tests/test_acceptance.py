"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Everything here is property-based or constant-reproduction at desk scale;
tolerances are pinned in the assertions, not configurable.
"""

import json
import math

import numpy as np
import pytest

from flbarron import bounds as B
from flbarron import operators as O
from flbarron import solver as SV
from flbarron.grid import FreqFunction, make_radial_grid, make_tensor_grid, sample_profile
from flbarron.potentials import (
    HamiltonianSpec,
    PotentialSpec,
    PotentialTerm,
    fourier_transform,
    sharp_example_potential,
)
from flbarron.spaces import (
    SpaceIndex,
    SplitIndex,
    counterexample_norm,
    fl_norm,
    profile_norm_report,
    split_norm,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# 1. Gamma-constant golden values
# ---------------------------------------------------------------------------

def test_criterion_1_gamma_constants():
    golden = {
        "c_{1,3}": (B.c_t_n(1.0, 3), 1.0 / math.pi),
        "nu_{1,3}": (B.nu_t_n(1.0, 3), 4.0),
        "bracket(1,1)": (B.bracket_lp_norm(1.0, 1), math.pi),
        "bracket(2,3)": (B.bracket_lp_norm(2.0, 3), math.pi ** 2),
        "c_ab(inf)": (B.c_alpha_beta(math.inf, 0.3, 3), 1.0),
    }
    ok = True
    worst = 0.0
    for name, (got, want) in golden.items():
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
        ok &= rel <= 1e-12

    # quadrature cross-checks at 1e-8
    def bracket_quad(gamma, n):
        from flbarron.grid import RadialProfile

        prof = RadialProfile("rational_bracket", (1.0, 1.0, gamma))
        g = make_radial_grid(n, 1e5, 9000)
        return profile_norm_report(prof, SpaceIndex(0.0, 1.0), n, grid=g).value

    cross = {
        "bracket(1,1)": (bracket_quad(1.0, 1), math.pi),
        "bracket(2,3)": (bracket_quad(2.0, 3), math.pi ** 2),
    }
    # c_{1,3} via a Parseval ratio of gaussian integrals
    g = make_radial_grid(3, 40.0, 3000)
    gauss = np.exp(-math.pi * g.nodes ** 2)
    lhs = float(np.sum(4 * math.pi * g.weights * g.nodes ** 2 * gauss / g.nodes))
    rhs_over_c = float(np.sum(4 * math.pi * g.weights * g.nodes ** 2 * gauss / g.nodes ** 2))
    cross["c_{1,3}"] = (lhs / rhs_over_c, 1.0 / math.pi)
    cross["nu_{1,3}"] = (lhs / rhs_over_c * 4 * math.pi, 4.0)
    worst_q = 0.0
    for name, (got, want) in cross.items():
        rel = abs(got - want) / abs(want)
        worst_q = max(worst_q, rel)
        ok &= rel <= 1e-8
    report("1 (Gamma constants)", ok,
           f"analytic worst rel {worst:.2e} (<=1e-12), quadrature worst {worst_q:.2e} (<=1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 2. Hydrogen sharpness
# ---------------------------------------------------------------------------

def test_criterion_2_hydrogen_sharpness():
    rep = SV.sharpness_experiment(1.0, 3, gammas=(0.90, 0.95, 0.99), residual_cells=120)
    r_coarse = rep.residual
    r_fine = SV.sharp_example_residual(1.0, ncells=240)
    ratio = r_coarse / r_fine
    checks = {
        "(a) transform vs closed form <= 1e-6": rep.transform_check <= 1e-6,
        "(b) decay exponent -4 +/- 0.05": abs(rep.decay_exponent + 4.0) <= 0.05,
        "(c) tail amplitude 1/(2 pi^3) +/- 2%": abs(
            rep.tail_amplitude - 1 / (2 * math.pi ** 3)) <= 0.02 / (2 * math.pi ** 3),
        "(d) residual refinement >= 4x": ratio >= 4.0,
        "(e) blow-up slope 1 +/- 0.05": abs(rep.blowup_slope - 1.0) <= 0.05,
    }
    ok = all(checks.values())
    report("2 (hydrogen sharpness)", ok,
           f"transform {rep.transform_check:.1e}; decay {rep.decay_exponent:.4f}; "
           f"amp {rep.tail_amplitude:.6f} vs {1/(2*math.pi**3):.6f}; "
           f"refinement x{ratio:.1f}; blow-up {rep.blowup_slope:.4f}; "
           + "; ".join(k for k, v in checks.items() if not v))
    assert ok, checks


# ---------------------------------------------------------------------------
# 3. General-delta sharpness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.5, 0.75])
def test_criterion_3_general_delta(delta):
    rep = SV.sharpness_experiment(delta, 3, gammas=(delta - 0.1, delta - 0.05),
                                  residual_cells=120)
    r_fine = SV.sharp_example_residual(delta, ncells=240)
    ratio = rep.residual / r_fine
    c1 = abs(SV.c1_constant(3, delta))
    checks = {
        "decay exponent": abs(rep.decay_exponent + (delta + 3.0)) <= 0.1,
        "tail amplitude 5%": abs(rep.tail_amplitude - c1) <= 0.05 * c1,
        "residual refinement": ratio >= 4.0,
        "eigenvalue zero": rep.eigenvalue == 0.0,
    }
    ok = all(checks.values())
    report(f"3 (delta={delta} sharpness)", ok,
           f"decay {rep.decay_exponent:.4f} (want {-(delta+3)}); "
           f"amp {rep.tail_amplitude:.6f} vs {c1:.6f}; refinement x{ratio:.1f}")
    assert ok, checks


# ---------------------------------------------------------------------------
# 4. Multiplier-bound property suite
# ---------------------------------------------------------------------------

def _probe_configurations():
    gauss = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.8}))
    invp = PotentialSpec(1, 1, one_particle=[(1, PotentialTerm("inverse_power", {"t": 0.5}))])
    pair = PotentialSpec(1, 2, pairwise=[(1, 2, PotentialTerm("inverse_power", {"t": 0.5},
                                                              coeff=0.5))])
    yuk = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("yukawa", {"mu": 2.0}))])
    grid1 = make_tensor_grid(1, 8.0, 65)
    grid2 = make_tensor_grid(2, 6.0, 25)
    grid3 = make_tensor_grid(3, 5.0, 13)
    return [
        ("gauss s0 a=inf", HamiltonianSpec(gauss, (1.0,)), 0.0, math.inf, 0.4, grid1),
        ("gauss s0.5 a=inf", HamiltonianSpec(gauss, (1.0,)), 0.5, math.inf, 0.2, grid1),
        ("x^-0.5 s0 a1.5", HamiltonianSpec(invp, (1.0,)), 0.0, 1.5, 0.5, grid1),
        ("x^-0.5 s-0.25 a1.5", HamiltonianSpec(invp, (2.0,)), -0.25, 1.5, 0.6, grid1),
        ("pair x^-0.5 N2", HamiltonianSpec(pair, (1.0, 1.5)), 0.0, 1.5, 0.5, grid2),
        ("yukawa n3", HamiltonianSpec(yuk, (1.0,)), 0.0, 2.0, 0.9, grid3),
    ]


def test_criterion_4_multiplier_bounds():
    probes = 200
    violations = []
    total = 0
    for name, ham, s, alpha, beta, grid in _probe_configurations():
        C = B.big_C_V(ham.potential, s, alpha, beta)
        params = {"rho": 1.3, "lam": -0.4, "K": 2.0}
        for p in (1.0, 2.0):
            sigma = B.sigma_exponent(alpha, p)
            src_hi = SpaceIndex(abs(s) + 2 * sigma * beta, p)
            dst_lo = SpaceIndex(s - 2 * (1 - sigma) * beta, p)
            dst_lift = SpaceIndex(s - 2 * (1 - sigma) * beta + 2.0, p)
            cases = [
                ("multiply_v", src_hi, dst_lo),
                ("t_lambda", src_hi, dst_lift),
                ("h0_inv", SpaceIndex(s, p), SpaceIndex(s + 2.0, p)),
                ("r", src_hi, dst_lift),
                ("pk_t_lambda", src_hi, src_hi),
                ("pk_r", src_hi, src_hi),
            ]
            for op, src, dst in cases:
                cert = O.certified_bound(op, ham, s, alpha, beta, C, params)
                rep = O.empirical_operator_norm(op, ham, grid, src, dst, probes=probes,
                                                seed=11, certified=cert, params=params)
                total += 1
                if not rep.satisfied:
                    violations.append((name, p, json.dumps(rep.to_json_dict(), sort_keys=True)))
    ok = not violations
    report("4 (multiplier bounds)", ok,
           f"{total} probe sweeps x {probes} probes, {len(violations)} violations")
    for v in violations:
        print("  VIOLATION (replayable):", v)
    assert ok


# ---------------------------------------------------------------------------
# 5. Peetre inequality
# ---------------------------------------------------------------------------

def test_criterion_5_peetre():
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        x = rng.normal(scale=10.0, size=d)
        y = rng.normal(scale=10.0, size=d)
        s = float(rng.uniform(-4.0, 4.0))
        if not B.peetre_holds(x, y, s):
            bad += 1
    report("5 (Peetre inequality)", bad == 0, f"10^4 samples, {bad} violations")
    assert bad == 0


# ---------------------------------------------------------------------------
# 6. Quadratic-form bounds
# ---------------------------------------------------------------------------

def _form_configurations():
    coul = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("coulomb", coeff=0.5))])
    gauss = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.8}))
    yuk = PotentialSpec(3, 1, one_particle=[(1, PotentialTerm("yukawa", {"mu": 1.0},
                                                              coeff=0.5))])
    grid1 = make_tensor_grid(1, 8.0, 65)
    grid3 = make_tensor_grid(3, 5.0, 13)
    return [
        ("coulomb", coul, 0.0, 2.0, 0.85, grid3),
        ("gaussian", gauss, 0.0, math.inf, 0.5, grid1),
        ("yukawa", yuk, 0.0, 2.0, 0.85, grid3),
    ]


def test_criterion_6_quadratic_form():
    violations = 0
    checked = 0
    for name, pot, s, alpha, t, grid in _form_configurations():
        frak = B.form_bound_constant(pot, s, alpha, t)
        plan = O.OperatorPlan(HamiltonianSpec(pot, (1.0,) * pot.N), grid)
        for k in range(100):
            u = O.random_band_limited(grid, 31, 2 * k, real_space_real=True)
            v = O.random_band_limited(grid, 31, 2 * k + 1, real_space_real=True)
            lhs = abs(plan.quad_form(u.values, v.values))
            rhs = frak * fl_norm(u, SpaceIndex(t, 2.0)) * fl_norm(v, SpaceIndex(t, 2.0))
            checked += 1
            if lhs > rhs * (1 + 1e-9):
                violations += 1
            l2, grad2 = O.sobolev_products(u)
            self_lhs = abs(plan.quad_form(u.values, u.values))
            for eps in (1.0, 0.1, 0.01):
                bound = frak * (eps ** (1 - t) * grad2
                                + (eps ** (1 - t) + eps ** -t) * l2)
                checked += 1
                if self_lhs > bound * (1 + 1e-9):
                    violations += 1
    report("6 (quadratic forms)", violations == 0,
           f"{checked} inequality checks, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# 7. Solver oracle equivalence and certificates
# ---------------------------------------------------------------------------

def _regression_specs():
    """(label, ham, grid, s, alpha, beta) with certified q < 0.9 at rho = 1."""
    g1 = make_tensor_grid(1, 8.0, 129)
    g1s = make_tensor_grid(1, 8.0, 63)
    g2 = make_tensor_grid(2, 6.0, 41)
    g3 = make_tensor_grid(3, 5.0, 13)
    gauss = lambda k: PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": k}))
    out = [
        ("gauss 0.05", HamiltonianSpec(gauss(0.05), (1.0,)), g1, math.inf, 0.75),
        ("gauss 0.5", HamiltonianSpec(gauss(0.5), (1.0,)), g1, math.inf, 0.75),
        ("gauss 0.85", HamiltonianSpec(gauss(0.85), (1.0,)), g1, math.inf, 0.75),
        ("gauss heavy mass", HamiltonianSpec(gauss(0.5), (4.0,)), g1, math.inf, 0.75),
        ("x^-0.5 0.05", HamiltonianSpec(PotentialSpec(1, 1, one_particle=[
            (1, PotentialTerm("inverse_power", {"t": 0.5}, coeff=0.05))]), (1.0,)),
            g1s, 1.5, 0.5),
        ("shifted gauss", HamiltonianSpec(PotentialSpec(1, 1, one_particle=[
            (1, PotentialTerm("gaussian", {"kappa": 1.0}, shift=(0.5,), coeff=0.3))]),
            (1.0,)), g1s, math.inf, 0.75),
        ("pair x^-0.5 N2", HamiltonianSpec(PotentialSpec(1, 2, pairwise=[
            (1, 2, PotentialTerm("inverse_power", {"t": 0.5}, coeff=0.05))]),
            (1.0, 1.0)), g2, 1.5, 0.5),
        ("mixed N2", HamiltonianSpec(PotentialSpec(1, 2,
            one_particle=[(1, PotentialTerm("gaussian", {"kappa": 0.2}))],
            pairwise=[(1, 2, PotentialTerm("gaussian", {"kappa": 0.2}))]),
            (1.0, 2.0)), g2, math.inf, 0.75),
        ("yukawa n3", HamiltonianSpec(PotentialSpec(3, 1, one_particle=[
            (1, PotentialTerm("yukawa", {"mu": 2.0}, coeff=0.05))]), (1.0,)),
            g3, 2.0, 0.9),
        ("coulomb n3", HamiltonianSpec(PotentialSpec(3, 1, one_particle=[
            (1, PotentialTerm("coulomb", coeff=0.05))]), (1.0,)), g3, 2.4, 0.75),
        ("gauss3d", HamiltonianSpec(PotentialSpec(3, 1, additive=PotentialTerm(
            "gaussian", {"kappa": 0.3})), (1.0,)), g3, math.inf, 0.75),
    ]
    return out


def _weighted_l1_opnorm(Ainv, grid, s):
    w = grid.trapezoid_weights().ravel()
    br = (1.0 + grid.radius_mesh().ravel() ** 2) ** (s / 2.0)
    W = w * br
    return float(np.max((W[:, None] * np.abs(Ainv)).sum(axis=0) / W[None, :]))


def test_criterion_7_solver_regression():
    rho, tol, s = 1.0, 1e-10, 0.0
    failures = []
    for label, ham, grid, alpha, beta in _regression_specs():
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        C = B.big_C_V(ham.potential, s, alpha, beta)
        q = B.mu_tilde(ham.masses, rho) * C
        if not q < 0.9:
            failures.append((label, f"q = {q:.3f} >= 0.9"))
            continue
        A = SV.assemble_dense(ham, rho, grid)
        u, rep = SV.solve_neumann(ham, rho, f, s=s, tol=tol, alpha=alpha, beta=beta)
        ud = SV.solve_direct(ham, rho, f, matrix=A)
        err = SV.oracle_error(u, ud, s=s)
        if err > 1e-8:
            failures.append((label, f"oracle error {err:.2e}"))
        budget = math.ceil(math.log(tol / rep.residual_history[0]) / math.log(q)) + 1
        if rep.iterations > budget:
            failures.append((label, f"iterations {rep.iterations} > {budget}"))

        # solvability certificate in B^{s+2}: mu~ * ||(I+R)^{-1}|| * ||f||_{B^s}
        inv_norm = _weighted_l1_opnorm(np.linalg.inv(A), grid, s + 2.0)
        cert_s2 = B.mu_tilde(ham.masses, rho) * inv_norm * fl_norm(f, SpaceIndex(s, 1.0))
        measured_s2 = fl_norm(u, SpaceIndex(s + 2.0, 1.0))
        if measured_s2 > cert_s2 * (1 + 1e-9):
            failures.append((label, f"B^(s+2) certificate {measured_s2:.3e} > {cert_s2:.3e}"))

        # weak-solution certificate at gamma = s + 2 - 2 beta
        gamma = s + 2.0 - 2.0 * beta
        mt = B.mu_tilde(ham.masses, rho)
        K = B.contraction_radius(mt, 0.0, C, s, beta)
        frak = B.frak_C_V(ham.potential, s, alpha, gamma) if C > 0 else 0.0
        rho_star = B.coercivity_rho(ham, s, alpha, gamma, frak_C=frak)
        if rho <= rho_star:
            failures.append((label, f"rho {rho} not above threshold {rho_star:.3f}"))
            continue
        eps = B.coercivity_margin(ham, s, alpha, gamma, rho, frak_C=frak)
        low_bound = B.low_frequency_l2_bound(s, grid.dim, K)
        h_minus1 = fl_norm(f, SpaceIndex(-1.0, 2.0))
        cert_gamma = (2.0 * mt * fl_norm(f, SpaceIndex(s - 2 * beta, 1.0))
                      + 2.0 * mt * C * low_bound * (1.0 / eps) * h_minus1)
        measured_gamma = fl_norm(u, SpaceIndex(gamma, 1.0))
        if measured_gamma > cert_gamma * (1 + 1e-9):
            failures.append((label, f"B^gamma certificate {measured_gamma:.3e} > {cert_gamma:.3e}"))
    ok = not failures
    report("7 (solver regression)", ok,
           f"{len(_regression_specs())} specs; failures: {failures if failures else 'none'}")
    assert ok


# ---------------------------------------------------------------------------
# 8. Bootstrap series
# ---------------------------------------------------------------------------

def test_criterion_8_bootstrap():
    # eigenfunction data
    ex = sharp_example_potential(1.0, 3)
    g3 = make_radial_grid(3, 2000.0, 240, r_min=1e-4)
    psi = sample_profile(ex.psi_profile, g3)
    rep_e = SV.bootstrap_series(ex.hamiltonian, "eigen", psi, s=0.0, alpha=2.4,
                                beta=0.75, energy=ex.eigenvalue)
    ratios_e = rep_e.extras["term_ratios"]
    recon_e = rep_e.final_norms["reconstruction_error"]
    psi_norm = fl_norm(psi, SpaceIndex(0.0, 1.0))

    # solver data: strong gaussian (no global contraction)
    pot = PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 30.0}))
    ham = HamiltonianSpec(pot, (1.0,))
    grid = make_tensor_grid(1, 8.0, 129)
    r = grid.radius_mesh()
    f = FreqFunction(grid, np.exp(-math.pi * r * r))
    rep_s = SV.bootstrap_series(ham, "solve", f, s=0.0, alpha=math.inf, beta=0.0,
                                energy=1.0)
    u_star = SV.solve_direct(ham, 1.0, f)
    high_norm = fl_norm(O.project_high(u_star, rep_s.certificate["K"]), SpaceIndex(0, 1))
    recon_s = rep_s.final_norms["reconstruction_error"]

    checks = {
        "eigen ratios <= 0.52": all(rr <= 0.52 for rr in ratios_e),
        "solve ratios <= 0.52": all(rr <= 0.52 for rr in rep_s.extras["term_ratios"]),
        "eigen reconstruction 1e-6": recon_e <= 1e-6 * psi_norm,
        "solve reconstruction 1e-6": recon_s <= 1e-6 * max(high_norm, 1e-12),
        "series bounded by low part": rep_e.extras["series_bounded_by_low"],
        "low-frequency L2 bound": rep_e.extras["low_freq_l2_lhs"]
                                  <= rep_e.extras["low_freq_l2_rhs"],
    }
    ok = all(checks.values())
    report("8 (bootstrap series)", ok,
           f"eigen max ratio {max(ratios_e) if ratios_e else 0:.3f}, "
           f"solve max ratio {rep_s.extras['max_ratio']:.3f}, "
           f"recon {recon_e:.2e}/{recon_s:.2e}")
    assert ok, checks


# ---------------------------------------------------------------------------
# 9. Embedding demonstrations
# ---------------------------------------------------------------------------

def test_criterion_9_embedding_demos():
    ks = [10.0 ** j for j in range(0, 7)]
    lowers = [counterexample_norm(k, 0.0, 1.0, -0.5, 2.0, 1)[1] for k in ks]
    monotone = all(a < b for a, b in zip(lowers[:-1], lowers[1:]))

    # Coulomb Barron(-1) partial integrals diverge under extent doubling while
    # the (s=0, alpha=2) sum norm is stable to 1%
    coul = fourier_transform(PotentialTerm("coulomb"), 3)
    partials, splits = [], []
    for R in (25.0, 50.0, 100.0, 200.0):
        g = make_radial_grid(3, R, 3000, r_min=1e-8)
        partials.append(fl_norm(sample_profile(coul, g), SpaceIndex(-1.0, 1.0)))
        v, _ = split_norm(coul, SplitIndex(0.0, 2.0, 1.0), 3, grid=g)
        splits.append(v)
    increments = np.diff(partials)
    unbounded = bool(np.all(increments > 0.9 * increments[0]))
    stable = (max(splits) - min(splits)) / min(splits) <= 0.01

    exceeds_ten = any(lo > 10.0 for lo in lowers)
    ok = monotone and unbounded and stable and exceeds_ten
    report("9 (embedding demos)", ok,
           f"monotone={monotone}, max lower bound at k<=1e6 is {max(lowers):.3f} "
           f"(criterion needs > 10: {exceeds_ten}), partial increments "
           f"{[f'{x:.2f}' for x in increments]}, split spread "
           f"{(max(splits)-min(splits))/min(splits):.2%}")
    # the first clause is unattainable as stated: the proof's lower bound at
    # (n=1, alpha1=1, alpha2=2) is sqrt(2 asinh k) - 1, which first exceeds 10
    # near k ~ sinh(60.5) ~ 1e26, far beyond k = 1e6.  Asserted as written.
    assert monotone and unbounded and stable
    assert exceeds_ten, (
        "lower bound never exceeds 10 for k <= 1e6: max is "
        f"{max(lowers):.3f}; sqrt(2 asinh(1e6)) - 1 = {math.sqrt(2*math.asinh(1e6))-1:.3f}")


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism(tmp_path):
    from flbarron.cli import run

    spec = {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
            "additive": {"kind": "gaussian", "params": {"kappa": 0.05},
                         "shift": [], "coeff": 1.0}}
    sp = tmp_path / "spec.json"
    sp.write_text(json.dumps(spec))
    blobs = {}
    for cmd, args in {
        "solve": ["solve", "--spec", str(sp), "--grid", "kind:tensor,extent:6,count:65"],
        "verify-eigen": ["verify-eigen", "--delta", "1", "--n", "3", "--cells", "90"],
    }.items():
        pair = []
        for i in (0, 1):
            out = tmp_path / f"{cmd}-{i}.json"
            code = run(["--out", str(out), "--seed", "0"] + args)
            assert code == 0
            pair.append(out.read_bytes())
        blobs[cmd] = pair[0] == pair[1]
    ok = all(blobs.values())
    report("10 (CLI determinism)", ok, f"byte-identical: {blobs}")
    assert ok
