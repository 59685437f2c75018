"""Workload generation, task execution and output checks.

``generate(workload, seed)`` is a pure function of the seed: it returns plain
task descriptions (JSON-able dicts) in a seeded order.  ``prepare`` turns them
into runnable tasks (specs, grids, right-hand sides, spec files).  A task's
``run`` makes only the library or CLI calls a user would make and returns
their raw output; ``check`` compares that output against the paper's
acceptance tolerances and returns the list of failed checks.

Grid sizes and task counts are fixed, so the work in a pass does not depend
on the seed; the seed draws potential coefficients, right-hand sides, probe
seeds and the task order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from flbarron import bounds, cli, solver
from flbarron.grid import FreqFunction, make_tensor_grid
from flbarron.potentials import HamiltonianSpec
from flbarron.spaces import SpaceIndex, fl_norm

WORKLOADS = ("tensor_solve", "radial_eigen", "probe_sweep")

RHO, TOL, S = 1.0, 1e-10, 0.0


def _term(kind, params=None, coeff=1.0):
    return {"kind": kind, "params": params or {}, "shift": [], "coeff": coeff}


def _spec(n, N, masses, one_particle=(), pairwise=(), additive=None):
    return {"n": n, "N": N, "masses": list(masses),
            "one_particle": [{"i": i, **t} for i, t in one_particle],
            "pairwise": [{"i": i, "j": j, **t} for i, j, t in pairwise],
            "additive": additive}


def _ham(spec: dict) -> HamiltonianSpec:
    return HamiltonianSpec.from_json_dict(spec)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def _solve_case(label, rng):
    """One criterion-7 style case with seeded coefficients near the
    criterion's values; (spec, grid, alpha, beta)."""
    u = lambda: float(rng.uniform(0.8, 1.25))
    if label == "gauss1d_129":
        return (_spec(1, 1, [1.0], additive=_term("gaussian", {"kappa": 0.5 * u()})),
                (1, 8.0, 129), math.inf, 0.75)
    if label == "invpow1d_63":
        return (_spec(1, 1, [1.0], one_particle=[
                    (1, _term("inverse_power", {"t": 0.5}, 0.05 * u()))]),
                (1, 8.0, 63), 1.5, 0.5)
    if label == "pair2d_41":
        return (_spec(1, 2, [1.0, 1.0], pairwise=[
                    (1, 2, _term("inverse_power", {"t": 0.5}, 0.05 * u()))]),
                (2, 6.0, 41), 1.5, 0.5)
    if label == "mixed2d_41":
        return (_spec(1, 2, [1.0, 2.0],
                      one_particle=[(1, _term("gaussian", {"kappa": 0.2 * u()}))],
                      pairwise=[(1, 2, _term("gaussian", {"kappa": 0.2 * u()}))]),
                (2, 6.0, 41), math.inf, 0.75)
    if label == "yukawa3d_9":
        return (_spec(3, 1, [1.0], one_particle=[
                    (1, _term("yukawa", {"mu": 2.0}, 0.05 * u()))]),
                (3, 5.0, 9), 2.0, 0.9)
    if label == "coulomb3d_7":
        return (_spec(3, 1, [1.0], one_particle=[(1, _term("coulomb", coeff=0.05 * u()))]),
                (3, 5.0, 7), 2.4, 0.75)
    raise ValueError(label)


SOLVE_CASES = ("gauss1d_129", "invpow1d_63", "pair2d_41", "mixed2d_41",
               "yukawa3d_9", "coulomb3d_7")


def _gen_tensor_solve(rng):
    tasks = []
    for label in SOLVE_CASES:
        while True:
            spec, grid, alpha, beta = _solve_case(label, rng)
            q = (bounds.mu_tilde(spec["masses"], RHO)
                 * bounds.big_C_V(_ham(spec).potential, S, alpha, beta))
            if q < 0.9:  # criterion 7 needs a certified contraction below 0.9
                break
        tasks.append({"name": label, "spec": spec, "grid": list(grid), "alpha": alpha,
                      "beta": beta, "rhs_width": float(rng.uniform(0.8, 1.25))})
    return tasks


DELTAS = (1.0, 0.75, 0.5)
RUNGS = ((120, 240), (450,), (900,), (1800,))  # 120 and 240 run together: criterion ratio


def _gen_radial_eigen(rng):
    tasks = []
    for delta in DELTAS:
        gammas = "0.90,0.95,0.99" if delta == 1.0 else f"{delta - 0.1!r},{delta - 0.05!r}"
        for cells in RUNGS:
            tasks.append({"name": f"delta{delta}_cells{'-'.join(map(str, cells))}",
                          "delta": delta, "gammas": gammas, "cells": list(cells)})
    return tasks


PROBE_OPS = ("multiply_v", "t_lambda", "h0_inv", "r", "pk_t_lambda", "pk_r")
PROBES = 200


def _probe_specs(rng):
    """(label, spec, grid, s, alpha, beta) after criterion 4's configurations."""
    u = lambda: float(rng.uniform(0.8, 1.25))
    return [
        ("gauss1d", _spec(1, 1, [1.0], additive=_term("gaussian", {"kappa": 0.8 * u()})),
         "kind:tensor,extent:8.0,count:65", 0.0, math.inf, 0.4),
        ("invpow1d", _spec(1, 1, [1.0], one_particle=[
            (1, _term("inverse_power", {"t": 0.5}, u()))]),
         "kind:tensor,extent:8.0,count:65", 0.0, 1.5, 0.5),
        ("pair2d", _spec(1, 2, [1.0, 1.5], pairwise=[
            (1, 2, _term("inverse_power", {"t": 0.5}, 0.5 * u()))]),
         "kind:tensor,extent:6.0,count:25", 0.0, 1.5, 0.5),
        ("yukawa3d", _spec(3, 1, [1.0], one_particle=[
            (1, _term("yukawa", {"mu": 2.0}, u()))]),
         "kind:tensor,extent:5.0,count:13", 0.0, 2.0, 0.9),
    ]


def _gen_probe_sweep(rng):
    tasks = []
    for label, spec, grid, s, alpha, beta in _probe_specs(rng):
        for op in PROBE_OPS:
            for p in (1.0, 2.0):
                tasks.append({"name": f"{label}_{op}_p{p:g}", "spec_name": label,
                              "spec": spec, "grid": grid, "op": op, "p": p, "s": s,
                              "alpha": alpha, "beta": beta,
                              "probe_seed": int(rng.integers(0, 2 ** 31))})
    return tasks


def generate(workload: str, seed: int) -> list[dict]:
    """Seeded task descriptions of one workload, in the seeded task order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    tasks = {"tensor_solve": _gen_tensor_solve, "radial_eigen": _gen_radial_eigen,
             "probe_sweep": _gen_probe_sweep}[workload](rng)
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# ---------------------------------------------------------------------------
# runnable tasks
# ---------------------------------------------------------------------------

@dataclass
class SolveTask:
    """Mirrors criterion 7 through the library at rho = 1: certified constant,
    dense oracle, Neumann iteration, direct solve and the weak-solution
    certificate's constants."""

    name: str
    ham: HamiltonianSpec
    f: FreqFunction
    alpha: float
    beta: float

    def run(self) -> dict:
        ham, f, alpha, beta = self.ham, self.f, self.alpha, self.beta
        C = bounds.big_C_V(ham.potential, S, alpha, beta)
        A = solver.assemble_dense(ham, RHO, f.grid)
        u, rep = solver.solve_neumann(ham, RHO, f, s=S, tol=TOL, alpha=alpha, beta=beta)
        ud = solver.solve_direct(ham, RHO, f, matrix=A)
        err = solver.oracle_error(u, ud, s=S)
        gamma = S + 2.0 - 2.0 * beta
        mt = bounds.mu_tilde(ham.masses, RHO)
        K = bounds.contraction_radius(mt, 0.0, C, S, beta)
        frak = bounds.frak_C_V(ham.potential, S, alpha, gamma) if C > 0 else 0.0
        rho_star = bounds.coercivity_rho(ham, S, alpha, gamma, frak_C=frak)
        eps = (bounds.coercivity_margin(ham, S, alpha, gamma, RHO, frak_C=frak)
               if RHO > rho_star else None)
        return {"C": C, "A": A, "u": u, "report": rep, "u_direct": ud, "oracle_error": err,
                "gamma": gamma, "K": K, "rho_star": rho_star, "eps": eps}

    def check(self, out: dict) -> list[str]:
        """Criterion 7's checks, at its tolerances."""
        ham, f, grid, beta = self.ham, self.f, self.f.grid, self.beta
        rep, u, C = out["report"], out["u"], out["C"]
        mt = bounds.mu_tilde(ham.masses, RHO)
        q = mt * C
        bad = []
        if out["oracle_error"] > 1e-8:
            bad.append(f"oracle error {out['oracle_error']:.2e} > 1e-8")
        budget = math.ceil(math.log(TOL / rep.residual_history[0]) / math.log(q)) + 1
        if rep.iterations > budget:
            bad.append(f"iterations {rep.iterations} > {budget}")
        inv_norm = _inverse_opnorm(out.pop("A"), grid, S + 2.0)  # consumes A
        cert_s2 = mt * inv_norm * fl_norm(f, SpaceIndex(S, 1.0))
        measured_s2 = fl_norm(u, SpaceIndex(S + 2.0, 1.0))
        if measured_s2 > cert_s2 * (1 + 1e-9):
            bad.append(f"B^(s+2) {measured_s2:.3e} > certificate {cert_s2:.3e}")
        if not RHO > out["rho_star"]:
            bad.append(f"rho {RHO} not above threshold {out['rho_star']:.3f}")
            return bad
        low_bound = bounds.low_frequency_l2_bound(S, grid.dim, out["K"])
        cert_gamma = (2.0 * mt * fl_norm(f, SpaceIndex(S - 2 * beta, 1.0))
                      + 2.0 * mt * C * low_bound / out["eps"]
                      * fl_norm(f, SpaceIndex(-1.0, 2.0)))
        measured_gamma = fl_norm(u, SpaceIndex(out["gamma"], 1.0))
        if measured_gamma > cert_gamma * (1 + 1e-9):
            bad.append(f"B^gamma {measured_gamma:.3e} > certificate {cert_gamma:.3e}")
        return bad

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        arrays = ("A",)
        funcs = ("u", "u_direct")
        return (all(np.array_equal(a[k], b[k]) for k in arrays)
                and all(np.array_equal(a[k].values, b[k].values) for k in funcs)
                and a["report"].to_json_dict() == b["report"].to_json_dict()
                and all(a[k] == b[k] for k in a if k not in arrays + funcs + ("report",)))

    def summary(self, out: dict) -> dict:
        return {"iterations": out["report"].iterations, "oracle_error": out["oracle_error"]}


def _inverse_opnorm(A: np.ndarray, grid, s: float, block: int = 64) -> float:
    """Weighted l1 operator norm of inv(A), max_j sum_i W_i |inv(A)_ij| / W_j
    with W the trapezoid weights times <xi>^s, as in criterion 7.

    Overwrites A with its LU factor and forms inv(A) a block of columns at a
    time, so the check holds no second dense matrix and the workload's peak
    memory stays the program's own."""
    W = grid.trapezoid_weights().ravel() * (1.0 + grid.radius_mesh().ravel() ** 2) ** (s / 2.0)
    # A is C-ordered, so A.T is Fortran-ordered and factors in place; trans=1 solves with A
    lu = scipy.linalg.lu_factor(A.T, overwrite_a=True, check_finite=False)
    M = len(W)
    worst = 0.0
    for j0 in range(0, M, block):
        cols = np.arange(j0, min(j0 + block, M))
        unit = np.zeros((M, len(cols)), dtype=A.dtype)
        unit[cols, np.arange(len(cols))] = 1.0
        inv_cols = scipy.linalg.lu_solve(lu, unit, trans=1, check_finite=False)
        worst = max(worst, float(np.max(W @ np.abs(inv_cols) / W[cols])))
    return worst


def _run_cli(argv: list[str], out_path: Path) -> dict:
    """One in-process CLI invocation; the written JSON text and exit code."""
    rc = cli.run(["--out", str(out_path)] + argv)
    text = out_path.read_text() if rc == 0 else ""
    return {"rc": rc, "text": text, "argv": argv}


@dataclass
class EigenTask:
    """Mirrors criteria 2-3 through ``flbarron verify-eigen`` at one or two
    ``--cells`` rungs."""

    name: str
    delta: float
    gammas: str
    cells: list
    out_dir: Path

    def run(self) -> dict:
        runs = []
        for cells in self.cells:
            argv = ["verify-eigen", "--delta", repr(self.delta), "--n", "3",
                    "--gammas", self.gammas, "--cells", str(cells)]
            runs.append(_run_cli(argv, self.out_dir / f"{self.name}_{cells}.json"))
        return {"runs": runs}

    def check(self, out: dict) -> list[str]:
        """Criterion 2 (delta = 1) or 3 (delta < 1) tolerances."""
        bad = []
        reps = []
        for run in out["runs"]:
            if run["rc"] != 0:
                bad.append(f"exit code {run['rc']} for {' '.join(run['argv'])}")
                continue
            reps.append(json.loads(run["text"])["report"])
        if bad:
            return bad
        delta = self.delta
        for rep in reps:
            decay, amp = rep["decay_exponent"], rep["tail_amplitude"]
            if delta == 1.0:
                ref = 1.0 / (2.0 * math.pi ** 3)
                if not rep["transform_check"] <= 1e-6:
                    bad.append(f"transform check {rep['transform_check']:.2e} > 1e-6")
                if not abs(decay + 4.0) <= 0.05:
                    bad.append(f"decay exponent {decay:.4f} not -4 +/- 0.05")
                if not abs(amp - ref) <= 0.02 * ref:
                    bad.append(f"tail amplitude {amp:.6f} not {ref:.6f} +/- 2%")
                if not abs(rep["blowup_slope"] - 1.0) <= 0.05:
                    bad.append(f"blow-up slope {rep['blowup_slope']:.4f} not 1 +/- 0.05")
            else:
                c1 = abs(solver.c1_constant(3, delta))
                if not abs(decay + (delta + 3.0)) <= 0.1:
                    bad.append(f"decay exponent {decay:.4f} not {-(delta + 3)} +/- 0.1")
                if not abs(amp - c1) <= 0.05 * c1:
                    bad.append(f"tail amplitude {amp:.6f} not {c1:.6f} +/- 5%")
                if rep["eigenvalue"] != 0.0:
                    bad.append(f"eigenvalue {rep['eigenvalue']} != 0")
        if len(reps) == 2:
            ratio = reps[0]["residual"] / reps[1]["residual"]
            if not ratio >= 4.0:
                bad.append(f"residual refinement {self.cells[0]}->{self.cells[1]} "
                           f"x{ratio:.2f} < 4")
        return bad

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return [(r["rc"], r["text"]) for r in a["runs"]] == [(r["rc"], r["text"]) for r in b["runs"]]

    def summary(self, out: dict) -> dict:
        res = {}
        for cells, run in zip(self.cells, out["runs"]):
            res[str(cells)] = json.loads(run["text"])["report"]["residual"] if run["rc"] == 0 else None
        return {"delta": self.delta, "residuals": res}


def residual_ladder(summaries: dict) -> dict:
    """Per delta: the residual at every ``--cells`` rung and the ratio between
    successive rungs (recorded, not checked beyond the criteria)."""
    rungs = {}
    for s in summaries.values():
        rungs.setdefault(repr(s["delta"]), {}).update(s["residuals"])
    out = {}
    for delta, res in rungs.items():
        cells = sorted(res, key=int)
        out[delta] = {"residuals": {c: res[c] for c in cells},
                      "ratios": {f"{a}->{b}": res[a] / res[b] for a, b in zip(cells, cells[1:])
                                 if res[a] is not None and res[b]}}
    return out


@dataclass
class ProbeTask:
    """Mirrors criterion 4 through ``flbarron probe``: one operator, one p,
    200 random band-limited probes."""

    name: str
    argv: list
    out_path: Path

    def run(self) -> dict:
        return _run_cli(self.argv, self.out_path)

    def check(self, out: dict) -> list[str]:
        """Exit code 0 and empirical <= certified, at criterion 4's 1e-9 slack."""
        if out["rc"] != 0:
            return [f"exit code {out['rc']} for {' '.join(out['argv'])}"]
        rep = json.loads(out["text"])["report"]
        if not rep["empirical"] <= rep["certified"] * (1.0 + 1e-9):
            return [f"empirical {rep['empirical']:.6g} > certified {rep['certified']:.6g}"]
        return []

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return (a["rc"], a["text"]) == (b["rc"], b["text"])

    def summary(self, out: dict) -> dict:
        if out["rc"] != 0:
            return {}
        rep = json.loads(out["text"])["report"]
        return {"empirical": rep["empirical"], "certified": rep["certified"]}


def prepare(workload: str, tasks: list[dict], work_dir: Path) -> list:
    """Runnable tasks; CLI spec files and outputs live under ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for t in tasks:
        if workload == "tensor_solve":
            grid = make_tensor_grid(*t["grid"])
            r = grid.radius_mesh()
            f = FreqFunction(grid, np.exp(-math.pi * t["rhs_width"] * r * r))
            out.append(SolveTask(t["name"], _ham(t["spec"]), f, t["alpha"], t["beta"]))
        elif workload == "radial_eigen":
            out.append(EigenTask(t["name"], t["delta"], t["gammas"], t["cells"], work_dir))
        else:
            spec_path = work_dir / f"spec_{t['spec_name']}.json"
            spec_path.write_text(json.dumps(t["spec"], sort_keys=True))
            argv = ["--seed", str(t["probe_seed"]), "probe", "--spec", str(spec_path),
                    "--grid", t["grid"], "--op", t["op"], "--s", repr(t["s"]),
                    "--alpha", repr(t["alpha"]), "--beta", repr(t["beta"]),
                    "--p", repr(t["p"]), "--probes", str(PROBES),
                    "--rho", "1.3", "--lam", "-0.4", "--K", "2.0"]
            out.append(ProbeTask(t["name"], argv, work_dir / f"{t['name']}.json"))
    return out
