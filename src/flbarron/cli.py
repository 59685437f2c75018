"""Batch command-line front end with reproducible JSON/CSV outputs.

Subcommands map one-to-one onto the library layers: ``norm`` and
``decompose`` report potential-term norms, ``constants`` evaluates every
certified constant for a spec, ``solve`` runs the Neumann iteration against
the dense oracle, ``verify-eigen`` runs the sharpness experiment, ``probe``
sweeps empirical operator norms, and ``demo-embeddings`` reproduces the
borderline embedding demonstrations.  Identical config and seed give
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as B
from . import solver as SV
from .errors import InvalidArgumentError, NonFiniteError, ToolkitError
from .grid import FreqFunction, make_radial_grid, make_tensor_grid, sample_profile
from .operators import (
    MAX_DENSE_SAMPLES,
    certified_bound,
    empirical_operator_norm,
    natural_spaces,
)
from .potentials import HamiltonianSpec, PotentialTerm, decompose_low_high, fourier_transform
from .spaces import (
    SpaceIndex,
    SplitIndex,
    counterexample_norm,
    fl_norm,
    profile_norm_report,
    split_norm,
)


def _canonical_json(obj) -> str:
    """Sorted, indented JSON with floats at 17 significant digits.

    A NaN anywhere raises NonFiniteError naming its key path: bare ``NaN``
    is not valid JSON.  Infinities stay (``--alpha inf`` is echoed back).
    """
    def walk(x, path):
        if isinstance(x, dict):
            return {k: walk(v, path + (k,)) for k, v in sorted(x.items())}
        if isinstance(x, (list, tuple)):
            return [walk(v, path + (i,)) for i, v in enumerate(x)]
        if isinstance(x, (np.floating, float)):
            if math.isnan(x):
                where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
                raise NonFiniteError(f"cli output: {where.lstrip('.') or 'value'} is NaN")
            return float(f"{float(x):.17g}")
        if isinstance(x, (np.integer,)):
            return int(x)
        return x
    return json.dumps(walk(obj, ()), sort_keys=True, indent=1)


def _emit(payload: dict, out: str | None, csv_rows=None, csv_header=None):
    text = _canonical_json(payload)
    if out:
        Path(out).write_text(text + "\n")
        if csv_rows is not None:
            csv_path = Path(out).with_suffix(".csv")
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                if csv_header:
                    writer.writerow(csv_header)
                writer.writerows(csv_rows)
    else:
        sys.stdout.write(text + "\n")


def _unique_keys(pairs: list) -> dict:
    """One JSON object of a spec file, whose keys must be distinct: plain
    ``json.loads`` would take a repeated key's last value."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise InvalidArgumentError(f"{key}: key repeated within one object of the spec file")
    return dict(pairs)


def _load_spec(path: str) -> HamiltonianSpec:
    return HamiltonianSpec.from_json_dict(
        json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys))


_GRID_KEYS = {"tensor": ("kind", "extent", "count")}


def _build_grid(desc: str, dim: int):
    """'kind:tensor,extent:X,count:N'; a part that is not key:value, or whose key
    is unknown or repeated, and a missing key are ValueErrors."""
    parts = [part.partition(":") for part in desc.split(",")]
    fields = {key: value for key, sep, value in parts if sep}
    kind = fields.get("kind")
    if kind not in _GRID_KEYS:
        raise ValueError("grid has no key 'kind'" if kind is None else f"unknown grid kind {kind!r}")
    takes = f"a {kind} grid takes one key:value each of {', '.join(_GRID_KEYS[kind])}"
    for key, sep, value in parts:
        if not sep or key not in _GRID_KEYS[kind] or [k for k, _, _ in parts].count(key) > 1:
            raise ValueError(f"grid part {key + sep + value!r}: {takes}")
    for key in _GRID_KEYS[kind]:
        if key not in fields:
            raise ValueError(f"grid has no key {key!r}: {takes}")
    return make_tensor_grid(dim, float(fields["extent"]), int(fields["count"]))


def _meta(args, ham: HamiltonianSpec | None = None) -> dict:
    """The run's config hash: its arguments, with the content of the spec
    ``ham`` read from ``--spec`` in place of that path."""
    config = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    if ham is not None:
        config["spec"] = dataclasses.asdict(ham)
    blob = json.dumps(config, sort_keys=True, default=str)
    return {"config_hash": hashlib.sha256(blob.encode()).hexdigest()[:16], "version": __version__}


@contextlib.contextmanager
def _beta_hint(n: int, s: float, alpha: float, beta: float, beta_flag: bool = True):
    """Name the flags that fix an InvalidArgumentError raised where ``c_alpha_beta`` rejects
    alpha*beta <= n/2, s finite: beta = 1 + (s - gamma)/2 exceeds n/(2 alpha) iff
    gamma < s + 2 - n/alpha."""
    try:
        yield
    except InvalidArgumentError as exc:
        if not (math.isfinite(s) and alpha >= 1 and alpha * beta <= n / 2.0):
            raise
        fix = f"--beta above {n / (2.0 * alpha):g}, or " if beta_flag else ""
        raise InvalidArgumentError(
            f"{exc}: pass {fix}--gamma below {s + 2.0 - n / alpha:g}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_norm(args):
    ham = _load_spec(args.spec)
    pot = ham.potential
    reports = []
    for role, i, j, term, dim in pot.terms():
        prof = fourier_transform(term, dim)
        if args.alpha is not None and role != "additive":
            idx = SplitIndex(args.s, args.alpha, args.beta)
            value, sp = split_norm(prof, idx, dim)
            reports.append({"role": role, "i": i, "j": j, "kind": term.kind,
                            "space": {"s": args.s, "alpha": args.alpha, "beta": args.beta},
                            "value": value, "split_method": sp.method,
                            "tail_bound": None, "truncated": False})
        else:
            rep = profile_norm_report(prof, SpaceIndex(args.s, args.p), dim)
            d = rep.to_json_dict()
            d.update({"role": role, "i": i, "j": j, "kind": term.kind})
            reports.append(d)
    payload = {"meta": _meta(args, ham), "reports": reports}
    if args.alpha is not None:
        payload["big_C_V"] = B.big_C_V(pot, args.s, args.alpha, args.beta)
    _emit(payload, args.out)
    return 0


def cmd_decompose(args):
    ham = _load_spec(args.spec)
    pot = ham.potential
    entries = []
    for role, i, j, term, dim in pot.terms():
        if role == "additive":
            continue
        sp = decompose_low_high(term, dim, args.radius, args.alpha_prime, s=args.s)
        entries.append({"role": role, "i": i, "kind": term.kind,
                        "radius": sp.radius, "method": sp.method,
                        "low_fl1": sp.part_norms[0], "high_flap": sp.part_norms[1],
                        **({} if j is None else {"j": j})})
    _emit({"meta": _meta(args, ham), "decompositions": entries}, args.out)
    return 0


def cmd_constants(args):
    ham = _load_spec(args.spec)
    pot = ham.potential
    s, alpha, gamma = args.s, args.alpha, args.gamma
    beta = 1.0 + (s - gamma) / 2.0
    out = {"meta": _meta(args, ham),
           "parameters": {"s": s, "alpha": alpha, "beta": beta, "gamma": gamma,
                          "rho": args.rho},
           "mu_tilde_1": B.mu_tilde(ham.masses, 1.0),
           "mu_tilde_rho": B.mu_tilde(ham.masses, args.rho)}
    with _beta_hint(pot.n, s, alpha, beta, beta_flag=False):  # constants has no --beta
        if not math.isinf(alpha):
            out["c_alpha_beta"] = B.c_alpha_beta(alpha, beta, pot.n)
        nu_entries = []
        for role, i, j, t, dim in pot.terms():
            texp = None if role == "additive" else t.power_exponent()
            if texp is not None and texp != dim:
                nu_entries.append({"term": f"{role}:{i}" if j is None else f"{role}:{i},{j}",
                                   "kind": t.kind, "t": texp, "nu_t_n": B.nu_t_n(texp, dim)})
        out["nu_constants"] = nu_entries
        C = B.big_C_V(pot, s, alpha, beta)
    out["big_C_V"] = C
    out["frak_C_V"] = B.frak_C_V(pot, s, alpha, gamma)
    out["coercivity_rho_star"] = B.coercivity_rho(ham, s, alpha, gamma, frak_C=out["frak_C_V"])
    mt1 = B.mu_tilde(ham.masses, 1.0)
    out["contraction_K_eigen"] = B.contraction_radius(mt1, abs(args.lam + 1.0), C, s, beta)
    ctx = B.BoundContext(ham, s, alpha, gamma, args.lam)
    out["eigen_certificate_barron_unit"] = B.eigen_certificate(ctx, 1.0, "barron", C=C)
    out["eigen_certificate_l2_unit"] = B.eigen_certificate(ctx, 1.0, "l2", C=C)
    _emit(out, args.out)
    return 0


def cmd_solve(args):
    ham = _load_spec(args.spec)
    grid = _build_grid(args.grid, ham.dim)
    r = grid.radius_mesh()
    f = FreqFunction(grid, np.exp(-math.pi * r * r))
    u, report = SV.solve_neumann(ham, args.rho, f, s=args.s, tol=args.tol)
    if grid.size <= MAX_DENSE_SAMPLES:
        u_direct = SV.solve_direct(ham, args.rho, f)
        report.oracle_error = SV.oracle_error(u, u_direct, s=args.s)
    payload = {"meta": _meta(args, ham), "report": report.to_json_dict()}
    rows = list(enumerate(report.residual_history, start=1))
    _emit(payload, args.out, csv_rows=rows, csv_header=["iteration", "residual"])
    return 0


def cmd_verify_eigen(args):
    gammas = tuple(float(x) for x in args.gammas.split(","))
    rep = SV.sharpness_experiment(args.delta, n=args.n, gammas=gammas,
                                  residual_cells=args.cells)
    payload = {"meta": _meta(args), "report": rep.to_json_dict()}
    rows = list(zip(rep.blowup_gammas, rep.blowup_norms))
    _emit(payload, args.out, csv_rows=rows, csv_header=["gamma", "high_band_barron_norm"])
    return 0


def cmd_probe(args):
    ham = _load_spec(args.spec)
    grid = _build_grid(args.grid, ham.dim)
    beta = args.beta if args.beta is not None else 1.0 + (args.s - args.gamma) / 2.0
    if not math.isfinite(beta):
        raise InvalidArgumentError(
            f"--beta must be finite (got {beta})" if args.beta is not None else
            f"beta = 1 + (s - gamma)/2 must be finite (got {beta} from --s {args.s:g}, "
            f"--gamma {args.gamma:g})")
    with _beta_hint(ham.n, args.s, args.alpha, beta):
        C = B.big_C_V(ham.potential, args.s, args.alpha, beta)
    params = {"rho": args.rho, "lam": args.lam, "K": args.K}
    cert = certified_bound(args.op, ham, args.s, args.alpha, beta, C, params)
    src, dst = natural_spaces(args.op, args.s, args.alpha, beta, args.p)
    rep = empirical_operator_norm(args.op, ham, grid, src, dst, args.probes, args.seed,
                                  certified=cert, params=params)
    payload = {"meta": _meta(args, ham), "report": rep.to_json_dict(),
               "satisfied": rep.satisfied}
    _emit(payload, args.out)
    return 0 if rep.satisfied else 3


def cmd_demo_embeddings(args):
    ks = [10 ** j for j in range(0, 7)]
    rows = []
    for k in ks:
        _, lower = counterexample_norm(k, 0.0, 1.0, -0.5, 2.0, 1)
        rows.append((k, lower))
    # Coulomb partial Barron(-1) integrals under extent doubling vs split norm
    coul = fourier_transform(PotentialTerm("coulomb"), 3)
    partials = []
    splits = []
    for R in (25.0, 50.0, 100.0, 200.0):
        g = make_radial_grid(3, R, 3000, r_min=1e-8)
        fr = sample_profile(coul, g)
        partials.append(fl_norm(fr, SpaceIndex(-1.0, 1.0)))
        v, _ = split_norm(coul, SplitIndex(0.0, 2.0, 1.0), 3, grid=g)
        splits.append(v)
    payload = {"meta": _meta(args),
               "counterexample_lower_bounds": rows,
               "coulomb_partial_B_minus1": partials,
               "coulomb_split_norm_s0_alpha2": splits}
    _emit(payload, args.out, csv_rows=rows, csv_header=["k", "lower_bound"])
    return 0


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared: parse_args returns a fresh
    Namespace on every call."""
    p = argparse.ArgumentParser(prog="flbarron",
                                description="frequency-space toolkit: norms, constants, solves")
    p.add_argument("--out", default=None, help="output JSON path (CSV written alongside)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **arg_defs):
        sp = sub.add_parser(name)
        for flag, kw in arg_defs.items():
            sp.add_argument(flag, **kw)
        sp.set_defaults(func=fn)
        return sp

    add("norm", cmd_norm,
        **{"--spec": dict(required=True), "--s": dict(type=float, default=0.0),
           "--p": dict(type=float, default=1.0),
           "--alpha": dict(type=float, default=None),
           "--beta": dict(type=float, default=1.0)})
    add("decompose", cmd_decompose,
        **{"--spec": dict(required=True), "--radius": dict(type=float, default=1.0),
           "--alpha-prime": dict(type=float, default=2.0, dest="alpha_prime"),
           "--s": dict(type=float, default=0.0)})
    add("constants", cmd_constants,
        **{"--spec": dict(required=True), "--s": dict(type=float, default=0.0),
           "--alpha": dict(type=float, default=2.0),
           "--gamma": dict(type=float, default=0.5),
           "--rho": dict(type=float, default=1.0),
           "--lam": dict(type=float, default=0.0)})
    add("solve", cmd_solve,
        **{"--spec": dict(required=True),
           "--grid": dict(default="kind:tensor,extent:8,count:129"),
           "--rho": dict(type=float, default=1.0), "--s": dict(type=float, default=0.0)})
    add("verify-eigen", cmd_verify_eigen,
        **{"--delta": dict(type=float, default=1.0), "--n": dict(type=int, default=3),
           "--gammas": dict(default="0.90,0.95,0.99"),
           "--cells": dict(type=int, default=450)})
    add("probe", cmd_probe,
        **{"--spec": dict(required=True),
           "--grid": dict(default="kind:tensor,extent:8,count:65"),
           "--op": dict(default="r"), "--s": dict(type=float, default=0.0),
           "--alpha": dict(type=float, default=2.0),
           "--beta": dict(type=float, default=None),
           "--gamma": dict(type=float, default=0.5),
           "--p": dict(type=float, default=1.0),
           "--probes": dict(type=int, default=20,
                            help="budget of forward applications to one function; "
                                 "p = 1 and p = inf take one, p = 2 at most 30"),
           "--rho": dict(type=float, default=1.0),
           "--lam": dict(type=float, default=0.0),
           "--K": dict(type=float, default=0.0)})
    add("demo-embeddings", cmd_demo_embeddings)
    return p


_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)  # never "--flag" or "-h"


def _attach_negative_values(argv: list) -> list:
    """``--s -1e-3`` as ``--s=-1e-3``: argparse reads ``-1e-3``, ``-inf`` or the list
    ``-0.5,0.7`` as a flag, which would leave ``--s`` without a value."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        for name, value in vars(args).items():  # inf stays: --alpha inf is a valid space
            if isinstance(value, float) and math.isnan(value):
                flag = "--" + name.replace("_", "-")
                raise InvalidArgumentError(f"{flag} must be finite or +-inf (got nan)")
        return args.func(args)
    except ToolkitError as exc:
        sys.stderr.write(f"numeric failure [{type(exc).__name__}]: {exc}\n")
        return 3
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"config error [{type(exc).__name__}]: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
