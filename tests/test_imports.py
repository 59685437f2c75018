"""Start-up: flbarron runs on numpy alone and imports no scipy module.

The fresh-process tests run a snippet under ``sys.executable`` with
``PYTHONPATH=src``, so nothing this test process has imported or built
(scipy modules, the memoised CLI parser) carries into them.
"""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from flbarron import solver as SV
from flbarron.cli import build_parser
from flbarron.grid import FreqFunction, make_tensor_grid
from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "flbarron"

# printed by every snippet: which scipy modules the process holds
SCIPY_LOADED = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def fresh(code: str, cwd=None) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    out = fresh(f"""
        import importlib, json, sys
        import flbarron, flbarron.cli
        after_cli = {SCIPY_LOADED}
        for name in {modules!r}:
            importlib.import_module("flbarron." + name)
        print(json.dumps({{"cli": after_cli, "all": {SCIPY_LOADED}}}))
    """)
    assert out == {"cli": [], "all": []}


TRANSFORM_CASES = [(0.7, 1.0, 3), (0.0, 0.5, 3), (0.3, 1.5, 3), (1.0, 0.2, 3)]


def test_first_transforms_in_a_fresh_process_load_no_scipy():
    out = fresh(f"""
        import json, sys
        from flbarron import solver as SV
        values = [SV.stretched_exp_transform(*c).hex() for c in {TRANSFORM_CASES!r}]
        print(json.dumps({{"values": values, "scipy": {SCIPY_LOADED}}}))
    """)
    assert out["scipy"] == []
    assert out["values"] == [SV.stretched_exp_transform(*c).hex() for c in TRANSFORM_CASES]
    # QUADPACK raised NonConvergenceError at (1.0, 0.2): round-off
    assert float.fromhex(out["values"][-1]) == pytest.approx(5.66e-3, rel=1e-3)


@pytest.mark.parametrize("delta", ["1", "0.5"])
def test_cold_verify_eigen_loads_no_scipy(delta):
    argv = ["verify-eigen", "--delta", delta, "--gammas", "0.3,0.4", "--cells", "120"]
    out = fresh(f"""
        import contextlib, io, json, sys
        from flbarron import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run({argv!r})
        print(json.dumps({{"code": code, "scipy": {SCIPY_LOADED}}}))
    """)
    assert out == {"code": 0, "scipy": []}


@pytest.mark.parametrize("flags, error", [
    (["--n", "2"], "[UnsupportedScaleError]: sharpness experiment implemented for "
                   "n = 3 (got n = 2)"),
    (["--n", "4"], "[UnsupportedScaleError]: sharpness experiment implemented for "
                   "n = 3 (got n = 4)"),
    (["--cells", "5"], "[InvalidArgumentError]: count must be >= 8")])
def test_verify_eigen_rejects_before_any_transform(flags, error):
    argv = ["verify-eigen", "--delta", "0.75", "--gammas", "0.6,0.7"] + flags
    out = fresh(f"""
        import contextlib, io, json, sys
        from flbarron import cli, solver
        calls = []
        radii = solver.sharp_transform_radii
        solver.sharp_transform_radii = lambda rhos, delta: calls.append(1) or radii(rhos, delta)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run({argv!r})
        print(json.dumps({{"code": code, "err": err.getvalue(), "transforms": len(calls)}}))
    """)
    assert out["code"] == 3
    assert out["err"] == f"numeric failure {error}\n"
    assert out["transforms"] == 0


def _gaussian_solve_case():
    grid = make_tensor_grid(1, 8.0, 129)
    r = grid.radius_mesh()
    f = FreqFunction(grid, np.exp(-math.pi * r * r))
    ham = HamiltonianSpec(PotentialSpec(1, 1, additive=PotentialTerm("gaussian", {"kappa": 0.05})),
                          (1.0,))
    return ham, f


def test_first_transform_table_and_direct_solve_in_a_fresh_process():
    out = fresh(f"""
        import json, math, sys
        import numpy as np
        from flbarron import solver as SV
        from flbarron.grid import FreqFunction, make_tensor_grid
        from flbarron.potentials import HamiltonianSpec, PotentialSpec, PotentialTerm
        table = SV.sharp_transform_radii(np.geomspace(0.05, 50.0, 7), 0.5)
        after_table = {SCIPY_LOADED}
        grid = make_tensor_grid(1, 8.0, 129)
        r = grid.radius_mesh()
        f = FreqFunction(grid, np.exp(-math.pi * r * r))
        ham = HamiltonianSpec(PotentialSpec(1, 1, additive=PotentialTerm(
            "gaussian", {{"kappa": 0.05}})), (1.0,))
        u = SV.solve_direct(ham, 1.0, f)
        print(json.dumps({{"table": table.tobytes().hex(), "after_table": after_table,
                          "solve": np.asarray(u.values).tobytes().hex(),
                          "dtype": str(np.asarray(u.values).dtype),
                          "after_solve": {SCIPY_LOADED}}}))
    """)
    assert out["after_table"] == out["after_solve"] == []  # the dense oracle is numpy GMRES
    assert out["table"] == SV.sharp_transform_radii(np.geomspace(0.05, 50.0, 7), 0.5) \
        .tobytes().hex()
    ham, f = _gaussian_solve_case()
    u = np.asarray(SV.solve_direct(ham, 1.0, f).values)
    assert (out["dtype"], out["solve"]) == (str(u.dtype), u.tobytes().hex())


def test_tensor_probe_loads_no_scipy_fft(tmp_path):
    # the lattice convolution's padded FFT length and the exact norms' FFT
    # length are worked out without scipy.fft, the exact sums (p = 1, inf)
    # use numpy's real FFT, and the power method's and Lanczos' adjoints need
    # no scipy.sparse: a tensor probe loads no scipy module at all
    gauss = {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
             "additive": {"kind": "gaussian", "params": {"kappa": 0.05},
                          "shift": [], "coeff": 1.0}}
    yukawa = {"n": 3, "N": 1, "masses": [1.0], "pairwise": [], "additive": None,
              "one_particle": [{"i": 1, "kind": "yukawa", "params": {"mu": 2.0},
                                "shift": [], "coeff": 1.0}]}
    (tmp_path / "gauss.json").write_text(json.dumps(gauss))
    (tmp_path / "yukawa.json").write_text(json.dumps(yukawa))
    gauss_run = ["--seed", "3", "probe", "--spec", "gauss.json", "--op", "r",
                 "--grid", "kind:tensor,extent:6,count:17", "--alpha", "inf", "--beta", "0.4",
                 "--probes", "3"]
    yukawa_run = ["--seed", "3", "probe", "--spec", "yukawa.json", "--op", "r",
                  "--alpha", "2", "--beta", "0.9"]
    runs = [gauss_run, yukawa_run + ["--grid", "kind:tensor,extent:5,count:9"],
            gauss_run + ["--p", "2"],
            yukawa_run + ["--grid", "kind:tensor,extent:5,count:13", "--p", "inf"]]
    out = fresh(f"""
        import contextlib, io, json, sys
        from flbarron import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in {runs!r}]
        print(json.dumps({{"codes": codes, "scipy": {SCIPY_LOADED}}}))
    """, cwd=tmp_path)
    assert out["codes"] == [0, 0, 0, 0]
    assert out["scipy"] == []


def test_parser_reuse_matches_a_fresh_parser(tmp_path):
    spec = {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
            "additive": {"kind": "gaussian", "params": {"kappa": 0.05},
                         "shift": [], "coeff": 1.0}}
    (tmp_path / "gauss.json").write_text(json.dumps(spec))
    commands = [["norm", "--spec", "gauss.json", "--bogus"],
                ["norm", "--spec", "gauss.json", "--s", "0.5", "--p", "2"],
                ["--seed", "3", "probe", "--spec", "gauss.json", "--op", "r",
                 "--grid", "kind:tensor,extent:6,count:17", "--alpha", "inf", "--beta", "0.4",
                 "--probes", "3"],
                ["norm", "--spec", "gauss.json"]]
    out = fresh(f"""
        import contextlib, io, json
        from flbarron import cli

        def outcome(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            return [code, buf.getvalue()]

        shared = [outcome(argv) for argv in {commands!r}]
        alone = []
        for argv in {commands!r}:
            cli.build_parser.cache_clear()
            alone.append(outcome(argv))
        print(json.dumps({{"shared": shared, "alone": alone}}))
    """, cwd=tmp_path)
    assert [code for code, _ in out["shared"]] == [2, 0, 0, 0]
    assert out["shared"] == out["alone"]
    assert out["shared"][1][1] != out["shared"][3][1]  # --s/--p did not stick to the parser


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# ---------------------------------------------------------------------------
# static guard: no scipy import anywhere in the package, function bodies included
# ---------------------------------------------------------------------------

def _scipy_imports(tree) -> list:
    """Line numbers of every ``import scipy…`` or ``from scipy… import`` in ``tree``."""
    def is_scipy(name: str | None) -> bool:
        return name is not None and (name == "scipy" or name.startswith("scipy."))

    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Import) and any(is_scipy(a.name) for a in node.names))
            or (isinstance(node, ast.ImportFrom) and is_scipy(node.module))]


def test_no_module_level_scipy_import():
    # the runtime needs numpy alone: scipy is a test dependency
    offenders = [f"{path.relative_to(SRC)}:{line}" for path in sorted(PACKAGE.glob("*.py"))
                 for line in _scipy_imports(ast.parse(path.read_text(), filename=str(path)))]
    assert offenders == [], f"flbarron imports scipy: {offenders}"


def test_static_guard_sees_nested_module_level_imports():
    tree = ast.parse("try:\n    import scipy.linalg\nexcept ImportError:\n    pass\n"
                     "class A:\n    from scipy import special\n"
                     "def f():\n    from scipy.integrate import quad\n"
                     "import scipyx, numpy\n")
    assert sorted(_scipy_imports(tree)) == [2, 6, 8]
