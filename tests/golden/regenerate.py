"""Golden CLI outputs: the fixed runs that ``tests/test_golden.py`` repeats.

Each case is one ``flbarron`` command line; its JSON (and the sibling CSV
that ``solve`` and ``verify-eigen`` write) is kept in this directory.  The
spec files of ``SPECS`` are written to a scratch directory first; the config
hash in every report covers a spec's content, not its path.

Regenerate after an intended output change, and state in CHANGES.md which
files changed and by how much; the script prints, for every file whose bytes
change, the key paths that differ and the largest relative difference:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

SPECS = {
    # the spec-file example of README.md
    "readme.json": {
        "n": 3, "N": 2, "masses": [1.0, 1.0],
        "one_particle": [{"i": 1, "kind": "gaussian", "params": {"kappa": 0.5},
                          "shift": [], "coeff": 1.0}],
        "pairwise": [{"i": 1, "j": 2, "kind": "coulomb", "params": {}, "shift": [],
                      "coeff": 1.0}],
        "additive": None},
    # two 1-D particles, a one-particle Gaussian and a shifted pairwise Gaussian
    "gauss_shift.json": {
        "n": 1, "N": 2, "masses": [1.0, 1.5],
        "one_particle": [{"i": 1, "kind": "gaussian", "params": {"kappa": 0.2},
                          "shift": [], "coeff": 1.0}],
        "pairwise": [{"i": 1, "j": 2, "kind": "gaussian", "params": {"kappa": 0.3, "width": 0.8},
                      "shift": [0.4], "coeff": 1.0}],
        "additive": None},
    # a 3-D Yukawa term, whose transform has a rational power-law tail
    "yukawa.json": {"n": 3, "N": 1, "masses": [1.0],
                    "one_particle": [{"i": 1, "kind": "yukawa", "params": {"mu": 1.5},
                                      "coeff": -0.7}]},
    # V = 0
    "free.json": {"n": 1, "N": 1, "masses": [1.0], "one_particle": [], "pairwise": [],
                  "additive": None},
}

_PROBE = ["probe", "--spec", "gauss_shift.json", "--grid", "kind:tensor,extent:6,count:17",
          "--alpha", "2", "--probes", "24", "--K", "1.5", "--lam", "-0.3"]

CASES = {
    "constants": ["constants", "--spec", "readme.json", "--alpha", "2.4", "--gamma", "0.5"],
    "norm_s0_p1": ["norm", "--spec", "readme.json", "--s", "0", "--p", "1"],
    "norm_s-0.5_p2": ["norm", "--spec", "readme.json", "--s", "-0.5", "--p", "2"],
    "norm_split": ["norm", "--spec", "readme.json", "--s", "0", "--alpha", "2.4",
                   "--beta", "0.9"],
    "decompose": ["decompose", "--spec", "readme.json", "--radius", "1.0",
                  "--alpha-prime", "3.0"],
    "norm_yukawa_s0.25_p2": ["norm", "--spec", "yukawa.json", "--s", "0.25", "--p", "2"],
    "norm_yukawa_s-1.5_p1": ["norm", "--spec", "yukawa.json", "--s", "-1.5", "--p", "1"],
    "norm_yukawa_split": ["norm", "--spec", "yukawa.json", "--s", "-0.3", "--alpha", "3",
                          "--beta", "0.8"],
    "decompose_yukawa": ["decompose", "--spec", "yukawa.json", "--radius", "2.0",
                         "--alpha-prime", "1.5", "--s", "-0.25"],
    "demo_embeddings": ["demo-embeddings"],
    "solve_gauss_shift": ["solve", "--spec", "gauss_shift.json",
                          "--grid", "kind:tensor,extent:6,count:25", "--s", "0.5"],
    "solve_free": ["solve", "--spec", "free.json", "--grid", "kind:tensor,extent:6,count:65"],
    **{f"probe_{op}": ["--seed", "3", *_PROBE, "--op", op]
       for op in ("r", "pk_r", "t_lambda", "pk_t_lambda", "multiply_v")},
    "probe_pk_r_p2": ["--seed", "3", *_PROBE, "--op", "pk_r", "--p", "2"],
    "probe_multiply_v_pinf": ["--seed", "3", *_PROBE, "--op", "multiply_v", "--p", "inf"],
    **{f"verify_eigen_d{tag}_c{cells}": ["verify-eigen", "--delta", delta, "--gammas", gammas,
                                         "--cells", str(cells)]
       for tag, delta, gammas in (("1", "1", "0.90,0.95,0.99"),
                                  ("075", "0.75", "0.6,0.65,0.7"),
                                  ("05", "0.5", "0.35,0.4,0.45"))
       for cells in (120, 240)},
}


def generate(workdir: Path) -> dict:
    """Run every case with its spec files and outputs in ``workdir``; returns
    {output file name: bytes} for each JSON and CSV written."""
    from flbarron.cli import run

    workdir = Path(workdir)
    for name, spec in SPECS.items():
        (workdir / name).write_text(json.dumps(spec, sort_keys=True))
    outputs = {}
    for case, argv in CASES.items():
        argv = [str(workdir / arg) if arg in SPECS else arg for arg in argv]
        code = run(["--out", str(workdir / f"{case}.json"), *argv])
        if code != 0:
            raise RuntimeError(f"golden case {case} exited {code}")
        for path in sorted(workdir.glob(f"{case}.*")):
            outputs[path.name] = path.read_bytes()
    return outputs


def _describe():
    """``tests/test_golden.py``'s description of a changed file."""
    spec = importlib.util.spec_from_file_location("test_golden", HERE.parent / "test_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._describe


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        outputs = generate(Path(tmp))
    previous = {p.name: p.read_bytes() for p in HERE.iterdir() if p.suffix in (".json", ".csv")}
    describe = _describe()
    for name in sorted(previous.keys() | outputs.keys()):
        if name not in outputs:
            sys.stdout.write(f"{name}: removed\n")
        elif name not in previous:
            sys.stdout.write(f"{name}: new\n")
        elif outputs[name] != previous[name]:
            sys.stdout.write(describe(name, previous[name], outputs[name]) + "\n")
    for name in previous:
        (HERE / name).unlink()
    for name, blob in outputs.items():
        (HERE / name).write_bytes(blob)
    sys.stdout.write(f"wrote {len(outputs)} files to {HERE}\n")


if __name__ == "__main__":
    main()
