"""Golden-output gate: every case of ``tests/golden/regenerate.py`` rerun
through ``cli.run`` must reproduce the checked-in JSON and CSV byte for byte.

The files pin today's outputs, defects included: they are a regression
baseline, not a correctness oracle.  A change that means to move an output
regenerates them and says so in CHANGES.md.
"""

import csv
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def _load_cases():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rel(a, b) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) else math.inf


def _leaves(x, path=()):
    """(key path, leaf) pairs of parsed JSON; lists and dicts are walked."""
    if isinstance(x, dict):
        for k in sorted(x):
            yield from _leaves(x[k], path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, path + (i,))
    else:
        yield path, x


def _csv_leaves(text: str):
    for i, row in enumerate(csv.reader(io.StringIO(text))):
        for j, cell in enumerate(row):
            try:
                cell = float(cell)
            except ValueError:
                pass
            yield (f"row {i}", f"column {j}"), cell


def _describe(name: str, want: bytes, got: bytes) -> str:
    """The file, the key paths whose values differ, and the largest relative
    difference with its key path."""
    parse = (lambda b: _leaves(json.loads(b))) if name.endswith(".json") else (
        lambda b: _csv_leaves(b.decode()))
    want_leaves, got_leaves = dict(parse(want)), dict(parse(got))
    if want_leaves.keys() != got_leaves.keys():
        extra = sorted(map(str, want_leaves.keys() ^ got_leaves.keys()))
        return f"{name}: key paths differ: {extra[:5]}"
    worst, where, changed = -1.0, None, []
    for path, a in want_leaves.items():
        b = got_leaves[path]
        if a == b:
            continue
        changed.append(".".join(map(str, path)))
        num = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        diff = _rel(a, b) if num else math.inf
        if diff > worst:
            worst, where = diff, (changed[-1], a, b)
    if where is None:
        return f"{name}: same values, different bytes (formatting)"
    key, a, b = where
    listed = ", ".join(changed[:5]) + (f" and {len(changed) - 5} more" if len(changed) > 5 else "")
    return (f"{name}: {len(changed)} value(s) differ ({listed}); largest relative difference "
            f"{worst:.3g} at {key} (golden {a!r}, now {b!r})")


def test_cli_outputs_match_golden_bytes(tmp_path):
    cases = _load_cases()
    got = cases.generate(tmp_path)
    want = {p.name: p.read_bytes() for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv")}
    assert sorted(got) == sorted(want), "golden file set differs from the cases' outputs"
    mismatches = [_describe(name, want[name], got[name]) for name in sorted(want)
                  if got[name] != want[name]]
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize("case", ["solve_gauss_shift", "solve_free"] + sorted(
    name for name in _load_cases().CASES if name.startswith("probe_")))
def test_solve_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    # the dense oracle applies I + R, and Lanczos orthogonalizes its bases,
    # with numpy's own loops, not BLAS, so a fresh process at one or two
    # OpenBLAS threads writes the same bytes
    cases = _load_cases()
    got = {}
    for threads in ("1", "2"):
        workdir = tmp_path / threads
        workdir.mkdir()
        for name, spec in cases.SPECS.items():
            (workdir / name).write_text(json.dumps(spec, sort_keys=True))
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "flbarron.cli", "--out", f"{case}.json",
                               *cases.CASES[case]], env=env, cwd=workdir,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        got[threads] = {p.name: p.read_bytes() for p in sorted(workdir.glob(f"{case}.*"))}
    assert got["1"] == got["2"]
    assert got["1"] == {name: (GOLDEN / name).read_bytes() for name in got["1"]}
