"""Tests of the benchmark itself: seeded generation, tracing that changes no
result, exactly repeating counts, and the metric list in BENCHMARK.json.

Run from the root of the repository:  python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

# cheap tasks of each workload; the full lists take seconds per task
CHEAP = {
    "tensor_solve": ("gauss1d_129", "invpow1d_63", "yukawa3d_9"),
    "radial_eigen": ("delta1.0_cells120-240",),
    "probe_sweep": ("gauss1d_r_p1", "gauss1d_h0_inv_p2", "pair2d_pk_t_lambda_p1"),
}
COUNT_STATS = ("calls", "points", "samples", "pairs", "iterations", "columns", "probes",
               "unknowns", "distinct_frac")


def _canon(tasks):
    return json.dumps(tasks, sort_keys=True)


def _cheap_tasks(workload, seed, tmp_path):
    tasks = W.prepare(workload, W.generate(workload, seed), tmp_path)
    picked = [t for t in tasks if t.name in CHEAP[workload]]
    assert len(picked) == len(CHEAP[workload])
    return picked


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_generation_is_a_pure_function_of_the_seed(workload):
    assert _canon(W.generate(workload, 7)) == _canon(W.generate(workload, 7))
    assert _canon(W.generate(workload, 7)) != _canon(W.generate(workload, 8))
    # the seed never changes which tasks run, only their inputs and order
    names = lambda seed: sorted(t["name"] for t in W.generate(workload, seed))
    assert names(7) == names(8)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload, tmp_path):
    tracer = T.Tracer()
    for task in _cheap_tasks(workload, 5, tmp_path):
        plain = task.run()
        with tracer.installed():
            traced = task.run()
        assert task.same(plain, traced), task.name
        assert task.check(plain) == []


def _traced_counts(workload, tmp_path):
    tracer = T.Tracer()
    with tracer.installed():
        for task in _cheap_tasks(workload, 5, tmp_path):
            task.run()
    metrics = T.layer_metrics(tracer.take())
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = _traced_counts(workload, tmp_path / "a")
    assert first == _traced_counts(workload, tmp_path / "b")
    lattice = first["grid.sample_kernel_on_lattice.calls"]
    radial = first["grid.radial_convolve_3d.calls"]
    quad = first["solver.stretched_exp_transform.calls"]
    if workload == "radial_eigen":
        assert lattice == 0 and radial > 0 and quad > 0
    else:
        assert lattice > 0 and radial == 0 and quad == 0


def test_installed_rebinds_imported_names_and_restores_them():
    import flbarron.grid as G
    import flbarron.operators as O
    import flbarron.solver as S

    originals = (G.convolve, O.convolve, S.apply_R, O.apply_R)
    tracer = T.Tracer()
    with tracer.installed():
        assert O.convolve is G.convolve and O.convolve is not originals[0]
        assert S.apply_R is O.apply_R and S.apply_R is not originals[2]
    assert (G.convolve, O.convolve, S.apply_R, O.apply_R) == originals


def test_self_time_excludes_child_spans():
    tracer = T.Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        wrapped()
        time.sleep(0.01)

    wrapped = tracer._wrap(T.Layer("x", "child"), child)
    tracer._wrap(T.Layer("x", "parent"), parent)()
    stats = tracer.take()
    (c_id, c_parent, c_name, c0, c1), (p_id, p_parent, p_name, p0, p1) = tracer.spans
    assert (c_name, p_name, c_parent, p_parent) == ("x.child", "x.parent", p_id, -1)
    assert stats["x.child"].self_s == c1 - c0 >= 0.02
    assert stats["x.parent"].self_s == (p1 - p0) - (c1 - c0)
    assert stats["x.parent"].self_s >= 0.01


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = list(T.layer_metrics({}))
    diagnostics = ["proc.cpu_s", "host.ref_loop_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names + diagnostics
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_fails_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "probe_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

