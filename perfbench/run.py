#!/usr/bin/env python3
"""Benchmark of the flbarron toolkit, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tensor_solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One workload runs in this process.  ``--workload all`` runs each workload in a
fresh process of its own and prints a table.  With ``--trace 0`` the last
line of standard output is a JSON object whose metrics are the end-to-end
metrics; with ``--trace 1`` they are the per-layer metrics.  See README.md in
this directory for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("tensor_solve", "radial_eigen", "probe_sweep")
SETUP_PROBES = 3  # fresh processes timed from spawn to inputs ready; median reported
SETUP_TIMEOUT_S = 120


def _cap_threads() -> int:
    """Cap the BLAS and OpenMP pools at the cores this process may use.

    Must run before numpy is imported; returns that core count."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else nproc
        os.environ[var] = str(min(n, nproc))
    return nproc


def _import_library() -> None:
    """Import flbarron from this checkout's sources, never from elsewhere."""
    if not (SRC / "flbarron" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flbarron sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import flbarron

    if Path(flbarron.__file__).resolve().parent != (SRC / "flbarron").resolve():
        sys.exit(f"perfbench: imported flbarron from {flbarron.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _ref_loop_s() -> float:
    """Time of a fixed pure-Python loop: a probe of how fast the host runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _setup(workload: str, seed: int, work_dir: Path):
    import workloads

    return workloads.prepare(workload, workloads.generate(workload, seed), work_dir)


def _setup_probe_s(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline().strip()
        t1 = time.perf_counter()
        rc = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or rc != 0:
        raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
    return t1 - t0


class Runner:
    """Round-robin passes over one workload's tasks until the deadline."""

    def __init__(self, tasks, trace: bool):
        self.tasks = tasks
        self.tracer = None
        if trace:
            from tracer import Tracer

            self.tracer = Tracer()
        self.wall = {t.name: [] for t in tasks}
        self.cpu = {t.name: [] for t in tasks}
        self.traced_wall = {t.name: [] for t in tasks}
        self.pass_stats = []  # per complete traced pass: {layer: Stats}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.summaries = {}

    def _execute(self, task, traced: bool):
        """Run one task; (wall seconds, cpu seconds, output)."""
        with self.tracer.installed() if traced else contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            out = task.run()
            t1, c1 = time.perf_counter(), time.process_time()
        return t1 - t0, c1 - c0, out

    def _attempt(self, task, traced: bool):
        self.attempted += 1
        try:
            wall, cpu, out = self._execute(task, traced)
            bad = task.check(out)
        except Exception:  # a raising task counts as failed; the run goes on
            traceback.print_exc()
            self.failed += 1
            self.failures.append((task.name, "raised"))
            return
        if bad:
            self.failed += 1
            self.failures.append((task.name, "; ".join(bad)))
        self.summaries[task.name] = task.summary(out)
        (self.traced_wall if traced else self.wall)[task.name].append(wall)
        if not traced:
            self.cpu[task.name].append(cpu)

    def run(self, seconds: float):
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            complete = True
            for task in self.tasks:
                if passes > 0 and time.perf_counter() >= deadline:
                    complete = False
                    break
                if self.tracer is None:
                    self._attempt(task, traced=False)
                    continue
                # alternate which side runs first so neither gets the warmer cache
                for traced in ((False, True) if passes % 2 == 0 else (True, False)):
                    self._attempt(task, traced)
            if complete:
                passes += 1
                if self.tracer is not None:
                    self.pass_stats.append(self.tracer.take())
        return passes


def _sum_medians(samples: dict) -> float:
    return sum(statistics.median(v) for v in samples.values() if v)


def _layer_results(runner: Runner):
    """Per-layer metrics of the traced passes; counts must repeat exactly."""
    from tracer import layer_metrics

    per_pass = [layer_metrics(s) for s in runner.pass_stats]
    first = per_pass[0]
    repeat = all(all(p[k] == first[k] for k in first if not k.endswith(".self_s"))
                 for p in per_pass[1:])
    metrics = dict(first)
    for k in first:
        if k.endswith(".self_s"):
            metrics[k] = statistics.median(p[k] for p in per_pass)
    return metrics, repeat


def _write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["span", "parent", "name", "start_s", "end_s"])
        writer.writerows(tracer.spans)


def _units():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args, nproc: int) -> int:
    import numpy
    import scipy

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, "blas_threads": _blas_threads(),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "python": platform.python_version()}
    ref_start = _ref_loop_s()
    # set-up time is an end-to-end metric only; a traced run skips its probes
    setup = [] if args.trace else [_setup_probe_s(args.workload, args.seed)
                                   for _ in range(SETUP_PROBES)]
    work_dir = WORK / "work" / f"{args.workload}-{os.getpid()}"
    try:
        runner = Runner(_setup(args.workload, args.seed, work_dir), trace=bool(args.trace))
        passes = runner.run(args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    ref_end = _ref_loop_s()

    wall_s = _sum_medians(runner.wall)
    correct = runner.failed == 0
    if args.trace:
        metrics, repeat = _layer_results(runner)
        correct = correct and repeat
        metrics["trace.overhead_frac"] = _sum_medians(runner.traced_wall) / wall_s - 1.0
        spans = WORK / "trace" / f"{args.workload}-seed{args.seed}.csv"
        _write_spans(runner.tracer, spans)
        record.update({"counts_repeat": repeat, "spans_file": str(spans.relative_to(ROOT))})
    else:
        metrics = {"setup_s": statistics.median(setup), "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    diagnostics = {"proc.cpu_s": _sum_medians(runner.cpu),
                   "host.ref_loop_s": 0.5 * (ref_start + ref_end)}
    if args.trace:
        metrics.update(diagnostics)
    record.update({
        "passes": passes, "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted, "failures": runner.failures[:20],
        "setup_probes_s": setup, "host.ref_loop_start_s": ref_start,
        "host.ref_loop_end_s": ref_end, **diagnostics,
        "task_wall_s": runner.wall,
        "task_outputs": runner.summaries})
    if args.workload == "radial_eigen":
        import workloads

        record["residual_ladder"] = workloads.residual_ladder(runner.summaries)

    units = _units()
    print("perfbench record " + json.dumps(record, sort_keys=True))
    print(f"{args.workload}: failed_frac {record['failed_frac']:.6g} ratio "
          f"({runner.failed} of {runner.attempted} tasks failed)")
    for k in ("setup_s", "wall_s", "peak_rss_mb"):
        if k in metrics:
            print(f"{args.workload}: {k} {metrics[k]:.6g} {units[k]}")
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a table of every metric by name."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}")
            return 1
        results[workload] = json.loads(lines[-1])
    for workload, res in results.items():
        print(f"{workload}: failed_frac {res['failed'] / res['attempted']:.6g} ratio "
              f"({res['failed']} of {res['attempted']}), correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"{workload}: {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    nproc = _cap_threads()
    _import_library()
    if args.setup_probe:
        work_dir = WORK / "work" / f"probe-{args.workload}-{os.getpid()}"
        try:
            _setup(args.workload, args.seed, work_dir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        return 0
    return run_workload(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
