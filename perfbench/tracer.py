"""Span tracer that wraps the public functions of each ``flbarron`` module.

The wrappers are installed from the benchmark's own files: every attribute of
every loaded ``flbarron.*`` module that holds a traced function object is
rebound to the wrapper, because modules import each other's functions by name
(``operators`` holds its own ``convolve``, ``solver`` its own ``apply_R``), so
patching the defining module alone would miss those calls.  Self time is the
span's duration minus the time its child spans cover, taken from a span
stack.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field


def _points(a, result):
    return a["grid"].count ** a["n"]


def _kernel_key(a):
    prof, shift = a["profile"], a.get("shift")
    shift = None if shift is None else tuple(float(x) for x in shift)
    return (prof.kind, repr(prof.params), a["n"], a["grid"].extent, a["grid"].count, shift)


def _pairs(a, result):
    g = a["u_hat"].grid
    r_eval = a.get("r_eval")
    return (len(g.nodes) if r_eval is None else len(r_eval)) * (len(g.cell_bounds) - 1)


@dataclass(frozen=True)
class Layer:
    """One traced function: ``work`` names its work count, computed by
    ``count(bound_args, result)``; ``key`` gives the distinct-input key whose
    ratio of distinct keys to calls is reported as ``distinct_frac``."""

    module: str
    function: str
    work: str | None = None
    count: object = None
    key: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


LAYERS = (
    Layer("grid", "sample_kernel_on_lattice", "points", _points, _kernel_key),
    Layer("grid", "convolve", "samples", lambda a, r: a["u_hat"].values.size),
    Layer("grid", "radial_convolve_3d", "pairs", _pairs),
    Layer("spaces", "fl_norm", "samples", lambda a, r: a["f"].values.size),
    Layer("spaces", "split_norm"),
    Layer("spaces", "profile_norm_report"),
    Layer("potentials", "fourier_transform"),
    Layer("bounds", "big_C_V"),
    Layer("bounds", "coercivity_rho"),
    Layer("bounds", "coercivity_margin"),
    Layer("operators", "apply_multiply_V"),
    Layer("operators", "apply_h0_inverse"),
    Layer("operators", "apply_R"),
    Layer("operators", "apply_T_lambda"),
    Layer("operators", "project_high"),
    Layer("operators", "random_band_limited"),
    Layer("operators", "empirical_operator_norm", "probes", lambda a, r: a["probes"]),
    Layer("solver", "solve_neumann", "iterations", lambda a, r: r[1].iterations),
    Layer("solver", "assemble_dense", "columns", lambda a, r: r.shape[1]),
    Layer("solver", "solve_direct", "unknowns", lambda a, r: a["f"].grid.size),
    Layer("solver", "stretched_exp_transform",
          key=lambda a: (float(a["rho"]), float(a["delta"]), a["n"])),
    Layer("solver", "tabulate_sharp_transform"),
    Layer("solver", "sharpness_experiment"),
    Layer("solver", "sharp_example_residual"),
    Layer("solver", "high_band_barron_norm"),
    Layer("cli", "run"),
)


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    work: int = 0
    keys: set = field(default_factory=set)


class Tracer:
    """Span stack and per-layer totals for one traced pass at a time."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self._next_id = 0
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.stats: dict[str, Stats] = {}
        self._pairs = []  # (original, wrapper)
        for layer in LAYERS:
            fn = getattr(importlib.import_module(f"flbarron.{layer.module}"), layer.function)
            self._pairs.append((fn, self._wrap(layer, fn)))

    def _wrap(self, layer: Layer, fn):
        sig = inspect.signature(fn) if (layer.count or layer.key) else None
        name = layer.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][1] if self._stack else -1
            frame = [0.0, span_id]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += t1 - t0
                self.spans.append((span_id, parent, name, t0, t1))
                st = self.stats.setdefault(name, Stats())
                st.calls += 1
                st.self_s += (t1 - t0) - frame[0]
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if layer.count:
                    st.work += int(layer.count(bound.arguments, result))
                if layer.key:
                    st.keys.add(layer.key(bound.arguments))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every flbarron module attribute that holds a traced function."""
        by_id = {id(fn): wrapper for fn, wrapper in self._pairs}
        touched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "flbarron" and not modname.startswith("flbarron."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    touched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in touched:
                setattr(mod, attr, value)

    def take(self) -> dict[str, Stats]:
        """Return and reset the per-layer totals gathered since the last take."""
        stats, self.stats = self.stats, {}
        return stats


def layer_metrics(stats: dict[str, Stats]) -> dict[str, float]:
    """Per-layer metric values (every layer, zero where it made no call)."""
    out = {}
    for layer in LAYERS:
        st = stats.get(layer.name, Stats())
        out[f"{layer.name}.calls"] = st.calls
        out[f"{layer.name}.self_s"] = st.self_s
        if layer.work:
            out[f"{layer.name}.{layer.work}"] = st.work
        if layer.key:
            out[f"{layer.name}.distinct_frac"] = len(st.keys) / st.calls if st.calls else 0.0
    return out
