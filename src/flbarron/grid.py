"""Discretized frequency-space representation of functions on R^d.

Two grid kinds cover everything at desk scale:

* ``radial`` grids hold samples of a radial function on (0, r_max].  They
  are built from quadrature cells with three Gauss-Legendre nodes each, so
  polynomials up to degree 5 are integrated exactly per cell, no node ever
  sits at r = 0, and all weights are positive.
* ``tensor`` grids are uniform symmetric lattices on [-X, X]^d containing
  the origin (odd point count per axis), integrated by the composite
  trapezoidal rule.

The module also owns the structured convolutions used to apply a potential
in frequency space: full/one-particle/pairwise lattice convolutions on
tensor grids, and a high-order bipolar-coordinate convolution for radial
data in three dimensions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    UnsupportedKindError,
    UnsupportedScaleError,
)
from .special import omega_d

EULER_GAMMA = 0.5772156649015329

MAX_TENSOR_SAMPLES = 1 << 22  # sample budget of a tensor grid; admits 129^3

_GX3, _GW3 = leggauss(3)
_GX7, _GW7 = leggauss(7)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FreqGrid:
    """Frequency grid, either radial (1-D nodes + weights) or tensor lattice.

    Radial grids carry ``nodes``/``weights``/``cell_bounds``; tensor grids
    carry ``extent`` (half-width X per axis) and ``count`` (odd nodes per
    axis).  ``dim`` is the ambient dimension in both cases.
    """

    dim: int
    kind: str  # "radial" | "tensor"
    nodes: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)
    cell_bounds: np.ndarray | None = field(default=None, repr=False)
    extent: float | None = None
    count: int | None = None

    def __post_init__(self):
        if self.kind not in ("radial", "tensor"):
            raise InvalidArgumentError(f"unknown grid kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        if self.kind == "radial":
            r = self.nodes
            if r is None or self.weights is None:
                raise InvalidArgumentError("radial grid needs nodes and weights")
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise InvalidArgumentError("radial nodes must be strictly increasing, r0 >= 0")
            if np.any(self.weights <= 0):
                raise InvalidArgumentError("radial weights must be positive")
        else:
            if self.dim > 3:
                raise UnsupportedScaleError("tensor grids are capped at total dimension 3")
            if self.extent is None or self.count is None:
                raise InvalidArgumentError("tensor grid needs extent and count")
            if self.count % 2 == 0 or self.count < 3:
                raise InvalidArgumentError("tensor axis count must be odd and >= 3 (origin on grid)")
            if not (math.isfinite(self.extent) and self.extent > 0):
                raise InvalidArgumentError("tensor extent must be finite and positive")
            if int(self.count) ** self.dim > MAX_TENSOR_SAMPLES:
                raise UnsupportedScaleError(
                    f"tensor grid {self.count}^{self.dim} exceeds {MAX_TENSOR_SAMPLES} samples")

    # -- geometry: computed once per grid, read-only ----------------------

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / (self.count - 1)

    @cached_property
    def axis(self) -> np.ndarray:
        return _read_only(np.linspace(-self.extent, self.extent, self.count))

    @property
    def shape(self) -> tuple:
        if self.kind == "tensor":
            return (self.count,) * self.dim
        return (len(self.nodes),)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def upper_edge(self) -> float:
        """Outer radius covered by the quadrature (cell boundary, not node)."""
        if self.kind == "radial":
            return float(self.cell_bounds[-1]) if self.cell_bounds is not None \
                else float(self.nodes[-1])
        return float(self.extent)

    @cached_property
    def _radii(self) -> np.ndarray:
        if self.kind == "radial":
            return _read_only(self.nodes.view())
        return _read_only(np.sqrt(sum(np.ix_(*[self.axis ** 2] * self.dim))))

    @cached_property
    def _rd_weights(self) -> np.ndarray:
        if self.kind == "radial":
            return _read_only(omega_d(self.dim) * self.weights * self.nodes ** (self.dim - 1))
        w1 = np.full(self.count, self.spacing)
        w1[0] *= 0.5
        w1[-1] *= 0.5
        return _read_only(math.prod(np.ix_(*[w1] * self.dim)))

    def radius_mesh(self) -> np.ndarray:
        """|xi| at every node (tensor: full lattice, radial: the node radii)."""
        return self._radii

    def trapezoid_weights(self) -> np.ndarray:
        """Node weights of the integral over R^d: sum(w * f) ~ int f(xi) d xi.

        Tensor grids: the composite trapezoid weights.  Radial grids: the
        1-D weights times the sphere's surface, omega_d * w_j * r_j^(d-1).
        """
        return self._rd_weights


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _gauss3_cells(bounds: np.ndarray):
    a, b = bounds[:-1], bounds[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * _GX3[None, :]).ravel()
    weights = (half[:, None] * _GW3[None, :]).ravel()
    return nodes, weights


def make_radial_grid(d: int, r_max: float, count: int, scheme: str = "uniform",
                     r_min: float | None = None) -> FreqGrid:
    """Radial quadrature grid on [0, r_max] with ``count`` nodes (3 per cell).

    ``uniform`` uses equal cells; ``log-uniform`` uses geometric cells from
    ``r_min`` (default r_max * 1e-8) preceded by one linear cell [0, r_min],
    so the quadrature is still exact for cubics on the whole of [0, r_max].
    The requested count is rounded down to a multiple of 3.
    """
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    if not (r_max > 0):
        raise InvalidArgumentError("r_max must be positive")
    if count < 8:
        raise InvalidArgumentError("count must be >= 8")
    ncells = max(count // 3, 3)
    if scheme == "uniform":
        bounds = np.linspace(0.0, r_max, ncells + 1)
    elif scheme == "log-uniform":
        lo = r_max * 1e-8 if r_min is None else r_min
        if not (0 < lo < r_max):
            raise InvalidArgumentError("r_min must lie in (0, r_max)")
        geo = lo * (r_max / lo) ** (np.arange(ncells) / (ncells - 1))
        bounds = np.concatenate([[0.0], geo])
    else:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}")
    nodes, weights = _gauss3_cells(bounds)
    return FreqGrid(dim=d, kind="radial", nodes=nodes, weights=weights, cell_bounds=bounds)


def make_tensor_grid(d: int, extent: float, count: int) -> FreqGrid:
    """Uniform symmetric lattice on [-extent, extent]^d, odd count per axis."""
    if count % 2 == 0:
        count += 1
    return FreqGrid(dim=d, kind="tensor", extent=float(extent), count=int(count))


# ---------------------------------------------------------------------------
# radial profiles (closed-form transforms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Closed-form (or tabulated) radial function of |xi|.

    kinds and params:
      power            (C, a)       C * r^a
      bracket_power    (C, a)       C * (1+r^2)^(a/2)
      rational_bracket (A, c, m)    A * (1 + c r^2)^(-m)
      gaussian         (A, c)       A * exp(-c r^2)
      log_kernel       (C,)         C * (ln r + euler_gamma)
      tabulated        ()           interpolant + fitted power-law tail

    ``decay`` is the tail exponent p with |f(r)| ~ C_tail r^p (p < 0) when
    known, used for truncation-tail estimates; ``window`` restricts support
    to [lo, hi) (None = unbounded side).
    """

    kind: str
    params: tuple = ()
    valid_min: float = 0.0
    decay: float | None = None
    window: tuple | None = None
    table_nodes: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)
    tail_model: tuple | None = None  # (A, p1, B, p2): A r^p1 + B r^p2 beyond table

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        v = self._eval_raw(r)
        if self.window is not None:
            lo, hi = self.window
            mask = np.ones_like(v, dtype=bool)
            if lo is not None:
                mask &= r >= lo
            if hi is not None:
                mask &= r < hi
            v = np.where(mask, v, 0.0)
        return v

    def _eval_raw(self, r):
        k, p = self.kind, self.params
        if k == "power":
            C, a = p
            with np.errstate(divide="ignore"):
                return C * np.where(r > 0, r, np.nan) ** a if a < 0 else C * r ** a
        if k == "bracket_power":
            C, a = p
            return C * (1.0 + r * r) ** (a / 2.0)
        if k == "rational_bracket":
            A, c, m = p
            return A * (1.0 + c * r * r) ** (-m)
        if k == "gaussian":
            A, c = p
            return A * np.exp(-c * r * r)
        if k == "log_kernel":
            (C,) = p
            with np.errstate(divide="ignore"):
                return C * (np.log(np.where(r > 0, r, np.nan)) + EULER_GAMMA)
        if k == "tabulated":
            return self._eval_table(r)
        raise UnsupportedKindError(f"unknown profile kind {k!r}")

    def _eval_table(self, r):
        nodes, vals = self.table_nodes, self.table_values
        out = np.interp(r, nodes, vals)
        if self.tail_model is not None:
            A, p1, B, p2 = self.tail_model
            hi = r > nodes[-1]
            if np.any(hi):
                rh = np.asarray(r)[hi]
                out = np.asarray(out)
                out[hi] = A * rh ** p1 + B * rh ** p2
        return out

    def tail_exponent(self) -> float | None:
        """exponent p with |f| ~ C r^p at infinity, None if unknown."""
        if self.decay is not None:
            return self.decay
        k, p = self.kind, self.params
        if k in ("power", "bracket_power"):
            return p[1]
        if k == "rational_bracket":
            return -2.0 * p[2]
        if k == "gaussian":
            return None  # super-polynomial; treated as negligible tail
        if k == "tabulated" and self.tail_model is not None:
            return self.tail_model[1]
        return None

    def tail_coefficient(self) -> float | None:
        if self.window is not None and self.window[1] is not None:
            return 0.0  # compactly supported: no tail
        k, p = self.kind, self.params
        if k in ("power", "bracket_power"):
            return abs(p[0])
        if k == "rational_bracket":
            A, c, m = p
            return abs(A) * c ** (-m)
        if k == "gaussian":
            return 0.0
        if k == "tabulated" and self.tail_model is not None:
            return abs(self.tail_model[0])
        return None

    def windowed(self, lo=None, hi=None) -> "RadialProfile":
        return replace(self, window=(lo, hi))


def tabulated_profile(nodes, values, tail_model=None, decay=None) -> RadialProfile:
    return RadialProfile(kind="tabulated", table_nodes=np.asarray(nodes, float),
                         table_values=np.asarray(values, float),
                         tail_model=tail_model, decay=decay)


# ---------------------------------------------------------------------------
# sampled functions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FreqFunction:
    """Sampled Fourier transform on a FreqGrid (the universal value carrier)."""

    grid: FreqGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.size:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise DimensionMismatchError(
                    f"values shape {self.values.shape} does not match grid {self.grid.shape}")

    def copy_with(self, values) -> "FreqFunction":
        return FreqFunction(self.grid, np.asarray(values))

    # -- serialization (bit-exact round trip through JSON) -----------------

    def to_json_dict(self) -> dict:
        g = self.grid
        vals = np.asarray(self.values, dtype=complex).ravel()
        d = {
            "dim": g.dim,
            "kind": g.kind,
            "values": [[z.real, z.imag] for z in vals],
        }
        if g.kind == "radial":
            d["nodes"] = list(map(float, g.nodes))
            d["weights"] = list(map(float, g.weights))
            d["cell_bounds"] = list(map(float, g.cell_bounds)) if g.cell_bounds is not None else None
        else:
            d["axes"] = {"extent": g.extent, "count": g.count}
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @staticmethod
    def from_json_dict(d: dict) -> "FreqFunction":
        """Inverse of ``to_json_dict``; a ``radial_flag`` key (older files) is ignored."""
        if d["kind"] == "radial":
            cb = d.get("cell_bounds")
            grid = FreqGrid(dim=d["dim"], kind="radial",
                            nodes=np.array(d["nodes"]), weights=np.array(d["weights"]),
                            cell_bounds=None if cb is None else np.array(cb))
        else:
            grid = FreqGrid(dim=d["dim"], kind="tensor",
                            extent=d["axes"]["extent"], count=d["axes"]["count"])
        vals = np.array([complex(re, im) for re, im in d["values"]])
        return FreqFunction(grid, vals.reshape(grid.shape))

    @staticmethod
    def from_json(s: str) -> "FreqFunction":
        return FreqFunction.from_json_dict(json.loads(s))


def sample_profile(profile: RadialProfile, grid: FreqGrid) -> FreqFunction:
    """Sample a radial profile on a radial grid."""
    if grid.kind != "radial":
        raise DimensionMismatchError("sample_profile expects a radial grid")
    return FreqFunction(grid, profile(grid.nodes))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def radial_integral(f: FreqFunction) -> float:
    """integral over R^d of a radial function against the grid's R^d weights."""
    if f.grid.kind != "radial":
        raise DimensionMismatchError("radial_integral needs a radial FreqFunction")
    return float(np.sum(f.grid.trapezoid_weights() * np.real_if_close(f.values)))


# ---------------------------------------------------------------------------
# tensor-grid convolution
# ---------------------------------------------------------------------------

def sample_kernel_on_lattice(profile: RadialProfile, n: int, grid: FreqGrid,
                             shift: np.ndarray | None = None) -> np.ndarray:
    """Sample V_hat on the n-dim sub-lattice with trapezoid weights folded in.

    Cells within 3 lattice spacings of the origin are replaced by the mean
    over 16^n midpoint sub-cells, so integrable singularities such as
    |theta|^(t-n) are integrated rather than evaluated at the node.
    A nonzero real-space shift contributes the exact phase factor.
    """
    ax = grid.axis
    h = grid.spacing
    mesh = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)  # (...,n)
    radius = np.linalg.norm(mesh, axis=-1)
    vals = np.asarray(profile(np.where(radius > 0, radius, h)), dtype=float).copy()
    sing = profile.kind in ("power", "log_kernel") or (
        profile.kind == "tabulated" and profile.valid_min > 0)
    if sing:
        near = radius <= 3.0 * h + 1e-12 * h
        idxs = np.argwhere(near)
        # midpoint sub-cells: offsets never hit the cell center, so integrable
        # singularities are averaged rather than sampled at the blow-up point
        sub = ((np.arange(16) + 0.5) / 16.0 - 0.5) * h
        offs = np.stack(np.meshgrid(*([sub] * n), indexing="ij"), axis=-1).reshape(-1, n)
        for idx in idxs:
            center = mesh[tuple(idx)]
            pts = np.linalg.norm(center[None, :] + offs, axis=1)
            vals[tuple(idx)] = float(np.mean(profile(pts)))
    else:
        vals = np.asarray(profile(radius), dtype=float)
    # trapezoid weights of the kernel's own n-dim lattice
    kernel = vals * FreqGrid(n, "tensor", extent=grid.extent, count=grid.count).trapezoid_weights()
    if shift is not None and np.any(np.asarray(shift) != 0):
        phase = np.exp(-2j * np.pi * (mesh @ np.asarray(shift, dtype=float)))
        kernel = kernel * phase
    return kernel


@dataclass(frozen=True, eq=False)
class LatticeKernel:
    """A potential term's kernel laid out on a tensor grid, kept as its FFT.

    The kernel spans ``axes`` of ``grid`` (odd length M each, center index
    (M-1)/2) and is singleton elsewhere; ``fft`` is its FFT zero-padded to
    ``sizes`` along those axes, long enough that the circular product is
    the linear convolution.
    """

    grid: FreqGrid
    axes: tuple
    sizes: tuple
    fft: np.ndarray = field(repr=False)
    complex_kernel: bool


def lattice_kernel(v_hat, grid: FreqGrid, structure: str, particle=None,
                   n: int | None = None, shift=None) -> LatticeKernel:
    """Lay V_hat out on ``grid`` and take its padded FFT.

    structure: "additive" (full d-dim kernel; ``v_hat`` is a radial profile
    or a FreqFunction sampled on ``grid``), "one_particle" with particle=i
    (kernel over particle i's n axes), or "pairwise" with particle=(i, j)
    (anti-diagonal kernel over the two particles' axes).  Particle indices
    are 1-based; ``n`` is the single-particle dimension.
    """
    from scipy.fft import next_fast_len

    if grid.kind != "tensor":
        raise DimensionMismatchError("convolve operates on tensor grids")
    d = grid.dim
    M = grid.count
    if structure == "additive":
        if isinstance(v_hat, FreqFunction):
            if v_hat.grid.shape != grid.shape:
                raise DimensionMismatchError("additive kernel grid mismatch")
            kernel = np.asarray(v_hat.values) * grid.trapezoid_weights()
        else:
            kernel = sample_kernel_on_lattice(v_hat, d, grid, shift)
        axes = tuple(range(d))
    elif n is None:
        raise InvalidArgumentError("one_particle/pairwise convolution needs n")
    elif structure == "one_particle":
        i = int(particle)
        axes = tuple(range((i - 1) * n, i * n))
        kernel = sample_kernel_on_lattice(v_hat, n, grid, shift)
        shape = [1] * d
        for ax in axes:
            shape[ax] = M
        kernel = kernel.reshape(shape)
    elif structure == "pairwise":
        i, j = particle
        if n != 1:
            raise UnsupportedScaleError("pairwise convolution implemented for n = 1 lattices")
        axes = ((i - 1) * n, (j - 1) * n)
        k1 = sample_kernel_on_lattice(v_hat, 1, grid, shift)
        k2 = np.zeros((M, M), dtype=k1.dtype)
        k2[np.arange(M), M - 1 - np.arange(M)] = k1  # support on theta_j = -theta_i
        shape = [1] * d
        for ax in axes:
            shape[ax] = M
        kernel = k2.reshape(shape)
    else:
        raise InvalidArgumentError(f"unknown convolution structure {structure!r}")
    sizes = tuple(next_fast_len(2 * M - 1) for _ in axes)
    return LatticeKernel(grid, axes, sizes, np.fft.fftn(kernel, s=sizes, axes=axes),
                         np.iscomplexobj(kernel))


def convolve(v_hat, u_hat: FreqFunction, structure: str | None = None, particle=None,
             n: int | None = None, shift=None) -> FreqFunction:
    """Sampled F(V u) on u's tensor grid.

    ``v_hat`` is a LatticeKernel, whose FFT is applied as it is, or a kernel
    that ``lattice_kernel`` first lays out with the remaining arguments.
    Returns the "same" central part of the linear convolution:
    out[a] = sum_j kernel[j] * u[a - j + m], m = (M-1)/2 per kernel axis.
    """
    g = u_hat.grid
    kernel = v_hat if isinstance(v_hat, LatticeKernel) else lattice_kernel(
        v_hat, g, structure, particle, n, shift)
    kg = kernel.grid
    if g.kind != "tensor" or (g.dim, g.extent, g.count) != (kg.dim, kg.extent, kg.count):
        raise DimensionMismatchError("kernel was laid out on another grid")
    u = np.asarray(u_hat.values)
    Uf = np.fft.fftn(u, s=kernel.sizes, axes=kernel.axes)
    full = np.fft.ifftn(Uf * kernel.fft, s=kernel.sizes, axes=kernel.axes)
    m = (g.count - 1) // 2
    sl = [slice(None)] * u.ndim
    for ax in kernel.axes:
        sl[ax] = slice(m, m + g.count)
    out = full[tuple(sl)]
    if not (np.iscomplexobj(u) or kernel.complex_kernel):
        out = out.real
    return u_hat.copy_with(out)


# ---------------------------------------------------------------------------
# radial convolution in R^3 (bipolar reduction, product integration)
# ---------------------------------------------------------------------------
#
# (V * u)(r) = (2 pi / r) * int_0^inf s u(s) [Q(r+s) - Q(|r-s|)] ds, where
# Q is a primitive of tau V(tau).  g(s) = s u(s) is approximated by its
# piecewise quadratic through each cell's three Gauss nodes; the kernel
# moments are computed exactly near the singular point s = r and by Gauss-7
# where the kernel is smooth (exact far-field expansion is catastrophically
# ill-conditioned, see the near/far split below).

def _prim_int(i: int, lo, hi, q=None, log=False):
    """integral of u^i * u^q du (or u^i ln u du) on [lo, hi], lo >= 0."""
    if log:
        p = i + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            hi_t = np.where(hi > 0, hi ** p * (np.log(np.maximum(hi, 1e-300)) - 1 / p) / p, 0.0)
            lo_t = np.where(lo > 0, lo ** p * (np.log(np.maximum(lo, 1e-300)) - 1 / p) / p, 0.0)
        return hi_t - lo_t
    p = i + q + 1.0
    return (hi ** p - lo ** p) / p


def _exact_moments(m_shift, sign, lo, hi, q, log):
    """int (m_shift + sign*u)^j Q(u) du for j = 0, 1, 2 over [lo, hi]."""
    p0, p1, p2 = (_prim_int(k, lo, hi, q=q, log=log) for k in range(3))
    return np.stack([p0, m_shift * p0 + sign * p1,
                     m_shift ** 2 * p0 + 2 * m_shift * sign * p1 + sign ** 2 * p2], axis=-1)


class RadialKernel3D:
    """Primitive Q of tau*V(tau) for the catalog kinds, dim = 3."""

    def __init__(self, profile: RadialProfile, coeff: float = 1.0):
        k, p = profile.kind, profile.params
        self.profile = profile
        self.coeff = coeff
        self.q = None
        self.log = False
        self.smoothQ = None
        if k == "power":
            C, a = p
            if abs(a + 2.0) < 1e-14:
                self.log = True
                self.scale = coeff * C
            else:
                self.q = a + 2.0  # tau * C tau^(a+1) integrates to C u^(a+2)/(a+2)
                self.scale = coeff * C / (a + 2.0)
        elif k == "bracket_power":
            C, a = p
            if abs(a + 2.0) < 1e-14:
                self.smoothQ = lambda u: coeff * C / 2.0 * np.log1p(u * u)
            else:
                self.smoothQ = lambda u: coeff * C * (1.0 + u * u) ** ((a + 2.0) / 2.0) / (a + 2.0)
        elif k == "rational_bracket":
            A, c, m = p
            if abs(m - 1.0) < 1e-14:
                self.smoothQ = lambda u: coeff * A / (2.0 * c) * np.log1p(c * u * u)
            else:
                self.smoothQ = lambda u: -coeff * A * (1.0 + c * u * u) ** (1.0 - m) / (2.0 * c * (m - 1.0))
        elif k == "gaussian":
            A, c = p
            self.smoothQ = lambda u: -coeff * A * np.exp(-c * u * u) / (2.0 * c)
        else:
            raise UnsupportedKindError(f"no radial kernel primitive for kind {k!r}")

    def tail_series(self):
        """(c_k, p_k) with Q(s+r) - Q(s-r) = sum_k c_k r^(2k+1) s^(p_k) for s >> r."""
        if self.smoothQ is not None:
            # smooth catalog kernels decay fast or grow at most like log; the
            # profiles paired with them decay fast enough that the plain
            # truncation is negligible, so no series correction is offered.
            return None
        if self.log:
            return [(2.0 * self.scale / (2 * k + 1), -(2 * k + 1)) for k in range(3)]
        q = self.q
        coefs = []
        for k in range(3):
            j = 2 * k + 1
            binom = 1.0
            for m in range(j):
                binom *= (q - m)
            binom /= math.factorial(j)
            coefs.append((2.0 * self.scale * binom, q - j))
        return coefs


# Evaluation radii go through ``radial_convolve_3d`` in blocks of at most
# this many (radius, cell, Gauss-7 point) triples, which bounds the size of
# one block's temporaries.
_BLOCK_ELEMS = 1 << 14


def radial_convolve_3d(kernel: RadialKernel3D, u_hat: FreqFunction,
                       r_eval: np.ndarray | None = None,
                       tail_profile: RadialProfile | None = None) -> np.ndarray:
    """(V * u)(r_eval) for radial data in R^3 on a Gauss-3 cell grid.

    ``tail_profile`` (typically u's own profile) supplies the power-law
    model used for the analytic s > r_max correction; without it the
    integral is truncated at the grid edge.
    """
    g = u_hat.grid
    if g.kind != "radial" or g.dim != 3 or g.cell_bounds is None:
        raise DimensionMismatchError("radial_convolve_3d needs a 3-D Gauss-cell radial grid")
    bounds = g.cell_bounds
    a, b = bounds[:-1], bounds[1:]
    c = 0.5 * (a + b)
    h = b - a
    gvals = (g.nodes * np.real_if_close(u_hat.values)).reshape(-1, 3)
    d = g.nodes.reshape(-1, 3) - c[:, None]
    V = np.stack([np.ones_like(d), d, d * d], axis=2)
    # per cell, the quadratic through its samples in powers of (s - c)
    coef = np.linalg.solve(V, gvals[..., None])[..., 0]
    s7 = c[:, None] + 0.5 * h[:, None] * _GX7
    d7 = s7 - c[:, None]
    # that quadratic times the Gauss-7 weight at each of the cell's points
    gq = (0.5 * h[:, None] * _GW7 * (coef[:, :1] + coef[:, 1:2] * d7 + coef[:, 2:] * d7 * d7)).ravel()
    exact = kernel.smoothQ is None
    if not exact:
        Q = kernel.smoothQ
    elif kernel.log:  # in place: a block holds two (rows, cells, 7) arrays at a time
        Q = lambda u: np.multiply(np.log(u, out=u), kernel.scale, out=u)
    else:
        Q = lambda u: np.multiply(np.power(u, kernel.q, out=u), kernel.scale, out=u)

    r_all = g.nodes if r_eval is None else np.asarray(r_eval, dtype=float)
    out = np.empty(len(r_all))
    rows = max(1, _BLOCK_ELEMS // s7.size)
    for start in range(0, len(r_all), rows):
        r = r_all[start:start + rows, None]
        plus = r[..., None] + s7
        minus = r[..., None] - s7
        np.abs(minus, out=minus)
        if exact:
            # cells within 3h of the singular point s = -r (of Q(r+s)) or
            # s = r (of Q(|r-s|)) take exact moments; Q never sees them
            near_p = r + c <= 3.0 * h
            near_m = np.abs(r - c) <= 3.0 * h
            plus[near_p] = 1.0
            minus[near_m] = 1.0
        plus, minus = Q(plus), Q(minus)
        if exact:
            plus[near_p] = 0.0
            minus[near_m] = 0.0
        plus -= minus
        acc = plus.reshape(len(r), -1) @ gq
        if exact:
            ip, jp = np.nonzero(near_p)
            im, jm = np.nonzero(near_m)
            rp, rm = r[ip, 0], r[im, 0]
            # Q(r+s) on [r+a, r+b]; Q(|r-s|) split at s = r into s < r and s > r
            row = np.concatenate([ip, im, im])
            cell = np.concatenate([jp, jm, jm])
            lo = np.concatenate([rp + a[jp], rm - np.minimum(b[jm], rm), np.maximum(a[jm], rm) - rm])
            hi = np.concatenate([rp + b[jp], rm - a[jm], b[jm] - rm])
            shift = np.concatenate([-(rp + c[jp]), rm - c[jm], rm - c[jm]])
            counts = [len(ip), len(im), len(im)]
            sign = np.repeat([1.0, -1.0, 1.0], counts)
            weight = np.repeat([kernel.scale, -kernel.scale, -kernel.scale], counts)
            k = hi > lo
            mom = _exact_moments(shift[k], sign[k], lo[k], hi[k], kernel.q, kernel.log)
            acc += np.bincount(row[k], weight[k] * np.einsum("pj,pj->p", coef[cell[k]], mom), len(r))
        out[start:start + len(r)] = acc
    return 2.0 * np.pi / r_all * out + _tail_correction(kernel, tail_profile, bounds[-1], r_all)


def _tail_correction(kernel: RadialKernel3D, tail_profile: RadialProfile | None,
                     R: float, r: np.ndarray):
    """(2 pi / r) times the analytic s > R part of the integral; 0 without a
    power-law series for the kernel or a tail model for u."""
    series = kernel.tail_series()
    texp = None if tail_profile is None else tail_profile.tail_exponent()
    if series is None or texp is None:
        return 0.0
    if tail_profile.kind == "tabulated" and tail_profile.tail_model is not None:
        A, p1, B, p2 = tail_profile.tail_model
        terms = [(A, p1), (B, p2)]
    else:
        Ct = tail_profile.tail_coefficient()
        sgn = np.sign(tail_profile(np.array([R]))[0]) or 1.0
        terms = [] if Ct is None else [(sgn * Ct, texp)]
    corr = np.zeros_like(r)
    # integrand beyond R: (s * u(s)) * ck r^(2k+1) s^pk with u ~ Au s^pu
    for kk, (ck, pk) in enumerate(series):
        for (Au, pu) in terms:
            expo = 1.0 + pu + pk
            if expo < -1.0:
                corr += ck * Au * r ** (2 * kk + 1) * (-R ** (expo + 1.0) / (expo + 1.0))
    return 2.0 * np.pi / r * corr
