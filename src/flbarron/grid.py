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

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatchError,
    InvalidArgumentError,
    NotInSpaceError,
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
    """Frequency grid, either radial (Gauss-3 cells) or tensor lattice.

    A radial grid is its ``cell_bounds`` and derives from them, once, the
    ``nodes``/``weights`` of three Gauss-Legendre nodes per cell; tensor grids
    carry ``extent`` (half-width X per axis) and ``count`` (odd nodes per
    axis).  ``dim`` is the ambient dimension in both cases.
    """

    dim: int
    kind: str  # "radial" | "tensor"
    cell_bounds: np.ndarray | None = field(default=None, repr=False)
    extent: float | None = None
    count: int | None = None
    nodes: np.ndarray | None = field(default=None, init=False, repr=False)
    weights: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("radial", "tensor"):
            raise InvalidArgumentError(f"unknown grid kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidArgumentError("dim must be >= 1")
        if self.kind == "radial":
            bounds = np.array(self.cell_bounds, dtype=float)  # copied: no later write moves a cell
            if not _is_radius_run(bounds, 2):
                raise InvalidArgumentError("radial grid needs cell_bounds: finite, 1-D, strictly "
                                           "increasing from r >= 0, with at least 2 entries")
            mid = 0.5 * (bounds[:-1, None] + bounds[1:, None])
            half = 0.5 * (bounds[1:, None] - bounds[:-1, None])
            for name, value in (("cell_bounds", bounds), ("nodes", (mid + half * _GX3).ravel()),
                                ("weights", (half * _GW3).ravel())):
                object.__setattr__(self, name, _read_only(value))
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

    @cached_property
    def shape(self) -> tuple:
        if self.kind == "tensor":
            return (self.count,) * self.dim
        return (len(self.nodes),)

    @cached_property
    def size(self) -> int:
        return math.prod(self.shape)

    def upper_edge(self) -> float:
        """Outer radius covered by the quadrature (cell boundary, not node)."""
        if self.kind == "radial":
            return float(self.cell_bounds[-1])
        return float(self.extent)

    @cached_property
    def _radii(self) -> np.ndarray:
        if self.kind == "radial":
            return self.nodes
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

    def bracket_power(self, s: float) -> np.ndarray:
        """<xi>^s = (1 + |xi|^2)^(s/2) at every node, flattened; one
        read-only table per s, kept by the grid."""
        table = self._bracket_tables.get(s)
        if table is None:
            r = self._radii.ravel()
            table = self._bracket_tables[s] = _read_only((1.0 + r * r) ** (s / 2.0))
        return table

    @cached_property
    def _bracket_tables(self) -> dict:
        return {}

    def batch_rank(self, values) -> int:
        """0 for samples of the grid's shape, 1 for a stack of shape
        (B, *shape) of them (tensor grids only); anything else is a
        DimensionMismatchError.  Radial grids hold real samples only."""
        if self.kind == "radial" and np.iscomplexobj(values):
            raise InvalidArgumentError(
                f"radial grids hold real samples (got {np.asarray(values).dtype})")
        shape = np.shape(values)
        if shape == self.shape:
            return 0
        if self.kind == "tensor" and shape[1:] == self.shape:
            return 1
        raise DimensionMismatchError(f"values shape {shape} does not match grid {self.shape}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_radial_grid(d: int, r_max: float, count: int, *, r_min: float | None = None) -> FreqGrid:
    """Radial quadrature grid on [0, r_max] with ``count`` nodes (3 per cell).

    One linear cell [0, r_min] (``r_min`` defaults to r_max * 1e-8) is
    followed by geometric cells up to r_max, so the quadrature is exact for
    cubics on the whole of [0, r_max].  The count is rounded down to a
    multiple of 3, but at least three cells are built, so a count of 8
    gives 9 nodes.
    """
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    if not (0 < r_max < math.inf):
        raise InvalidArgumentError(f"r_max must be positive and finite (got {r_max})")
    if count < 8:
        raise InvalidArgumentError("count must be >= 8")
    ncells = max(count // 3, 3)
    lo = r_max * 1e-8 if r_min is None else r_min
    if not (0 < lo < r_max):
        raise InvalidArgumentError("r_min must lie in (0, r_max)")
    geo = lo * (r_max / lo) ** (np.arange(ncells) / (ncells - 1))
    return FreqGrid(dim=d, kind="radial", cell_bounds=np.concatenate([[0.0], geo]))


def make_tensor_grid(d: int, extent: float, count: int) -> FreqGrid:
    """Uniform symmetric lattice on [-extent, extent]^d; ``count`` per axis must be odd."""
    return FreqGrid(dim=d, kind="tensor", extent=float(extent), count=int(count))


# ---------------------------------------------------------------------------
# radial profiles (closed-form transforms)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Closed-form (or tabulated) radial function of |xi|.

    kinds and params:
      power            (C, a)       C * r^a
      rational_bracket (A, c, m)    A * (1 + c r^2)^(-m)
      gaussian         (A, c)       A * exp(-c r^2)
      log_kernel       (C,)         C * (ln r + euler_gamma)
      tabulated        ()           interpolant + fitted power-law tail

    ``power`` and ``log_kernel`` are the kinds singular at r = 0;
    ``tail_terms`` is the power-law model of every kind's tail.  A table is
    checked when it is built: nodes as ``check_table_nodes`` needs them, one
    real, finite value per node and finite tail terms, else InvalidArgumentError.
    """

    kind: str
    params: tuple = ()
    table_nodes: np.ndarray | None = field(default=None, repr=False)
    table_values: np.ndarray | None = field(default=None, repr=False)
    tail_model: tuple | None = None  # ((C, p), ...): sum of C r^p beyond the table

    def __post_init__(self):
        if self.kind != "tabulated":
            return
        nodes = check_table_nodes(self.table_nodes)
        try:
            values = np.asarray(self.table_values)
        except ValueError:  # ragged
            values = np.asarray(None)
        if (values.dtype.kind not in "biuf" or values.shape != nodes.shape
                or not np.all(np.isfinite(values))):
            raise InvalidArgumentError(f"table values must be one real, finite value per node "
                                       f"(got {values.dtype} of shape {values.shape} "
                                       f"for {nodes.size} nodes)")
        if self.tail_model is not None and not all(
                math.isfinite(C) and math.isfinite(p) for C, p in self.tail_model):
            raise InvalidArgumentError(f"tail_model terms must be finite (got {self.tail_model!r})")
        object.__setattr__(self, "table_nodes", nodes)
        object.__setattr__(self, "table_values", np.asarray(values, float))

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        k, p = self.kind, self.params
        if k == "power":
            C, a = p
            with np.errstate(divide="ignore"):
                return C * np.where(r > 0, r, np.nan) ** a if a < 0 else C * r ** a
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
            hi = r > nodes[-1]
            if np.any(hi):
                rh = np.asarray(r)[hi]
                out = np.asarray(out)
                out[hi] = sum(C * rh ** p for C, p in self.tail_model)
        return out

    def tail_terms(self) -> tuple | None:
        """Signed (C, p) pairs with f ~ sum C r^p at infinity, leading term
        first; () for the Gaussian, whose super-polynomial tail is
        negligible, and None when no model is known (the log kernel, a table
        without a fitted tail)."""
        k, p = self.kind, self.params
        if k == "power":
            return (p,)
        if k == "rational_bracket":
            # A c^-m r^-2m (1 + 1/(c r^2))^-m, expanded to second order
            A, c, m = p
            lead = A * c ** (-m)
            return (lead, -2.0 * m), (-lead * m / c, -2.0 * m - 2.0)
        if k == "gaussian":
            return ()
        if k == "tabulated":
            return self.tail_model
        return None


def _is_radius_run(a: np.ndarray, min_size: int) -> bool:
    """Whether ``a`` is 1-D, at least ``min_size`` finite radii strictly increasing from r >= 0."""
    return bool(a.ndim == 1 and a.size >= min_size and np.all(np.isfinite(a))
                and a[0] >= 0 and np.all(np.diff(a) > 0))


def check_table_nodes(nodes) -> np.ndarray:
    """``nodes`` as floats, checked as a table's interpolation needs them."""
    try:
        nodes = np.asarray(nodes, float)
    except (TypeError, ValueError):  # ragged, or not numbers
        nodes = None
    if nodes is None or not _is_radius_run(nodes, 1):
        raise InvalidArgumentError("table nodes must be finite, 1-D, strictly increasing "
                                   "from r >= 0, with at least 1 entry")
    return nodes


def tabulated_profile(nodes, values, tail_model=None) -> RadialProfile:
    return RadialProfile(kind="tabulated", table_nodes=nodes, table_values=values,
                         tail_model=tail_model)


# ---------------------------------------------------------------------------
# sampled functions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FreqFunction:
    """Sampled Fourier transform on a FreqGrid (the universal value carrier).

    ``values`` has the grid's shape, or (B, *grid.shape) on tensor grids for
    a stack of B functions that operators and norms treat slice by slice.
    """

    grid: FreqGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.grid.batch_rank(self.values)

    def copy_with(self, values) -> "FreqFunction":
        return FreqFunction(self.grid, np.asarray(values))


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
    return float(np.sum(f.grid.trapezoid_weights() * f.values))


# ---------------------------------------------------------------------------
# tensor-grid convolution
# ---------------------------------------------------------------------------

def sample_kernel_on_lattice(profile: RadialProfile, n: int, grid: FreqGrid,
                             shift: np.ndarray | None = None) -> np.ndarray:
    """Sample V_hat on the n-dim sub-lattice with trapezoid weights folded in.

    For the kinds singular at the origin (power, log_kernel), cells within
    3 lattice spacings of it are replaced by the mean over 16^n midpoint
    sub-cells, so integrable singularities such as |theta|^(t-n) are
    integrated rather than evaluated at the node.  That mean depends only on
    the cell's sorted absolute index offsets from the center, so it is taken
    once per such symmetry class, at the class's canonical cell (offsets
    sorted ascending, all non-negative), and the near samples are exactly
    symmetric under axis reflections and permutations.  The profile is
    evaluated on the lattice once, plus once per class for the singular kinds.
    A nonzero real-space shift contributes the exact phase factor.
    """
    lattice = grid if grid.dim == n else FreqGrid(n, "tensor", extent=grid.extent, count=grid.count)
    ax = lattice.axis
    h = lattice.spacing
    radius = lattice.radius_mesh()
    if profile.kind in ("power", "log_kernel"):
        vals = np.asarray(profile(np.where(radius > 0, radius, h)), dtype=float)
        m = (lattice.count - 1) // 2
        idxs = np.argwhere(radius <= 3.0 * h + 1e-12 * h)
        keys, cls = np.unique(np.sort(np.abs(idxs - m), axis=1), axis=0, return_inverse=True)
        # midpoint sub-cells: offsets never hit the cell center, so integrable
        # singularities are averaged rather than sampled at the blow-up point
        sub = ((np.arange(16) + 0.5) / 16.0 - 0.5) * h
        offs = np.stack(np.meshgrid(*([sub] * n), indexing="ij"), axis=-1).reshape(-1, n)
        means = [float(np.mean(profile(np.linalg.norm(ax[m + key][None, :] + offs, axis=1))))
                 for key in keys]
        vals[tuple(idxs.T)] = np.array(means)[cls.ravel()]
    else:
        vals = np.asarray(profile(radius), dtype=float)
    kernel = vals * lattice.trapezoid_weights()
    if shift is not None and np.any(np.asarray(shift) != 0):
        mesh = np.stack(np.meshgrid(*([ax] * n), indexing="ij"), axis=-1)  # (..., n)
        phase = np.exp(-2j * np.pi * (mesh @ np.asarray(shift, dtype=float)))
        kernel = kernel * phase
    return kernel


@dataclass(frozen=True, eq=False)
class LatticeKernel:
    """A potential term's kernel laid out on a tensor grid, with its FFT.

    ``samples`` spans ``axes`` of ``grid`` (odd length M each, center index
    (M-1)/2) and is singleton elsewhere; ``fft`` is its FFT zero-padded to
    ``sizes`` = ``padded_length(M)`` along those axes, long enough that the
    circular product is the linear convolution on the samples kept.
    """

    grid: FreqGrid
    axes: tuple
    sizes: tuple
    samples: np.ndarray = field(repr=False)
    fft: np.ndarray = field(repr=False)


def padded_length(M: int) -> int:
    """FFT length per kernel axis of ``convolve`` on M points: wrap-around at L
    reaches indices <= 2M-2-L, all below the kept ones (from m = (M-1)/2) iff L >= 2M-1-m."""
    return fast_length(2 * M - 1 - (M - 1) // 2)


def fast_length(n: int) -> int:
    """The smallest 2-3-5-7-11-smooth length >= n, as scipy.fft's
    ``next_fast_len`` would give, without loading scipy.fft."""
    L = n
    while True:
        rest = L
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return L
        L += 1


def lattice_kernel(v_hat: RadialProfile, grid: FreqGrid, structure: str, particle=None,
                   n: int | None = None, shift=None) -> LatticeKernel:
    """Lay the radial profile V_hat out on ``grid`` and take its FFT padded
    to ``padded_length``.

    structure: "additive" (full d-dim kernel), "one_particle" with
    particle=i (kernel over particle i's n axes), or "pairwise" with
    particle=(i, j) (anti-diagonal kernel over the two particles' axes).
    Particle indices are 1-based; ``n`` is the single-particle dimension.
    A nonzero real-space ``shift`` gives the kernel its phase.
    """
    if grid.kind != "tensor":
        raise DimensionMismatchError("convolve operates on tensor grids")
    d = grid.dim
    M = grid.count
    if structure == "additive":
        kernel = sample_kernel_on_lattice(v_hat, d, grid, shift)
        axes = tuple(range(d))
    elif n is None:
        raise InvalidArgumentError("one_particle/pairwise convolution needs n")
    elif structure == "one_particle":
        i = int(particle)
        axes = tuple(range((i - 1) * n, i * n))
        kernel = sample_kernel_on_lattice(v_hat, n, grid, shift)
    elif structure == "pairwise":
        i, j = particle
        if n != 1:
            raise UnsupportedScaleError("pairwise convolution implemented for n = 1 lattices")
        axes = ((i - 1) * n, (j - 1) * n)
        k1 = sample_kernel_on_lattice(v_hat, 1, grid, shift)
        kernel = np.zeros((M, M), dtype=k1.dtype)
        kernel[np.arange(M), M - 1 - np.arange(M)] = k1  # support on theta_j = -theta_i
    else:
        raise InvalidArgumentError(f"unknown convolution structure {structure!r}")
    kernel = kernel.reshape([M if ax in axes else 1 for ax in range(d)])
    sizes = (padded_length(M),) * len(axes)
    return LatticeKernel(grid, axes, sizes, kernel, np.fft.fftn(kernel, s=sizes, axes=axes))


def convolve(kernel: LatticeKernel, u_hat: FreqFunction) -> FreqFunction:
    """Sampled F(V u) on u's tensor grid, from the kernel that
    ``lattice_kernel`` laid out on that grid.

    Returns the "same" central part of the linear convolution (exact from
    FFTs of ``padded_length(M)`` per axis): out[a] = sum_j kernel[j] * u[a - j + m],
    m = (M-1)/2 per kernel axis.  A stack of functions is convolved slice by slice in one pass.
    The result is real when both u's samples and the kernel's samples are,
    the one place an FFT result is turned back into real numbers.
    """
    g = u_hat.grid
    kg = kernel.grid
    if g.kind != "tensor" or (g.dim, g.extent, g.count) != (kg.dim, kg.extent, kg.count):
        raise DimensionMismatchError("kernel was laid out on another grid")
    u = np.asarray(u_hat.values)
    axes = tuple(ax + g.batch_rank(u) for ax in kernel.axes)
    out = np.fft.fftn(u, s=kernel.sizes, axes=axes)
    out *= kernel.fft
    # ifftn's axis order, keeping only the central part after each axis, so
    # later axes transform fewer rows; every kept row sees the same data
    m = (g.count - 1) // 2
    for ax in reversed(axes):
        out = np.fft.ifft(out, axis=ax)[(slice(None),) * ax + (slice(m, m + g.count),)]
    if not (np.iscomplexobj(u) or np.iscomplexobj(kernel.samples)):
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
# ill-conditioned).  The kernel is a power or log one, and the grid's cells
# past the linear first one are geometric, so the Gauss-7 far field over them
# depends on the cell offset only and is one FFT convolution
# (``_geometric_sum``); the linear first cell is summed directly over blocks
# of evaluation radii (``_direct_sum``).

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
    """Primitive Q of tau*V(tau) for a power profile C tau^a, dim = 3:
    C u^(a+2)/(a+2), or C ln u at a = -2."""

    def __init__(self, profile: RadialProfile, coeff: float = 1.0):
        if profile.kind != "power":
            raise UnsupportedKindError(f"no radial kernel primitive for kind {profile.kind!r}")
        C, a = profile.params
        self.log = abs(a + 2.0) < 1e-14
        self.q = None if self.log else a + 2.0  # tau * C tau^(a+1) integrates to C u^q / q
        self.scale = coeff * C if self.log else coeff * C / self.q

    def tail_series(self):
        """(c_k, p_k) with Q(s+r) - Q(s-r) = sum_k c_k r^(2k+1) s^(p_k) for s >> r."""
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


# Element budget of one block's temporaries: ``_direct_sum`` takes evaluation
# radii in blocks of at most this many (radius, cell, Gauss-7 point) triples,
# and ``_geometric_sum`` takes its exact near moments in chunks of a sixteenth
# of it (its FFT far field works one node of a cell at a time instead);
# ``solver.sharp_transform_radii`` takes (radii x rule nodes) blocks of at
# most this many float64.  128 KiB blocks reuse heap memory rather than raise the peak.
_BLOCK_ELEMS = 1 << 14


def radial_convolve_3d(kernel: RadialKernel3D, u_hat: FreqFunction,
                       tail_profile: RadialProfile | None = None) -> np.ndarray:
    """(V * u) at the nodes of u's grid, for radial data in R^3 on a Gauss-3 cell grid.

    ``tail_profile`` (typically u's own profile) supplies the power-law
    model used for the analytic s > r_max correction; without it the
    integral is truncated at the grid edge.  Cells past the first that are
    not geometric are an UnsupportedScaleError, and a tail model whose part
    beyond r_max diverges is a NotInSpaceError, both before any cell is summed.
    """
    g = u_hat.grid
    if g.kind != "radial" or g.dim != 3:
        raise DimensionMismatchError("radial_convolve_3d needs a 3-D Gauss-cell radial grid")
    rho = _geometric_ratio(g)
    if rho is None:
        raise UnsupportedScaleError(
            "radial_convolve_3d needs geometric cells past the first, as make_radial_grid builds")
    bounds, r_all = g.cell_bounds, g.nodes
    tail = _tail_correction(kernel, tail_profile, bounds[-1], r_all)
    a, b = bounds[:-1], bounds[1:]
    c = 0.5 * (a + b)
    h = b - a
    gvals = (g.nodes * u_hat.values).reshape(-1, 3)
    d = g.nodes.reshape(-1, 3) - c[:, None]
    V = np.stack([np.ones_like(d), d, d * d], axis=2)
    # per cell, the quadratic through its samples in powers of (s - c)
    coef = np.linalg.solve(V, gvals[..., None])[..., 0]
    s7 = c[:, None] + 0.5 * h[:, None] * _GX7
    d7 = s7 - c[:, None]
    # that quadratic times the Gauss-7 weight at each of the cell's points
    gq = 0.5 * h[:, None] * _GW7 * (coef[:, :1] + coef[:, 1:2] * d7 + coef[:, 2:] * d7 * d7)
    # the linear cell [0, r_min] directly, as a row block and a column
    out = np.empty(len(r_all))
    out[:3] = _direct_sum(kernel, r_all[:3], a, b, coef, gq, s7)
    out[3:] = _direct_sum(kernel, r_all[3:], a[:1], b[:1], coef[:1], gq[:1], s7[:1])
    out[3:] += _geometric_sum(kernel, rho, r_all[3:], a[1:], b[1:], coef[1:], gq[1:], s7[1:])
    return 2.0 * np.pi / r_all * out + tail


def _direct_sum(kernel: RadialKernel3D, r_all, a, b, coef, gq, s7) -> np.ndarray:
    """int over the cells [a, b] of Q(r+s) - Q(|r-s|) times the cells' quadratics,
    at each r: Gauss-7 where Q is smooth, exact moments near its singular points."""
    c = 0.5 * (a + b)
    h = b - a
    gq = gq.ravel()
    if kernel.log:  # in place: a block holds two (rows, cells, 7) arrays at a time
        Q = lambda u: np.multiply(np.log(u, out=u), kernel.scale, out=u)
    else:
        Q = lambda u: np.multiply(np.power(u, kernel.q, out=u), kernel.scale, out=u)
    out = np.empty(len(r_all))
    rows = max(1, _BLOCK_ELEMS // s7.size)
    for start in range(0, len(r_all), rows):
        r = r_all[start:start + rows, None]
        plus = r[..., None] + s7
        minus = r[..., None] - s7
        np.abs(minus, out=minus)
        # cells within 3h of the singular point s = -r (of Q(r+s)) or
        # s = r (of Q(|r-s|)) take exact moments; Q never sees them
        near_p = r + c <= 3.0 * h
        near_m = np.abs(r - c) <= 3.0 * h
        plus[near_p] = 1.0
        minus[near_m] = 1.0
        plus, minus = Q(plus), Q(minus)
        plus[near_p] = 0.0
        minus[near_m] = 0.0
        plus -= minus
        acc = plus.reshape(len(r), -1) @ gq
        acc += _near_moments(kernel, r[:, 0], a, b, coef, np.nonzero(near_p), np.nonzero(near_m))
        out[start:start + len(r)] = acc
    return out


def _near_moments(kernel: RadialKernel3D, r, a, b, coef, near_p, near_m) -> np.ndarray:
    """Per radius, the exact moments of the (row, cell) pairs ``near_p`` of
    Q(r+s) and ``near_m`` of Q(|r-s|) against the cells' quadratics."""
    c = 0.5 * (a + b)
    (ip, jp), (im, jm) = near_p, near_m
    rp, rm = r[ip], r[im]
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
    return np.bincount(row[k], weight[k] * np.einsum("pj,pj->p", coef[cell[k]], mom), len(r))


def _geometric_ratio(g: FreqGrid) -> float | None:
    """rho when the cells past the first are [lo rho^j, lo rho^(j+1)] to
    1e-12 relative, as ``make_radial_grid`` builds them; else None (a
    hand-built grid).  The grid derives each cell's Gauss-3 nodes from its bounds."""
    bounds = g.cell_bounds
    lo, M = bounds[1], len(bounds) - 2
    if bounds[0] != 0.0 or M < 1:
        return None
    rho = (bounds[-1] / lo) ** (1.0 / M)
    if not np.allclose(bounds[1:], lo * rho ** np.arange(M + 1), rtol=1e-12, atol=0.0):
        return None
    return rho


def _cell_points(rho: float, x: np.ndarray) -> np.ndarray:
    """Gauss points ``x`` of the cell [1, rho]."""
    return 0.5 * (1.0 + rho) + 0.5 * (rho - 1.0) * x


def _offset_near_sets(rho: float, M: int):
    """(near_p, near_m) over the offset m = I - J of M geometric cells: masks
    of shape (2M - 1, 3) for m = -(M-1) .. M-1 and each node of cell I, true
    where cell J lies within 3h of s = -r (Q(r+s)) or of s = r (Q(|r-s|)).
    They are the coordinate tests divided by cell J's lower bound."""
    ratio = rho ** np.arange(1 - M, M)[:, None] * _cell_points(rho, _GX3)
    mid, reach = 0.5 * (1.0 + rho), 3.0 * (rho - 1.0)
    return ratio + mid <= reach, np.abs(ratio - mid) <= reach


def _geometric_sum(kernel: RadialKernel3D, rho: float, r, a, b, coef, gq, s7) -> np.ndarray:
    """``_direct_sum`` over M geometric cells at their own nodes, for a power or log kernel.

    With r = lo rho^I tau_p and s = lo rho^J sigma_k (node p of cell I,
    Gauss-7 point k of cell J), Q(r+s) - Q(|r-s|) is scale r^q [(1+t)^q -
    |1-t|^q] (power) or scale [log(1+t) - log|1-t|] (log) with t = rho^(J-I)
    sigma_k / tau_p, so the far field is, per (p, k), a convolution over the
    offset I - J, taken by FFT.  A log kernel's log r cancels only where
    both terms are far; where one term is near, the other still carries
    scale log r times the cell's weight sum.
    """
    M = len(gq)
    near_p, near_m = _offset_near_sets(rho, M)
    far = _offset_far_field(kernel, rho, r, gq, s7, near_p, near_m)
    weight = gq.sum(axis=1)
    log_terms = np.zeros(len(r))
    # the near pairs of a block of cells I at a time, so that the exact
    # moments' temporaries stay within _BLOCK_ELEMS / 16 pairs
    cells = max(1, _BLOCK_ELEMS // 16 // max(1, near_p.sum(), near_m.sum()))
    for start in range(0, M, cells):
        pairs_p = _offset_pairs(near_p, M, start, start + cells)
        pairs_m = _offset_pairs(near_m, M, start, start + cells)
        if kernel.log:
            log_terms += np.bincount(pairs_m[0], weight[pairs_m[1]], len(r))
            log_terms -= np.bincount(pairs_p[0], weight[pairs_p[1]], len(r))
        far += _near_moments(kernel, r, a, b, coef, pairs_p, pairs_m)
    if kernel.log:
        far += kernel.scale * log_terms * np.log(r)
    return far


def _offset_far_field(kernel: RadialKernel3D, rho: float, r, gq, s7, near_p, near_m):
    """The far-field part of ``_geometric_sum`` at each node r: the
    convolution over I - J of the kernel outside the near sets with gq."""
    M = len(gq)
    # a power of two >= 2M - 1: the circular convolution does not wrap, and
    # numpy's FFT stays fast without loading scipy.fft (about 1.3 MB resident)
    L = 1 << (2 * M - 2).bit_length()
    # K t^e against gq s^-e sums to r^-e times the far field sum S: the FFT's
    # rounding, about eps |K t^e| |gq s^-e| r^e in S, is small against S
    # for e = 1 - q at r below u's mass (t > 1 dominates, K ~ t^(q-1)) and
    # for e = -1 above it (t < 1 dominates, K ~ t); each radius takes the
    # pass with the smaller bound (q = 0 for log)
    q = 0.0 if kernel.log else kernel.q
    powers = (1.0 - q, -1.0)
    src = [gq * s7 ** -e for e in powers]
    src_norm = np.array([np.linalg.norm(x) for x in src])
    src_fft = [np.fft.rfft(x, n=L, axis=0) for x in src]
    spec = np.empty((2, L // 2 + 1, 3), complex)
    ker_norm2 = np.zeros(2)
    circ = np.zeros((L, 7))
    offset = rho ** -np.arange(1 - M, M)[:, None]
    # one node of cell I at a time, in place, keeps the temporaries small
    for node, tau in enumerate(_cell_points(rho, _GX3)):
        t = offset * (_cell_points(rho, _GX7) / tau)
        plus, minus = 1.0 + t, 1.0 - t
        np.abs(minus, out=minus)
        plus[near_p[:, node]] = 1.0
        minus[near_m[:, node]] = 1.0
        if kernel.log:
            np.log(plus, out=plus)
            np.log(minus, out=minus)
        else:
            np.power(plus, q, out=plus)
            np.power(minus, q, out=minus)
        plus[near_p[:, node]] = 0.0
        minus[near_m[:, node]] = 0.0
        plus -= minus
        ker = minus
        for i, e in enumerate(powers):
            np.multiply(np.power(t, e, out=ker), plus, out=ker)
            ker_norm2[i] += np.vdot(ker, ker)
            circ[:M], circ[L - M + 1:] = ker[M - 1:], ker[:M - 1]
            spec[i, :, node] = np.einsum("fq,fq->f", np.fft.rfft(circ, axis=0), src_fft[i])
    conv = np.fft.irfft(spec, n=L, axis=1)[:, :M].reshape(2, -1)
    bound = np.sqrt(ker_norm2) * src_norm
    far = np.where(bound[0] * r ** powers[0] <= bound[1] * r ** powers[1],
                   *(c * r ** (q + e) for c, e in zip(conv, powers)))
    return kernel.scale * far


def _offset_pairs(near: np.ndarray, M: int, start: int, stop: int):
    """(node index 3I + p, cell J) of every pair with cell I in [start, stop)
    that an offset mask of ``_offset_near_sets`` marks."""
    m, p = np.nonzero(near)
    I = np.arange(start, min(M, stop))[:, None]
    J = I - (m + 1 - M)
    keep = (J >= 0) & (J < M)
    return np.broadcast_to(3 * I + p, keep.shape)[keep], J[keep]


def _tail_correction(kernel: RadialKernel3D, tail_profile: RadialProfile | None,
                     R: float, r: np.ndarray):
    """(2 pi / r) times the analytic s > R part of the integral, from every
    term of u's tail model; 0 without a tail model for u.  A term whose
    integral beyond R diverges is a NotInSpaceError."""
    terms = None if tail_profile is None else tail_profile.tail_terms()
    if not terms:
        return 0.0
    corr = np.zeros_like(r)
    # integrand beyond R: (s * u(s)) * ck r^(2k+1) s^pk with u ~ Au s^pu
    for kk, (ck, pk) in enumerate(kernel.tail_series()):
        for (Au, pu) in terms:
            expo = 1.0 + pu + pk
            if expo >= -1.0:
                raise NotInSpaceError(
                    f"the convolution's tail diverges: s^{expo:g} beyond the grid edge")
            corr += ck * Au * r ** (2 * kk + 1) * (-R ** (expo + 1.0) / (expo + 1.0))
    return 2.0 * np.pi / r * corr
