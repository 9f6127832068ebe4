"""Truncated Fourier series on the d-torus.

Elements are finitely supported maps from the mode lattice Z^d to
complex coefficients, i.e. trigonometric polynomials

    f(m) = sum_p c_p e(p . m),    e(t) = exp(2 pi i t),

with coordinates m taken mod 1.  This is the computable dense
subalgebra on which all deformed products, flows and norm estimates
in this package operate.  All values are immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxisError,
    DimensionMismatchError,
    TruncationOverflowError,
    UnderResolvedGridError,
)

#: Coefficients below this magnitude are dropped (double-precision noise floor).
PRUNE_TOL = 1e-14

#: Default hard cap on the max-norm radius of stored modes.  Operations that
#: could silently generate larger supports raise instead; deliberate
#: truncation (classical and Heisenberg evolution, pullback) reports discarded mass.
DEFAULT_MODE_CAP = 64

TWO_PI = 2.0 * np.pi


#: `_coalesce` sums on a dense array over the bounding box of the modes when
#: the box holds at most this many bins per row, and lexsorts the rows
#: otherwise.  At 2 bins per row the dense sum is 2.2-2.4x faster on 3k to
#: 200k random rows; at 3k-30k rows the two break even at 8-16 bins per row.
DENSE_BOX_FACTOR = 2

#: `_convolve` forms the pairs of a product on a dense box in blocks of
#: about this many: a slice of f's modes times all of g's.  At 2^12 pairs
#: a block's temporaries (about 72 bytes a pair) stay in glibc's malloc
#: from one block to the next; at 2^14 they went back to the system after
#: each block, and the benchmark's 843 x 843 generic sandwich product took
#: 7,600 page faults and 24 ms a call, against none and 22 ms (2-core
#: Xeon VM).
CONVOLVE_BLOCK = 2**12


def _bounds(modes):
    """Per-axis minima and maxima of nonempty mode rows, as Python ints.

    They are reduced along the rows of a transposed copy: numpy reduces
    an (n, d) array along axis 0 a few entries at a time, which took
    167 us at 4,000 x 2 rows against 9 us for the copy and its two
    reductions (2-core Xeon VM).
    """
    axes = np.ascontiguousarray(modes.T)
    return axes.min(axis=1).tolist(), axes.max(axis=1).tolist()


def _box(lo, hi):
    """Sides and size of the integer box [lo, hi], in Python ints so nothing overflows."""
    sides = [b - a + 1 for a, b in zip(lo, hi)]
    return sides, math.prod(sides)


def _box_keys(modes, lo, sides):
    """int64 keys of `modes` (shape (..., d)) ravelled over the box with corner `lo` and `sides`.

    The first coordinate is the most significant, so ascending keys are
    lexicographically ascending modes.  The box size must be below 2^63.
    """
    keys = modes[..., 0] - lo[0]
    for j in range(1, len(sides)):
        keys = keys * sides[j] + (modes[..., j] - lo[j])
    return keys


def _distinct(a):
    """The distinct entries of a 1-D array, or rows of a 2-D one, in ascending (lexicographic) order.

    This is `np.unique(a, axis=0)`, found by a sort and a compare of
    neighbours: numpy 2's plain `np.unique` imports `numpy.ma`, which a
    run pays for in resident memory (1.2 MB) though nothing else here
    loads it.
    """
    if a.ndim == 1:
        a = np.sort(a)
        differs = a[1:] != a[:-1]
    else:
        if a.shape[1]:
            a = a[np.lexsort(a.T[::-1])]
        differs = (a[1:] != a[:-1]).any(axis=1)
    keep = np.ones(a.shape[0], dtype=bool)
    keep[1:] = differs
    return a[keep]


def _box_terms(acc, lo, sides):
    """The nonzero bins of an accumulator `acc` over the box with corner `lo` and `sides`.

    Returns the modes and sums of the bins above `PRUNE_TOL`, in key
    order, which is the lexicographic order of the modes.
    """
    # empty bins hold exact zeros, which the pruning below drops anyway
    uniq = np.flatnonzero(acc)
    summed = acc[uniq]
    keep = np.abs(summed) > PRUNE_TOL
    modes = np.stack(np.unravel_index(uniq[keep], sides), axis=1) + lo
    return modes, summed[keep]


def _sum_box(keys, coeffs, lo, sides, size):
    """`_coalesce` on the `_box_keys` of rows in a box of `size` bins: modes and sums in key order.

    `np.add.at` sums every bin of the box from 0.0 in input order, and
    ascending bins are the sorted modes, so no sort runs.
    """
    acc = np.zeros(size, dtype=np.complex128)
    np.add.at(acc, keys, coeffs)
    return _box_terms(acc, lo, sides)


def _sum_lexsort(modes, coeffs):
    """`_coalesce` of nonempty rows by a lexsort: any box, however large."""
    n = modes.shape[0]
    order = np.lexsort(modes.T[::-1])  # stable; first coordinate is the primary key
    ordered = modes[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    summed = np.zeros(int(inverse[order[-1]]) + 1, dtype=np.complex128)
    np.add.at(summed, inverse, coeffs)
    keep = np.abs(summed) > PRUNE_TOL
    return ordered[starts][keep], summed[keep]


def _coalesce(dim, modes, coeffs):
    """Sum duplicate modes, prune tiny coefficients, sort lexicographically.

    Duplicates are summed in input order, so the result does not depend
    on how the sort breaks ties.  Rows whose bounding box holds at most
    `DENSE_BOX_FACTOR` bins per row are summed as 1-D keys over the box
    (`_sum_box`; such a box always has int64 keys); other rows are
    lexsorted.  Both give the same bits.
    """
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, dim)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    n = modes.shape[0]
    if n != coeffs.shape[0]:
        raise ValueError("modes and coeffs length mismatch")
    if n == 0:
        return modes, coeffs
    lo, hi = _bounds(modes)
    sides, size = _box(lo, hi)
    if size <= DENSE_BOX_FACTOR * n:
        return _sum_box(_box_keys(modes, lo, sides), coeffs, lo, sides, size)
    return _sum_lexsort(modes, coeffs)


def _prune(modes, coeffs):
    """`_coalesce` of rows that are already distinct and sorted: only the pruning.

    Adding 0.0 repeats the one addition a bin of `_coalesce` makes, which
    turns a -0.0 part into 0.0, so the bits match.
    """
    coeffs = coeffs + 0.0
    keep = np.abs(coeffs) > PRUNE_TOL
    return modes[keep], coeffs[keep]


def _row_blocks(n_f, n_g):
    """Bounds of the row blocks in which `_convolve` walks f: about `CONVOLVE_BLOCK` pairs each.

    A block holds at least two rows unless f has one mode, so a lone
    last row joins the block before it: numpy multiplies a one-row
    matrix by gemv, which can round the pairings of a non-integral J
    differently from the gemm of the whole (n_f, n_g) product; two or
    more rows take gemm and give the whole product's bits.
    """
    bounds = list(range(0, n_f, max(2, CONVOLVE_BLOCK // n_g))) + [n_f]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return zip(bounds, bounds[1:])


def _convolve(f, g, block_coeffs, cap, what):
    """The element sum over pairs (i, j) of c[i, j] e_{p_i + q_j}.

    p_i and q_j are the modes of f and g (either may be empty), and
    `block_coeffs(rows)` returns the rows c[rows, :] for a slice `rows`
    of f's modes; for the product's bits not to depend on the blocks, it
    must round each entry as it would round the whole c.  `_coalesce`'s
    size rule runs on the box of all sums
    p + q, which is the sum of the two bounding boxes.  On a dense box
    each pair's key is the sum of the two modes' keys, and f's modes
    are walked in `_row_blocks`: each block's pairs go straight into one
    complex accumulator over the box with `np.add.at`, which sums every
    bin from 0.0 in pair order, as one pass over all pairs would.  So
    memory is O(box + block), not O(n_f n_g), and no (n_f n_g, d) mode
    array is built.  A sparse box takes all pairs at once and lexsorts
    their modes.  Raises `TruncationOverflowError` when a mode that
    survives the pruning lies beyond `cap`; `what` names the product in
    the message.  The surviving modes are scanned for that only when the
    box of sums reaches beyond `cap`: a box inside it holds every sum.
    """
    if f.n_modes == 0 or g.n_modes == 0:
        return FourierElement.zero(f.dim)
    (f_lo, f_hi), (g_lo, g_hi) = _bounds(f.modes), _bounds(g.modes)
    lo = [a + b for a, b in zip(f_lo, g_lo)]
    hi = [a + b for a, b in zip(f_hi, g_hi)]
    sides, size = _box(lo, hi)
    if size <= DENSE_BOX_FACTOR * f.n_modes * g.n_modes:
        f_keys = _box_keys(f.modes, f_lo, sides)
        g_keys = _box_keys(g.modes, g_lo, sides)
        acc = np.zeros(size, dtype=np.complex128)
        for start, stop in _row_blocks(f.n_modes, g.n_modes):
            rows = slice(start, stop)
            keys = f_keys[rows, None] + g_keys[None, :]
            np.add.at(acc, keys.reshape(-1), block_coeffs(rows).reshape(-1))
        modes, coeffs = _box_terms(acc, lo, sides)
    else:
        modes = (f.modes[:, None, :] + g.modes[None, :, :]).reshape(-1, f.dim)
        coeffs = block_coeffs(slice(0, f.n_modes)).reshape(-1)
        modes, coeffs = _sum_lexsort(modes, coeffs)
    if max(map(abs, lo + hi)) > cap and modes.shape[0] and np.abs(modes).max() > cap:
        raise TruncationOverflowError(
            f"{what} support radius {np.abs(modes).max()} exceeds cap {cap}"
        )
    return FourierElement._raw(f.dim, modes, coeffs)


class FourierElement:
    """A trigonometric polynomial on T^d with sparse Fourier data.

    Parameters
    ----------
    dim : int
        Torus dimension d.
    terms : iterable of (mode, coefficient) or mapping, optional
        Modes are length-d integer tuples.  Duplicates are summed and
        coefficients below `PRUNE_TOL` are dropped; a coefficient that is
        not finite raises `ValueError`.
    """

    __slots__ = ("dim", "modes", "coeffs")

    def __init__(self, dim, terms=()):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if hasattr(terms, "items"):
            terms = list(terms.items())
        else:
            terms = list(terms)
        if terms:
            modes = [t[0] for t in terms]
            coeffs = [t[1] for t in terms]
        else:
            modes, coeffs = np.empty((0, dim), np.int64), np.empty(0, np.complex128)
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        modes, coeffs = _coalesce(dim, modes, coeffs)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "coeffs", coeffs)
        self.modes.setflags(write=False)
        self.coeffs.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("FourierElement is immutable")

    @classmethod
    def _raw(cls, dim, modes, coeffs):
        """Wrap arrays that are already coalesced, pruned and sorted."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "dim", int(dim))
        object.__setattr__(obj, "modes", modes)
        object.__setattr__(obj, "coeffs", coeffs)
        modes.setflags(write=False)
        coeffs.setflags(write=False)
        return obj

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim=2):
        return cls(dim)

    @classmethod
    def unit(cls, dim=2):
        """The multiplicative unit: c_0 = 1, no other modes."""
        return cls(dim, [((0,) * dim, 1.0)])

    @classmethod
    def character(cls, p, coeff=1.0):
        """The single mode e_p, optionally scaled."""
        p = tuple(int(x) for x in p)
        return cls(len(p), [(p, coeff)])

    @classmethod
    def from_literal(cls, literal, dim=2):
        """Build from the textual literal form: a list of [[p...], re, im].

        Every mode is a list of integers, all of one length, which is the
        dimension; an entry that is not an integer (1.5, true) raises
        `ValueError` rather than being rounded, as does a ragged mode list.
        """
        terms = []
        for entry in literal:
            p, re, im = entry
            if not all(isinstance(x, numbers.Integral) and not isinstance(x, bool) for x in p):
                raise ValueError(f"mode entries must be integers: {p!r}")
            terms.append((tuple(int(x) for x in p), complex(re, im)))
        if terms:
            dim = len(terms[0][0])
        return cls(dim, terms)

    def to_literal(self):
        """Serialize to the canonical [[p...], re, im] list form."""
        return [
            [[int(x) for x in p], float(c.real), float(c.imag)]
            for p, c in zip(self.modes, self.coeffs)
        ]

    # -- basic queries ------------------------------------------------

    @property
    def n_modes(self):
        return self.modes.shape[0]

    def support_radius(self):
        """Max-norm radius of the support (0 for the zero element)."""
        if self.n_modes == 0:
            return 0
        return int(np.abs(self.modes).max())

    def coefficient(self, p):
        p = np.asarray(p, dtype=np.int64)
        hit = np.all(self.modes == p, axis=1)
        idx = np.nonzero(hit)[0]
        return complex(self.coeffs[idx[0]]) if idx.size else 0.0j

    def l1(self):
        return float(np.abs(self.coeffs).sum())

    def l2(self):
        return float(np.sqrt((np.abs(self.coeffs) ** 2).sum()))

    def is_real(self, tol=1e-10):
        """True iff c_{-p} = conj(c_p) for all p, i.e. f is real-valued."""
        diff = self - self.star()
        return diff.l1() <= tol

    def __eq__(self, other):
        if not isinstance(other, FourierElement):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.modes.shape == other.modes.shape
            and np.array_equal(self.modes, other.modes)
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.dim, self.modes.tobytes(), self.coeffs.tobytes()))

    def __repr__(self):
        terms = ", ".join(
            f"{tuple(int(x) for x in p)}: {c:.6g}"
            for p, c in zip(self.modes[:8], self.coeffs[:8])
        )
        more = "" if self.n_modes <= 8 else f", ... ({self.n_modes} modes)"
        return f"FourierElement(d={self.dim}, {{{terms}{more}}})"

    # -- linear structure ---------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        if not isinstance(other, FourierElement):
            return NotImplemented
        self._check_dim(other)
        modes = np.concatenate([self.modes, other.modes])
        coeffs = np.concatenate([self.coeffs, other.coeffs])
        return FourierElement._raw(self.dim, *_coalesce(self.dim, modes, coeffs))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if isinstance(scalar, FourierElement):
            return NotImplemented
        c = complex(scalar)
        if not cmath.isfinite(c):
            raise ValueError("scalar must be finite")
        return FourierElement._raw(self.dim, *_prune(self.modes, self.coeffs * c))

    __rmul__ = __mul__

    # -- algebra ------------------------------------------------------

    def star(self):
        """Involution f*: coefficients conj(c_{-p}) at mode p."""
        # negation reverses the lexicographic order of the modes
        return FourierElement._raw(
            self.dim, *_prune(-self.modes[::-1], np.conj(self.coeffs[::-1]))
        )

    def eval_at(self, points):
        """Evaluate sum_p c_p e(p . m) at each point (coordinates mod 1).

        Parameters
        ----------
        points : array_like, shape (..., d)

        Returns
        -------
        ndarray of complex, shape (...)
        """
        pts = np.asarray(points, dtype=np.float64)
        squeeze = pts.ndim == 1
        pts = pts.reshape(-1, self.dim)
        if self.n_modes == 0:
            vals = np.zeros(pts.shape[0], dtype=np.complex128)
        else:
            phases = np.exp(2j * np.pi * (pts @ self.modes.T))
            vals = phases @ self.coeffs
        return vals[0] if squeeze else vals

    def truncate(self, radius):
        """Drop modes with |p|_inf > radius; return (element, dropped l1 mass)."""
        if self.n_modes == 0:
            return self, 0.0
        keep = np.abs(self.modes).max(axis=1) <= radius
        dropped = float(np.abs(self.coeffs[~keep]).sum())
        return FourierElement._raw(self.dim, self.modes[keep], self.coeffs[keep]), dropped


def pointwise_mul(f, g, cap=DEFAULT_MODE_CAP):
    """Undeformed product f . g as convolution of coefficient maps.

    Exact on trigonometric polynomials.  Raises
    `TruncationOverflowError` if the result support exceeds `cap`.
    """
    f._check_dim(g)
    return _convolve(f, g, lambda rows: f.coeffs[rows, None] * g.coeffs[None, :], cap, "product")


def partial_derivative(f, axis):
    """Coordinate derivative along `axis` (0-based): c_p -> 2 pi i p_axis c_p."""
    if not 0 <= axis < f.dim:
        raise AxisError(f"axis {axis} out of range for d={f.dim}")
    coeffs = f.coeffs * (2j * np.pi * f.modes[:, axis])
    return FourierElement._raw(f.dim, *_prune(f.modes, coeffs))


@dataclass(frozen=True)
class SeminormReport:
    """Result of a derivative seminorm computation.

    `grid_sup` is the supremum over a sampling grid of the pointwise
    norm of the symmetric k-linear derivative form; `l1_majorant` is
    the rigorous upper bound sum |c_p| (2 pi |p|_2)^k, which always
    dominates the grid value.
    """

    order: int
    grid_sup: float
    l1_majorant: float


def _uniform_grid(dim, resolution):
    axes = [np.arange(resolution) / resolution] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _derivative_form_sup(f, k, points):
    """Sup over `points` of the norm of the k-th derivative form of f."""
    n = points.shape[0]
    if f.n_modes == 0:
        return 0.0
    phases = np.exp(2j * np.pi * (points @ f.modes.T))  # (n, m)
    if k == 0:
        return float(np.abs(phases @ f.coeffs).max())
    if k == 1:
        # gradient vectors g(m) = sum c_p (2 pi i) p e(p.m); the norm of the
        # real-linear functional X -> g.X is the top singular value of the
        # stacked real/imaginary parts.
        grad = phases @ (f.coeffs[:, None] * (2j * np.pi * f.modes))  # (n, d)
        stacked = np.stack([grad.real, grad.imag], axis=1)  # (n, 2, d)
        svals = np.linalg.svd(stacked, compute_uv=False)
        return float(svals[:, 0].max())
    if k == 2:
        outer = f.modes[:, :, None] * f.modes[:, None, :]  # (m, d, d)
        weighted = f.coeffs[:, None, None] * ((2j * np.pi) ** 2) * outer
        hess = np.tensordot(phases, weighted, axes=([1], [0]))  # (n, d, d)
        svals = np.linalg.svd(hess, compute_uv=False)
        return float(svals[:, 0].max())
    # k >= 3: Banach-style diagonal supremum over a fixed fan of unit
    # directions; exact in the sampling limit for real symmetric forms.
    if f.dim == 2:
        angles = np.linspace(0.0, np.pi, 512, endpoint=False)
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    else:
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((512, f.dim))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    proj = f.modes @ dirs.T  # (m, ndirs)
    weighted = f.coeffs[:, None] * ((2j * np.pi) ** k) * proj**k
    vals = phases @ weighted  # (n, ndirs)
    return float(np.abs(vals).max())


def seminorm(f, k, grid):
    """Derivative seminorm sup_m ||(D^k f)_m|| with an l1 certificate.

    Parameters
    ----------
    f : FourierElement
    k : int
        Derivative order, k >= 0.
    grid : int
        Per-axis sampling resolution; must be at least
        2 * (max mode magnitude) + 1 to avoid aliasing.
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    radius = f.support_radius()
    if grid < 2 * radius + 1:
        raise UnderResolvedGridError(
            f"grid {grid} under-resolves support radius {radius}"
        )
    points = _uniform_grid(f.dim, grid)
    grid_sup = _derivative_form_sup(f, k, points)
    p_norm = np.linalg.norm(f.modes, axis=1) if f.n_modes else np.zeros(0)
    l1_majorant = float((np.abs(f.coeffs) * (TWO_PI * p_norm) ** k).sum())
    return SeminormReport(order=k, grid_sup=grid_sup, l1_majorant=l1_majorant)
