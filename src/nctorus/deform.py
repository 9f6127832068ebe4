"""The deformed product on Fourier modes.

The oscillatory-integral product collapses exactly on characters to a
cocycle-twisted convolution:

    e_p x_h e_q = e(-hbar p . (J q)) e_{p+q},    e(t) = exp(2 pi i t),

so products of trigonometric polynomials are computed exactly as sparse
double loops over supports, never by discretizing the integral.  The
Poisson bracket and the scaled-commutator residual that drives the
classical-limit analysis live here as well, and so does the one
generator of both evolutions: F -> (pi/(i hbar)) [H, F]_h as a numpy
gather operator on a finite mode set, whose hbar = 0 limit is the
Liouville operator F -> {H, F}.  `evolve` applies its exponential with a
Chebyshev-Bessel series, for the quantum flow and the classical
transport alike.  Only the generator's weights depend on hbar, so
`_generator` builds the operators of several hbar as the rows of one
block in one call, their sines by the rule of the product's phases
(`_on_pairings`), and `_evolve_column` evolves one f for those hbar at
one t: one mode set, one gather layout and one recurrence, each row the
result `evolve` gives for its hbar alone, to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatchError, RealityError
from .lattice import (
    DEFAULT_MODE_CAP,
    FourierElement,
    _box_keys,
    _convolve,
    _distinct,
    _prune,
    partial_derivative,
    pointwise_mul,
)


@dataclass(frozen=True)
class SymplecticStructure:
    """Real skew-symmetric d x d matrix defining bracket and deformation.

    Inputs are antisymmetrized at construction; matrices violating
    skewness beyond 1e-12 are rejected.  Degenerate J is permitted.
    Whether every entry is an integer, which makes every pairing
    p . (J q) of modes one, is recorded once for `deformed_mul`.
    """

    J: np.ndarray = field()
    _integral: bool = field(repr=False, compare=False)

    def __init__(self, J):
        J = np.asarray(J, dtype=np.float64)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValueError("J must be a square matrix")
        defect = np.abs(J + J.T).max()
        if defect > 1e-12:
            raise ValueError(f"J is not skew-symmetric (defect {defect:.3g})")
        J = 0.5 * (J - J.T)
        J.setflags(write=False)
        object.__setattr__(self, "J", J)
        integral = np.isfinite(J).all() and (J == np.round(J)).all()
        object.__setattr__(self, "_integral", bool(integral))

    @classmethod
    def standard(cls, dim=2):
        """Block [[0, 1], [-1, 0]] structure (dim must be even)."""
        if dim % 2:
            raise ValueError("standard symplectic structure needs even dim")
        J = np.zeros((dim, dim))
        for i in range(0, dim, 2):
            J[i, i + 1] = 1.0
            J[i + 1, i] = -1.0
        return cls(J)

    @property
    def dim(self):
        return self.J.shape[0]

    def __eq__(self, other):
        if not isinstance(other, SymplecticStructure):
            return NotImplemented
        return np.array_equal(self.J, other.J)


@dataclass(frozen=True)
class PlanckParam:
    """The deformation scale hbar; hbar = 0 selects the undeformed product."""

    hbar: float

    def __post_init__(self):
        if not np.isfinite(self.hbar):
            raise ValueError("hbar must be finite")


def _as_hbar(hbar):
    """hbar as a float; like `PlanckParam`, a non-finite value raises `ValueError`."""
    return (hbar if isinstance(hbar, PlanckParam) else PlanckParam(float(hbar))).hbar


def cocycle(p, q, hbar, J):
    """The twisting phase e(-hbar p . (J q)); unit modulus to roundoff."""
    h = _as_hbar(hbar)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.shape[-1] != J.dim:
        raise DimensionMismatchError("mode/structure dimension mismatch")
    return complex(np.exp(-2j * np.pi * h * (p @ (J.J @ q))))


def _table_fits(lo, hi, size):
    """Whether a table of the integers of [lo, hi] is exact in int64 (|lo|, |hi| < 2^53) and holds at most `size`."""
    return max(abs(lo), abs(hi)) < 2**53 and hi - lo + 1 <= size


def _on_pairings(fn, J, n_pairs):
    """`fn` of the pairings k = p . (J q) of one product's blocks, as a function of a block's pairings.

    `deformed_mul` takes its phases and `_generator` its sines by it;
    the generator's pairings are one block.

    For an integral J the product keeps one table of `fn` on the
    integers of a range [lo, hi]; the first block builds it on its own
    range, a block whose pairings fall outside it rebuilds it on the
    union, and the entries gather from it by `pairing - lo`.  A block
    whose union with the table is not `_table_fits` for the product's
    `n_pairs` pairs, and every block of a non-integral J, runs `fn` once
    per pair.  Every entry is `fn` of the same float argument either
    way, so the values are the same bits, up to the sign of a zero that
    `fn` makes of a pairing of -0.0; sums that start from 0.0 drop that
    sign.
    """
    if not J._integral:
        return fn
    lo, values = 0, None

    def on_block(pairing):
        nonlocal lo, values
        k_lo, k_hi = pairing.min(), pairing.max()
        if values is not None:
            k_lo, k_hi = min(k_lo, lo), max(k_hi, lo + values.size - 1)
        if not _table_fits(k_lo, k_hi, n_pairs):
            return fn(pairing)
        if values is None or k_lo < lo or k_hi >= lo + values.size:
            lo, values = int(k_lo), fn(np.arange(k_lo, k_hi + 1, dtype=np.float64))
        return values[pairing.astype(np.int64) - lo]

    return on_block


def deformed_mul(f, g, hbar, J, cap=DEFAULT_MODE_CAP):
    """The deformed product f x_h g as a twisted convolution.

    Bilinear and exact on trigonometric polynomials; at hbar = 0 it
    coincides with the pointwise product.  `_convolve` asks for the pair
    coefficients one block of f's modes at a time; each block forms its
    pairings k, its phases exp(-2 pi i hbar k) by `_on_pairings` (one
    table for the whole product, or one exp per pair; both give the same
    bits) and its coefficients by the broadcast expression of the whole
    (n_f, n_g) product on a row slice.  numpy's complex multiply may round
    differently by loop shape (FMA), and that expression gives each pair
    the bits it has in the whole product.
    """
    f._check_dim(g)
    if f.dim != J.dim:
        raise DimensionMismatchError("element/structure dimension mismatch")
    h = _as_hbar(hbar)
    if f.n_modes == 0 or g.n_modes == 0:
        return FourierElement.zero(f.dim)
    f_J, g_T = f.modes @ J.J, g.modes.T
    phases = _on_pairings(lambda k: np.exp(-2j * np.pi * h * k), J, f.n_modes * g.n_modes)

    def block_coeffs(rows):
        pairing = f_J[rows] @ g_T  # p . (J q) for the modes p of f in `rows`
        return f.coeffs[rows, None] * g.coeffs[None, :] * phases(pairing)

    return _convolve(f, g, block_coeffs, cap, "deformed product")


def commutator(f, g, hbar, J, cap=DEFAULT_MODE_CAP):
    """[f, g]_h = f x_h g - g x_h f."""
    return deformed_mul(f, g, hbar, J, cap) - deformed_mul(g, f, hbar, J, cap)


def poisson_bracket(f, g, J, cap=DEFAULT_MODE_CAP):
    """{f, g} = sum_jk J_jk (d_j f)(d_k g); on modes -4 pi^2 (p.Jq) e_{p+q}."""
    f._check_dim(g)
    out = FourierElement.zero(f.dim)
    dfs = [partial_derivative(f, j) for j in range(f.dim)]
    dgs = [partial_derivative(g, k) for k in range(g.dim)]
    for j in range(f.dim):
        for k in range(f.dim):
            Jjk = J.J[j, k]
            if Jjk == 0.0:
                continue
            out = out + Jjk * pointwise_mul(dfs[j], dgs[k], cap=cap)
    return out


def scaled_commutator_residual(H, g, hbar, J, cap=DEFAULT_MODE_CAP):
    """(pi / (i hbar)) [H, g]_h - {H, g}.

    The antisymmetrized residual whose smallness drives the classical
    limit; on fixed single-mode pairs its size decays like hbar^2.
    Requires hbar != 0.
    """
    h = _as_hbar(hbar)
    if h == 0.0:
        raise ZeroDivisionError("scaled commutator residual needs hbar != 0")
    scaled = (np.pi / (1j * h)) * commutator(H, g, h, J, cap)
    return scaled - poisson_bracket(H, g, J, cap)


def one_sided_residual(F, g, hbar, J, cap=DEFAULT_MODE_CAP):
    """(2 pi / (i hbar)) (F x_h g - F g) - {F, g}.

    The one-sided variant of the residual; decays like hbar^1 on fixed
    elements, one order slower than the antisymmetrized version.
    """
    h = _as_hbar(hbar)
    if h == 0.0:
        raise ZeroDivisionError("one-sided residual needs hbar != 0")
    diff = deformed_mul(F, g, h, J, cap) - pointwise_mul(F, g, cap=cap)
    return (2.0 * np.pi / (1j * h)) * diff - poisson_bracket(F, g, J, cap)


@dataclass(frozen=True)
class EvolutionResult:
    """An evolved element plus truncation accounting.

    `steps` is the solver's work count: propagator substeps or terms of
    an exponential series.
    """

    element: FourierElement
    discarded_mass: float
    steps: int


def _mode_keys(modes, radius):
    """1-D keys of modes with |m|_inf <= radius, in lexicographic order.

    A mode is offset by `radius` and ravelled over the (2 radius + 1)^d
    box with its first coordinate most significant.
    """
    d = modes.shape[-1]
    side = 2 * radius + 1
    if side**d >= 2**63:
        raise ValueError(f"mode box of radius {radius} in d={d} overflows 64-bit keys")
    return _box_keys(modes, (-radius,) * d, (side,) * d)


def _in_sorted(keys, sorted_keys):
    """Membership of each of `keys` in the sorted array `sorted_keys`."""
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    at = np.searchsorted(sorted_keys, keys).clip(max=sorted_keys.size - 1)
    return sorted_keys[at] == keys


def _chain_ranges(modes, shift, radius):
    """The least and greatest k with |m + k shift|_inf <= radius, for each row m of `modes`.

    The box is convex, so these k form one range, which holds 0 for a
    mode inside the box.  Per axis with s = shift_a != 0 and u =
    sign(s) m_a, the range is ceil((-radius - u) / |s|) <=
    k <= floor((radius - u) / |s|); axes with s = 0 bound nothing.
    """
    moving = shift != 0
    size = np.abs(shift[moving])
    u = np.sign(shift[moving]) * modes[:, moving]
    lo = -((radius + u) // size)
    hi = (radius - u) // size
    return lo.max(axis=1), hi.min(axis=1)


def _reachable_modes(start, shifts, radius):
    """Modes reachable from `start` by adding rows of `shifts`, inside |m|_inf <= radius.

    `start` must lie inside the box.  When no shift moves an axis a
    without a unit step +-e_a among the shifts, the set is the box's
    range on the other, free axes times the distinct projections of
    `start` off them (a line, or the whole box), built with no search.
    Every other set is closed chain by chain.  Reachability is symmetric
    once the shifts are closed under negation, so each pair +-s is kept
    once, and the zero shift is dropped.  As the box is convex, the
    modes m + k s inside it form one contiguous chain of k
    (`_chain_ranges`), so closing a mode under +-s adds its whole chain
    at once.  Each round expands, for every new mode and every shift,
    the chain through the mode unless that chain, named by the key of
    its first point in the box, was already expanded; it stops when a
    round adds no mode.  The rounds count the changes of direction a
    path needs, not its length, and the work and memory are O(modes x
    shifts): no array spans the (2 radius + 1)^d box.  Modes are handled
    as `_mode_keys`.  Both ways return int64 rows in lexicographic
    order.
    """
    d = start.shape[1]
    box = (2 * radius + 1,) * d
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, d)
    free = shifts[np.abs(shifts).sum(axis=1) == 1].any(axis=0)  # the axes of the rows +-e_a
    if start.shape[0] and not shifts[:, ~free].any():
        # keys are linear: each start's off-axis key plus the free axes' keys,
        # in order for one start; several are sorted (numpy's first sort
        # maps about 0.4 MB of its code, which a lone line does not need)
        off = _mode_keys(np.where(free, -radius, start), radius)
        one = (off == off[0]).all()
        keys = off[:1] if one else _distinct(off)
        for step in _box_keys(np.eye(d, dtype=np.int64)[free], (0,) * d, box):
            keys = (keys[:, None] + np.arange(2 * radius + 1) * step).ravel()
        return np.stack(np.unravel_index(keys if one else np.sort(keys), box), axis=1) - radius
    shifts = shifts[shifts.any(axis=1)]
    # the representative of +-s whose first nonzero entry is positive
    lead = shifts[np.arange(shifts.shape[0]), (shifts != 0).argmax(axis=1)]
    shifts = _distinct(shifts * np.sign(lead)[:, None])
    # keys are linear in the mode, so m + k s has the key key(m) + k key(s) inside the box
    steps = _box_keys(shifts, (0,) * d, box)
    keys = front = _distinct(_mode_keys(start, radius))
    expanded = [keys[:0]] * shifts.shape[0]  # sorted first-point keys of each shift's chains
    while front.size:
        modes = np.stack(np.unravel_index(front, box), axis=1) - radius
        chains = [front[:0]]
        for j, (s, step) in enumerate(zip(shifts, steps)):
            lo, hi = _chain_ranges(modes, s, radius)
            first, at = np.unique(front + lo * step, return_index=True)
            new = ~_in_sorted(first, expanded[j])
            first, at = first[new], at[new]
            expanded[j] = np.sort(np.concatenate([expanded[j], first]))
            length = hi[at] - lo[at] + 1
            k = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length, length)
            chains.append(np.repeat(first, length) + k * step)
        found = _distinct(np.concatenate(chains))
        front = found[~_in_sorted(found, keys)]
        keys = np.sort(np.concatenate([keys, front]))
    return np.stack(np.unravel_index(keys, box), axis=1) - radius


class _GatherOperator:
    """A block of m linear maps on coefficient vectors over n modes, one per row.

    (A x)_i[j] = sum_k weight[k, i, j] x_i[source[k, j]]: `source` is a
    (terms, n) array that the rows share and `weight` a (terms, m, n)
    one; a slot with no term carries weight 0.  A vector of the block is
    flat, row i at [i n, (i + 1) n), so A is the block-diagonal map
    diag(A_1, ..., A_m) on m n entries, and each term's weights are one
    flat vector too.  Each entry of A x is summed from 0.0 over k in term
    order, so the terms fix the rounding, and for finite x a slot of
    weight 0 adds nothing to it.  So a term of zeros in every row is
    skipped, and a term whose nonzero slots j all read x_i at j - o for
    one offset o reads the flat x as one shifted slice over the block
    instead of gathering it (the slots it reads across a row boundary
    have weight 0); on a box or a line of modes every term does.  Row i
    of A x is thus A_i x_i to the bit, whatever the other rows hold.
    Each product is rounded as a compiled loop rounds (ar br - ai bi, ar
    bi + ai br): numpy's complex multiply may fuse one of its two
    products into the other, which is exact when the weight has a zero
    real or imaginary part, so a term with weights of both parts nonzero
    is applied as the sum of its real and imaginary parts.  `bind` makes
    A's views of one pair of flat buffers once, and `matvec` is one
    bound call.  Both work in buffers of the operator, so an operator
    serves one caller at a time.
    """

    def __init__(self, source, weight, layout=None):
        self.source = source
        self.weight = weight
        if layout is None:
            # (term, offset or None for a gather, split) of each term nonzero in some row
            layout = []
            slots = np.arange(weight.shape[2])
            for k, (src, w) in enumerate(zip(source, weight)):
                live = (w != 0.0).any(axis=0)
                if not live.any():
                    continue
                offsets = slots[live] - src[live]
                o = int(offsets[0]) if offsets.min() == offsets.max() else None
                layout.append((k, o, not np.all((w.real == 0.0) | (w.imag == 0.0))))
        self._layout = layout
        self._terms = None  # built by the first `bind`

    def _flat_terms(self):
        """(span, read, re, im, gathered, imag_part) of each term of the layout, over the flat block."""
        _, m, n = self.weight.shape
        self._gathered = np.empty(m * n, dtype=self.weight.dtype)
        self._imag_part = np.empty(m * n, dtype=self.weight.dtype)
        terms = []
        for k, o, split in self._layout:
            if o is None:
                span, read = slice(0, m * n), (self.source[k] + n * np.arange(m)[:, None]).ravel()
            else:
                span = slice(max(o, 0), m * n + min(o, 0))
                read = slice(span.start - o, span.stop - o)
            w = self.weight[k].reshape(-1)[span]
            re, im = (w.real.astype(w.dtype), 1j * w.imag) if split else (w, None)
            terms.append((span, read, re, im, self._gathered[span], self._imag_part[span]))
        return terms

    def bind(self, x, out):
        """A function of no arguments that writes A x into `out`, reading x as it is then and allocating nothing.

        Outputs go by position: parsing `out=` costs a sixth of a call this small.
        """
        if self._terms is None:
            self._terms = self._flat_terms()
        steps = [
            (x[read] if isinstance(read, slice) else None, read, re, im, g, h, out[span])
            for span, read, re, im, g, h in self._terms
        ]

        def apply():
            out.fill(0.0)
            for xs, read, re, im, g, h, acc in steps:
                if xs is None:
                    xs = np.take(x, read, out=g, mode="clip")
                if im is not None:
                    np.multiply(xs, im, h)
                np.multiply(xs, re, g)
                if im is not None:
                    np.add(g, h, g)
                np.add(acc, g, acc)

        return apply

    def matvec(self, x, out=None):
        """A x for a flat block x, written into `out` when given; with `out`, no array is allocated."""
        if out is None:
            _, m, n = self.weight.shape
            out = np.empty(m * n, dtype=self.weight.dtype)
        self.bind(x, out)()
        return out

    def column_l1(self):
        """The l1 norm of each column of the block, flat, each summed from 0.0 over the terms in reverse order.

        For a `_generator` block that is ascending row order, as in CSR.
        """
        _, m, n = self.weight.shape
        index = self.source[::-1, None, :] + n * np.arange(m)[:, None]
        return np.bincount(index.ravel(), np.abs(self.weight[::-1]).ravel(), minlength=m * n)

    def scaled(self, factor):
        """The block with row i times factor[i], for real factors (or one for every row).

        The copy shares `source` and the layout of A.  A real factor
        scales each part of a weight on its own, so the parts of a split
        term scale to the parts of the scaled term.
        """
        factor = np.broadcast_to(np.asarray(factor, dtype=np.float64), self.weight.shape[1:2])
        return _GatherOperator(self.source, self.weight * factor[:, None], self._layout)

    def take(self, rows):
        """The block of rows `rows` (an index array, or a slice, which copies nothing) of A.

        It shares the layout of A: a term that is zero in every row taken
        adds nothing.
        """
        return _GatherOperator(self.source, self.weight[:, rows], self._layout)

    def toarray(self):
        """The block-diagonal A as a dense (m n, m n) array."""
        _, m, n = self.weight.shape
        rows = n * np.arange(m)[:, None]
        dense = np.zeros((m * n, m * n), dtype=self.weight.dtype)
        np.add.at(dense, (np.arange(n) + rows, self.source[:, None, :] + rows), self.weight)
        return dense


def _generator(H, J, modes, hbars):
    """F -> (pi/(i hbar)) [H, F]_h on coefficient vectors over `modes`, row i of the block at hbars[i].

    `modes` must be nonempty and sorted lexicographically.  The column
    of mode r holds c_p w(p, r) in the row of r + p for each mode p of H,
    with w(p, r) = -(2 pi/hbar) sin(2 pi hbar p.Jr), or its hbar = 0
    limit w_0(p, r) = -4 pi^2 p.Jr, which makes the operator the
    Liouville operator F -> {H, F}; targets outside `modes` and entries
    with w = 0 are left out.  For real H the operator is anti-Hermitian.

    Only w depends on hbar: for each target mode m and each mode p of H
    the source r = m - p, whether r lies outside `modes`, and the
    pairing p.Jr are found once for every row.  The sines of each hbar
    come from `_on_pairings`, the rule of the product's phases: a table
    over the integer pairings of an integral J, else one `np.sin` per
    pair, with the same bits either way.  Term k of the
    `_GatherOperator` is mode p_k of H, taken in reverse: row m then
    sums its sources m - p_k in ascending (lexicographic) order, and a
    column sums its targets r + p_k in ascending order too, which is the
    order of a canonical compressed sparse matrix, so the matvec and the
    column norms are those of one to the bit.  A slot whose source lies
    outside `modes`, or whose entry has w = 0, has weight 0 (up to
    sign), which adds nothing to a sum that starts from 0.0.
    """
    n, d = modes.shape
    # a key box wide enough for every source, so keys never wrap
    radius = int(np.abs(modes).max()) + H.support_radius()
    mode_keys = _mode_keys(modes, radius)
    # keys are linear in the mode, so the source r - p of mode r has the key key(r) - key(p)
    shifts = _box_keys(H.modes[::-1], (0,) * d, (2 * radius + 1,) * d)
    source_keys = mode_keys[None, :] - shifts[:, None]
    source = np.searchsorted(mode_keys, source_keys).clip(max=n - 1)
    missing = mode_keys[source] != source_keys
    # p . (J r) of each slot's mode p of H and source r
    pairing = np.take_along_axis(((H.modes @ J.J) @ modes.T)[::-1], source, axis=1)
    shape = np.empty((pairing.shape[0], len(hbars), n))
    scale = np.empty(len(hbars))
    for i, hbar in enumerate(hbars):
        if hbar == 0.0:
            shape[:, i], scale[i] = pairing, -4.0 * np.pi**2
        else:
            sines = _on_pairings(lambda k: np.sin(2.0 * np.pi * hbar * k), J, pairing.size)
            shape[:, i], scale[i] = sines(pairing), -2.0 * np.pi / hbar
    weight = H.coeffs[::-1, None, None] * scale[:, None] * shape
    np.copyto(weight, 0.0, where=missing[:, None, :])
    return _GatherOperator(source, weight)


def _evolution_plan(f, H, J, trunc_radius, hbars):
    """The set-up of the evolution of nonzero f at each hbar of `hbars`.

    Returns `(modes, L, v, outside)`: the modes reachable from supp f by
    adding modes of H within radius max(trunc_radius, radius of f) +
    4 rH (rH the support radius of H, at least 1), the `_generator` of
    H on them at `hbars`, f's coefficient vector over `modes`, and the
    indices of the modes with |r|_inf > trunc_radius, whose mass the
    caller discards.
    """
    reach = max(trunc_radius, f.support_radius()) + 4 * max(H.support_radius(), 1)
    modes = _reachable_modes(f.modes, H.modes, reach)
    L = _generator(H, J, modes, hbars)
    v = np.zeros(modes.shape[0], dtype=np.complex128)
    v[np.searchsorted(_mode_keys(modes, reach), _mode_keys(f.modes, reach))] = f.coeffs
    outside = np.flatnonzero(np.abs(modes).max(axis=1) > trunc_radius)
    return modes, L, v, outside


#: Bound on the l1 weight 2 sum_{k >= K} |J_k(t rho)| of the Chebyshev
#: terms `evolve` leaves out; each term has l2 norm <= ||f||_2.
CHEBYSHEV_TAIL = 1e-15

#: Largest series argument z = |t| ||L||_1 that `evolve` accepts; the
#: series runs about z terms, and `bessel_j` holds and loops over about
#: z floats (0.13 s at 1e5 on a 2-core Xeon VM).  The largest z reached
#: is 105 in the test suite, 79 in the acceptance scan, 39 in the
#: benchmark scans, 16 in the demos and 6 in the benchmark's generic
#: evolution.
MAX_SERIES_Z = 1e5


def _check_series_length(z):
    """Raise `ConfigError` unless the series argument z is at most `MAX_SERIES_Z`."""
    if not z <= MAX_SERIES_Z:
        raise ConfigError(
            f"evolution needs a series of length |t| ||L||_1 = {z:.3g}, "
            f"above the limit {MAX_SERIES_Z:.0e}; shorten t"
        )


def _column_l1(H, hbar, J, modes):
    """The l1 norm of the generator's column at each of `modes`, every target kept.

    The entries are those of `_generator`.  On the mode set of
    `_evolution_plan` the columns of supp f keep all their targets, so
    their largest norm is a lower bound on ||L||_1 that needs no mode set.
    """
    pairing = (H.modes @ J.J) @ modes.T
    if hbar == 0.0:
        w = 4.0 * np.pi**2 * np.abs(pairing)
    else:
        w = (2.0 * np.pi / abs(hbar)) * np.abs(np.sin(2.0 * np.pi * hbar * pairing))
    return np.abs(H.coeffs) @ w


def _check_hbar(hbar):
    """Raise `ConfigError` for a nonzero hbar so small that the generator's scale 2 pi/|hbar| overflows a float."""
    if hbar != 0.0 and not math.isfinite(2.0 * math.pi / abs(hbar)):
        raise ConfigError(f"hbar = {hbar!r} is too small: 2 pi/|hbar| overflows a float")


def check_evolution_time(f, H, hbar, t, J):
    """Raise `ConfigError` when `evolve(f, H, hbar, t, J)` would need a series past `MAX_SERIES_Z`.

    The test is |t| times the largest column l1 norm of the generator
    over supp f, a lower bound on the series argument of every mode
    set that `evolve` builds, so it needs no mode set.  A scan checks
    its largest t with it before computing any record.  A nonzero hbar
    so small that the generator's scale 2 pi/|hbar| overflows raises
    `ConfigError` too, whatever f and t (`_check_hbar`).
    """
    hbar = _as_hbar(hbar)
    _check_hbar(hbar)
    if f.n_modes:
        _check_series_length(abs(t) * _column_l1(H, hbar, J, f.modes).max())


def bessel_j(z):
    """J_0(z), ..., J_M(z) for z > 0 by Miller's backward recurrence.

    J_{k-1} = (2k/z) J_k - J_{k+1} runs down from J_{M+1} = 0, J_M = 1
    with M = z + 20 z^(1/3) + 30, past the Airy turning point at k ~ z
    far enough that the starting error is below roundoff; the result is
    normalised by J_0 + 2 sum_k J_2k = 1.  The recurrence runs on Python
    floats, the same double operations as on numpy scalars at a third of
    the cost; each row of an evolution block needs its own.
    """
    z = float(z)
    m = int(z + 20.0 * np.cbrt(z) + 30.0)
    j = [0.0] * (m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # only ratios matter before the normalisation
            j[k - 1 :] = [x * 1e-250 for x in j[k - 1 :]]
    j = np.array(j)
    return j[: m + 1] / (j[0] + 2.0 * j[2::2].sum())


def _chebyshev_propagate(L, v, t):
    """exp(t L_i) v for each row i of a block L of anti-Hermitian L_i: the rows of an (m, n) array.

    Also returns, per row, the number of series terms and the tail
    weight.  With rho = ||L_i||_1, which bounds the spectrum of the
    normal L_i, the Jacobi-Anger expansion (Tal-Ezer and Kosloff, J.
    Chem. Phys. 81, 1984) gives exp(t L_i) = J_0(z) + 2 sum_k J_k(z)
    psi_k(A), z = |t| rho, A = sign(t) L_i / rho, psi_0 = 1, psi_1 = A,
    psi_{k+1} = 2 A psi_k + psi_{k-1}; on the spectrum of A, psi_k(A) is
    i^k T_k of a Hermitian matrix of norm <= 1, so the recurrence is
    stable.  Row i stops at the first K_i whose tail weight 2 sum_{k >=
    K_i} |J_k(z)| is below `CHEBYSHEV_TAIL`; that weight bounds the l2
    norm of the omitted terms by weight * ||v||_2.  A row with z = 0 is
    v, with 0 terms.

    A's steps on the three rotating buffers are bound once per block
    size.  The 2 stays out of A's weights: there it changes the bits of
    a product that underflows, as an H coefficient 3 + 2.2e-308i shows.

    One recurrence advances the other rows, each with its own
    coefficients.  They are ordered by K_i, most first, and the block
    shrinks to the rows still running as each row reaches its K_i.  A
    row's arithmetic does not depend on the other rows, so each row is
    what a block of that row alone returns, to the bit, and the block
    does the work of the rows run one by one.
    """
    m, n = L.weight.shape[1:]
    rho = L.column_l1().reshape(m, n).max(axis=1, initial=0.0)
    z = abs(t) * rho
    for zi in z.tolist():
        _check_series_length(zi)
    out = np.empty((m, n), dtype=v.dtype)
    terms = np.zeros(m, dtype=np.int64)
    tails = np.zeros(m)
    coeffs = {}
    for i in range(m):
        if z[i] == 0.0:
            out[i] = v
            continue
        c = bessel_j(z[i])
        tail = 2.0 * np.cumsum(np.abs(c)[::-1])[::-1]
        terms[i] = max(int(np.argmax(tail <= CHEBYSHEV_TAIL)), 2)
        tails[i] = tail[terms[i]]
        coeffs[i] = c[: terms[i]]
    if not coeffs:
        return out, terms, tails
    order = np.argsort(-terms, kind="stable")[: len(coeffs)]  # the running rows, most terms first
    K = terms[order]
    first = np.array([coeffs[i][:1] for i in order.tolist()])
    # 2 J_k(z) of each running row, 0 past its last term; complex, as each product would cast it
    twice = np.zeros((K[0], order.size, 1), dtype=np.complex128)
    for j, i in enumerate(order.tolist()):
        twice[: K[j], j, 0] = 2.0 * coeffs[i]
    if not np.array_equal(order, np.arange(m)):
        L = L.take(order)
    A = L.scaled(math.copysign(1.0, t) / rho[order])
    psi = [np.empty((order.size, n), dtype=v.dtype) for _ in range(3)]  # psi_k in psi[k % 3]
    two = np.complex128(2.0)  # cast once
    psi[0][:] = v
    A.matvec(psi[0].reshape(-1), out=psi[1].reshape(-1))
    acc = first * psi[0] + twice[1] * psi[1]
    term = np.empty_like(acc)
    done, p = 2, order.size
    while True:
        stop = K[p - 1]  # the fewest terms of the rows still running
        rows = [buffer[:p] for buffer in psi]
        # term k: psi_k = 2 A psi_{k-1} + psi_{k-2}, in the buffer of psi_{k-3}
        rotation = [
            (A.bind(rows[k - 1].reshape(-1), rows[k].reshape(-1)), rows[k - 2], rows[k])
            for k in range(3)
        ]
        for k, c in enumerate(twice[done:stop, :p], done):
            apply, prev, nxt = rotation[k % 3]
            apply()
            nxt *= two
            nxt += prev
            np.multiply(nxt, c, term)
            acc += term
        done, q = stop, int(np.searchsorted(-K, -stop))
        out[order[q:p]] = acc[q:p]
        if q == 0:
            return out, terms, tails
        p = q
        A = A.take(slice(0, p))
        term, acc = term[:p], acc[:p]


def _evolve_column(f, H, hbars, t, J, trunc_radius=32):
    """`evolve(f, H, hbar, t, J, trunc_radius)` for each hbar of `hbars`, solved as one block.

    The evolutions share everything but the generator's weights: the
    mode set, its gather layout (`_evolution_plan`) and one Chebyshev
    recurrence (`_chebyshev_propagate`), each row with its own
    generator, series argument and number of terms.  Returns one
    `EvolutionResult` per hbar, each what `evolve` returns for it alone,
    to the bit; hbar = 0 gives the classical transport.  A t whose
    series would pass `MAX_SERIES_Z` at any hbar raises `ConfigError`
    before the mode set is built.  H must be real, and its callers check
    it: `evolve` on each call, `harness.egorov_error` on a lone record,
    and `ExperimentConfig` once for every column of a scan.
    """
    if f.n_modes == 0:
        return [EvolutionResult(element=f, discarded_mass=0.0, steps=0) for _ in hbars]
    hbars = [_as_hbar(h) for h in hbars]
    # refuse a runaway t before the mode set, which grows with the radius, is built
    for h in hbars:
        check_evolution_time(f, H, h, t, J)
    modes, L, v, outside = _evolution_plan(f, H, J, trunc_radius, hbars)
    V, terms, tails = _chebyshev_propagate(L, v, t)
    results = []
    for row, steps, tail in zip(V, terms.tolist(), tails.tolist()):
        discarded = float(np.abs(row[outside]).sum()) + math.sqrt(row.size) * tail * f.l2()
        row[outside] = 0.0
        element = FourierElement._raw(f.dim, *_prune(modes, row))
        results.append(EvolutionResult(element=element, discarded_mass=discarded, steps=steps))
    return results


def evolve(f, H, hbar, t, J, trunc_radius=32):
    """exp(t L_hbar) f: the quantum flow beta^h_t f, or at hbar = 0 the transport f o beta_t.

    L_hbar F = (pi/(i hbar)) [H, F]_h, and L_0 F = {H, F}, is built on
    the modes reachable from supp f by adding modes of H within radius
    max(trunc_radius, radius of f) + 4 rH (`_evolution_plan`), as a
    `_GatherOperator`: per mode, the indices and weights of its sources
    over the modes of H, summed in the order of a canonical sparse
    matrix, so the result is that of the sparse matrix to the bit.  It
    needs numpy only; no scipy module is loaded.  For real H it is
    anti-Hermitian, and its exponential is applied by a Chebyshev-Bessel
    series truncated below `CHEBYSHEV_TAIL`, with no step size and no
    randomness.  This is the one-row case of `_evolve_column`, which
    solves several hbar at one t as one block.  A series argument z =
    |t| ||L||_1 above `MAX_SERIES_Z` raises `ConfigError`; a t far past
    that limit, or an hbar whose 2 pi/|hbar| overflows, is refused
    before the mode set is built (`check_evolution_time`).  An H that fails
    the reality test raises `RealityError`, for f = 0 too.

    `discarded_mass` bounds, in l1 and hence in every C*-norm, what the
    result leaves out of exp(t L_hbar) f on the mode set: the l1 mass at
    time t on the modes with |r|_inf > trunc_radius, which is zeroed,
    plus sqrt(n) * tail * ||f||_2 for the omitted series terms (n modes,
    tail their l2 weight).  It does not bound the floating-point
    rounding of the recurrence: on the 12 acceptance records the result
    differs from the closed form by l1 9.5e-15 to 7.9e-14, against a
    reported 3.2e-15 to 1.3e-14.  `steps` is the number of series terms.
    """
    if not H.is_real():
        raise RealityError("Hamiltonian fails the reality test")
    return _evolve_column(f, H, (hbar,), t, J, trunc_radius)[0]

