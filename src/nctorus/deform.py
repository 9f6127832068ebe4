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
transport alike.
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
    _coalesce,
    _convolve,
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


def _table_range(pairing, J):
    """The range (lo, hi) of `pairing` if `_twist` may use a phase table, else None.

    For an integral J every pairing p . (J q) is an integer-valued float.
    The table applies when its range is exact in int64 (|lo|, |hi| <
    2^53) and holds no more integers than there are pairs.
    """
    if not J._integral:
        return None
    lo, hi = pairing.min(), pairing.max()
    if max(abs(lo), abs(hi)) < 2**53 and hi - lo + 1 <= pairing.size:
        return int(lo), int(hi)
    return None


def _twist(pairing, h, J):
    """The phases exp(-2 pi i h k) for the pairings k = p . (J q) in `pairing`.

    Inside `_table_range` one exp per integer of [lo, hi] is gathered by
    `pairing - lo`; otherwise one exp per pair.  The table gives every
    entry the exp of the same float argument as the per-pair exp, so the
    phases are the same bits, up to the sign of an imaginary zero at a
    pairing of -0.0, which the sums of `_convolve` drop.
    """
    table_range = _table_range(pairing, J)
    if table_range is None:
        return np.exp(-2j * np.pi * h * pairing)
    lo, hi = table_range
    table = np.exp(-2j * np.pi * h * np.arange(lo, hi + 1, dtype=np.float64))
    return table[pairing.astype(np.int64) - lo]


def deformed_mul(f, g, hbar, J, cap=DEFAULT_MODE_CAP):
    """The deformed product f x_h g as a twisted convolution.

    Bilinear and exact on trigonometric polynomials; at hbar = 0 it
    coincides with the pointwise product.
    """
    f._check_dim(g)
    if f.dim != J.dim:
        raise DimensionMismatchError("element/structure dimension mismatch")
    h = _as_hbar(hbar)
    if f.n_modes == 0 or g.n_modes == 0:
        return FourierElement.zero(f.dim)
    pairing = (f.modes @ J.J) @ g.modes.T  # (nf, ng) of p . (J q)
    coeffs = f.coeffs[:, None] * g.coeffs[None, :] * _twist(pairing, h, J)
    return _convolve(f, g, coeffs, cap, "deformed product")


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

    `start` must lie inside the box.  Reachability is symmetric once the
    shifts are closed under negation, so each pair +-s is kept once,
    and the zero shift is dropped.  As the box is convex, the modes m +
    k s inside it form one contiguous chain of k (`_chain_ranges`), so
    closing a mode under +-s adds its whole chain at once.  Each round
    expands, for every new mode and every shift, the chain through the
    mode unless that chain, named by the key of its first point in the
    box, was already expanded; it stops when a round adds no mode.  The
    rounds count the changes of direction a path needs, not its length,
    and the work and memory are O(modes x shifts): no array spans the
    (2 radius + 1)^d box.  Modes are handled as `_mode_keys` and
    returned as int64 rows in lexicographic order.
    """
    d = start.shape[1]
    box = (2 * radius + 1,) * d
    shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, d)
    shifts = shifts[shifts.any(axis=1)]
    # the representative of +-s whose first nonzero entry is positive
    lead = shifts[np.arange(shifts.shape[0]), (shifts != 0).argmax(axis=1)]
    shifts = np.unique(shifts * np.sign(lead)[:, None], axis=0)
    # keys are linear in the mode, so m + k s has the key key(m) + k key(s) inside the box
    steps = _box_keys(shifts, (0,) * d, box)
    keys = front = np.unique(_mode_keys(start, radius))
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
        found = np.unique(np.concatenate(chains))
        front = found[~_in_sorted(found, keys)]
        keys = np.sort(np.concatenate([keys, front]))
    return np.stack(np.unravel_index(keys, box), axis=1) - radius


class _GatherOperator:
    """A linear map on coefficient vectors: (A x)[i] = sum_k weight[k, i] x[source[k, i]].

    `source` and `weight` are (terms, n) arrays, one row per term; a
    slot with no term carries weight 0.  Each entry of A x is summed
    from 0.0 over k in row order, so the rows fix the rounding, and for
    finite x a slot of weight 0 adds nothing to it.  So a row of zeros
    is skipped, and a row whose nonzero slots i all read x at i - o for
    one offset o reads x as a shifted slice over those slots instead of
    gathering it; on a box or a line of modes every row does.  Each
    product is rounded as a compiled loop rounds (ar br - ai bi, ar bi
    + ai br): numpy's complex multiply may fuse one of its two products
    into the other, which is exact when the weight has a zero real or
    imaginary part, so a row with weights of both parts nonzero is
    applied as the sum of its real and imaginary parts.  The matvec
    works in buffers of the operator, so an operator serves one caller
    at a time.
    """

    def __init__(self, source, weight, terms=None):
        self.source = source
        self.weight = weight
        n = weight.shape[1]
        if terms is None:
            terms = []
            slots = np.arange(n)
            for src, row in zip(source, weight):
                live = row != 0.0
                if not live.any():
                    continue
                offsets = slots[live] - src[live]
                if offsets.min() == offsets.max():
                    o = int(offsets[0])
                    span = slice(max(o, 0), n + min(o, 0))
                    read = slice(span.start - o, span.stop - o)
                else:
                    span, read = slice(0, n), src
                row = row[span]
                if np.all((row.real == 0.0) | (row.imag == 0.0)):
                    terms.append((span, read, row, None))
                else:
                    terms.append((span, read, row.real.astype(row.dtype), 1j * row.imag))
        self._terms = terms
        self._gathered = np.empty(n, dtype=weight.dtype)
        self._imag_part = np.empty(n, dtype=weight.dtype)

    def matvec(self, x, out=None):
        """A x, written into `out` when given; with `out`, no array is allocated."""
        if out is None:
            out = np.empty_like(self._gathered)
        out.fill(0.0)
        for span, read, re, im in self._terms:
            g, h = self._gathered[span], self._imag_part[span]
            if isinstance(read, slice):
                xs = x[read]
            else:
                xs = np.take(x, read, out=g, mode="clip")
            if im is not None:
                np.multiply(xs, im, out=h)
            np.multiply(xs, re, out=g)
            if im is not None:
                np.add(g, h, out=g)
            acc = out[span]
            np.add(acc, g, out=acc)
        return out

    def column_l1(self):
        """The l1 norm of each column of A, summed from 0.0 over the terms in reverse order.

        For `_evolution_generator` that is ascending row order, as in CSR.
        """
        n = self.weight.shape[1]
        return np.bincount(
            self.source[::-1].ravel(), np.abs(self.weight[::-1]).ravel(), minlength=n
        )

    def scaled(self, factor):
        """factor * A for a real `factor`; the copy shares `source` and the reads of A.

        A real factor scales each part of a weight on its own, so the
        parts of a split row scale to the parts of the scaled row.
        """
        terms = [
            (span, read, re * factor, None if im is None else im * factor)
            for span, read, re, im in self._terms
        ]
        return _GatherOperator(self.source, self.weight * factor, terms)

    def toarray(self):
        """A as a dense (n, n) array."""
        n = self.weight.shape[1]
        dense = np.zeros((n, n), dtype=self.weight.dtype)
        np.add.at(dense, (np.arange(n), self.source), self.weight)
        return dense


def _evolution_generator(H, hbar, J, modes):
    """F -> (pi/(i hbar)) [H, F]_h on coefficient vectors over `modes`, as a `_GatherOperator`.

    `modes` must be nonempty and sorted lexicographically.  The column
    of mode r holds c_p w(p, r) in the row of r + p for each mode p of H,
    with w(p, r) = -(2 pi/hbar) sin(2 pi hbar p.Jr), or its hbar = 0
    limit w_0(p, r) = -4 pi^2 p.Jr, which makes the operator the
    Liouville operator F -> {H, F}; targets outside `modes` and entries
    with w = 0 are left out.  For real H the operator is anti-Hermitian.

    Term k of the operator is mode p_k of H, taken in reverse: row m
    then sums its sources m - p_k in ascending (lexicographic) order,
    and a column sums its targets r + p_k in ascending order too, which
    is the order of a canonical compressed sparse matrix, so the matvec
    and the column norms are those of one to the bit.  A slot whose
    source lies outside `modes`, or whose entry has w = 0, has weight 0
    (up to sign), which adds nothing to a sum that starts from 0.0.
    """
    n, d = modes.shape
    # a key box wide enough for every source, so keys never wrap
    radius = int(np.abs(modes).max()) + H.support_radius()
    mode_keys = _mode_keys(modes, radius)
    pairing = (H.modes @ J.J) @ modes.T  # (nH, n) of p . (J r)
    if hbar == 0.0:
        scale, shape = -4.0 * np.pi**2, pairing
    else:
        scale, shape = -2.0 * np.pi / hbar, np.sin(2.0 * np.pi * hbar * pairing)
    data = (H.coeffs[:, None] * scale * shape)[::-1]  # column r: the entries c_p w(p, r)
    # keys are linear in the mode, so the source r - p of mode r has the key key(r) - key(p)
    shifts = _box_keys(H.modes[::-1], (0,) * d, (2 * radius + 1,) * d)
    source_keys = mode_keys[None, :] - shifts[:, None]
    source = np.searchsorted(mode_keys, source_keys).clip(max=n - 1)
    weight = np.take_along_axis(data, source, axis=1)
    weight[mode_keys[source] != source_keys] = 0.0
    return _GatherOperator(source, weight)


def _evolution_system(f, H, hbar, J, trunc_radius):
    """The generator of the evolution of nonzero f, set up for a solver.

    Returns `(modes, L, v, outside)`: the modes reachable from supp f by
    adding modes of H within radius max(trunc_radius, radius of f) +
    4 rH (rH the support radius of H, at least 1), the generator
    `_evolution_generator(H, hbar, J, modes)`, f's coefficient vector
    over `modes`, and the indices of the modes with |r|_inf >
    trunc_radius, whose mass the caller discards.
    """
    reach = max(trunc_radius, f.support_radius()) + 4 * max(H.support_radius(), 1)
    modes = _reachable_modes(f.modes, H.modes, reach)
    L = _evolution_generator(H, hbar, J, modes)
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

    The entries are those of `_evolution_generator`.  On the mode set of
    `_evolution_system` the columns of supp f keep all their targets, so
    their largest norm is a lower bound on ||L||_1 that needs no mode set.
    """
    pairing = (H.modes @ J.J) @ modes.T
    if hbar == 0.0:
        w = 4.0 * np.pi**2 * np.abs(pairing)
    else:
        w = (2.0 * np.pi / abs(hbar)) * np.abs(np.sin(2.0 * np.pi * hbar * pairing))
    return np.abs(H.coeffs) @ w


def check_evolution_time(f, H, hbar, t, J):
    """Raise `ConfigError` when `evolve(f, H, hbar, t, J)` would need a series past `MAX_SERIES_Z`.

    The test is |t| times the largest column l1 norm of the generator
    over supp f, a lower bound on the series argument of every mode
    set that `evolve` builds, so it needs no mode set.  A scan checks
    its largest t with it before computing any record.
    """
    if f.n_modes:
        _check_series_length(abs(t) * _column_l1(H, _as_hbar(hbar), J, f.modes).max())


def bessel_j(z):
    """J_0(z), ..., J_M(z) for z > 0 by Miller's backward recurrence.

    J_{k-1} = (2k/z) J_k - J_{k+1} runs down from J_{M+1} = 0, J_M = 1
    with M = z + 20 z^(1/3) + 30, past the Airy turning point at k ~ z
    far enough that the starting error is below roundoff; the result is
    normalised by J_0 + 2 sum_k J_2k = 1.
    """
    m = int(z + 20.0 * np.cbrt(z) + 30.0)
    j = np.zeros(m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = (2.0 * k / z) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:  # only ratios matter before the normalisation
            j[k - 1 :] *= 1e-250
    return j[: m + 1] / (j[0] + 2.0 * j[2::2].sum())


def _chebyshev_propagate(L, v, t):
    """exp(t L) v for anti-Hermitian L, the number of series terms, and the tail weight.

    With rho = ||L||_1, which bounds the spectrum of the normal L, the
    Jacobi-Anger expansion (Tal-Ezer and Kosloff, J. Chem. Phys. 81,
    1984) gives exp(t L) = J_0(z) + 2 sum_k J_k(z) psi_k(A), z = |t| rho,
    A = sign(t) L / rho, psi_0 = 1, psi_1 = A, psi_{k+1} = 2 A psi_k +
    psi_{k-1}; on the spectrum of A, psi_k(A) is i^k T_k of a Hermitian
    matrix of norm <= 1, so the recurrence is stable.  The series stops
    at the first K whose tail weight 2 sum_{k >= K} |J_k(z)| is below
    `CHEBYSHEV_TAIL`; that weight bounds the l2 norm of the omitted
    terms by weight * ||v||_2.
    """
    rho = float(L.column_l1().max(initial=0.0))
    z = abs(t) * rho
    _check_series_length(z)
    if z == 0.0:
        return v.copy(), 0, 0.0
    coeffs = bessel_j(z)
    tail = 2.0 * np.cumsum(np.abs(coeffs)[::-1])[::-1]
    terms = max(int(np.argmax(tail <= CHEBYSHEV_TAIL)), 2)
    A = L.scaled(math.copysign(1.0, t) / rho)
    prev, cur = v.copy(), A.matvec(v)
    out = coeffs[0] * prev + (2.0 * coeffs[1]) * cur
    nxt, term = np.empty_like(v), np.empty_like(v)
    for c in coeffs[2:terms]:
        # psi_{k+1} = 2 A psi_k + psi_{k-1} and out += 2 c psi_{k+1}, in three rotating buffers
        A.matvec(cur, out=nxt)
        nxt *= 2.0
        nxt += prev
        np.multiply(nxt, 2.0 * c, out=term)
        out += term
        prev, cur, nxt = cur, nxt, prev
    return out, terms, float(tail[terms])


def evolve(f, H, hbar, t, J, trunc_radius=32):
    """exp(t L_hbar) f: the quantum flow beta^h_t f, or at hbar = 0 the transport f o beta_t.

    L_hbar F = (pi/(i hbar)) [H, F]_h, and L_0 F = {H, F}, is built on
    the modes reachable from supp f by adding modes of H within radius
    max(trunc_radius, radius of f) + 4 rH (`_evolution_system`), as a
    `_GatherOperator`: per mode, the indices and weights of its sources
    over the modes of H, summed in the order of a canonical sparse
    matrix, so the result is that of the sparse matrix to the bit.  It
    needs numpy only; no scipy module is loaded.  For real H it is
    anti-Hermitian, and its exponential is applied by a Chebyshev-Bessel
    series truncated below `CHEBYSHEV_TAIL`, with no step size and no
    randomness.  A series argument z = |t| ||L||_1 above `MAX_SERIES_Z`
    raises `ConfigError`; a t far past that limit is refused before the
    mode set is built.

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
    if f.n_modes == 0:
        return EvolutionResult(element=f, discarded_mass=0.0, steps=0)
    h = _as_hbar(hbar)
    # refuse a runaway t before the mode set, which grows with the radius, is built
    check_evolution_time(f, H, h, t, J)
    modes, L, v, outside = _evolution_system(f, H, h, J, trunc_radius)
    v, terms, tail = _chebyshev_propagate(L, v, t)
    discarded = float(np.abs(v[outside]).sum()) + math.sqrt(v.size) * tail * f.l2()
    v[outside] = 0.0
    element = FourierElement._raw(f.dim, *_coalesce(f.dim, modes, v))
    return EvolutionResult(element=element, discarded_mass=discarded, steps=terms)
