"""C*-norm estimation in the deformed algebra.

The norm of an element is bracketed between the l2 and l1 norms of its
coefficients; the headline estimate is the largest singular value of
the left-multiplication operator compressed to a finite mode window,
which is a certified lower bound (compressions reduce norms) and is
nondecreasing in the window size.

When the modes of f lie on one line, that is when every mode
p = (k, p') has the same coordinates p' off some axis a (always in
d = 1 and for a single mode; `_line_axis`), no window is needed.  J is
skew, so e_(k e_a + p') = e(hbar k (Jp')_a) U^k W with U = e_(e_a) and
W = e_(p') unitary: f = a(U) W, a(z) = sum_k c_k e(hbar k (Jp')_a) z^k.
The gauge action rotates the spectrum of U, so it is the whole circle,
and ||f|| = sup_x |sum_k c_k e(kx)| for every hbar and J.  `_line_sup`
samples that sup (Ehlich-Zeller, Math. Z. 86, 1964).

Any other element runs a Lanczos recurrence on L*L, where L has two
kernels.  `build_left_multiplication` forms it as a sparse matrix of
nnz(L) entries; `fft_left_multiplication` applies it without forming
it, as one convolution along a lattice axis per row of supp f, by FFT.
`op_norm_estimate` takes the FFT kernel when its operation count
(rows + 1) N log2 N (2W+1)^(d-1) is below nnz(L) (`fft_plan`), and the
sparse matrix otherwise.  Its convergence check reads the top Ritz
pair of the Lanczos tridiagonal without a dense solve: Sturm counts and
Laguerre steps on Python floats for the value, certified by a final
count, and one inverse-iteration step for the eigenvector's last entry
(`_top_ritz`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .deform import _as_hbar
from .lattice import _distinct


@dataclass(frozen=True)
class NormEstimate:
    """Sandwich bounds for the deformed C*-norm of an element.

    lower_l2 <= op_lower <= upper_l1, with lower_l2 = ||f||_2 (f acting
    on the basis vector of mode 0) and upper_l1 = ||f||_1 (subadditivity
    over the unitary characters); `op_lower` is the largest singular
    value of the truncated left-regular twisted representation and is
    the headline (certified lower) estimate, never an exact norm: off
    the line path it is sqrt(mu), mu the top Ritz value of the Lanczos
    tridiagonal at the lower end of a Sturm-count bracket, where a
    count shows an eigenvalue >= mu (`_top_ritz`).
    `iterations` and `residual` are the Lanczos step count and the final
    Ritz estimate.  For an element on one line (`_line_axis`), whose
    `op_lower` is a grid maximum of its symbol, no step runs:
    `iterations` is 0 and `residual` 0.0, as for the zero element.
    """

    lower_l2: float
    upper_l1: float
    op_lower: float
    window: int
    iterations: int
    residual: float

    def to_json(self):
        return json.dumps(
            {
                "lower_l2": self.lower_l2,
                "upper_l1": self.upper_l1,
                "op_lower": self.op_lower,
                "window": self.window,
                "iterations": self.iterations,
                "residual": self.residual,
            }
        )


def default_window(f):
    """Window that empirically saturates estimates for desk-scale elements."""
    return max(32, 4 * f.support_radius())


def build_left_multiplication(f, hbar, J, window):
    """Sparse matrix of x -> f x_h x on modes q with |q|_inf <= window.

    Basis vectors are indexed by lattice modes in the window, in
    lexicographic order; the entry at (q + p, q) is c_p * cocycle(p, q).
    Both factors of an entry separate over the axes: the cocycle
    e(-hbar p.Jq) is the product over a of e(-hbar (pJ)_a q_a), and
    q + p lies in the window when |q_a + p_a| <= window on every axis.
    So the entries are outer products of per-axis factors, one complex
    exponential per mode, axis and coordinate.  The matrix is built in
    CSC form: the rows q + p of column q ascend with p, because the
    modes of f are sorted lexicographically.  This is the one function
    of the package that imports scipy.sparse.
    """
    import scipy.sparse as sp  # here only, so importing nctorus does not load it

    if f.dim != J.dim:
        raise ValueError("element/structure dimension mismatch")
    h = _as_hbar(hbar)
    d = f.dim
    n = f.n_modes
    side = 2 * window + 1
    dim_rep = side**d
    k = np.arange(-window, window + 1)
    phase = np.exp((-2j * np.pi * h) * (f.modes @ J.J)[:, :, None] * k)  # (n, d, side)
    inside = np.abs(f.modes[:, :, None] + k) <= window  # (n, d, side)
    # (side,)*d + (n,) arrays over (q, p), q's axes ravelled first
    data = f.coeffs
    keep = np.ones(n, dtype=bool)
    for a in range(d):
        shape = (1,) * a + (side,) + (1,) * (d - 1 - a) + (n,)
        data = data * phase[:, a, :].T.reshape(shape)
        keep = keep & inside[:, a, :].T.reshape(shape)
    keep = keep.reshape(dim_rep, n)
    strides = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    rows = (np.arange(dim_rep, dtype=np.int64)[:, None] + f.modes @ strides)[keep]
    indptr = np.zeros(dim_rep + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csc_matrix(
        (data.reshape(dim_rep, n)[keep], rows, indptr), shape=(dim_rep, dim_rep)
    )


def _smooth_length(n):
    """The least 5-smooth integer >= n, a fast length for numpy.fft."""
    while True:
        m = n
        for prime in (2, 3, 5):
            while m % prime == 0:
                m //= prime
        if m == 1:
            return n
        n += 1


def fft_length(f, window, axis):
    """The FFT length of the kernel along `axis`: the least 5-smooth N >= 2W+1 + max |p_a|."""
    return _smooth_length(2 * window + 1 + int(np.abs(f.modes[:, axis]).max(initial=0)))


def fft_plan(f, window):
    """`(axis, n_fft)` of `fft_left_multiplication` when it is the cheaper kernel, else None.

    Along axis a the FFT kernel runs rows + 1 transforms of length N =
    `fft_length` on each of the (2W+1)^(d-1) lines of the window along
    a: one forward transform of x and one inverse per row, rows being
    the number of distinct p' (the modes of f with axis a left out).
    The count (rows + 1) N log2 N (2W+1)^(d-1) is taken on the axis
    that minimises it and compared with nnz(L), which is exact: mode p
    has prod_a (2W+1 - |p_a|)^+ entries, one per window mode q with
    q + p inside the window.
    """
    side = 2 * window + 1
    nnz = int(np.prod(np.clip(side - np.abs(f.modes), 0, None), axis=1).sum())
    best = None
    for a in range(f.dim):
        rows = _distinct(np.delete(f.modes, a, axis=1)).shape[0]
        n_fft = fft_length(f, window, a)
        count = (rows + 1) * n_fft * math.log2(n_fft) * side ** (f.dim - 1)
        if best is None or count < best[0]:
            best = (count, a, n_fft)
    count, axis, n_fft = best
    return (axis, n_fft) if count < nnz else None


class _LineKernel:
    """The FFT kernel of `fft_left_multiplication` on its own layout, with its buffers.

    Vectors are laid out as `(lines, 2W+1)`: one row per line of the
    window along the kernel's axis, the lines in lexicographic order of
    the other axes.  `window` is the window part of a zero-padded input
    of length N per line, whose padding is never written, so a caller
    fills `window` and calls `apply_into`.  Every buffer is made once
    here, and the transforms write into them (`numpy.fft`'s `out=`,
    which needs numpy >= 2.0); a kernel is not reentrant.
    """

    def __init__(self, symbol, lines, modulation, shape, axis):
        n_rows, n_lines, n_fft = symbol.shape
        self.symbol = symbol  # the rows' symbols, 1/N folded in
        self.lines = lines
        self.modulation = modulation
        self.shape = shape
        self.axis = axis
        side = shape[axis]
        self.padded = np.zeros((n_lines, n_fft), dtype=np.complex128)
        self.window = self.padded[:, :side]
        self.spectrum = np.empty((n_lines, n_fft), dtype=np.complex128)
        self.gathered = np.empty((n_rows, n_lines, n_fft), dtype=np.complex128)
        self.cropped = self.gathered[:, :, :side]

    def to_lines(self, x):
        """x in the standard (lexicographic) order, as a flat vector in the kernel's layout."""
        return np.moveaxis(x.reshape(self.shape), self.axis, -1).reshape(-1)

    def apply_into(self, out):
        """L of the vector in `window`, written to the `(lines, 2W+1)` array `out`."""
        np.fft.fft(self.padded, axis=1, out=self.spectrum)
        # the lines are valid indices; mode="raise" would buffer `out`
        np.take(self.spectrum, self.lines, axis=0, out=self.gathered, mode="clip")
        self.gathered *= self.symbol
        np.fft.ifft(self.gathered, axis=2, norm="forward", out=self.gathered)
        np.einsum("rjs,rs->js", self.cropped, self.modulation, out=out)

    def __call__(self, x):
        np.copyto(self.window, self.to_lines(x).reshape(self.window.shape))
        out = np.empty(self.window.shape, dtype=np.complex128)
        self.apply_into(out)
        # the window is a cube, so the kernel's layout has the standard shape
        return np.moveaxis(out.reshape(self.shape), -1, self.axis).reshape(-1)


def fft_left_multiplication(f, hbar, J, window, axis, n_fft):
    """The map x -> P(f x_h x)P of `build_left_multiplication`, applied by FFT along `axis`.

    Returns a function of the coefficient vector x, indexed like the
    columns of `build_left_multiplication`, that computes L x without
    forming L.  As J is skew, the cocycle of the entry at (r, r - p) is
    e(-hbar (pJ).r); split the modes as p = (p_a, p') at the axis a and
    the window modes as r = (r_a, r').  Then (pJ)_a depends on p' only,
    and

        (Lx)[r] = sum_p' e(-hbar (pJ)_a r_a)
                  sum_p_a c_p e(-hbar (pJ)'.r') x[r_a - p_a, r' - p'],

    x being zero outside the window.  For each row p' the inner sum is
    a convolution along axis a, with a kernel that depends on r'.  Its
    symbol sum_p_a c_p e(-hbar (pJ)'.r') e(-p_a xi / N) / N is tabulated
    once here, by one FFT, and zeroed where r' - p' leaves the window;
    the 1/N of the inverse transform is folded into it.  A call takes
    one forward FFT of x, zero-padded to length N = `n_fft` along the
    axis; per row it gathers the lines r' - p', multiplies them by the
    symbol and inverse transforms.  It then crops to the window,
    applies the modulation e(-hbar (pJ)_a r_a) and sums over the rows.
    With N >= 2W+1 + max |p_a| the wrap-around of the circular
    convolution lands outside the window.  L* is this kernel for
    `f.star()`, since the left-regular representation is a
    *-representation.

    The function is a layout adapter: it permutes x to one line of the
    window along the axis per row (`_LineKernel`), runs the kernel
    there and permutes back.  `op_norm_estimate` runs the kernel's
    `apply_into` on that layout directly.  The kernel reuses its
    buffers, so one function must not run in two threads at once.
    """
    if f.dim != J.dim:
        raise ValueError("element/structure dimension mismatch")
    h = _as_hbar(hbar)
    d = f.dim
    side = 2 * window + 1
    others = [b for b in range(d) if b != axis]
    # window modes r' of the other axes, lexicographic: (side^(d-1), d-1)
    grid = np.indices((side,) * (d - 1)).reshape(d - 1, side ** (d - 1)).T - window
    rows, row_of = np.unique(f.modes[:, others], axis=0, return_inverse=True)
    row_of = row_of.reshape(-1)
    pJ = f.modes @ J.J
    table = np.zeros((rows.shape[0], grid.shape[0], n_fft), dtype=np.complex128)
    np.add.at(
        table,
        (row_of, slice(None), f.modes[:, axis] % n_fft),
        f.coeffs[:, None] * np.exp((-2j * np.pi * h) * (pJ[:, others] @ grid.T)),
    )
    source = grid - rows[:, None, :]  # r' - p', (rows, side^(d-1), d-1)
    inside = (np.abs(source) <= window).all(axis=2)
    symbol = np.fft.fft(table, axis=2, norm="forward") * inside[:, :, None]
    strides = side ** np.arange(d - 2, -1, -1, dtype=np.int64)
    lines = np.where(inside, (source + window) @ strides, 0)
    v = np.zeros(rows.shape[0])
    v[row_of] = pJ[:, axis]
    modulation = np.exp((-2j * np.pi * h) * np.outer(v, np.arange(-window, window + 1)))
    return _LineKernel(symbol, lines, modulation, (side,) * d, axis)


def _line_axis(f):
    """An axis a on which every mode of `f` has the same other coordinates p', else None."""
    for a in range(f.dim):
        others = np.delete(f.modes, a, axis=1)
        if (others == others[0]).all():
            return a
    return None


def _line_sup(f, axis):
    """Max of |sum_k c_k e(kx)| on N equispaced x: a lower bound on the norm of `f` on one line.

    c_k of mode k e_a + p' sits at k mod N, N the least 5-smooth length
    >= 16 (2n+1), n = max |k|, and one inverse FFT samples the symbol;
    the max is >= cos(pi n / N) sup > 0.995 sup (Ehlich-Zeller).
    """
    k = f.modes[:, axis]
    n_fft = _smooth_length(16 * (2 * int(np.abs(k).max()) + 1))
    symbol = np.zeros(n_fft, dtype=np.complex128)
    symbol[k % n_fft] = f.coeffs
    return float(np.abs(np.fft.ifft(symbol, norm="forward")).max())


#: Unit roundoff of a float (2^-52): the width to which `_top_ritz` pins its value.
_EPS = 2.0**-52


def _count_above(a, b2, x, pivmin):
    """The number of eigenvalues >= x of the tridiagonal T with diagonal `a` and squared off-diagonals `b2`.

    Sturm count: the nonpositive pivots u_i = x - a_i - b2_i / u_(i-1)
    of the LDL^T factorization of x I - T (Sylvester's law of inertia),
    `b2[0]` being 0.  A zero pivot becomes -`pivmin`, as in LAPACK's
    `dstebz`, and counts as an eigenvalue at x.  The count is exact
    for a matrix within a few roundoffs of T, entry by entry.
    """
    n, u = 0, 1.0
    for ai, bi in zip(a, b2):
        u = x - ai - bi / u
        if u <= 0.0:
            n += 1
            if u == 0.0:
                u = -pivmin
    return n


def _laguerre_step(a, b2, x, pivmin):
    """`_count_above(a, b2, x, pivmin)`, and when it is 0 the step s of Laguerre's method: x - s is the next iterate.

    The same pass differentiates the pivots: p(x) = det(x I - T) is the
    product of the u_i, so G = p'/p = sum_i u_i'/u_i and
    H = -(log p)'' = sum_i (u_i'/u_i)^2 - u_i''/u_i, with
    u_i' = 1 + (b2_i/u_(i-1)^2) u_(i-1)' and
    u_i'' = (b2_i/u_(i-1)^2) (u_(i-1)'' - 2 u_(i-1)'^2 / u_(i-1)).  Above
    the spectrum, s = m / (G + sqrt((m-1)(m H - G^2))) lands in
    [lambda_max, x): Laguerre's method on a polynomial with real roots
    converges to the largest one from the right, monotonically, and
    cubically once the other roots are far.
    """
    n, u, du, ddu, G, H = 0, 1.0, 0.0, 0.0, 0.0, 0.0
    for ai, bi in zip(a, b2):
        q = bi / u
        v = x - ai - q
        q /= u
        du, ddu = 1.0 + q * du, q * (ddu - 2.0 * du * du / u)
        u = v
        if u <= 0.0:
            n += 1
            if u == 0.0:
                u = -pivmin
        g = du / u
        G += g
        H += g * g - ddu / u
    if n:
        return n, None
    m = len(a)
    return 0, m / (G + math.sqrt(max((m - 1) * (m * H - G * G), 0.0)))


def _top_ritz(alpha, beta, trial=None):
    """(mu, |y_m|): the top eigenvalue of the Lanczos tridiagonal and the last entry of its unit eigenvector.

    T has diagonal `alpha` (m floats) and off-diagonal `beta` (m - 1).
    Everything runs on Python floats, in O(m) passes of the pivot
    recurrence of `_count_above`:

    - Laguerre's method from an upper point (`trial` when a count
      shows it above the spectrum, else the Gershgorin bound) down to
      lambda_max, each step's pass counting too;
    - then steps away from the last point, the one nearest the root,
      each 8 times the last, until a count puts the root between, and
      bisection until the bracket is 4 roundoffs of ||T|| wide.

    The value returned is the lower end, at which a count shows an
    eigenvalue >= mu, so it stays a lower bound on lambda_max.  |y_m|
    comes from one step of inverse iteration, one Thomas solve of
    (sigma I - T) z = 1 at the upper end sigma, every pivot floored at
    eps ||T|| in modulus (LAPACK's `stein`).  The off-diagonals enter
    as |beta|, a diagonal signature similarity that keeps every |y_i|:
    the top eigenvector is then nonnegative (Perron-Frobenius), so
    its sum is >= 1 and the ones vector has a full component along it.
    `trial` is a guess, checked by a count before use; the Lanczos loop
    passes the last check's mu + 2 beta |y_m| (`op_norm_estimate`).
    T is first scaled by the power of two 2^-e that puts its largest
    entry in [1/2, 1), as LAPACK's tridiagonal solvers scale: exactly,
    so the answer scales back exactly, and the squared off-diagonals of
    the recurrence neither overflow nor underflow where they count.  A T
    with a NaN or an infinity raises ValueError, as `np.linalg.eigh`'s
    `LinAlgError` did.
    """
    a = [float(x) for x in alpha]
    b = [0.0] + [abs(float(x)) for x in beta]
    if not (all(map(math.isfinite, a)) and all(map(math.isfinite, b))):
        raise ValueError("Lanczos tridiagonal not finite")
    e = math.frexp(max(max(map(abs, a)), max(b)))[1]
    a = [math.ldexp(x, -e) for x in a]
    b = [math.ldexp(x, -e) for x in b]
    b2 = [x * x for x in b]
    right = b[1:] + [0.0]
    top = max(ai + bl + br for ai, bl, br in zip(a, b, right))
    bottom = min(ai - bl - br for ai, bl, br in zip(a, b, right))
    if top == bottom:  # T = a I, m = 1 among them: every unit vector is an eigenvector
        return math.ldexp(top, e), 1.0
    scale = max(abs(top), abs(bottom))  # >= ||T|| (Gershgorin), in [1/2, 3]
    tol = 4.0 * _EPS * scale
    pivmin = 2.0**-1000  # LAPACK's safe minimum times max(1, max b2), which is 1 here
    lo, hi = max(a), None  # a Rayleigh quotient bounds lambda_max below
    if trial is not None:
        trial = math.ldexp(trial, -e)
    x = trial if trial is not None and lo < trial < top else top
    while True:
        n, step = _laguerre_step(a, b2, x, pivmin)
        near_lo = n > 0  # whether the last point, the one nearest the root, is below it
        if n:
            lo = x
            if hi is None and x < top:
                x = top
                continue
            break
        hi = x
        if not (step > tol and hi - step > lo):  # also ends on a NaN step
            break
        x = hi - step
    if hi is None:  # lambda_max is at the Gershgorin bound
        return math.ldexp(lo, e), _last_entry(a, b, lo, scale)
    delta = tol
    while True:
        x = min(lo + delta, hi) if near_lo else hi - delta
        if _count_above(a, b2, x, pivmin):
            lo = x
            if not near_lo:
                break
        else:
            hi = x
            if near_lo:
                break
        delta *= 8.0
    while hi - lo > tol:
        x = 0.5 * (lo + hi)
        if _count_above(a, b2, x, pivmin):
            lo = x
        else:
            hi = x
    return math.ldexp(lo, e), _last_entry(a, b, hi, scale)


def _last_entry(a, b, sigma, scale):
    """|z_m| / ||z|| for (sigma I - T) z = scale * 1, by the Thomas algorithm with pivots floored at eps * scale."""
    floor = _EPS * scale
    pivots, rhs = [], []
    u, r = 1.0, 0.0
    for ai, bi in zip(a, b):
        ell = -bi / u
        u = sigma - ai + ell * bi
        if abs(u) < floor:
            u = floor if u >= 0.0 else -floor
        r = scale - ell * r
        pivots.append(u)
        rhs.append(r)
    z = rhs[-1] / pivots[-1]
    last, total = z, z * z
    for i in range(len(a) - 2, -1, -1):
        z = (rhs[i] + b[i + 1] * z) / pivots[i]
        total += z * z
    return abs(last) / math.sqrt(total)


def op_norm_estimate(f, hbar, J, window=None, tol=1e-8, max_iter=None):
    """Estimate the deformed C*-norm of `f` with sandwich certificates.

    Runs the Lanczos recurrence on L*L for the compressed left-multiplication
    operator L from a fixed dense start, keeping two vectors; the top Ritz
    value is a lower bound on ||L||^2 at every step, also in floating point
    (Paige, Linear Algebra Appl. 34, 1980).  Non-convergence within the
    step cap is reported through `residual`, not raised.

    A check (about 8 per doubling of the step count, and at the end)
    takes the top Ritz value mu and the last entry y_m of its unit
    eigenvector from `_top_ritz`: O(m) passes of the Sturm pivot
    recurrence on Python floats, Laguerre steps and a bisection to a
    few roundoffs, returning the lower end of the bracket, at which a
    count shows an eigenvalue >= mu, so `op_lower` = sqrt(mu) stays a
    lower bound; and one inverse-iteration step for |y_m|.  Each check
    starts from the last one's mu + 2 beta |y_m|: T then has an
    eigenvalue within beta |y_m| of that mu, so the point lies above
    the spectrum unless a larger eigenvalue has appeared, which a count
    checks before the point is used.  No LAPACK routine runs.

    Each step applies L and then L*.  When `fft_plan` finds that the
    FFT kernel counts fewer operations, (rows + 1) N log2 N (2W+1)^(d-1),
    than L has entries, both are `fft_left_multiplication`, L* being
    the kernel of `f.star()`.  The recurrence then runs in the kernels'
    own layout of one window line per row, the start vector permuted
    once (alpha and beta do not depend on the order of the basis), and
    L writes its output straight into the padded input of L*, so a
    step allocates no array.  Otherwise L is formed by
    `build_left_multiplication` and L* once, as its conjugate
    transpose.  The two kernels agree to rounding, and the recurrence
    is the same: it updates w in place, rotates two vector buffers and
    keeps a running max(alpha).

    An element whose modes lie on one line along an axis (`_line_axis`;
    every element in d = 1 and every single mode) skips the recurrence:
    its norm is the sup of a 1-D symbol, for every hbar and J (module
    docstring), and `op_lower` is that symbol's maximum on a grid
    (`_line_sup`).  The estimate reports `iterations` 0 and `residual`
    0.0, and `window`, `tol` and `max_iter` are not read.

    Parameters
    ----------
    f : FourierElement
    hbar : float or PlanckParam
    J : SymplecticStructure
    window : int, optional
        Mode-window radius W; defaults to max(32, 4 * support radius).
        Off the line path it must satisfy W >= support radius + 1, for
        the estimate to see every mode of `f`.
    tol : float
        Ritz estimate beta_m |y_m| / mu of ||(L*L) x - mu x|| / mu at which
        to stop, for the top Ritz pair (mu, x).
    max_iter : int, optional
        Step cap, default 10 * W^2; the recurrence also ends at dim L steps.
    """
    if window is None:
        window = default_window(f)
    if f.n_modes == 0:
        return NormEstimate(0.0, 0.0, 0.0, window, 0, 0.0)
    if f.dim != J.dim:
        raise ValueError("element/structure dimension mismatch")
    _as_hbar(hbar)  # a non-finite hbar raises on the line path too
    axis = _line_axis(f)
    if axis is not None:
        return NormEstimate(f.l2(), f.l1(), _line_sup(f, axis), window, 0, 0.0)
    if window < f.support_radius() + 1:
        raise ValueError(
            f"window {window} too small for support radius {f.support_radius()}"
        )
    if max_iter is None:
        max_iter = 10 * window**2
    plan = fft_plan(f, window)
    n = (2 * window + 1) ** f.dim
    # dense and free of lattice symmetry, so no symmetry sector of L*L is left out
    k = np.arange(n, dtype=np.float64)
    q = np.exp(2j * np.pi * np.sqrt(2.0) * k**2) / np.sqrt(n)
    if plan is None:
        L = build_left_multiplication(f, hbar, J, window)
        Lstar = L.T.conj()  # CSR; the same sums as conj(L^T conj(w)), bit for bit

        def normal(q):
            return Lstar @ (L @ q)

    else:
        apply_L = fft_left_multiplication(f, hbar, J, window, *plan)
        apply_Lstar = fft_left_multiplication(f.star(), hbar, J, window, *plan)
        layout = apply_L.window.shape
        w_lines = np.empty(layout, dtype=np.complex128)

        def normal(q):
            np.copyto(apply_L.window, q.reshape(layout))
            apply_L.apply_into(apply_Lstar.window)
            apply_Lstar.apply_into(w_lines)
            return w_lines.reshape(-1)

        q = apply_L.to_lines(q)  # alpha and beta do not depend on the basis order

    steps = min(n, max_iter)
    q_prev = np.zeros(n, dtype=np.complex128)
    scratch = np.empty(n, dtype=np.complex128)
    alpha, beta = [], []
    a_max, mu, residual, b, check, trial = -np.inf, 0.0, np.inf, 0.0, 1, None
    for m in range(1, steps + 1):
        w = normal(q)
        a = float(np.real(np.vdot(q, w)))
        # w -= a q + b q_prev, in place; q_prev is dead after this step
        np.multiply(q, a, out=scratch)
        q_prev *= b
        scratch += q_prev
        w -= scratch
        b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        a_max = max(a_max, a)
        # b / max(alpha) bounds the Ritz estimate, so an invariant Krylov
        # space stops here; else the O(m) check runs ~8 times per doubling
        if m >= check or m == steps or b <= tol * a_max:
            mu, y_m = _top_ritz(alpha, beta[:-1], trial)
            residual = b * y_m / max(mu, 1e-300)
            if residual <= tol:
                break
            trial = mu + 2.0 * b * y_m
            check = m + 1 + m // 8
        np.divide(w, b, out=q_prev)
        q_prev, q = q, q_prev
    op_lower = float(np.sqrt(max(mu, 0.0)))
    return NormEstimate(
        lower_l2=f.l2(),
        upper_l1=f.l1(),
        op_lower=op_lower,
        window=window,
        iterations=len(alpha),
        residual=residual,
    )
