"""The deformed product on Fourier modes.

The oscillatory-integral product collapses exactly on characters to a
cocycle-twisted convolution:

    e_p x_h e_q = e(-hbar p . (J q)) e_{p+q},    e(t) = exp(2 pi i t),

so products of trigonometric polynomials are computed exactly as sparse
double loops over supports, never by discretizing the integral.  The
Poisson bracket and the scaled-commutator residual that drives the
classical-limit analysis live here as well, and so does the one
generator of both evolutions: F -> (pi/(i hbar)) [H, F]_h as a sparse
matrix on a finite mode set, whose hbar = 0 limit is the Liouville
operator F -> {H, F}.  `evolve` applies its exponential with a
Chebyshev-Bessel series, for the quantum flow and the classical
transport alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, RealityError
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
    """

    J: np.ndarray = field()

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
    phases = np.exp(-2j * np.pi * h * pairing)
    coeffs = f.coeffs[:, None] * g.coeffs[None, :] * phases
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


def _reachable_modes(start, shifts, radius):
    """Modes reachable from `start` by adding rows of `shifts`, inside |m|_inf <= radius.

    The shifts are closed under negation first, which makes reachability
    symmetric: a breadth-first wave then meets old modes only in itself
    and in the wave before it.  Waves run on `_mode_keys`, kept sorted so
    membership is a binary search; the modes are returned as int64 rows
    in lexicographic order.
    """
    d = start.shape[1]
    shifts = np.unique(np.concatenate([shifts, -shifts]), axis=0)
    front_keys, first = np.unique(_mode_keys(start, radius), return_index=True)
    front = start[first]
    waves = [front_keys]
    previous = front_keys[:0]
    while front.shape[0]:
        cand = (front[:, None, :] + shifts[None, :, :]).reshape(-1, d)
        cand = cand[np.abs(cand).max(axis=1) <= radius]
        cand_keys, first = np.unique(_mode_keys(cand, radius), return_index=True)
        new = ~(_in_sorted(cand_keys, front_keys) | _in_sorted(cand_keys, previous))
        previous, front_keys = front_keys, cand_keys[new]
        front = cand[first[new]]
        waves.append(front_keys)
    keys = np.sort(np.concatenate(waves))
    return np.stack(np.unravel_index(keys, (2 * radius + 1,) * d), axis=1) - radius


def _evolution_generator(H, hbar, J, modes):
    """CSR matrix of F -> (pi/(i hbar)) [H, F]_h on coefficient vectors over `modes`.

    `modes` must be nonempty and sorted lexicographically.  The column
    of mode r holds c_p w(p, r) in the row of r + p for each mode p of H,
    with w(p, r) = -(2 pi/hbar) sin(2 pi hbar p.Jr), or its hbar = 0
    limit w_0(p, r) = -4 pi^2 p.Jr, which makes the matrix the Liouville
    operator F -> {H, F}; targets outside `modes` and entries with w = 0
    are left out.  For real H the matrix is anti-Hermitian.
    """
    n = modes.shape[0]
    # a key box wide enough for every target, so keys never wrap
    radius = int(np.abs(modes).max()) + H.support_radius()
    mode_keys = _mode_keys(modes, radius)
    pairing = (H.modes @ J.J) @ modes.T  # (nH, n) of p . (J r)
    if hbar == 0.0:
        scale, shape = -4.0 * np.pi**2, pairing
    else:
        scale, shape = -2.0 * np.pi / hbar, np.sin(2.0 * np.pi * hbar * pairing)
    target_keys = _mode_keys(modes[None, :, :] + H.modes[:, None, :], radius)  # (nH, n)
    rows = np.searchsorted(mode_keys, target_keys).clip(max=n - 1)
    keep = (mode_keys[rows] == target_keys) & (shape != 0.0)
    data = (H.coeffs[:, None] * scale * shape)[keep]
    cols = np.broadcast_to(np.arange(n), keep.shape)[keep]
    return sp.csr_array((data, (rows[keep], cols)), shape=(n, n), dtype=np.complex128)


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
    rho = float(abs(L).sum(axis=0).max(initial=0.0))
    z = abs(t) * rho
    if z == 0.0:
        return v.copy(), 0, 0.0
    coeffs = bessel_j(z)
    tail = 2.0 * np.cumsum(np.abs(coeffs)[::-1])[::-1]
    terms = max(int(np.argmax(tail <= CHEBYSHEV_TAIL)), 2)
    A = L * (math.copysign(1.0, t) / rho)
    prev, cur = v, A @ v
    out = coeffs[0] * prev + (2.0 * coeffs[1]) * cur
    for c in coeffs[2:terms]:
        prev, cur = cur, 2.0 * (A @ cur) + prev
        out += (2.0 * c) * cur
    return out, terms, float(tail[terms])


def evolve(f, H, hbar, t, J, trunc_radius=32):
    """exp(t L_hbar) f: the quantum flow beta^h_t f, or at hbar = 0 the transport f o beta_t.

    L_hbar F = (pi/(i hbar)) [H, F]_h, and L_0 F = {H, F}, is built as a
    sparse matrix on the modes reachable from supp f by adding modes of
    H within radius max(trunc_radius, radius of f) + 4 rH
    (`_evolution_system`).  For real H it is anti-Hermitian, and its
    exponential is applied by a Chebyshev-Bessel series truncated below
    `CHEBYSHEV_TAIL`, with no step size and no randomness.

    `discarded_mass` bounds, in l1 and hence in every C*-norm, what the
    result leaves out of exp(t L_hbar) f on the mode set: the l1 mass at
    time t on the modes with |r|_inf > trunc_radius, which is zeroed,
    plus sqrt(n) * tail * ||f||_2 for the omitted series terms (n modes,
    tail their l2 weight).  `steps` is the number of series terms.
    """
    if not H.is_real():
        raise RealityError("Hamiltonian fails the reality test")
    if f.n_modes == 0:
        return EvolutionResult(element=f, discarded_mass=0.0, steps=0)
    modes, L, v, outside = _evolution_system(f, H, _as_hbar(hbar), J, trunc_radius)
    v, terms, tail = _chebyshev_propagate(L, v, t)
    discarded = float(np.abs(v[outside]).sum()) + math.sqrt(v.size) * tail * f.l2()
    v[outside] = 0.0
    element = FourierElement._raw(f.dim, *_coalesce(f.dim, modes, v))
    return EvolutionResult(element=element, discarded_mass=discarded, steps=terms)
