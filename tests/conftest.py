import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

from nctorus import FourierElement, SymplecticStructure
from nctorus.deform import CHEBYSHEV_TAIL, EvolutionResult, _mode_keys, bessel_j, deformed_mul
from nctorus.errors import TruncationOverflowError
from nctorus.lattice import PRUNE_TOL, partial_derivative, pointwise_mul


#: Skew structures per dimension: integral, non-integral and degenerate.
STRUCTURES = {
    1: [np.zeros((1, 1))],
    2: [[[0, 1], [-1, 0]], [[0, 0.37], [-0.37, 0]], np.zeros((2, 2))],
    3: [[[0, 1, -2], [-1, 0, 1], [2, -1, 0]], [[0, 1.3, 0.5], [-1.3, 0, -0.71], [-0.5, 0.71, 0]],
        np.zeros((3, 3))],
    4: [SymplecticStructure.standard(4).J,
        [[0, 1.3, 0, 0.2], [-1.3, 0, 0.7, 0], [0, -0.7, 0, 2.1], [-0.2, 0, -2.1, 0]],
        np.zeros((4, 4))],
}


@pytest.fixture
def J():
    return SymplecticStructure.standard()


@pytest.fixture
def shear_hamiltonian():
    """H = 2 cos(2 pi x); its flow is the exactly solvable vertical shear."""
    return FourierElement.from_literal([[[1, 0], 1, 0], [[-1, 0], 1, 0]])


def modes2(radius=3):
    return st.tuples(
        st.integers(-radius, radius), st.integers(-radius, radius)
    )


def coefficients():
    return st.complex_numbers(
        min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
    )


def elements(radius=3, max_terms=6):
    """Strategy for small sparse elements on T^2."""
    return st.dictionaries(modes2(radius), coefficients(), max_size=max_terms).map(
        lambda d: FourierElement(2, d)
    )


def real_elements(radius=3, max_terms=4):
    """Strategy for real-valued elements (f + f*)/1."""
    return elements(radius, max_terms).map(lambda f: f + f.star())


def random_element(rng, radius=3, n_terms=5):
    """Deterministic random sparse element (for seeded bulk tests)."""
    modes = rng.integers(-radius, radius + 1, size=(n_terms, 2))
    coeffs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    return FourierElement(2, zip(map(tuple, modes.tolist()), coeffs))


# -- reference kernels --------------------------------------------------
# The products as sums over (n_f n_g, d) mode arrays, coalesced by
# np.unique(axis=0); the key-space kernels must match them bit for bit.


def unique_rows_coalesce(dim, modes, coeffs):
    """Reference for `_coalesce`: sort rows with np.unique(axis=0), sum with np.add.at."""
    modes = np.asarray(modes, dtype=np.int64).reshape(-1, dim)
    coeffs = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if modes.shape[0] == 0:
        return modes, coeffs
    uniq, inverse = np.unique(modes, axis=0, return_inverse=True)
    summed = np.zeros(uniq.shape[0], dtype=np.complex128)
    np.add.at(summed, inverse.reshape(-1), coeffs)
    keep = np.abs(summed) > PRUNE_TOL
    return uniq[keep], summed[keep]


def _reference_product(f, g, pair_coeffs, cap, what):
    modes = (f.modes[:, None, :] + g.modes[None, :, :]).reshape(-1, f.dim)
    modes, coeffs = unique_rows_coalesce(f.dim, modes, pair_coeffs.reshape(-1))
    if modes.shape[0] and np.abs(modes).max() > cap:
        raise TruncationOverflowError(
            f"{what} support radius {np.abs(modes).max()} exceeds cap {cap}"
        )
    return FourierElement._raw(f.dim, modes, coeffs)


def reference_pointwise_mul(f, g, cap=64):
    if f.n_modes == 0 or g.n_modes == 0:
        return FourierElement.zero(f.dim)
    return _reference_product(f, g, f.coeffs[:, None] * g.coeffs[None, :], cap, "product")


def reference_deformed_mul(f, g, hbar, J, cap=64):
    if f.n_modes == 0 or g.n_modes == 0:
        return FourierElement.zero(f.dim)
    pairing = (f.modes @ J.J) @ g.modes.T
    phases = np.exp(-2j * np.pi * hbar * pairing)
    coeffs = f.coeffs[:, None] * g.coeffs[None, :] * phases
    return _reference_product(f, g, coeffs, cap, "deformed product")


# The bilinear forms as compositions of whole elements, the way
# `deform` computed them before each became one twisted convolution;
# the convolutions must match them to rounding.


def reference_commutator(f, g, hbar, J, cap=64):
    """[f, g]_h as two deformed products and a difference."""
    return deformed_mul(f, g, hbar, J, cap) - deformed_mul(g, f, hbar, J, cap)


def reference_poisson_bracket(f, g, J, cap=64):
    """{f, g} as the sum over j, k of J_jk times the pointwise product of d_j f and d_k g."""
    f._check_dim(g)
    out = FourierElement.zero(f.dim)
    dfs = [partial_derivative(f, j) for j in range(f.dim)]
    dgs = [partial_derivative(g, k) for k in range(g.dim)]
    for j in range(f.dim):
        for k in range(f.dim):
            if J.J[j, k] != 0.0:
                out = out + J.J[j, k] * pointwise_mul(dfs[j], dgs[k], cap=cap)
    return out


def reference_scaled_commutator_residual(H, g, hbar, J, cap=64):
    """(pi / (i hbar)) [H, g]_h - {H, g} from the two reference forms."""
    scaled = (np.pi / (1j * hbar)) * reference_commutator(H, g, hbar, J, cap)
    return scaled - reference_poisson_bracket(H, g, J, cap)


def reference_one_sided_residual(F, g, hbar, J, cap=64):
    """(2 pi / (i hbar)) (F x_h g - F g) - {F, g} from two products and the reference bracket."""
    diff = deformed_mul(F, g, hbar, J, cap) - pointwise_mul(F, g, cap=cap)
    return (2.0 * np.pi / (1j * hbar)) * diff - reference_poisson_bracket(F, g, J, cap)


def reference_reachable_modes(start, shifts, radius):
    """Reference for `_reachable_modes`: breadth-first waves, one lattice step per wave.

    The shifts are closed under negation, so a wave meets old modes
    only in itself and in the wave before it; waves are kept as sorted
    `_mode_keys`, and the modes are returned as int64 rows in
    lexicographic order.
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
        new = ~(np.isin(cand_keys, front_keys) | np.isin(cand_keys, previous))
        previous, front_keys = front_keys, cand_keys[new]
        front = cand[first[new]]
        waves.append(front_keys)
    keys = np.sort(np.concatenate(waves))
    return np.stack(np.unravel_index(keys, (2 * radius + 1,) * d), axis=1) - radius


def reference_evolution_generator(H, hbar, J, modes):
    """Reference for `deform._generator` at one hbar: the same entries as a scipy CSR matrix.

    The column of mode r holds c_p w(p, r) in the row of r + p, found by
    searching the key of r + p; targets outside `modes` and entries with
    w = 0 are left out.  Canonical CSR sums each row in ascending column
    order, from 0.0, and its column sums in ascending row order.
    """
    n = modes.shape[0]
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


def reference_chebyshev_propagate(H, hbar, J, modes, v, t):
    """Reference for one row of `deform._chebyshev_propagate`: the recurrence with its doubling pass, on CSR.

    A = sign(t) L / rho, with L `reference_evolution_generator` at hbar
    and rho its largest column l1 norm, and each term is computed as
    psi_{k+1} = A psi_k, doubled, plus psi_{k-1}, summed into the
    result with the coefficient 2 J_k(|t| rho).  The number of terms K
    is the first whose tail weight is below `CHEBYSHEV_TAIL`, at least
    2.  Returns the row, K and the tail weight; z = 0 returns v with 0
    terms.
    """
    L = reference_evolution_generator(H, hbar, J, modes)
    rho = abs(L).sum(axis=0).max(initial=0.0)
    z = abs(t) * rho
    if z == 0.0:
        return v.copy(), 0, 0.0
    c = bessel_j(z)
    tail = 2.0 * np.cumsum(np.abs(c)[::-1])[::-1]
    K = max(int(np.argmax(tail <= CHEBYSHEV_TAIL)), 2)
    A = L * (math.copysign(1.0, t) / rho)
    prev, cur = v, A @ v
    acc = c[0] * prev + (2.0 * c[1]) * cur
    for k in range(2, K):
        nxt = A @ cur
        nxt *= 2.0
        nxt += prev
        acc += (2.0 * c[k]) * nxt
        prev, cur = cur, nxt
    return acc, K, float(tail[K])


def assert_same_bits(got, want):
    """Equal modes and bit-identical coefficients (signed zeros included)."""
    assert got.dim == want.dim
    assert got.modes.shape == want.modes.shape
    assert np.array_equal(got.modes, want.modes)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()


@st.composite
def elements_nd(draw, dims=(1, 2, 3, 4), radius=3, max_terms=12):
    """Elements on T^d for d drawn from `dims`, with zero and signed-zero parts allowed."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(0, max_terms))
    modes = [
        tuple(draw(st.lists(st.integers(-radius, radius), min_size=dim, max_size=dim)))
        for _ in range(n)
    ]
    parts = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0]))
    coeffs = [complex(draw(parts), draw(parts)) for _ in range(n)]
    return FourierElement(dim, zip(modes, coeffs))


def element_pairs(dims=(1, 2, 3, 4), radius=3, max_terms=12):
    """Two `elements_nd` on the same torus."""
    return st.sampled_from(dims).flatmap(
        lambda d: st.tuples(*[elements_nd((d,), radius, max_terms)] * 2)
    )


def reference_exp_deformed(f, hbar, J, tol=1e-12, trunc_radius=64, max_terms=None):
    """Reference for `quantum.exp_deformed`: the series summed term by term.

    Each term is (1/n) times term n - 1 x_h f, truncated to `trunc_radius`
    every time, and added to the running sum, which re-coalesces it.
    `discarded_mass` is the plain sum of the truncated l1 mass.
    """
    cap = trunc_radius + max(f.support_radius(), 1)
    if max_terms is None:
        max_terms = int(3 * f.l1()) + 60
    total = term = FourierElement.unit(f.dim)
    discarded = 0.0
    n = 0
    while term.l1() > tol:
        n += 1
        assert n <= max_terms, "reference series did not converge"
        term = (1.0 / n) * deformed_mul(term, f, hbar, J, cap=cap)
        term, dropped = term.truncate(trunc_radius)
        discarded += dropped
        total = total + term
    return EvolutionResult(element=total, discarded_mass=discarded, steps=n)
