import numpy as np
import pytest
from hypothesis import strategies as st

from nctorus import FourierElement, SymplecticStructure
from nctorus.errors import TruncationOverflowError
from nctorus.lattice import PRUNE_TOL


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
