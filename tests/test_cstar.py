import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nctorus import (
    FourierElement,
    SymplecticStructure,
    build_left_multiplication,
    deformed_mul,
    op_norm_estimate,
)

from conftest import coefficients, elements, random_element

e = FourierElement.character
unit = FourierElement.unit


def reference_left_multiplication(f, hbar, J, window):
    """One complex exponential per matrix entry, assembled through COO.

    The oracle for `build_left_multiplication`: a loop over the modes p
    of f that shifts every window mode q to q + p, keeps the shifts that
    stay in the window, and evaluates the cocycle on each entry.
    """
    d = f.dim
    side = 2 * window + 1
    dim_rep = side**d
    axes = [np.arange(-window, window + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    lattice = np.stack([m.reshape(-1) for m in mesh], axis=-1)  # (dim_rep, d)

    def flat_index(modes):
        idx = np.zeros(modes.shape[0], dtype=np.int64)
        for a in range(d):
            idx = idx * side + (modes[:, a] + window)
        return idx

    rows, cols, data = [], [], []
    for p, c in zip(f.modes, f.coeffs):
        q_dst = lattice + p
        ok = np.abs(q_dst).max(axis=1) <= window
        src = lattice[ok]
        pairing = (p @ J.J) @ src.T
        rows.append(flat_index(q_dst[ok]))
        cols.append(flat_index(src))
        data.append(c * np.exp(-2j * np.pi * hbar * pairing))
    if rows:
        rows, cols, data = map(np.concatenate, (rows, cols, data))
    return sp.csr_matrix(
        (data, (rows, cols)), shape=(dim_rep, dim_rep), dtype=np.complex128
    )


def assert_matches_reference(f, hbar, J, window):
    L = build_left_multiplication(f, hbar, J, window)
    assert L.format == "csc" and L.has_sorted_indices
    new = L.tocsr()
    ref = reference_left_multiplication(f, hbar, J, window)
    ref.sort_indices()
    assert np.array_equal(new.indptr, ref.indptr)
    assert np.array_equal(new.indices, ref.indices)
    # both evaluate phases of arguments up to 2 pi |hbar| sum_a |(pJ)_a q_a|,
    # each to a rounding error proportional to the argument
    arg = 2 * np.pi * abs(hbar) * np.abs(f.modes @ J.J).sum(axis=1).max(initial=0.0) * window
    scale = np.abs(f.coeffs).max(initial=0.0) * max(1.0, arg)
    assert np.abs(new.data - ref.data).max(initial=0.0) <= 1e-15 * scale


def elements4(radius=2, max_terms=4):
    modes = st.tuples(*[st.integers(-radius, radius)] * 4)
    return st.dictionaries(modes, coefficients(), max_size=max_terms).map(
        lambda d: FourierElement(4, d)
    )


class TestSandwichExamples:
    def test_character_is_unitary(self, J):
        est = op_norm_estimate(e((3, -2)), 0.3, J, window=8)
        assert est.lower_l2 == pytest.approx(1.0)
        assert est.upper_l1 == pytest.approx(1.0)
        assert est.op_lower == pytest.approx(1.0, abs=1e-9)

    def test_zero_element(self, J):
        est = op_norm_estimate(FourierElement.zero(2), 0.3, J, window=4)
        assert est.op_lower == 0.0
        assert est.iterations == 0

    def test_unit_plus_character_commutative(self, J):
        # at hbar = 0 the norm is the sup of |1 + e(p.m)|, i.e. 2
        # compression error is O((pi / window)^2), so a 1% band needs W ~ 16
        est = op_norm_estimate(unit() + e((1, 0)), 0.0, J, window=16)
        assert est.op_lower == pytest.approx(2.0, rel=1e-2)
        assert est.op_lower <= 2.0 + 1e-12
        assert est.op_lower <= est.upper_l1 + 1e-12

    def test_four_term_real_element(self, J):
        # f = U + V + U* + V*: norm is 4 at hbar = 0 (sup of 2cos + 2cos),
        # and sits in [2, 4] for generic hbar (l2 = 2 certifies the floor)
        f = e((1, 0)) + e((0, 1)) + e((-1, 0)) + e((0, -1))
        est0 = op_norm_estimate(f, 0.0, J, window=24)
        assert est0.op_lower == pytest.approx(4.0, rel=1e-2)
        est = op_norm_estimate(f, 0.2, J, window=16)
        assert 2.0 - 1e-9 <= est.op_lower <= 4.0 + 1e-12

    def test_window_too_small(self, J):
        with pytest.raises(ValueError):
            op_norm_estimate(e((5, 0)), 0.1, J, window=5)


class TestSandwichProperty:
    @given(f=elements())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_l2_op_l1_ordering(self, J, f):
        est = op_norm_estimate(f, 0.3, J, window=f.support_radius() + 4)
        slack = 1e-8 * max(1.0, est.upper_l1)
        assert est.lower_l2 <= est.op_lower + slack
        assert est.op_lower <= est.upper_l1 + slack


class TestWindowMonotonicity:
    def test_nondecreasing_in_window(self, J):
        rng = np.random.default_rng(5)
        f = random_element(rng, radius=2, n_terms=4)
        prev = 0.0
        for W in (4, 8, 12, 16):
            est = op_norm_estimate(f, 0.17, J, window=W)
            assert est.op_lower >= prev - 1e-9
            prev = est.op_lower


class TestRepresentationStructure:
    def test_matrix_shape_and_sparsity(self, J):
        f = e((1, 0)) + e((0, 1))
        L = build_left_multiplication(f, 0.3, J, window=3)
        side = 2 * 3 + 1
        assert L.shape == (side**2, side**2)
        # each term contributes at most one entry per source column
        assert L.nnz <= 2 * side**2

    def test_multiplicativity(self, J):
        # L_{f x g} = L_f L_g on the interior of the window
        h = 0.23
        f = e((1, 0)) + 0.5j * e((0, 1))
        g = e((-1, 1)) + 2.0 * unit()
        W = 8
        Lf = build_left_multiplication(f, h, J, W).toarray()
        Lg = build_left_multiplication(g, h, J, W).toarray()
        Lfg = build_left_multiplication(deformed_mul(f, g, h, J), h, J, W).toarray()
        side = 2 * W + 1
        # restrict to columns whose image stays inside the window twice over
        keep = []
        for q1 in range(-W, W + 1):
            for q2 in range(-W, W + 1):
                if max(abs(q1), abs(q2)) <= W - 2:
                    keep.append((q1 + W) * side + (q2 + W))
        keep = np.array(keep)
        err = np.abs((Lf @ Lg)[:, keep] - Lfg[:, keep]).max()
        assert err < 1e-12

    def test_involution_isometry(self, J):
        rng = np.random.default_rng(9)
        f = random_element(rng, radius=2, n_terms=4)
        a = op_norm_estimate(f, 0.3, J, window=12)
        b = op_norm_estimate(f.star(), 0.3, J, window=12)
        assert a.op_lower == pytest.approx(b.op_lower, rel=1e-9)

    def test_cstar_identity_spot_check(self, J):
        # ||f* x f|| == ||f||^2; compressions approximate both sides
        h = 0.3
        rng = np.random.default_rng(2)
        f = random_element(rng, radius=1, n_terms=3)
        lhs = op_norm_estimate(deformed_mul(f.star(), f, h, J), h, J, window=20)
        rhs = op_norm_estimate(f, h, J, window=20)
        assert lhs.op_lower == pytest.approx(rhs.op_lower**2, rel=1e-2)


class TestDenseOracle:
    @pytest.mark.parametrize("hbar", [0.1, 0.3])
    @pytest.mark.parametrize("window", [4, 8])
    def test_matches_dense_spectral_norm(self, J, hbar, window):
        f = e((1, 1)) + e((-1, 1)) + 0.3j * e((1, 0))
        est = op_norm_estimate(f, hbar, J, window=window)
        L = build_left_multiplication(f, hbar, J, window).toarray()
        assert est.op_lower == pytest.approx(np.linalg.norm(L, 2), rel=1e-9)


class TestSeparableKernel:
    """`build_left_multiplication` against the per-entry reference."""

    @given(f=elements(), hbar=st.sampled_from([0.0, 0.1, 0.3]), margin=st.integers(-2, 3))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_reference_d2(self, J, f, hbar, margin):
        # margin <= 0 puts modes of f on or beyond the window edge
        assert_matches_reference(f, hbar, J, max(1, f.support_radius() + margin))

    @given(f=elements4(), hbar=st.sampled_from([0.0, 0.1, 0.3]), window=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_d4(self, f, hbar, window):
        assert_matches_reference(f, hbar, SymplecticStructure.standard(4), window)

    @pytest.mark.parametrize("hbar", [0.0, 0.1, 0.3])
    def test_modes_on_the_window_edge(self, J, hbar):
        W = 5
        f = e((W, -W)) + 0.5j * e((-W, 2)) + 2.0 * e((0, W)) + e((W + 1, 0))
        assert_matches_reference(f, hbar, J, W)

    def test_zero_element(self, J):
        L = build_left_multiplication(FourierElement.zero(2), 0.3, J, 4)
        assert L.shape == (81, 81) and L.nnz == 0

    # op_lower of the per-entry COO build, which applied L* as a transposed copy
    @pytest.mark.parametrize(
        "index, expected",
        [
            (0, 4.276469429041662),
            (1, 4.433261700644425),
            (2, 3.99491474716853),
            (3, 3.015195889843862),
        ],
    )
    def test_estimate_unchanged_on_random_elements(self, J, index, expected):
        rng = np.random.default_rng(400)
        for _ in range(index + 1):
            f = random_element(rng, radius=3, n_terms=4)
        est = op_norm_estimate(f, 0.3, J, window=8)
        assert est.op_lower == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("hbar, expected", [(0.0, 4.990584127755881), (0.1, 4.089639445274353)])
    def test_estimate_unchanged_on_smooth_symbol(self, J, hbar, expected):
        rng = np.random.default_rng(1)
        d = {}
        for p1 in range(-4, 5):
            for p2 in range(-4, 5):
                amp = 2.0 ** (-max(abs(p1), abs(p2)))
                d[(p1, p2)] = amp * (rng.standard_normal() + 1j * rng.standard_normal())
        est = op_norm_estimate(FourierElement(2, d), hbar, J, window=32)
        assert est.op_lower == pytest.approx(expected, rel=1e-12)


class TestConvergenceReporting:
    def test_residual_reported(self, J):
        est = op_norm_estimate(e((1, 0)) + e((0, 1)), 0.3, J, window=8, tol=1e-10)
        assert est.residual >= 0.0
        assert est.iterations >= 1

    def test_json_round_trip(self, J):
        import json

        est = op_norm_estimate(e((1, 0)), 0.1, J, window=4)
        data = json.loads(est.to_json())
        assert data["window"] == 4
        assert data["op_lower"] == pytest.approx(1.0, abs=1e-9)
