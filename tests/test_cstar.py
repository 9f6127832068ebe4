import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import nctorus.cstar as cstar
import nctorus.harness as harness
from nctorus import (
    FourierElement,
    SymplecticStructure,
    build_left_multiplication,
    deformed_mul,
    op_norm_estimate,
)
from nctorus.cstar import fft_left_multiplication, fft_length, fft_plan
from nctorus.harness import ExperimentConfig, scan

from conftest import STRUCTURES, coefficients, elements, random_element

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


def phase_scale(f, hbar, J, window):
    """max(1, largest phase argument 2 pi |hbar| sum_a |(pJ)_a q_a|) over the window."""
    arg = 2 * np.pi * abs(hbar) * np.abs(f.modes @ J.J).sum(axis=1).max(initial=0.0) * window
    return max(1.0, arg)


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
    scale = np.abs(f.coeffs).max(initial=0.0) * phase_scale(f, hbar, J, window)
    assert np.abs(new.data - ref.data).max(initial=0.0) <= 1e-15 * scale


def assert_fft_matches_sparse(f, hbar, J, window):
    """The FFT kernel on every axis, and on f* for L*, against `build_left_multiplication`."""
    L = build_left_multiplication(f, hbar, J, window)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(L.shape[0]) + 1j * rng.standard_normal(L.shape[0])
    # the phase-scaled bound of `assert_matches_reference`, summed over
    # the modes (l1), times 10 for the FFT's log2 N growth of rounding
    tol = 1e-14 * f.l1() * np.abs(x).max() * phase_scale(f, hbar, J, window)
    for axis in range(f.dim):
        n_fft = fft_length(f, window, axis)
        y = fft_left_multiplication(f, hbar, J, window, axis, n_fft)(x)
        y_star = fft_left_multiplication(f.star(), hbar, J, window, axis, n_fft)(x)
        assert np.abs(y - L @ x).max() <= tol
        assert np.abs(y_star - L.conj().T @ x).max() <= tol


@st.composite
def kernel_cases(draw):
    """(f, J, window) in d = 2, 3, 4, with W from support radius + 1 to + 3."""
    d = draw(st.sampled_from([2, 3, 4]))
    radius = {2: 3, 3: 2, 4: 1}[d]
    modes = st.tuples(*[st.integers(-radius, radius)] * d)
    f = FourierElement(d, draw(st.dictionaries(modes, coefficients(), min_size=1, max_size=6)))
    assume(f.n_modes > 0)
    J = SymplecticStructure(draw(st.sampled_from(STRUCTURES[d])))
    return f, J, f.support_radius() + draw(st.integers(1, 3))


#: (support radius, largest W - radius) of `line_cases` per dimension; the
#: dense oracle's matrix has at most 729 rows
LINE_SIZES = {1: (4, 3), 2: (3, 3), 3: (1, 3), 4: (1, 1)}


@st.composite
def line_cases(draw):
    """(f, J, window): f on one line along an axis, in d = 1 to 4, each `STRUCTURES` J."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    radius, margin = LINE_SIZES[d]
    axis = draw(st.integers(0, d - 1))
    rest = draw(st.lists(st.integers(-radius, radius), min_size=d - 1, max_size=d - 1))
    line = draw(st.dictionaries(st.integers(-radius, radius), coefficients(), min_size=1, max_size=5))
    terms = {tuple(rest[:axis] + [k] + rest[axis:]): c for k, c in line.items()}
    f = FourierElement(d, terms)
    assume(f.n_modes > 0)
    J = SymplecticStructure(draw(st.sampled_from(STRUCTURES[d])))
    return f, J, f.support_radius() + draw(st.integers(1, margin))


def toeplitz_norm(f, axis, window):
    """||T||, T[i, j] = c_{(i-j, p')} for i, j in [-W, W], by a dense SVD: the line path's oracle.

    For f on one line along `axis` and W >= radius + 1, the compressed
    left multiplication L is a direct sum of copies of T and of zero
    blocks, for every hbar and J.  The entry of L at (r, r - p) is
    c_p e(-hbar (pJ).r), and with r = (r_a, r') the pairing splits into
    k (J_{a,.}.r'), a Toeplitz shift that a diagonal unitary removes;
    r_a (p'J)_a, a row modulation independent of k; and a phase constant
    per block (Boettcher-Silbermann, Introduction to Large Truncated
    Toeplitz Matrices, 1999).  So ||T|| = ||L||, which the norm of f
    bounds from above and approaches as W grows.
    """
    side = 2 * window + 1
    diagonals = np.zeros(2 * side - 1, dtype=np.complex128)  # c at i - j + 2W
    diagonals[f.modes[:, axis] + 2 * window] = f.coeffs
    i = np.arange(side)
    T = diagonals[i[:, None] - i + 2 * window]
    return float(np.linalg.svd(T, compute_uv=False)[0])


def loop_estimate(f, hbar, J, **kwargs):
    """`op_norm_estimate` with the line path switched off, so the Lanczos loop runs."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cstar, "_line_axis", lambda f: None)
        return op_norm_estimate(f, hbar, J, **kwargs)


def sparse_estimate(monkeypatch, f, hbar, J, **kwargs):
    """`op_norm_estimate` with the sparse kernel forced."""
    with monkeypatch.context() as m:
        m.setattr(cstar, "fft_plan", lambda f, window: None)
        return op_norm_estimate(f, hbar, J, **kwargs)


def assert_same_estimate(a, b):
    assert a.op_lower == pytest.approx(b.op_lower, rel=1e-12)
    assert a.iterations == b.iterations


def smooth_symbol(seed):
    """Acceptance criterion 8's degree-4 truncation of a smooth symbol."""
    rng = np.random.default_rng(seed)
    d = {}
    for p1 in range(-4, 5):
        for p2 in range(-4, 5):
            amp = 2.0 ** (-max(abs(p1), abs(p2)))
            d[(p1, p2)] = amp * (rng.standard_normal() + 1j * rng.standard_normal())
    return FourierElement(2, d)


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
        # at hbar = 0 the norm is the sup of |1 + e(p.m)|, i.e. 2; both modes
        # lie on one line, so no window compresses it
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
        # two rows, so the Lanczos loop, the one path that reads the window
        with pytest.raises(ValueError):
            op_norm_estimate(e((5, 0)) + e((0, 1)), 0.1, J, window=5)


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
        est = op_norm_estimate(smooth_symbol(1), hbar, J, window=32)
        assert est.op_lower == pytest.approx(expected, rel=1e-12)


class TestFFTKernel:
    """`fft_left_multiplication` and its adjoint against `build_left_multiplication`."""

    @given(case=kernel_cases(), hbar=st.sampled_from([0.0, 0.1, 0.37, -0.3]))
    @settings(max_examples=20, deadline=None)
    def test_matches_sparse(self, case, hbar):
        f, J, window = case
        assert_fft_matches_sparse(f, hbar, J, window)

    @pytest.mark.parametrize("hbar", [0.0, 0.1, 0.37, -0.3])
    @pytest.mark.parametrize("margin", [1, 3])
    @pytest.mark.parametrize(
        "terms",
        [
            {(2, -1): 1.5 - 0.5j},  # one mode
            {(k, 1): 2.0 ** -abs(k) * (1 + 1j * k) for k in range(-3, 4)},  # one row along axis 0
            {(1, 0, -1, 1): 0.7j},  # one mode in d = 4
            {(0, k, 1, -1): 1.0 + k for k in range(-1, 2)},  # one row along axis 1 in d = 4
        ],
        ids=["mode", "row", "mode-d4", "row-d4"],
    )
    def test_single_mode_and_single_row(self, terms, margin, hbar):
        d = len(next(iter(terms)))
        f = FourierElement(d, terms)
        J = SymplecticStructure(STRUCTURES[d][1])
        assert_fft_matches_sparse(f, hbar, J, f.support_radius() + margin)


class TestLinePath:
    """An element on one line: op_lower is a grid sup of its symbol, and no Lanczos step runs."""

    @given(case=line_cases(), hbar=st.sampled_from([0.0, 0.1, 0.37, -0.3, -1.0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_norm(self, case, hbar):
        # the Toeplitz oracle is ||L|| on the window, and the sup bounds it
        f, J, window = case
        oracle = toeplitz_norm(f, cstar._line_axis(f), window)
        dense = np.linalg.norm(build_left_multiplication(f, hbar, J, window).toarray(), 2)
        assert oracle == pytest.approx(dense, rel=1e-12)
        est = op_norm_estimate(f, hbar, J, window=window)
        assert oracle <= est.op_lower * (1 + 1e-12)
        assert loop_estimate(f, hbar, J, window=window).op_lower <= est.op_lower * (1 + 1e-9)
        assert est.op_lower >= est.lower_l2 - 1e-12 * est.upper_l1
        assert est.iterations == 0 and est.residual == 0.0
        # hbar, J and the window are not read
        zero_J = SymplecticStructure(STRUCTURES[f.dim][-1])
        assert est.op_lower == op_norm_estimate(f, 0.0, zero_J, window=window + 1).op_lower

    def test_two_rows_run_lanczos(self, J):
        f = e((1, 0)) + 0.5 * e((0, 1)) + e((-1, 1))
        assert cstar._line_axis(f) is None
        assert op_norm_estimate(f, 0.1, J, window=8).iterations >= 1

    @pytest.mark.parametrize("hbar", [0.0, 0.1, -0.37])
    @pytest.mark.parametrize(
        "d, terms",
        [
            (1, {(k,): 1.0 / (1 + k * k) + 0.5j * k for k in range(-3, 4)}),
            (2, {(k, 1): 2.0 ** -abs(k) * (1 + 1j * k) for k in range(-3, 4)}),
            (2, {(-2, k): 1.0 + 0.3j * k for k in range(-2, 3)}),
            (4, {(0, k, 1, -1): 1.0 + k for k in range(-1, 2)}),
        ],
        ids=["d1", "row-axis0", "row-axis1", "row-d4"],
    )
    def test_agrees_with_the_loop(self, d, terms, hbar):
        # the forced loop finds the Toeplitz oracle, and the line value bounds both
        f = FourierElement(d, terms)
        J = SymplecticStructure(STRUCTURES[d][1 if d > 1 else 0])  # non-integral where d > 1
        window = f.support_radius() + 2
        line = op_norm_estimate(f, hbar, J, window=window)
        loop = loop_estimate(f, hbar, J, window=window)
        assert loop.iterations >= 1
        oracle = toeplitz_norm(f, cstar._line_axis(f), window)
        assert loop.op_lower == pytest.approx(oracle, rel=1e-9)
        assert loop.op_lower <= line.op_lower * (1 + 1e-9)


class TestKernelChoice:
    """`op_norm_estimate` picks its kernel by operation count; both give one estimate."""

    def test_shear_difference_takes_fft(self):
        # the support of a scan-shear difference: one row p' = 1 along axis 0
        f = FourierElement(2, {(k, 1): 2.0 ** -abs(k) for k in range(-31, 32)})
        assert fft_plan(f, 32) == (0, 96)
        assert fft_plan(f.star(), 32) == (0, 96)

    def test_criterion_8_elements_take_sparse(self):
        rng = np.random.default_rng(400)
        assert all(fft_plan(random_element(rng, radius=3, n_terms=4), 8) is None for _ in range(500))

    # seed 1 is pinned to the sparse path's op_lower by
    # TestSeparableKernel.test_estimate_unchanged_on_smooth_symbol
    @pytest.mark.parametrize("seed", [2, 3])
    def test_paths_agree_on_smooth_symbols(self, J, seed, monkeypatch):
        f = smooth_symbol(seed)
        assert fft_plan(f, 32) is not None
        fft = op_norm_estimate(f, 0.0, J, window=32)
        assert_same_estimate(fft, sparse_estimate(monkeypatch, f, 0.0, J, window=32))

    @pytest.mark.acceptance
    def test_paths_agree_on_acceptance_records(self, monkeypatch):
        # each difference lies on one line; force the loop, so both kernels run
        monkeypatch.setattr(cstar, "_line_axis", lambda f: None)
        calls = []

        def capture(f, hbar, J, **kwargs):
            est = op_norm_estimate(f, hbar, J, **kwargs)
            calls.append((f, hbar, J, kwargs, est))
            return est

        monkeypatch.setattr(harness, "op_norm_estimate", capture)
        config = ExperimentConfig(
            hamiltonian=e((1, 0)) + e((-1, 0)),
            observable=e((0, 1)),
            J=SymplecticStructure.standard(),
            hbar_grid=(0.1, 0.05, 0.025, 0.0125),
            t_grid=(0.25, 0.5, 1.0),
            trunc_radius=32,
            norm_window=32,
        )
        scan(config, write=False)
        assert len(calls) == 12
        for f, hbar, J, kwargs, est in calls:
            assert fft_plan(f, kwargs["window"]) is not None
            assert_same_estimate(est, sparse_estimate(monkeypatch, f, hbar, J, **kwargs))


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
