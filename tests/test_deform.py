import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from nctorus import (
    FourierElement,
    PlanckParam,
    SymplecticStructure,
    cocycle,
    commutator,
    deformed_mul,
    one_sided_residual,
    op_norm_estimate,
    pointwise_mul,
    poisson_bracket,
    scaled_commutator_residual,
)
import nctorus.lattice as lattice
import nctorus.deform as deform
from nctorus.deform import _on_pairings, _reachable_modes, _table_fits
from nctorus.errors import DimensionMismatchError, TruncationOverflowError
from nctorus.lattice import _row_blocks
from nctorus.harness import fit_order

from conftest import (
    STRUCTURES,
    assert_same_bits,
    element_pairs,
    elements,
    random_element,
    reference_commutator,
    reference_deformed_mul,
    reference_one_sided_residual,
    reference_pointwise_mul,
    reference_poisson_bracket,
    reference_reachable_modes,
    reference_scaled_commutator_residual,
)

e = FourierElement.character
unit = FourierElement.unit


class TestSymplecticStructure:
    def test_standard(self):
        J = SymplecticStructure.standard()
        assert np.array_equal(J.J, [[0, 1], [-1, 0]])

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            SymplecticStructure([[0, 1], [1, 0]])

    def test_antisymmetrizes_noise(self):
        J = SymplecticStructure([[1e-14, 1], [-1, -1e-14]])
        assert np.abs(J.J + J.J.T).max() == 0.0

    def test_degenerate_allowed(self):
        SymplecticStructure(np.zeros((2, 2)))


class TestPlanck:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PlanckParam(float("nan"))

    def test_zero_is_legal(self):
        assert PlanckParam(0.0).hbar == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_float_is_rejected(self, J, bad):
        # a float hbar is checked as a PlanckParam is, not turned into a zero product
        f = e((1, 0)) + e((0, 1))
        for call in (deformed_mul, commutator):
            with pytest.raises(ValueError, match="hbar must be finite"):
                call(f, f, bad, J)
        with pytest.raises(ValueError, match="hbar must be finite"):
            op_norm_estimate(f, bad, J, window=4)


class TestCocycle:
    def test_derived_phase(self, J):
        assert cocycle((1, 0), (0, 1), 0.5, J) == pytest.approx(-1.0)

    def test_undeformed_limit(self, J):
        assert cocycle((3, -2), (5, 1), 0.0, J) == pytest.approx(1.0)

    def test_skew_diagonal(self, J):
        assert cocycle((4, 7), (4, 7), 0.37, J) == pytest.approx(1.0)

    def test_unit_modulus(self, J):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p, q = rng.integers(-5, 6, size=(2, 2))
            assert abs(abs(cocycle(p, q, 0.3, J)) - 1.0) < 1e-14


def clock_shift(n):
    """Clock and shift unitaries with U V = e(theta) V U, theta = -1/n."""
    omega = np.exp(-2j * np.pi / n)
    U = np.diag(omega ** np.arange(n))
    V = np.roll(np.eye(n), 1, axis=0)
    assert np.allclose(U @ V, omega * V @ U)
    return U, V


def represent(f, n):
    """pi(e_p) = e(hbar p1 p2) U^p1 V^p2 for hbar = 1/(2n); a homomorphism."""
    U, V = clock_shift(n)
    h = 1.0 / (2 * n)
    out = np.zeros((n, n), dtype=complex)
    for p, c in zip(f.modes, f.coeffs):
        p1, p2 = int(p[0]), int(p[1])
        word = np.linalg.matrix_power(U, p1 % n if p1 >= 0 else p1) @ np.linalg.matrix_power(V, p2 % n if p2 >= 0 else p2)
        out += c * np.exp(2j * np.pi * h * p1 * p2) * word
    return out


class TestClockShiftOracle:
    """The rational-parameter matrix oracle for the twisted product."""

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_representation_homomorphism(self, J, n):
        h = 1.0 / (2 * n)
        rng = np.random.default_rng(n)
        f = random_element(rng, radius=2, n_terms=4)
        g = random_element(rng, radius=2, n_terms=4)
        lhs = represent(deformed_mul(f, g, h, J, cap=128), n)
        rhs = represent(f, n) @ represent(g, n)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestDeformedMul:
    def test_derived_example(self, J):
        prod = deformed_mul(e((1, 0)), e((0, 1)), 0.5, J)
        assert prod.n_modes == 1
        assert prod.coefficient((1, 1)) == pytest.approx(-1.0)

    def test_unit_two_sided(self, J):
        f = 2.0 * e((1, 2)) + 1j * e((-3, 0))
        assert (deformed_mul(unit(), f, 0.3, J) - f).l1() < 1e-14
        assert (deformed_mul(f, unit(), 0.3, J) - f).l1() < 1e-14

    def test_hbar_zero_is_pointwise(self, J):
        f, g = e((2, -1)), e((1, 3))
        assert deformed_mul(f, g, 0.0, J) == pointwise_mul(f, g)

    @given(f=elements(), g=elements())
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_involution_compatibility(self, J, f, g):
        prod = deformed_mul(f, g, 0.3, J, cap=128)
        swapped = deformed_mul(g.star(), f.star(), 0.3, J, cap=128)
        assert (prod.star() - swapped).l1() <= 1e-12 * max(1.0, f.l1() * g.l1())

    def test_hbar_continuity_at_zero(self, J):
        rng = np.random.default_rng(7)
        f = random_element(rng)
        g = random_element(rng)
        base = pointwise_mul(f, g, cap=128)
        errs = []
        for h in (1e-2, 1e-3, 1e-4):
            errs.append((deformed_mul(f, g, h, J, cap=128) - base).l1())
        # O(hbar): consecutive ratios track the hbar ratios
        assert errs[1] / errs[0] == pytest.approx(0.1, rel=0.05)
        assert errs[2] / errs[1] == pytest.approx(0.1, rel=0.05)


def skew(dim):
    """A fixed generic skew-symmetric J on R^dim (degenerate in odd dim)."""
    a = np.random.default_rng(dim).standard_normal((dim, dim))
    return SymplecticStructure(a - a.T)


class TestDeformedMulKeys:
    """The key-space twisted convolution against the mode-array reference."""

    @given(pair=element_pairs(dims=(2, 3, 4)), hbar=st.sampled_from([0.0, 0.1, -0.37, 0.0125]))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, pair, hbar):
        f, g = pair
        J = skew(f.dim)
        assert_same_bits(
            deformed_mul(f, g, hbar, J, cap=128), reference_deformed_mul(f, g, hbar, J, cap=128)
        )

    @pytest.mark.parametrize(
        "spread, n", [(8, 150), (40, 8), (2**40, 5)], ids=["dense", "wide", "huge"]
    )
    @pytest.mark.parametrize("hbar", [0.0, 0.1])
    def test_large_cases(self, J, spread, n, hbar):
        rng = np.random.default_rng(n)
        f, g = (random_element(rng, radius=spread, n_terms=n) for _ in range(2))
        assert_same_bits(
            deformed_mul(f, g, hbar, J, cap=2**42), reference_deformed_mul(f, g, hbar, J, cap=2**42)
        )

    def test_cancellation_beyond_cap_passes(self, J):
        # collinear modes have phase 1: the pairs at (70, 0) cancel and (110, 0) prunes
        eps = 1e-8
        f = e((0, 0)) + eps * e((40, 0))
        g = e((30, 0)) - eps * e((70, 0))
        got = deformed_mul(f, g, 0.1, J, cap=64)
        assert_same_bits(got, reference_deformed_mul(f, g, 0.1, J, cap=64))
        assert got == e((30, 0))

    def test_surviving_mode_beyond_cap_raises(self, J):
        f = e((0, 1)) + 1e-3 * e((40, 0))
        for mul in (deformed_mul, reference_deformed_mul):
            with pytest.raises(TruncationOverflowError, match="radius 70 exceeds cap 64"):
                mul(f, e((30, 0)), 0.1, J, cap=64)

    def test_integral_flag(self):
        J4 = SymplecticStructure.standard(4)
        assert J4._integral
        assert not SymplecticStructure(0.5 * J4.J)._integral
        assert not skew(2)._integral

    @staticmethod
    def check_phase_path(f, g, hbar, J, table):
        """Bit-identical to the reference, on the phase table or on the per-pair exp."""
        pairing = (f.modes @ J.J) @ g.modes.T
        assert (J._integral and _table_fits(pairing.min(), pairing.max(), pairing.size)) == table
        assert_same_bits(
            deformed_mul(f, g, hbar, J, cap=2**62), reference_deformed_mul(f, g, hbar, J, cap=2**62)
        )

    @pytest.mark.parametrize("hbar", [0.1, -0.37, 0.0])
    def test_phase_table_on_dense_box(self, J, hbar):
        rng = np.random.default_rng(7)
        f, g = (random_element(rng, radius=8, n_terms=150) for _ in range(2))
        self.check_phase_path(f, g, hbar, J, table=True)

    def test_phase_table_in_d4(self):
        rng = np.random.default_rng(4)
        f, g = (
            FourierElement(4, zip(map(tuple, rng.integers(-3, 4, (60, 4)).tolist()),
                                  rng.standard_normal(60) + 1j * rng.standard_normal(60)))
            for _ in range(2)
        )
        self.check_phase_path(f, g, 0.0125, SymplecticStructure.standard(4), table=True)

    def test_non_integral_j_takes_per_pair_exp(self):
        rng = np.random.default_rng(7)
        f, g = (random_element(rng, radius=8, n_terms=150) for _ in range(2))
        self.check_phase_path(f, g, 0.1, skew(2), table=False)

    def test_pairings_beyond_2_53_take_per_pair_exp(self, J):
        rng = np.random.default_rng(5)
        f, g = (random_element(rng, radius=2**40, n_terms=5) for _ in range(2))
        assert np.abs((f.modes @ J.J) @ g.modes.T).max() >= 2**53
        self.check_phase_path(f, g, 0.1, J, table=False)
        # pairings 2^53 and 2^53 + 2 on 4 pairs: a float table of that
        # range cannot hold 2^53 + 1, so it would be wrong
        f = e((1, 0)) + e((1, 1))
        g = e((0, 2**53)) + 1j * e((0, 2**53 + 2))
        self.check_phase_path(f, g, 0.1, J, table=False)

    def test_range_wider_than_pairs_takes_per_pair_exp(self, J):
        # pairings -1, 0, 0 and 1000: 1002 integers for 4 pairs
        f = e((0, 1)) + 0.5 * e((1000, 0))
        g = e((0, 1)) - 2j * e((1, 0))
        self.check_phase_path(f, g, 0.1, J, table=False)

    @given(pair=element_pairs(dims=(2, 4)), hbar=st.sampled_from([0.0, 0.1, -0.37, 0.0125]))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_for_standard_j(self, pair, hbar):
        # signed zeros in the coefficients meet the table's +0.0 at pairing -0.0
        f, g = pair
        J = SymplecticStructure.standard(f.dim)
        assert_same_bits(
            deformed_mul(f, g, hbar, J, cap=128), reference_deformed_mul(f, g, hbar, J, cap=128)
        )

    @given(
        blocks=st.lists(st.lists(st.integers(-300, 300), min_size=1, max_size=40), min_size=1, max_size=6),
        hbar=st.sampled_from([0.0, 0.1, -0.37, 0.0125]),
        n_pairs=st.integers(1, 800),
    )
    @settings(max_examples=200, deadline=None)
    def test_table_keeps_bits_as_it_grows(self, blocks, hbar, n_pairs):
        # one table for a product: blocks whose pairings lie beyond the
        # earlier ones' grow it, and blocks past `n_pairs` integers take the
        # per-pair exp; every entry is the same bits as the exp of its pairing
        fn = lambda k: np.exp(-2j * np.pi * hbar * k)  # noqa: E731
        phases = _on_pairings(fn, SymplecticStructure.standard(), n_pairs)
        for block in blocks:
            pairing = np.array(block, dtype=np.float64)
            assert phases(pairing).tobytes() == fn(pairing).tobytes()

    @pytest.mark.parametrize("cap", [69, 70])
    def test_cap_on_either_side_of_the_box(self, J, cap):
        # the box of sums reaches radius 70 and so does the surviving mode
        # (70, 0): a cap one below it scans the modes and raises, a cap at
        # it skips the scan
        f = e((0, 1)) + 1e-3 * e((40, 0))
        for mul, ref in ((deformed_mul, reference_deformed_mul), (pointwise_mul, reference_pointwise_mul)):
            args = (0.1, J) if mul is deformed_mul else ()
            if cap < 70:
                for fn in (mul, ref):
                    with pytest.raises(TruncationOverflowError, match=f"radius 70 exceeds cap {cap}"):
                        fn(f, e((30, 0)), *args, cap=cap)
            else:
                assert_same_bits(mul(f, e((30, 0)), *args, cap=cap), ref(f, e((30, 0)), *args, cap=cap))

    def test_zero_factors(self, J):
        f = 2.0 * e((1, 2)) + e((-3, 0))
        zero = FourierElement.zero(2)
        for got in (deformed_mul(zero, f, 0.1, J), deformed_mul(f, zero, 0.1, J)):
            assert got.n_modes == 0 and got.modes.shape == (0, 2)
        tiny = 1e-8 * e((1, 0))
        assert deformed_mul(tiny, tiny, 0.1, J).n_modes == 0


@st.composite
def block_pairs(draw):
    """Two factors on T^d, d in 1..4, of 1 to 40 drawn modes each, with signed-zero parts.

    Each factor's modes lie in a small box, so the box of sums is often
    dense and the products walk several row blocks.  The box is moved
    off the origin by up to 40 per axis: pairings with such modes are
    rounded sums of inexact products, which numpy's gemv for a one-row
    block can round differently from the gemm of all rows (`_row_blocks`).
    """
    d = draw(st.integers(1, 4))
    radius = draw(st.integers(1, 3 if d < 3 else 1))
    parts = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0]))

    def factor():
        n = draw(st.integers(1, 40))
        offset = np.array(draw(st.tuples(*[st.integers(-40, 40)] * d)))
        modes = draw(st.lists(st.tuples(*[st.integers(-radius, radius)] * d), min_size=n, max_size=n))
        return FourierElement(d, [(offset + m, complex(draw(parts), draw(parts))) for m in modes])

    return factor(), factor()


@st.composite
def widening_pairs(draw):
    """Two factors on T^2 or T^4 for the standard J whose row blocks pair in ranges that grow.

    f's modes spread along the first axis and g holds e_{(0, 1, ...)},
    whose pairing with a mode p of f is p_1: f's rows are sorted by p_1,
    so later blocks reach pairings that the earlier ones do not.
    """
    d = draw(st.sampled_from([2, 4]))
    reals = st.one_of(st.floats(0.1, 3), st.floats(-3, -0.1))
    parts = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0]))

    def factor(n, first, rest):
        terms = []
        for _ in range(n):
            mode = (draw(st.integers(-first, first)),) + tuple(draw(st.integers(-rest, rest)) for _ in range(d - 1))
            terms.append((mode, complex(draw(reals), draw(parts))))
        return FourierElement(d, terms)

    f = factor(draw(st.integers(8, 40)), 8, 1)
    g = factor(draw(st.integers(2, 7)), 2, 2) + FourierElement.character((0, 1) + (0,) * (d - 2))
    return f, g


class TestProductBlocks:
    """The row-blocked products against the all-pairs references, on blocks of a few pairs."""

    @given(
        pair=block_pairs(),
        block=st.sampled_from([1, 7, 64]),
        hbar=st.sampled_from([0.0, 0.1, -0.37, 0.0125]),
        standard=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, pair, block, hbar, standard):
        f, g = pair
        J = SymplecticStructure.standard(f.dim) if standard and f.dim % 2 == 0 else skew(f.dim)
        with mock.patch.object(lattice, "CONVOLVE_BLOCK", block):
            got = deformed_mul(f, g, hbar, J, cap=128)
            got_pointwise = pointwise_mul(f, g, cap=128)
        assert_same_bits(got, reference_deformed_mul(f, g, hbar, J, cap=128))
        assert_same_bits(got_pointwise, reference_pointwise_mul(f, g, cap=128))

    @given(pair=widening_pairs(), block=st.sampled_from([1, 8, 32]), hbar=st.sampled_from([0.1, -0.37, 0.0125]))
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_later_blocks_widen_the_table(self, pair, block, hbar):
        f, g = pair
        J = SymplecticStructure.standard(f.dim)
        ranges = []

        def spy(fn, J, n_pairs):
            phases = _on_pairings(fn, J, n_pairs)

            def on_block(pairing):
                ranges.append((pairing.min(), pairing.max()))
                return phases(pairing)

            return on_block

        with mock.patch.object(deform, "_on_pairings", spy), mock.patch.object(lattice, "CONVOLVE_BLOCK", block):
            got = deformed_mul(f, g, hbar, J, cap=128)
        lo, hi = np.minimum.accumulate([r[0] for r in ranges]), np.maximum.accumulate([r[1] for r in ranges])
        # a block past the first reaches beyond every block before it, and the
        # whole range stays a table (no more integers than the product has pairs)
        assume(len(ranges) > 1 and ((lo[1:] < lo[:-1]) | (hi[1:] > hi[:-1])).any())
        assume(_table_fits(lo[-1], hi[-1], f.n_modes * g.n_modes))
        assert_same_bits(got, reference_deformed_mul(f, g, hbar, J, cap=128))

    def test_block_rows(self):
        with mock.patch.object(lattice, "CONVOLVE_BLOCK", 7):
            # 7 // 3 = 2 rows a block; the lone last row joins the block before it
            assert list(_row_blocks(7, 3)) == [(0, 2), (2, 4), (4, 7)]
            assert list(_row_blocks(6, 1)) == [(0, 6)]
            # at least two rows, however wide g is, unless f has one mode
            assert list(_row_blocks(5, 100)) == [(0, 2), (2, 5)]
            assert list(_row_blocks(1, 100)) == [(0, 1)]


@st.composite
def reach_cases(draw):
    """(start, shifts, radius) with zero, duplicate and non-unit shifts and start modes in the box."""
    d = draw(st.integers(1, 4))
    radius = draw(st.integers(0, 6))

    def rows(lo, hi, n):
        return draw(st.lists(st.lists(st.integers(lo, hi), min_size=d, max_size=d), min_size=1, max_size=n))

    shifts = rows(-3, 3, 4)
    if draw(st.booleans()):
        shifts += [[0] * d, shifts[0]]
    start = rows(-radius, radius, 3)
    if draw(st.booleans()):  # a start mode on the box edge
        start[0][draw(st.integers(0, d - 1))] = draw(st.sampled_from([-radius, radius]))
    return tuple(np.array(x, dtype=np.int64).reshape(-1, d) for x in (start, shifts)) + (radius,)


@st.composite
def product_cases(draw):
    """(start, shifts, radius) whose shifts hold +-e_a on each free axis a and move no other axis."""
    d = draw(st.integers(1, 4))
    radius = draw(st.integers(0, 3))
    free = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    on_free = [st.integers(-3, 3) if a else st.just(0) for a in free]
    shifts = [draw(st.sampled_from([1, -1])) * np.eye(d, dtype=np.int64)[a] for a in range(d) if free[a]]
    shifts += [np.array(draw(st.tuples(*on_free))) for _ in range(draw(st.integers(0, 2)))]
    start = draw(st.lists(st.lists(st.integers(-radius, radius), min_size=d, max_size=d), min_size=1, max_size=5))
    return np.array(start, dtype=np.int64), np.array(shifts, dtype=np.int64).reshape(-1, d), radius


class TestReachableModes:
    """`_reachable_modes` (whole-chain closure) against the breadth-first reference."""

    @given(case=reach_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_breadth_first_waves(self, case):
        start, shifts, radius = case
        got = _reachable_modes(start, shifts, radius)
        want = reference_reachable_modes(start, shifts, radius)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shifts, radius",
        [
            ([[1], [3]], 5),
            ([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]], 28),  # the generic H of the benchmark
            ([[0, 0, -1], [1, 0, 0], [0, 1, 0], [2, -1, 0]], 3),
        ],
        ids=["d=1", "d=2", "d=3"],
    )
    def test_unit_steps_return_the_whole_box(self, shifts, radius):
        shifts = np.array(shifts, dtype=np.int64)
        d = shifts.shape[1]
        start = np.eye(1, d, dtype=np.int64)
        got = _reachable_modes(start, shifts, radius)
        want = reference_reachable_modes(start, shifts, radius)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == ((2 * radius + 1) ** d, d) and np.array_equal(got, want)

    @given(case=product_cases())
    @settings(max_examples=100, deadline=None)
    def test_line_and_box_sets_take_no_chain(self, case):
        start, shifts, radius = case
        with mock.patch.object(deform, "_chain_ranges", side_effect=AssertionError("chain search")):
            got = _reachable_modes(start, shifts, radius)
        want = reference_reachable_modes(start, shifts, radius)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "shifts, radius",
        [
            ([[1], [-3]], 5),
            ([[-1, 0], [3, 0]], 6),  # the shear's line
            ([[0, 0, 1], [1, 0, 0], [2, 0, -1]], 3),
            ([[0, 1, 0, 0], [0, 0, 0, -1], [0, 2, 0, 1]], 2),
        ],
        ids=["d=1", "d=2", "d=3", "d=4"],
    )
    def test_starts_off_the_free_axes(self, shifts, radius):
        # starts with several distinct projections off the free axes, one of
        # them twice: one line or plane per projection, merged in order
        shifts = np.array(shifts, dtype=np.int64)
        d = shifts.shape[1]
        start = np.random.default_rng(d).integers(-radius, radius + 1, size=(5, d))
        start = np.concatenate([start, start[:1]])
        off = ~shifts[np.abs(shifts).sum(axis=1) == 1].any(axis=0)
        assert d == 1 or np.unique(start[:, off], axis=0).shape[0] >= 3
        with mock.patch.object(deform, "_chain_ranges", side_effect=AssertionError("chain search")):
            got = _reachable_modes(start, shifts, radius)
        assert np.array_equal(got, reference_reachable_modes(start, shifts, radius))

    def test_mixed_set_takes_the_chains(self):
        # +-e_1 makes axis 1 free, but +-(1, 2) also moves axis 2
        start = np.array([[0, 1], [2, -3]])
        shifts = np.array([[1, 0], [-1, 0], [1, 2], [-1, -2]])
        with mock.patch.object(deform, "_chain_ranges", wraps=deform._chain_ranges) as chains:
            got = _reachable_modes(start, shifts, 5)
        assert chains.called
        assert np.array_equal(got, reference_reachable_modes(start, shifts, 5))

    def test_box_without_a_unit_step_takes_the_chains(self):
        # (1, 0) and (1, 1) reach the whole box too, but no shift is +-e_2
        start = np.array([[0, 1]])
        shifts = np.array([[1, 0], [1, 1]])
        got = _reachable_modes(start, shifts, 4)
        assert got.shape == (81, 2)
        assert np.array_equal(got, reference_reachable_modes(start, shifts, 4))

    def test_d4_shear_allocates_no_box(self):
        # the box of radius 36 in d = 4 has 73^4 = 28M cells; the chain is one line of it
        start = np.array([[0, 1, 0, 0]])
        shifts = np.array([[1, 0, 0, 0], [-1, 0, 0, 0]])
        tracemalloc.start()
        try:
            modes = _reachable_modes(start, shifts, 36)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert modes.tolist() == [[k, 1, 0, 0] for k in range(-36, 37)]
        assert peak < 1 << 20


class TestCommutator:
    def test_self_commutator(self, J):
        f = e((1, 0)) + 2.0 * e((0, 2))
        assert commutator(f, f, 0.3, J).l1() < 1e-13

    def test_commutative_at_zero(self, J):
        assert commutator(e((1, 0)), e((0, 1)), 0.0, J).l1() < 1e-14

    def test_single_mode_sine(self, J):
        h = 0.2
        c = commutator(e((1, 0)), e((0, 1)), h, J)
        assert c.coefficient((1, 1)) == pytest.approx(-2j * np.sin(2 * np.pi * h))


class TestPoissonBracket:
    def test_skewness_kills_diagonal(self, J):
        f = e((1, 2)) + e((-1, -2))
        assert poisson_bracket(f, f, J).l1() < 1e-10

    def test_characters(self, J):
        b = poisson_bracket(e((1, 0)), e((0, 1)), J)
        assert b.coefficient((1, 1)) == pytest.approx(-4 * np.pi**2)

    def test_unit_is_central(self, J):
        f = 2.0 * e((3, -1))
        assert poisson_bracket(f, unit(), J).l1() == 0.0

    @given(f=elements(2, 3), g=elements(2, 3), h=elements(2, 3))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_leibniz(self, J, f, g, h):
        scale = max(1.0, f.l1() * g.l1() * h.l1())
        lhs = poisson_bracket(f, pointwise_mul(g, h, cap=256), J, cap=256)
        rhs = pointwise_mul(poisson_bracket(f, g, J, cap=256), h, cap=256) + pointwise_mul(
            g, poisson_bracket(f, h, J, cap=256), cap=256
        )
        assert (lhs - rhs).l1() <= 1e-10 * scale

    @given(f=elements(2, 3), g=elements(2, 3), h=elements(2, 3))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_jacobi(self, J, f, g, h):
        scale = max(1.0, f.l1() * g.l1() * h.l1())
        total = (
            poisson_bracket(f, poisson_bracket(g, h, J, cap=256), J, cap=256)
            + poisson_bracket(g, poisson_bracket(h, f, J, cap=256), J, cap=256)
            + poisson_bracket(h, poisson_bracket(f, g, J, cap=256), J, cap=256)
        )
        assert total.l1() <= 1e-8 * scale


class TestScaledResidual:
    def test_single_mode_closed_form(self, J):
        h = 0.1
        r = scaled_commutator_residual(e((1, 0)), e((0, 1)), h, J)
        expected = -(2 * np.pi / h) * np.sin(2 * np.pi * h) + 4 * np.pi**2
        assert r.coefficient((1, 1)) == pytest.approx(expected, rel=1e-12)
        # small-hbar magnitude ~ (2 pi)^4 hbar^2 / 6
        assert abs(expected) == pytest.approx((2 * np.pi) ** 4 * h**2 / 6, rel=0.05)

    def test_unit_observable(self, J):
        assert scaled_commutator_residual(e((1, 0)), unit(), 0.1, J).l1() == 0.0

    def test_unit_hamiltonian(self, J):
        assert scaled_commutator_residual(unit(), e((0, 1)), 0.1, J).l1() == 0.0

    def test_hbar_zero_raises(self, J):
        with pytest.raises(ZeroDivisionError):
            scaled_commutator_residual(e((1, 0)), e((0, 1)), 0.0, J)

    @pytest.mark.parametrize(
        "H, g",
        [(e((1, 0)), e((0, 1))), (e((1, 1)), e((-1, 1))), (e((2, 0)), e((1, -1)))],
        ids=["pairing=1", "pairing=2", "pairing=-2"],
    )
    def test_antisymmetrized_order_two(self, J, H, g):
        # the quantum weight (2 pi / hbar) sin(2 pi hbar p.Jq) and the
        # classical one 4 pi^2 p.Jq differ at O(hbar^2) for every pairing
        pairs = [
            (h, scaled_commutator_residual(H, g, h, J).l1())
            for h in (0.1, 0.05, 0.025, 0.0125)
        ]
        fit = fit_order(pairs)
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_one_sided_order_one(self, J):
        H, g = e((1, 0)), e((0, 1))
        pairs = [
            (h, one_sided_residual(H, g, h, J).l1())
            for h in (0.1, 0.05, 0.025, 0.0125)
        ]
        fit = fit_order(pairs)
        assert fit.slope == pytest.approx(1.0, abs=0.1)


def pair_mass(f, g, J):
    """sum over the modes p of f and q of g of |c_p| |d_q| (2 + 8 pi^2 |p.Jq|).

    It bounds the l1 mass of the pair terms of every bilinear form here,
    whose weights are at most 2 + 8 pi^2 |k| in modulus, and hence the
    size of their rounding: a residual can cancel far below it.
    """
    if f.n_modes == 0 or g.n_modes == 0:
        return 0.0
    k = np.abs((f.modes @ J.J) @ g.modes.T)
    return float((np.abs(f.coeffs)[:, None] * np.abs(g.coeffs)[None, :] * (2 + 8 * np.pi**2 * k)).sum())


#: Each form of `deform` as a function of (f, g, hbar, J), with its old
#: composition of whole elements from conftest.
FORMS = {
    "deformed_mul": (deformed_mul, reference_deformed_mul),
    "commutator": (commutator, reference_commutator),
    "poisson_bracket": (
        lambda f, g, hbar, J, cap=64: poisson_bracket(f, g, J, cap),
        lambda f, g, hbar, J, cap=64: reference_poisson_bracket(f, g, J, cap),
    ),
    "scaled_commutator_residual": (scaled_commutator_residual, reference_scaled_commutator_residual),
    "one_sided_residual": (one_sided_residual, reference_one_sided_residual),
}


class TestFormsAgainstCompositions:
    """Each bilinear form is one twisted convolution; the old compositions are the oracles."""

    @pytest.mark.parametrize("name", [n for n in FORMS if n != "deformed_mul"])
    @given(
        pair=element_pairs(radius=3, max_terms=8),
        hbar=st.sampled_from([0.3, 0.1, -0.1, 0.0125]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_composition(self, name, pair, hbar, data):
        f, g = pair
        J = SymplecticStructure(data.draw(st.sampled_from(STRUCTURES[f.dim])))
        form, reference = FORMS[name]
        got, want = form(f, g, hbar, J), reference(f, g, hbar, J)
        assert (got - want).l1() <= 1e-12 * pair_mass(f, g, J)

    @pytest.mark.parametrize("name", list(FORMS))
    def test_structure_on_another_torus_raises(self, name):
        # J's top-left block used to serve a bracket of 2-D elements
        form, _ = FORMS[name]
        with pytest.raises(DimensionMismatchError):
            form(e((1, 0)), e((0, 1)), 0.1, SymplecticStructure.standard(4))

    @pytest.mark.parametrize("name", list(FORMS))
    def test_elements_on_another_torus_raise(self, name):
        # the bracket's derivative loop used to index past a 2 x 2 J
        form, _ = FORMS[name]
        f, g = e((1, 0, 0)), e((0, 1, 1))
        with pytest.raises(DimensionMismatchError):
            form(f, g, 0.1, SymplecticStructure.standard())

    def test_bracket_of_characters_on_a_four_torus(self):
        b = poisson_bracket(e((1, 0, 0, 0)), e((0, 1, 0, 0)), SymplecticStructure.standard(4))
        assert b.coefficient((1, 1, 0, 0)) == pytest.approx(-4 * np.pi**2, rel=1e-15)
        assert b.n_modes == 1


#: Generators of GL(2, Z): a shear, the quarter turn and the swap.
GL2_GENERATORS = [
    np.array([[1, 1], [0, 1]]),
    np.array([[0, 1], [-1, 0]]),
    np.array([[0, 1], [1, 0]]),
]


def act(A, f):
    """The image of f under e_p -> e_{A^T p}."""
    return FourierElement(f.dim, zip(map(tuple, (f.modes @ A).tolist()), f.coeffs))


class TestGL2Covariance:
    """For A in GL(2, Z), A J A^T = det(A) J, so e_p -> e_{A^T p} maps hbar to det(A) hbar.

    The algebra has no line path, so every A must pass, shears included.
    """

    @given(
        word=st.lists(st.integers(0, 2), min_size=0, max_size=5),
        f=elements(2, 4),
        g=elements(2, 4),
        hbar=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_forms_are_covariant(self, J, word, f, g, hbar):
        A = np.eye(2, dtype=np.int64)
        for i in word:
            A = A @ GL2_GENERATORS[i]
        det = round(np.linalg.det(A))
        cap = 2**20
        Af, Ag = act(A, f), act(A, g)
        tol = 1e-12 * pair_mass(f, g, J)
        for form in (deformed_mul, commutator):
            lhs = form(Af, Ag, hbar, J, cap)
            rhs = act(A, form(f, g, det * hbar, J, cap))
            assert (lhs - rhs).l1() <= tol
        lhs = poisson_bracket(Af, Ag, J, cap)
        rhs = det * act(A, poisson_bracket(f, g, J, cap))
        assert (lhs - rhs).l1() <= tol


class TestAssociativity:
    def test_character_triples(self, J):
        rng = np.random.default_rng(11)
        h = 0.3
        worst = 0.0
        for _ in range(200):
            p, q, r = rng.integers(-6, 7, size=(3, 2))
            lhs = deformed_mul(deformed_mul(e(p), e(q), h, J, cap=128), e(r), h, J, cap=128)
            rhs = deformed_mul(e(p), deformed_mul(e(q), e(r), h, J, cap=128), h, J, cap=128)
            worst = max(worst, (lhs - rhs).l1())
        assert worst <= 1e-12
