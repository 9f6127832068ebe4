import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus import (
    FourierElement,
    add,
    involution,
    partial_derivative,
    pointwise_mul,
    seminorm,
)
from nctorus.errors import (
    AxisError,
    DimensionMismatchError,
    TruncationOverflowError,
    UnderResolvedGridError,
)
from nctorus.lattice import DENSE_BOX_FACTOR, PRUNE_TOL, _coalesce, parseval_mean_square

from conftest import (
    assert_same_bits,
    element_pairs,
    elements,
    elements_nd,
    reference_pointwise_mul,
    unique_rows_coalesce,
)

e = FourierElement.character
unit = FourierElement.unit


class TestAdd:
    def test_additive_inverse(self):
        f = e((1, 2))
        assert (add(f, -1.0 * f)).n_modes == 0

    def test_disjoint_support(self):
        s = add(e((1, 0)), e((0, 1)))
        assert s.n_modes == 2
        assert s.coefficient((1, 0)) == 1.0
        assert s.coefficient((0, 1)) == 1.0

    def test_linearity(self):
        s = add(0.5 * e((2, -1)), 0.5 * e((2, -1)))
        assert s == e((2, -1))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            add(e((1, 0)), FourierElement.character((1, 0, 0)))


class TestInvolution:
    def test_character(self):
        assert involution(e((1, 2))) == e((-1, -2))

    def test_scalar_conjugation(self):
        assert involution(1j * unit()) == -1j * unit()

    def test_real_element_fixed(self):
        f = e((1, 0)) + e((-1, 0))
        assert involution(f) == f
        assert f.is_real()


class TestPointwiseMul:
    def test_characters(self):
        assert pointwise_mul(e((1, 0)), e((0, 1))) == e((1, 1))

    def test_unit_identity(self):
        f = 2.0 * e((1, 2)) + 1j * e((0, -1))
        assert pointwise_mul(unit(), f) == f

    def test_binomial_square(self):
        f = e((1, 0)) + e((-1, 0))
        sq = pointwise_mul(f, f)
        assert sq == e((2, 0)) + 2.0 * unit() + e((-2, 0))

    def test_truncation_overflow(self):
        with pytest.raises(TruncationOverflowError):
            pointwise_mul(e((60, 0)), e((10, 0)), cap=64)


class TestPartialDerivative:
    def test_symbolic(self):
        # differentiate e(p.m) along axis 0
        assert partial_derivative(e((1, 0)), 0) == (2j * np.pi) * e((1, 0))

    def test_constant(self):
        assert partial_derivative(unit(), 0).n_modes == 0

    def test_no_dependence(self):
        assert partial_derivative(e((1, 0)), 1).n_modes == 0

    def test_axis_out_of_range(self):
        with pytest.raises(AxisError):
            partial_derivative(e((1, 0)), 2)


class TestSeminorm:
    def test_constant_zero(self):
        assert seminorm(unit(), 1, 8).grid_sup == 0.0

    def test_character_gradient(self):
        p = (2, 1)
        rep = seminorm(e(p), 1, 16)
        expected = 2 * np.pi * np.hypot(*p)
        assert rep.grid_sup == pytest.approx(expected, rel=1e-12)
        assert rep.l1_majorant == pytest.approx(expected, rel=1e-12)

    def test_character_sup(self):
        assert seminorm(e((1, 0)), 0, 8).grid_sup == pytest.approx(1.0)

    def test_under_resolved(self):
        with pytest.raises(UnderResolvedGridError):
            seminorm(e((5, 0)), 0, 4)

    @given(elements())
    @settings(max_examples=40, deadline=None)
    def test_sandwich(self, f):
        for k in (0, 1, 2, 3):
            rep = seminorm(f, k, 2 * f.support_radius() + 3)
            assert rep.grid_sup <= rep.l1_majorant * (1 + 1e-10) + 1e-12


class TestEval:
    def test_quarter_turn(self):
        assert e((1, 0)).eval_at((0.25, 0.0)) == pytest.approx(1j)

    def test_unit_everywhere(self):
        pts = np.random.default_rng(0).random((5, 2))
        assert np.allclose(unit().eval_at(pts), 1.0)

    def test_cosine_at_origin(self):
        f = e((2, 1)) + e((-2, -1))
        assert f.eval_at((0.0, 0.0)) == pytest.approx(2.0)

    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_mul_agrees_pointwise(self, f, g):
        pts = np.random.default_rng(1).random((7, 2))
        lhs = pointwise_mul(f, g, cap=128).eval_at(pts)
        rhs = f.eval_at(pts) * g.eval_at(pts)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, f.l1() * g.l1())


class TestAlgebraInvariants:
    @given(elements(), elements())
    @settings(max_examples=40, deadline=None)
    def test_involution_anti_automorphism(self, f, g):
        # at hbar = 0 both orders coincide coefficientwise
        prod = pointwise_mul(f, g, cap=128)
        assert (involution(prod) - pointwise_mul(involution(g), involution(f), cap=128)).l1() <= 1e-12 * max(1.0, f.l1() * g.l1())
        assert (involution(prod) - pointwise_mul(involution(f), involution(g), cap=128)).l1() <= 1e-12 * max(1.0, f.l1() * g.l1())

    @given(elements())
    @settings(max_examples=30, deadline=None)
    def test_parseval(self, f):
        grid = 2 * f.support_radius() + 3
        mean_sq = parseval_mean_square(f, grid)
        assert mean_sq == pytest.approx(f.l2() ** 2, abs=1e-10 * max(1.0, f.l1() ** 2))

    def test_reality_criterion(self):
        real = e((1, 2)) + e((-1, -2)) + 0.5 * unit()
        assert real.is_real()
        assert not (e((1, 0)) + 2.0 * e((-1, 0))).is_real()


class TestLiterals:
    def test_round_trip(self):
        f = 2.0 * e((1, 0)) + (0.5 - 0.25j) * e((-3, 2))
        assert FourierElement.from_literal(f.to_literal()) == f

    def test_prune(self):
        f = FourierElement(2, [((1, 0), 1e-16)])
        assert f.n_modes == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FourierElement.from_literal([[[1, 0], bad, 0], [[0, 1], 1, 0]])
        with pytest.raises(ValueError, match="finite"):
            FourierElement.from_literal([[[1, 0], 1, bad]])
        with pytest.raises(ValueError, match="finite"):
            FourierElement.character((2, 3), complex(0.0, bad))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(1.0, -float("inf"))])
    def test_scalar_multiple_rejects_non_finite(self, bad):
        # nan * f used to prune to the zero element, inf * f to hold inf + nan j
        f = e((1, 0)) + 0.5 * e((0, 1))
        with pytest.raises(ValueError, match="scalar must be finite"):
            bad * f
        with pytest.raises(ValueError, match="scalar must be finite"):
            f * bad

    def test_truncate_reports_mass(self):
        f = e((1, 0)) + 0.5 * e((5, 5))
        g, dropped = f.truncate(2)
        assert g == e((1, 0))
        assert dropped == pytest.approx(0.5)


@st.composite
def coalesce_inputs(draw):
    """Rows with many duplicates, some cancelling to below PRUNE_TOL, maybe none.

    Modes spread over a small box (dense summing), a wide one (lexsort),
    or up to +-2^40, where d >= 2 boxes overflow int64 keys.
    """
    dim = draw(st.sampled_from([1, 2, 3, 4]))
    spread = draw(st.sampled_from([1, 2, 40, 2**40]))
    n = draw(st.integers(0, 40))
    coord = st.integers(-spread, spread)
    modes = [draw(st.lists(coord, min_size=dim, max_size=dim)) for _ in range(n)]
    coeffs = [
        complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))) for _ in range(n)
    ]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n // 2 if n else 0)):
        tiny = draw(st.floats(-2 * PRUNE_TOL, 2 * PRUNE_TOL))
        modes.append(modes[i])
        coeffs.append(-coeffs[i] + tiny)
    return dim, np.array(modes, dtype=np.int64).reshape(-1, dim), np.array(coeffs, dtype=complex)


def coalesce_path(modes):
    """The summing path `_coalesce` takes on these (nonempty) rows."""
    size = math.prod(int(b) - int(a) + 1 for a, b in zip(modes.min(axis=0), modes.max(axis=0)))
    return "dense" if size <= DENSE_BOX_FACTOR * modes.shape[0] else "lexsort"


def box_rows(rng, lo, hi, n):
    """n rows in the box [lo, hi] with both corners present, plus duplicates of them."""
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    fill = lo + (rng.random((n - 2, lo.size)) * (hi - lo + 1).astype(float)).astype(np.int64)
    rows = np.vstack([lo, hi, np.minimum(fill, hi)])
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    dup = rng.integers(0, n, n // 2)
    rows = np.vstack([rows, rows[dup]])
    coeffs = np.concatenate([coeffs, -coeffs[dup] + np.where(rng.random(dup.size) < 0.5, 0.0, 1e-3)])
    return rows, coeffs


class TestCoalesce:
    @given(coalesce_inputs())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_unique_rows(self, case):
        dim, modes, coeffs = case
        got_modes, got_coeffs = _coalesce(dim, modes, coeffs)
        want_modes, want_coeffs = unique_rows_coalesce(dim, modes, coeffs)
        assert got_modes.shape == want_modes.shape
        assert np.array_equal(got_modes, want_modes)
        assert got_coeffs.tobytes() == want_coeffs.tobytes()

    # 8 rows plus 4 duplicates: the dense rule admits boxes of up to 24 bins
    @pytest.mark.parametrize(
        "lo, hi, path",
        [
            ((0,), (23,), "dense"),
            ((0,), (24,), "lexsort"),
            ((-3, 2), (0, 7), "dense"),  # 4 x 6 = 24 bins
            ((-3, 2), (1, 6), "lexsort"),  # 5 x 5 = 25 bins
            ((-1, -1, -1, -1), (0, 0, 0, 1), "dense"),  # 24 bins
            ((-2, -2, -2, -2), (2, 2, 2, 2), "lexsort"),
            ((-(2**40),), (2**40,), "lexsort"),
            ((-(2**40), 0), (2**40, 1), "lexsort"),
            ((-(2**40), -(2**40)), (2**40, 2**40), "lexsort"),
            ((-(2**40),) * 4, (2**40,) * 4, "lexsort"),
        ],
    )
    def test_paths_bit_identical(self, lo, hi, path):
        rows, coeffs = box_rows(np.random.default_rng(len(lo) + abs(lo[0])), lo, hi, 8)
        assert coalesce_path(rows) == path
        got_modes, got_coeffs = _coalesce(len(lo), rows, coeffs)
        want_modes, want_coeffs = unique_rows_coalesce(len(lo), rows, coeffs)
        assert np.array_equal(got_modes, want_modes)
        assert got_coeffs.tobytes() == want_coeffs.tobytes()

    def test_empty_input(self):
        modes, coeffs = _coalesce(3, np.empty((0, 3)), np.empty(0))
        assert modes.shape == (0, 3) and coeffs.shape == (0,)

    def test_signed_zero_parts_become_zero(self):
        modes, coeffs = _coalesce(1, [[0], [1]], [complex(-0.0, 1.0), complex(2.0, -0.0)])
        assert coeffs.tobytes() == np.array([1j, 2.0]).tobytes()


class TestScalarOps:
    """Scalar `*`, `star` and `partial_derivative` only prune: they match `_coalesce`."""

    @given(elements_nd(), st.sampled_from([1.0, -1.0, 0.0, -0.0, 1j, -1j, 2.5 - 0.5j, 1e-15]))
    @settings(max_examples=100, deadline=None)
    def test_scalar_mul(self, f, c):
        want = _coalesce(f.dim, f.modes, f.coeffs * complex(c))
        assert_same_bits(c * f, FourierElement._raw(f.dim, *want))

    @given(elements_nd())
    @settings(max_examples=100, deadline=None)
    def test_star(self, f):
        want = _coalesce(f.dim, -f.modes, np.conj(f.coeffs))
        assert_same_bits(f.star(), FourierElement._raw(f.dim, *want))

    @given(elements_nd())
    @settings(max_examples=100, deadline=None)
    def test_partial_derivative(self, f):
        for axis in range(f.dim):
            want = _coalesce(f.dim, f.modes, f.coeffs * (2j * np.pi * f.modes[:, axis]))
            assert_same_bits(partial_derivative(f, axis), FourierElement._raw(f.dim, *want))

    def test_negation_of_imaginary_unit(self):
        # -1 * 1j has real part -0.0; a coalesced sum turns it into 0.0
        g = -(1j * unit())
        assert g.coeffs.tobytes() == np.array([-1j + 0.0]).tobytes()
        assert np.signbit(g.coeffs.real).tolist() == [False]


class TestPointwiseKeys:
    """The key-space convolution against the mode-array reference."""

    @given(element_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, pair):
        f, g = pair
        assert_same_bits(pointwise_mul(f, g, cap=128), reference_pointwise_mul(f, g, cap=128))

    @pytest.mark.parametrize("spread, n", [(2, 40), (30, 6), (2**40, 4)], ids=["dense", "wide", "huge"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_large_cases(self, dim, spread, n):
        rng = np.random.default_rng(dim * n)
        f, g = (
            FourierElement(
                dim,
                zip(
                    map(tuple, rng.integers(-spread, spread + 1, (n, dim)).tolist()),
                    rng.standard_normal(n) + 1j * rng.standard_normal(n),
                ),
            )
            for _ in range(2)
        )
        assert_same_bits(pointwise_mul(f, g, cap=2**42), reference_pointwise_mul(f, g, cap=2**42))

    def test_cancellation_beyond_cap_passes(self):
        # the pairs at (70, 0) cancel exactly and (110, 0) prunes to nothing
        eps = 1e-8
        f = e((0, 0)) + eps * e((40, 0))
        g = e((30, 0)) - eps * e((70, 0))
        got = pointwise_mul(f, g, cap=64)
        assert_same_bits(got, reference_pointwise_mul(f, g, cap=64))
        assert got == e((30, 0))

    def test_surviving_mode_beyond_cap_raises(self):
        f = e((0, 0)) + 1e-3 * e((40, 0))
        with pytest.raises(TruncationOverflowError, match="radius 70 exceeds cap 64"):
            pointwise_mul(f, e((30, 0)), cap=64)
        with pytest.raises(TruncationOverflowError, match="radius 70 exceeds cap 64"):
            reference_pointwise_mul(f, e((30, 0)), cap=64)

    def test_zero_factors(self):
        f = 2.0 * e((1, 2)) + e((-3, 0))
        zero = FourierElement.zero(2)
        for got in (pointwise_mul(zero, f), pointwise_mul(f, zero), pointwise_mul(zero, zero)):
            assert got.n_modes == 0 and got.modes.shape == (0, 2)
        # factors whose products all prune away
        tiny = 1e-8 * e((1, 0))
        assert pointwise_mul(tiny, tiny).n_modes == 0
