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
from nctorus.lattice import PRUNE_TOL, _coalesce, parseval_mean_square

from conftest import elements

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

    def test_truncate_reports_mass(self):
        f = e((1, 0)) + 0.5 * e((5, 5))
        g, dropped = f.truncate(2)
        assert g == e((1, 0))
        assert dropped == pytest.approx(0.5)


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


@st.composite
def coalesce_inputs(draw):
    """Rows with many duplicates, some cancelling to below PRUNE_TOL, maybe none."""
    dim = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(0, 40))
    modes = [draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)) for _ in range(n)]
    coeffs = [
        complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3))) for _ in range(n)
    ]
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n // 2 if n else 0)):
        tiny = draw(st.floats(-2 * PRUNE_TOL, 2 * PRUNE_TOL))
        modes.append(modes[i])
        coeffs.append(-coeffs[i] + tiny)
    return dim, np.array(modes, dtype=np.int64).reshape(-1, dim), np.array(coeffs, dtype=complex)


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

    def test_empty_input(self):
        modes, coeffs = _coalesce(3, np.empty((0, 3)), np.empty(0))
        assert modes.shape == (0, 3) and coeffs.shape == (0,)
