import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from nctorus import (
    FourierElement,
    build_left_multiplication,
    deformed_mul,
    op_norm_estimate,
)

from conftest import elements, random_element

e = FourierElement.character
unit = FourierElement.unit


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
