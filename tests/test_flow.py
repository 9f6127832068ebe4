import math

import numpy as np
import pytest

from nctorus import (
    FourierElement,
    SymplecticStructure,
    VectorField,
    delta_phi,
    evolve,
    flow_points,
    gronwall_bound,
    hamiltonian_vector_field,
    lipschitz_check,
    poisson_bracket,
    pullback,
    torus_distance,
)
from nctorus.deform import _generator, _reachable_modes, bessel_j
from nctorus.errors import RealityError, UnderResolvedGridError
from nctorus.flow import step_count

from conftest import random_element
from test_quantum import generic_hamiltonian, random_real_element

e = FourierElement.character
unit = FourierElement.unit


def bessel_series(n, z, terms=60):
    """Power-series Bessel oracle J_n(z), independent of scipy.special.

    J_n(z) = sum_m (-1)^m / (m! (m+n)!) (z/2)^(2m+n); J_{-n} = (-1)^n J_n.
    Accurate for |z| up to a few units with 60 terms in float64.
    """
    if n < 0:
        return (-1) ** n * bessel_series(-n, z, terms)
    total = 0.0
    for m in range(terms):
        total += (-1) ** m / (math.factorial(m) * math.factorial(m + n)) * (z / 2) ** (
            2 * m + n
        )
    return total


class TestVectorField:
    def test_shear_components(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        assert Phi.components[0].n_modes == 0
        # Phi_2 = dH/dx = -4 pi sin(2 pi x)
        c = Phi.components[1]
        assert c.coefficient((1, 0)) == pytest.approx(2j * np.pi)
        assert c.coefficient((-1, 0)) == pytest.approx(-2j * np.pi)
        pts = np.array([[0.25, 0.0], [0.1, 0.7]])
        vals = Phi.eval(pts)
        assert vals[:, 0] == pytest.approx([0.0, 0.0])
        assert vals[:, 1] == pytest.approx(-4 * np.pi * np.sin(2 * np.pi * pts[:, 0]))

    def test_reality_enforced(self):
        with pytest.raises(RealityError):
            VectorField([e((1, 0)), unit()])

    def test_complex_hamiltonian_rejected(self, J):
        with pytest.raises(RealityError):
            hamiltonian_vector_field(e((1, 0)), J)

    def test_degenerate_structure_kills_field(self, shear_hamiltonian):
        J0 = SymplecticStructure(np.zeros((2, 2)))
        Phi = hamiltonian_vector_field(shear_hamiltonian, J0)
        assert all(c.n_modes == 0 for c in Phi.components)

    def test_sup_jacobian_shear(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        # DPhi has single entry -8 pi^2 cos(2 pi x); sup operator norm 8 pi^2
        assert Phi.sup_jacobian_norm() == pytest.approx(8 * np.pi**2, rel=1e-12)


class TestDeltaPhi:
    def test_energy_conservation(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        assert delta_phi(shear_hamiltonian, Phi).l1() < 1e-10

    def test_matches_poisson_bracket(self, J):
        H = e((1, 2)) + e((-1, -2)) + 0.5 * (e((2, 0)) + e((-2, 0)))
        Phi = hamiltonian_vector_field(H, J)
        rng = np.random.default_rng(4)
        f = random_element(rng, radius=2, n_terms=4)
        diff = delta_phi(f, Phi, cap=64) - poisson_bracket(H, f, J, cap=64)
        assert diff.l1() < 1e-8

    def test_constant_annihilated(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        assert delta_phi(unit(), Phi).n_modes == 0


class TestFlowPoints:
    def test_shear_closed_form(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        rng = np.random.default_rng(0)
        pts = rng.random((20, 2))
        t = 0.3
        res = flow_points(Phi, pts, t, steps=300)
        exact_y = np.mod(pts[:, 1] - 4 * np.pi * t * np.sin(2 * np.pi * pts[:, 0]), 1.0)
        assert np.abs(res.points[:, 0] - pts[:, 0]).max() < 1e-12
        assert np.abs(res.points[:, 1] - exact_y).max() < 1e-10

    def test_zero_time_identity(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        pts = np.array([[0.1, 0.2], [0.8, 0.9]])
        res = flow_points(Phi, pts, 0.0, steps=1)
        assert np.array_equal(res.points, pts)

    def test_group_law(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        pts = np.random.default_rng(1).random((10, 2))
        once = flow_points(Phi, pts, 0.4, steps=400).points
        twice = flow_points(
            Phi, flow_points(Phi, pts, 0.2, steps=200).points, 0.2, steps=200
        ).points
        assert torus_distance(once, twice).max() < 1e-10

    def test_area_preservation(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        pts = np.random.default_rng(2).random((10, 2))
        res = flow_points(Phi, pts, 0.5, steps=500, jacobians=True)
        dets = res.jacobian_determinants()
        assert np.abs(dets - 1.0).max() < 1e-10

    def test_divergence_free_symbolically(self, J):
        # sum_k d_k Phi_k = 0 for any Hamiltonian field (Liouville)
        H = e((2, 1)) + e((-2, -1)) + 0.25 * (e((0, 3)) + e((0, -3)))
        Phi = hamiltonian_vector_field(H, J)
        from nctorus import partial_derivative

        div = FourierElement.zero(2)
        for k in range(2):
            div = div + partial_derivative(Phi.components[k], k)
        assert div.l1() < 1e-12

    def test_csv_serialization(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        pts = np.array([[0.25, 0.5]])
        res = flow_points(Phi, pts, 0.1, steps=100, jacobians=True)
        text = res.to_csv(pts)
        lines = text.strip().split("\n")
        assert lines[0].startswith("index,x0_0,x0_1,x_0,x_1,jac_")
        assert len(lines) == 2


@pytest.mark.parametrize(
    "t, step, expected",
    [(0.25, 1e-3, 250), (1.1, 0.1, 11), (0.0014, 1e-3, 2), (0.0, 1e-3, 1)],
)
def test_step_count(t, step, expected):
    assert step_count(t, step) == expected


class TestPullback:
    def test_zero_time_recovers_element(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        f = e((2, 1)) + 0.5 * e((-1, 0))
        res = pullback(f, Phi, 0.0, grid=16, trunc_radius=4, steps=1)
        assert (res.element - f).l1() < 1e-12
        assert res.discarded_mass < 1e-12

    def test_unit_is_fixed(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        res = pullback(unit(), Phi, 0.7, grid=32, trunc_radius=8, steps=700)
        assert (res.element - unit()).l1() < 1e-10

    def test_bessel_coefficients(self, J, shear_hamiltonian):
        # e_{(0,1)} o beta_t = e(y - 4 pi t sin(2 pi x)) has Fourier
        # coefficient J_n(-8 pi^2 t) at mode (n, 1) (Jacobi-Anger)
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        t = 0.02
        z = -8 * np.pi**2 * t
        res = pullback(e((0, 1)), Phi, t, grid=64, trunc_radius=12, steps=200)
        for n in range(-4, 5):
            assert res.element.coefficient((n, 1)) == pytest.approx(
                bessel_series(n, z), abs=1e-9
            )

    def test_multiplicative(self, J, shear_hamiltonian):
        # (fg) o beta = (f o beta)(g o beta)
        from nctorus import pointwise_mul

        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        t = 0.03
        f, g = e((1, 0)), e((0, 1))
        pf = pullback(f, Phi, t, grid=96, trunc_radius=20, steps=100).element
        pg = pullback(g, Phi, t, grid=96, trunc_radius=20, steps=100).element
        pfg = pullback(pointwise_mul(f, g), Phi, t, grid=96, trunc_radius=20, steps=100).element
        assert (pointwise_mul(pf, pg, cap=64) - pfg).l1() < 1e-8

    def test_derivative_identity(self, J, shear_hamiltonian):
        # d/dt (f o beta_t) = (delta_Phi f) o beta_t via centered difference
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        f = e((0, 1))
        t, dt = 0.05, 1e-4
        plus = pullback(f, Phi, t + dt, grid=64, trunc_radius=12, steps=200).element
        minus = pullback(f, Phi, t - dt, grid=64, trunc_radius=12, steps=200).element
        numeric = (1.0 / (2 * dt)) * (plus - minus)
        analytic = pullback(delta_phi(f, Phi), Phi, t, grid=64, trunc_radius=12, steps=200).element
        assert (numeric - analytic).l1() < 1e-5 * max(1.0, analytic.l1())

    def test_under_resolved_grid(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        with pytest.raises(UnderResolvedGridError):
            pullback(e((0, 1)), Phi, 0.1, grid=8, trunc_radius=8, steps=100)

    def test_alias_tolerance(self, J, shear_hamiltonian):
        # at t = 0.25 the wavefront passes mode 4, so radius 4 must alias
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        res = pullback(e((0, 1)), Phi, 0.25, grid=64, trunc_radius=4, steps=250)
        assert res.discarded_mass > 1e-6


class TestClassicalEngine:
    """`evolve` at hbar = 0 (exp(t L_0) f by a Chebyshev series) against its oracles."""

    @pytest.mark.parametrize("dim", [2, 4], ids=["d=2", "d=4"])
    def test_generator_columns_are_brackets(self, dim):
        rng = np.random.default_rng(dim)
        J = SymplecticStructure.standard(dim)
        H = random_real_element(rng, dim, radius=1, n_terms=4)
        modes = _reachable_modes(np.zeros((1, dim), dtype=np.int64), H.modes, 2)
        L = _generator(H, J, modes, [0.0]).toarray()
        assert np.array_equal(L, -L.conj().T)  # anti-Hermitian entrywise
        row = {m: i for i, m in enumerate(map(tuple, modes.tolist()))}
        # columns whose targets r + p all lie inside the mode set
        for r in map(tuple, modes[np.abs(modes).max(axis=1) <= 1].tolist()):
            bracket = poisson_bracket(H, e(r), J)
            expected = np.zeros(len(row), dtype=complex)
            expected[[row[m] for m in map(tuple, bracket.modes.tolist())]] = bracket.coeffs
            assert np.abs(L[:, row[r]] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("t", [0.25, 0.5])
    def test_matches_pullback_on_shear(self, J, shear_hamiltonian, t):
        # RK4 is exact on the shear (x is constant along orbits), so one
        # step gives the pullback up to its DFT truncation
        f = e((0, 1)) + 0.5j * e((1, -1))
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        ref = pullback(f, Phi, t, grid=148, trunc_radius=72, steps=1)
        new = evolve(f, shear_hamiltonian, 0.0, t, J, trunc_radius=72)
        assert ref.discarded_mass < 1e-12
        assert (new.element - ref.element).l1() <= 1e-10
        assert new.discarded_mass <= 1e-12

    def test_matches_pullback_on_generic_hamiltonian(self, J):
        H = generic_hamiltonian()
        f = e((0, 1)) + 0.5j * e((1, -1))
        ref = pullback(f, hamiltonian_vector_field(H, J), 0.01, grid=36, trunc_radius=16, steps=200)
        new = evolve(f, H, 0.0, 0.01, J, trunc_radius=16)
        assert ref.discarded_mass < 1e-12
        assert (new.element - ref.element).l1() <= 1e-10

    def test_bessel_coefficients(self, J, shear_hamiltonian):
        # Jacobi-Anger: e_(0,1) o beta_t has coefficient J_n(-8 pi^2 t) at (n, 1)
        t = 0.01
        z = -8 * np.pi**2 * t
        res = evolve(e((0, 1)), shear_hamiltonian, 0.0, t, J, trunc_radius=12)
        for n in range(-8, 9):
            assert abs(res.element.coefficient((n, 1)) - bessel_series(n, z)) <= 1e-12

    def test_conserves_l2(self, J):
        f = e((0, 1)) + 0.5j * e((1, -1))
        res = evolve(f, generic_hamiltonian(), 0.0, 0.02, J, trunc_radius=20)
        assert res.discarded_mass < 1e-10
        assert abs(res.element.l2() - f.l2()) <= 1e-12

    def test_deterministic(self, J):
        f = e((0, 1)) + 0.5j * e((1, -1))
        a = evolve(f, generic_hamiltonian(), 0.0, 0.05, J, trunc_radius=16)
        b = evolve(f, generic_hamiltonian(), 0.0, 0.05, J, trunc_radius=16)
        assert np.array_equal(a.element.modes, b.element.modes)
        assert np.array_equal(a.element.coeffs, b.element.coeffs)
        assert a.discarded_mass == b.discarded_mass and a.steps == b.steps

    @pytest.mark.parametrize("z", [1e-12, 1e-6, 1e-3, 0.5, 40, 106, 1000, 12345.6])
    def test_bessel_recurrence_matches_array_loop(self, z):
        # the recurrence on numpy scalars in a numpy array, as it ran before
        # it moved to Python floats; small z rescales by 1e-250 on the way
        m = int(z + 20.0 * np.cbrt(z) + 30.0)
        ref = np.zeros(m + 2)
        ref[m] = 1.0
        for k in range(m, 0, -1):
            ref[k - 1] = (2.0 * k / z) * ref[k] - ref[k + 1]
            if abs(ref[k - 1]) > 1e250:
                ref[k - 1 :] *= 1e-250
        ref = ref[: m + 1] / (ref[0] + 2.0 * ref[2::2].sum())
        assert bessel_j(np.float64(z)).tobytes() == ref.tobytes()
        assert bessel_j(z).tobytes() == ref.tobytes()

    # scipy's own values miss J_0 + 2 sum J_2k = 1 by 8.5e-14 at z = 1000
    @pytest.mark.parametrize("z, atol", [(0.5, 1e-15), (40, 1e-15), (106, 5e-15), (1000, 1e-13)])
    def test_bessel_recurrence_matches_scipy(self, z, atol):
        from scipy.special import jv

        j = bessel_j(z)
        assert np.abs(j - jv(np.arange(j.size), z)).max() <= atol


class TestGronwall:
    def test_first_order_shear(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        t = 0.25
        assert gronwall_bound(Phi, t, 1) == pytest.approx(
            math.exp(8 * np.pi**2 * t), rel=1e-10
        )

    def test_zero_time(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        assert gronwall_bound(Phi, 0.0, 1) == pytest.approx(1.0)
        assert gronwall_bound(Phi, 0.0, 2) == 0.0 or gronwall_bound(Phi, 0.0, 2) >= 0.0

    def test_orders_increase(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        t = 0.1
        b1 = gronwall_bound(Phi, t, 1)
        b2 = gronwall_bound(Phi, t, 2)
        b3 = gronwall_bound(Phi, t, 3)
        assert b1 >= 1.0
        assert b2 > 0.0 and b3 > b2  # higher orders stack Bell-polynomial growth

    def test_bound_dominates_measured_jacobian(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        t = 0.05
        pts = np.random.default_rng(3).random((30, 2))
        res = flow_points(Phi, pts, t, steps=100, jacobians=True)
        svals = np.linalg.svd(res.jacobians, compute_uv=False)[:, 0]
        assert svals.max() <= gronwall_bound(Phi, t, 1) * (1 + 1e-6)

    def test_invalid_args(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        with pytest.raises(ValueError):
            gronwall_bound(Phi, 0.1, 0)
        with pytest.raises(ValueError):
            gronwall_bound(Phi, -0.1, 1)


class TestLipschitz:
    def test_shear_pairs(self, J, shear_hamiltonian):
        Phi = hamiltonian_vector_field(shear_hamiltonian, J)
        rng = np.random.default_rng(6)
        pairs = rng.random((50, 2, 2))
        rep = lipschitz_check(Phi, 0.1, pairs)
        assert rep.passed
        assert rep.max_ratio <= rep.bound * (1 + 1e-6)

    def test_torus_distance_wraps(self):
        assert torus_distance([0.95, 0.0], [0.05, 0.0]) == pytest.approx(0.1)
