import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nctorus import (
    FourierElement,
    PlanckParam,
    QuantumHamiltonian,
    SymplecticStructure,
    commutator,
    conjugation_evolve,
    deformed_mul,
    evolve,
    exp_deformed,
    heisenberg_evolve,
    isometry_defect,
    unitary_propagator,
)
import nctorus.deform as deform
import nctorus.quantum as quantum
from nctorus.errors import ConfigError, RealityError, TruncationOverflowError
from nctorus.deform import (
    CHEBYSHEV_TAIL,
    MAX_SERIES_Z,
    _chebyshev_propagate,
    _evolution_plan,
    _evolve_column,
    _generator,
    _reachable_modes,
    _table_fits,
)
from nctorus.lattice import _coalesce
from nctorus.quantum import EvolutionResult

from conftest import (
    STRUCTURES,
    assert_same_bits,
    elements_nd,
    reference_chebyshev_propagate,
    reference_evolution_generator,
    reference_exp_deformed,
)

e = FourierElement.character
unit = FourierElement.unit


def reference_heisenberg_evolve(f, qh, t, J, steps, trunc_radius=32):
    """RK4 on sparse elements: one commutator per stage, truncation per step.

    A time-stepping oracle for `heisenberg_evolve`, built from
    `commutator` and element arithmetic instead of the sparse generator;
    it converges to exp(t L_hbar) f at order 4 in t / steps.
    """
    h = qh.hbar.hbar
    H = qh.base
    scale = np.pi / (1j * h)
    cap = trunc_radius + 8 * max(H.support_radius(), 1)

    def rhs(F):
        return scale * commutator(H, F, h, J, cap=cap)

    dt = t / steps
    F = f
    discarded = 0.0
    for _ in range(steps):
        k1 = rhs(F)
        k2 = rhs(F + (0.5 * dt) * k1)
        k3 = rhs(F + (0.5 * dt) * k2)
        k4 = rhs(F + dt * k3)
        F = F + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        F, dropped = F.truncate(trunc_radius)
        discarded += dropped
    return EvolutionResult(element=F, discarded_mass=discarded, steps=steps)


def generic_hamiltonian():
    """Seven modes: the shear, a radius-1 perturbation and a constant."""
    return (
        e((1, 0)) + e((-1, 0))
        + 0.2 * (e((0, 1)) + e((0, -1)))
        + 0.1 * (e((1, 1)) + e((-1, -1)))
        + 0.3 * unit()
    )


def random_real_element(rng, dim, radius, n_terms):
    modes = rng.integers(-radius, radius + 1, size=(n_terms, dim))
    coeffs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    f = FourierElement(dim, zip(map(tuple, modes.tolist()), coeffs))
    return f + f.star()


class TestQuantumHamiltonian:
    def test_scaled_generator(self, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, PlanckParam(0.1))
        assert qh.scaled.coefficient((1, 0)) == pytest.approx(-np.pi / 0.1)

    def test_float_coercion(self, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.05)
        assert isinstance(qh.hbar, PlanckParam)

    def test_rejects_zero_hbar(self, shear_hamiltonian):
        with pytest.raises(ValueError):
            QuantumHamiltonian(shear_hamiltonian, 0.0)

    def test_rejects_complex_hamiltonian(self):
        with pytest.raises(RealityError):
            QuantumHamiltonian(e((1, 0)), 0.1)


class TestExpDeformed:
    def test_exp_of_zero(self, J):
        res = exp_deformed(FourierElement.zero(2), 0.1, J)
        assert res.element == unit()
        assert res.steps <= 1  # the degree-1 term vanishes and ends the series

    def test_exp_of_scalar(self, J):
        # exp of c * unit is e^c * unit for any hbar
        c = 0.3 + 0.4j
        res = exp_deformed(c * unit(), 0.2, J)
        assert (res.element - np.exp(c) * unit()).l1() < 1e-12

    def test_single_character_phase(self, J):
        # e_p is unitary; exp(i s e_p) has l1 norm cosh-bounded and the
        # mode-0 coefficient sum_k (i s)^{2k} cocycle-powers
        res = exp_deformed(0.5j * e((1, 0)), 0.1, J, trunc_radius=32)
        # powers of e_{(1,0)} stay on the (n, 0) line with trivial cocycle
        assert res.element.coefficient((2, 0)) == pytest.approx((0.5j) ** 2 / 2)
        assert res.discarded_mass < 1e-12


def assert_same_series(got, want):
    """The same modes, and coefficients within 4 eps times the l1 norm: the terms are rounded in another order."""
    assert np.array_equal(got.modes, want.modes)
    assert np.abs(got.coeffs - want.coeffs).max() <= 4 * np.finfo(float).eps * want.l1()


#: (d, index into STRUCTURES[d]): integral J in d = 1-3, non-integral in d = 2, 3.
SERIES_STRUCTURES = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]


class TestSeriesAgainstTermByTerm:
    """`exp_deformed` and `unitary_propagator` against the series summed term by term (conftest)."""

    @pytest.mark.parametrize("dim, which", SERIES_STRUCTURES)
    @pytest.mark.parametrize("radius", [64, 3], ids=["whole", "truncated"])
    def test_exp_deformed(self, dim, which, radius):
        J = SymplecticStructure(STRUCTURES[dim][which])
        g = random_real_element(np.random.default_rng(10 * dim + which), dim, 2, 3)
        f = (2.5j / g.l1()) * g
        got = exp_deformed(f, 0.13, J, trunc_radius=radius)
        want = reference_exp_deformed(f, 0.13, J, trunc_radius=radius)
        assert got.steps == want.steps
        assert_same_series(got.element, want.element)
        # the truncation fires only on the small radius; the bound holds the
        # mass it drops, and more
        assert (want.discarded_mass > 0.0) == (radius == 3)
        assert got.discarded_mass >= want.discarded_mass

    @pytest.mark.parametrize("dim, which", SERIES_STRUCTURES)
    def test_unitary_propagator(self, dim, which, monkeypatch):
        J = SymplecticStructure(STRUCTURES[dim][which])
        H = random_real_element(np.random.default_rng(dim + which), dim, 1, 3)
        qh = QuantumHamiltonian(H, 0.1)
        t = 10.0 * 0.1 / (np.pi * H.l1())  # phase 10: three substeps
        got = unitary_propagator(qh, t, J, trunc_radius=8)
        monkeypatch.setattr(quantum, "exp_deformed", reference_exp_deformed)
        want = unitary_propagator(qh, t, J, trunc_radius=8)
        assert got.steps == want.steps == 3
        assert_same_series(got.element, want.element)


class TestSeriesDiscardedMass:
    @pytest.mark.parametrize("radius, tol", [(4, 1e-12), (64, 1e-4)], ids=["truncated", "tail"])
    def test_bounds_the_distance_to_a_wider_series(self, J, radius, tol):
        f = 1j * generic_hamiltonian()
        got = exp_deformed(f, 0.1, J, tol=tol, trunc_radius=radius)
        wide = exp_deformed(f, 0.1, J, tol=1e-15, trunc_radius=64)
        assert wide.discarded_mass < 1e-14
        distance = (got.element - wide.element).l1()
        assert 0.0 < distance <= got.discarded_mass

    def test_dropped_mass_alone_falls_short(self, J):
        # the mass the truncations drop, summed, misses what each drop would
        # have fed into the later terms: 8.7e-2 against a distance of 1.30e-1,
        # which the bound, 1.37e-1, holds
        f = e((1, 0)) + e((0, 1))
        got = exp_deformed(f, 0.13, J, trunc_radius=3)
        distance = (got.element - exp_deformed(f, 0.13, J, tol=1e-15, trunc_radius=64).element).l1()
        dropped = reference_exp_deformed(f, 0.13, J, trunc_radius=3).discarded_mass
        assert dropped < distance <= got.discarded_mass

    def test_conjugation_counts_both_factors(self, J):
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        up = unitary_propagator(qh, 0.2, J, trunc_radius=4)
        assert up.discarded_mass > 0.0
        res = conjugation_evolve(e((0, 1)), qh, 0.2, J, trunc_radius=4)
        assert res.discarded_mass == 2.0 * up.discarded_mass


class TestPropagator:
    def test_zero_time(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        res = unitary_propagator(qh, 0.0, J)
        assert res.element == unit()

    def test_group_inverse(self, J, shear_hamiltonian):
        # u_t x_h u_{-t} = 1
        qh = QuantumHamiltonian(shear_hamiltonian, 0.2)
        t = 0.1
        up = unitary_propagator(qh, t, J).element
        um = unitary_propagator(qh, -t, J).element
        prod = deformed_mul(up, um, 0.2, J, cap=256)
        assert (prod - unit()).l1() < 1e-9

    def test_unitarity(self, J, shear_hamiltonian):
        # u_t* = u_{-t} because H is real (self-adjoint generator)
        qh = QuantumHamiltonian(shear_hamiltonian, 0.2)
        up = unitary_propagator(qh, 0.1, J).element
        um = unitary_propagator(qh, -0.1, J).element
        assert (up.star() - um).l1() < 1e-10


class TestConjugationEvolve:
    def test_unit_is_fixed(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.2)
        res = conjugation_evolve(unit(), qh, 0.1, J)
        assert (res.element - unit()).l1() < 1e-9

    def test_hamiltonian_is_fixed(self, J, shear_hamiltonian):
        # H commutes with its own propagator
        qh = QuantumHamiltonian(shear_hamiltonian, 0.2)
        res = conjugation_evolve(shear_hamiltonian, qh, 0.1, J)
        assert (res.element - shear_hamiltonian).l1() < 1e-8

    def test_right_factor_is_the_adjoint(self, J, monkeypatch):
        # one propagator: the right factor is u_t^*, and its truncation
        # and substeps are counted once more
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        t = 0.2
        calls = []

        def spy(f, g, *args, **kwargs):
            calls.append(g)
            return deformed_mul(f, g, *args, **kwargs)

        monkeypatch.setattr(quantum, "deformed_mul", spy)
        res = conjugation_evolve(e((0, 1)), qh, t, J, trunc_radius=24)
        monkeypatch.undo()
        up = unitary_propagator(qh, t, J, trunc_radius=24)
        right = calls[-1]
        assert up.steps >= 2
        assert np.array_equal(right.modes, up.element.star().modes)
        assert right.coeffs.tobytes() == up.element.star().coeffs.tobytes()
        assert res.discarded_mass == 2.0 * up.discarded_mass
        assert res.steps == 2 * up.steps
        # the series for -t gives the same factor to roundoff
        assert (unitary_propagator(qh, -t, J, trunc_radius=24).element - right).l1() < 1e-12

    @pytest.mark.parametrize("t, n_modes", [(0.04, 467), (0.1, 907)])
    def test_sandwich_product_peak_memory(self, J, t, n_modes):
        # the benchmark's generic H at its widest draw (a = 0.25, b = 0.125)
        # and trunc_radius: held as all pairs at once, the product u f x u*
        # took 10.5 MB at t = 0.04 and 39.5 MB at t = 0.1
        H = e((1, 0)) + e((-1, 0)) + 0.25 * (e((0, 1)) + e((0, -1))) + 0.125 * (e((1, 1)) + e((-1, -1)))
        u = unitary_propagator(QuantumHamiltonian(H, 0.1), t, J, trunc_radius=24).element
        left, right = deformed_mul(u, e((0, 1)), 0.1, J, cap=128), u.star()
        assert left.n_modes == right.n_modes == n_modes
        tracemalloc.start()
        try:
            deformed_mul(left, right, 0.1, J, cap=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


class TestHeisenbergEvolve:
    def test_zero_generator_cases(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        res = heisenberg_evolve(shear_hamiltonian, qh, 0.3, J)
        assert (res.element - shear_hamiltonian).l1() < 1e-12
        res_u = heisenberg_evolve(unit(), qh, 0.3, J)
        assert (res_u.element - unit()).l1() < 1e-12

    def test_agrees_with_conjugation(self, J, shear_hamiltonian):
        # independent series-conjugation cross-check at moderate hbar
        qh = QuantumHamiltonian(shear_hamiltonian, 0.2)
        t = 0.1
        res = heisenberg_evolve(e((0, 1)), qh, t, J, trunc_radius=24)
        conj = conjugation_evolve(e((0, 1)), qh, t, J, trunc_radius=24)
        diff = (res.element - conj.element.truncate(24)[0]).l1()
        assert diff < 1e-10

    def test_preserves_self_adjointness(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        f = e((0, 1)) + e((0, -1))  # real observable
        res = heisenberg_evolve(f, qh, 0.2, J, trunc_radius=40)
        assert res.element.is_real(1e-8)

    def test_validated_hamiltonian_is_not_checked_again(self, J, monkeypatch):
        # QuantumHamiltonian has checked H's reality and H cannot change after;
        # `evolve` called directly keeps its own check
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        calls = []
        is_real = FourierElement.is_real

        def counted(self, *args, **kwargs):
            calls.append(self)
            return is_real(self, *args, **kwargs)

        monkeypatch.setattr(FourierElement, "is_real", counted)
        res = heisenberg_evolve(e((0, 1)), qh, 0.1, J, trunc_radius=24)
        assert calls == []
        assert_same_bits(res.element, evolve(e((0, 1)), qh.base, 0.1, 0.1, J, trunc_radius=24).element)
        assert len(calls) == 1

    def test_linearity(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        f, g = e((0, 1)), e((1, 1))
        a = heisenberg_evolve(f, qh, 0.1, J, trunc_radius=24).element
        b = heisenberg_evolve(g, qh, 0.1, J, trunc_radius=24).element
        ab = heisenberg_evolve(f + 2.0 * g, qh, 0.1, J, trunc_radius=24).element
        assert (ab - (a + 2.0 * b)).l1() < 1e-10


class TestGeneratorEngine:
    @pytest.mark.parametrize("dim, hbar", [(2, 0.13), (4, 0.07)], ids=["d=2", "d=4"])
    def test_generator_is_scaled_commutator(self, dim, hbar):
        rng = np.random.default_rng(dim)
        J = SymplecticStructure.standard(dim)
        H = random_real_element(rng, dim, radius=1, n_terms=4)
        F = random_real_element(rng, dim, radius=2, n_terms=6) + 0.7j * e((0,) * dim)
        # every product mode of F and H lies within radius 3
        modes = _reachable_modes(F.modes, H.modes, 3)
        L = _generator(H, J, modes, [hbar])
        row = {tuple(m): i for i, m in enumerate(modes.tolist())}
        v = np.zeros(len(row), dtype=complex)
        v[[row[tuple(m)] for m in F.modes.tolist()]] = F.coeffs
        expected = (np.pi / (1j * hbar)) * commutator(H, F, hbar, J, cap=8)
        dense = np.zeros(len(row), dtype=complex)
        dense[[row[tuple(m)] for m in expected.modes.tolist()]] = expected.coeffs
        assert np.abs(L.matvec(v) - dense).sum() <= 1e-12 * max(1.0, np.abs(dense).sum())

    @given(
        dim=st.sampled_from([2, 4]),
        hbar=st.sampled_from([0.0, 0.1, -0.37, 0.0125]),
        scale_J=st.sampled_from([1.0, 0.37]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_csr_oracle_bit_for_bit(self, dim, hbar, scale_J, data):
        # complex coefficients of both parts, a non-integral J, and radii
        # small enough that the box edge drops targets of the outer modes
        H = data.draw(elements_nd((dim,), radius=1, max_terms=4))
        H = H + H.star()
        start = data.draw(elements_nd((dim,), radius=1, max_terms=3))
        if H.n_modes == 0 or start.n_modes == 0:
            return
        J = SymplecticStructure(scale_J * SymplecticStructure.standard(dim).J)
        radius = data.draw(st.integers(1, 4 if dim == 2 else 2))
        modes = _reachable_modes(start.modes, H.modes, radius)
        L = _generator(H, J, modes, [hbar])
        ref = reference_evolution_generator(H, hbar, J, modes)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(modes.shape[0]) + 1j * rng.standard_normal(modes.shape[0])
        assert L.matvec(x).tobytes() == (ref @ x).tobytes()
        assert L.column_l1().tobytes() == abs(ref).sum(axis=0).tobytes()
        assert L.scaled(-0.3).matvec(x).tobytes() == ((ref * -0.3) @ x).tobytes()
        assert np.array_equal(L.toarray(), ref.toarray())

    @pytest.mark.parametrize("shifts", [[(1, 0), (0, 1)], [(2, 1), (1, -1)]], ids=["box", "index-3"])
    def test_gathered_and_sliced_reads_match_csr_oracle(self, J, shifts):
        # on the box every term reads x as one shifted slice; on the index-3
        # sublattice the rows differ in length, so the sources of a term are
        # no one shift of its targets and the operator gathers them
        H = FourierElement(2, {m: 0.7 + 0.2j for m in shifts} | {
            tuple(-c for c in m): 0.7 - 0.2j for m in shifts
        })
        modes = _reachable_modes(np.zeros((1, 2), dtype=np.int64), H.modes, 4)
        L = _generator(H, J, modes, [0.1])
        ref = reference_evolution_generator(H, 0.1, J, modes)
        x = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, modes.shape[0]))
        assert L.matvec(x).tobytes() == (ref @ x).tobytes()

    @pytest.mark.parametrize("scale_J, table", [(1.0, True), (0.37, False)], ids=["table", "per-pair"])
    def test_sin_table_matches_csr_oracle(self, scale_J, table):
        # integral J: the sines come from one table over the integer pairings
        J = SymplecticStructure(scale_J * SymplecticStructure.standard().J)
        H = generic_hamiltonian() + (0.3 + 0.1j) * e((2, -1)) + (0.3 - 0.1j) * e((-2, 1))
        modes = _reachable_modes(np.array([[0, 1]]), H.modes, 9)
        pairing = (H.modes @ J.J) @ modes.T  # the generator's pairings lie in its range
        assert (J._integral and _table_fits(pairing.min(), pairing.max(), pairing.size)) == table
        L = _generator(H, J, modes, [0.0125])
        ref = reference_evolution_generator(H, 0.0125, J, modes)
        x = [1.0, 1j] @ np.random.default_rng(5).standard_normal((2, modes.shape[0]))
        assert L.matvec(x).tobytes() == (ref @ x).tobytes()
        assert L.column_l1().tobytes() == abs(ref).sum(axis=0).tobytes()
        assert np.array_equal(L.toarray(), ref.toarray())

    @pytest.mark.parametrize("case", ["table", "integral-per-pair", "non-integral"])
    @given(
        hbars=st.lists(st.sampled_from([0.1, -0.37, 0.0125, 1.0]), min_size=1, max_size=3),
        at=st.integers(0, 3),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_block_rows_are_the_one_row_generators(self, case, hbars, at, data):
        # row i of a block is the generator at hbars[i] alone, whichever way its
        # sines came: from a table (integral J, `_table_fits`), from one np.sin
        # per pair of an integral J whose pairings span more integers than
        # there are pairs, or from one np.sin per pair of a non-integral J
        hbars.insert(min(at, len(hbars)), 0.0)
        scale = {"table": 1.0, "integral-per-pair": 2.0**20, "non-integral": 0.37}[case]
        J = SymplecticStructure(scale * SymplecticStructure.standard().J)
        H = data.draw(elements_nd((2,), radius=1, max_terms=4))
        H = H + H.star()
        start = data.draw(elements_nd((2,), radius=1, max_terms=3))
        assume(H.n_modes > 0 and start.n_modes > 0)
        modes = _reachable_modes(start.modes, H.modes, data.draw(st.integers(1, 4)))
        fits = []

        def spy(lo, hi, size):
            fits.append(_table_fits(lo, hi, size))
            return fits[-1]

        with mock.patch.object(deform, "_table_fits", spy):
            L = _generator(H, J, modes, hbars)
        n_sines = sum(h != 0.0 for h in hbars)
        assume(fits == {"table": [True] * n_sines, "integral-per-pair": [False] * n_sines}.get(case, []))
        n = modes.shape[0]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        block = L.matvec(np.tile(x, len(hbars)))
        norms = L.column_l1()
        for i, hbar in enumerate(hbars):
            one = _generator(H, J, modes, [hbar])
            assert L.source.tobytes() == one.source.tobytes()
            assert L.weight[:, i].tobytes() == one.weight[:, 0].tobytes()
            assert {k: o for k, o, _ in one._layout}.items() <= {k: o for k, o, _ in L._layout}.items()
            ref = reference_evolution_generator(H, hbar, J, modes)
            assert one.matvec(x).tobytes() == (ref @ x).tobytes()
            assert block[i * n : (i + 1) * n].tobytes() == (ref @ x).tobytes()
            assert norms[i * n : (i + 1) * n].tobytes() == abs(ref).sum(axis=0).tobytes()

    def test_reachable_set_is_not_a_box(self):
        # the shear only moves along the first axis
        modes = _reachable_modes(np.array([[0, 1]]), np.array([[1, 0], [-1, 0]]), 5)
        assert modes.tolist() == [[k, 1] for k in range(-5, 6)]

    def test_zero_observable(self, J):
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        res = heisenberg_evolve(FourierElement.zero(2), qh, 0.2, J)
        assert res.element.n_modes == 0
        assert res.discarded_mass == 0.0

    def test_unit_observable(self, J):
        # the generator annihilates the unit, so only the series-tail bound is reported
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        res = heisenberg_evolve(unit(), qh, 0.2, J, trunc_radius=4)
        assert res.element == unit()
        _, L, v, _ = _evolution_plan(unit(), qh.base, J, 4, [0.1])
        _, (terms,), (tail,) = _chebyshev_propagate(L, v, 0.2)
        assert res.steps == terms
        assert res.discarded_mass == np.sqrt(v.size) * tail * unit().l2() > 0.0

    def test_overflow_contract(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        # the oracle's first step spreads f by 4 rH; its cap is trunc_radius + 8 rH = 16
        reference_heisenberg_evolve(e((12, 1)), qh, 0.01, J, steps=1, trunc_radius=8)
        with pytest.raises(TruncationOverflowError):
            reference_heisenberg_evolve(e((13, 1)), qh, 0.01, J, steps=1, trunc_radius=8)

    def test_observable_beyond_the_radius_is_discarded(self, J, shear_hamiltonian):
        # the mode set reaches the radius of f plus 4 rH, so f may lie outside
        # trunc_radius: its mass there is reported, not raised
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        f = e((13, 1))
        res = heisenberg_evolve(f, qh, 0.01, J, trunc_radius=8)
        _, L, v, outside = _evolution_plan(f, qh.base, J, 8, [0.1])
        (full,), _, _ = _chebyshev_propagate(L, v, 0.01)
        assert res.element.support_radius() <= 8
        assert res.discarded_mass >= np.abs(full[outside]).sum() > 1.0

    def test_step_count_is_ignored(self, J):
        # the call of the perfbench evolve-generic workload, step count 80 included
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        f = e((0, 1))
        res = heisenberg_evolve(f, qh, 0.04, J, 80, trunc_radius=24)
        ref = evolve(f, qh.base, 0.1, 0.04, J, trunc_radius=24)
        assert res.element == ref.element
        assert (res.discarded_mass, res.steps) == (ref.discarded_mass, ref.steps)


class TestChebyshevEvolve:
    """`evolve` (exp(t L_hbar) f by a Chebyshev series) against its oracles."""

    @pytest.mark.parametrize("hbar", [0.1, 0.0125])
    @pytest.mark.parametrize("t", [0.05, 0.25])
    def test_shear_closed_form(self, J, shear_hamiltonian, hbar, t):
        # the quantum analogue of criterion 4: e_(0,1) evolves to
        # sum_n J_n(-2 c t) e_(n,1), c = 2 pi sin(2 pi hbar) / hbar in
        # place of the classical 4 pi^2
        from scipy.special import jv

        c = 2 * np.pi * np.sin(2 * np.pi * hbar) / hbar
        res = evolve(e((0, 1)), shear_hamiltonian, hbar, t, J, trunc_radius=64)
        n = np.arange(-64, 65)
        exact = FourierElement(2, zip([(k, 1) for k in n.tolist()], jv(n, -2 * c * t)))
        assert (res.element - exact).l1() <= 1e-12
        assert res.discarded_mass <= 1e-12

    def test_matches_conjugation_on_generic_hamiltonian(self, J):
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        f = e((0, 1)) + 0.5j * e((1, -1))
        new = evolve(f, qh.base, 0.1, 0.05, J, trunc_radius=24)
        conj = conjugation_evolve(f, qh, 0.05, J, trunc_radius=24)
        assert new.discarded_mass <= 1e-12
        assert (new.element - conj.element).l1() <= 1e-10

    def test_rk4_converges_at_order_four(self, J):
        qh = QuantumHamiltonian(generic_hamiltonian(), 0.1)
        f = e((0, 1)) + 0.5j * e((1, -1))
        # radius 20 keeps the box edge out of both results at t = 0.05
        exact = evolve(f, qh.base, 0.1, 0.05, J, trunc_radius=20).element
        errors = [
            (reference_heisenberg_evolve(f, qh, 0.05, J, n, trunc_radius=20).element - exact).l1()
            for n in (25, 50, 100)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 14.0 <= coarse / fine <= 18.0

    def test_discarded_mass_covers_shell_and_series_tail(self, J):
        H = generic_hamiltonian()
        f = e((0, 1)) + 0.5j * e((1, -1))
        _, L, v, outside = _evolution_plan(f, H, J, 3, [0.2])
        (full,), (terms,), (tail,) = _chebyshev_propagate(L, v, 0.1)
        shell = np.abs(full[outside]).sum()
        assert shell > 0.1 and 0.0 < tail <= CHEBYSHEV_TAIL
        res = evolve(f, H, 0.2, 0.1, J, trunc_radius=3)
        assert res.steps == terms
        # the omitted terms weigh <= tail ||f||_2 in l2, so sqrt(n) times it
        # in l1; adding it to the shell mass rounds once
        tail_bound = np.sqrt(v.size) * tail * f.l2()
        assert tail_bound > 0.0
        error = abs(res.discarded_mass - shell - tail_bound)
        assert error <= 2 * np.spacing(res.discarded_mass) < tail_bound

    @pytest.mark.parametrize("hbar", [0.1, 0.0])
    def test_runaway_time_is_refused_before_the_mode_set(self, J, shear_hamiltonian, monkeypatch, hbar):
        def unreachable(*args):
            raise AssertionError("mode set built for a refused series")

        monkeypatch.setattr(deform, "_evolution_plan", unreachable)
        with pytest.raises(ConfigError, match="series of length"):
            evolve(e((0, 1)), shear_hamiltonian, hbar, 1e6, J)

    @pytest.mark.parametrize("t", [0.0, 0.1])
    def test_subnormal_hbar_is_refused(self, J, shear_hamiltonian, monkeypatch, t):
        # 2 pi/|hbar| overflows a float: refused by name before the mode set,
        # with no RuntimeWarning from an inf or nan series length
        def unreachable(*args):
            raise AssertionError("mode set built for a refused hbar")

        monkeypatch.setattr(deform, "_evolution_plan", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="hbar = 1e-310 is too small"):
                evolve(e((0, 1)), shear_hamiltonian, 1e-310, t, J)
            with pytest.raises(ConfigError, match="hbar = -1e-310 is too small"):
                _evolve_column(e((0, 1)), shear_hamiltonian, (0.1, -1e-310, 0.0), t, J)
        monkeypatch.undo()
        # a tiny |hbar| whose 2 pi/|hbar| is finite is still served
        assert evolve(e((0, 1)), shear_hamiltonian, 1e-300, t, J).element.n_modes > 0

    def test_series_length_limit(self, J):
        # f = 1 is fixed, so its own column gives no floor: the check on ||L||_1 refuses
        H = generic_hamiltonian()
        _, L, v, _ = _evolution_plan(unit(), H, J, 4, [0.1])
        rho = L.column_l1().max()
        _chebyshev_propagate(L, v, MAX_SERIES_Z / rho)
        with pytest.raises(ConfigError, match="series of length"):
            evolve(unit(), H, 0.1, 1.01 * MAX_SERIES_Z / rho, J, trunc_radius=4)

    def test_zero_observable_and_reality(self, J):
        res = evolve(FourierElement.zero(2), generic_hamiltonian(), 0.1, 0.2, J)
        assert res.element.n_modes == 0 and res.discarded_mass == 0.0 and res.steps == 0
        with pytest.raises(RealityError):
            evolve(e((0, 1)), 1j * e((1, 0)), 0.1, 0.2, J)


class TestEvolveColumn:
    """`_evolve_column` (several hbar at one t as one block) against `evolve` row by row."""

    @given(
        d=st.sampled_from([1, 2, 3]),
        hbars=st.lists(st.sampled_from([0.0, 0.1, -0.1, 0.37, -0.0125, 1.0]), min_size=1, max_size=4),
        t=st.sampled_from([0.0, 0.04, -0.04, 0.15]),
        radius=st.integers(1, 2),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_match_evolve_bit_for_bit(self, d, hbars, t, radius, data):
        # the degenerate J of each dimension makes H fix every f (z = 0 rows),
        # and f reaches past the truncation radius, so `outside` holds modes
        J = SymplecticStructure(data.draw(st.sampled_from(STRUCTURES[d])))
        H = data.draw(elements_nd((d,), radius=1, max_terms=3))
        H = H + H.star()
        assume(H.n_modes > 0)
        f = data.draw(elements_nd((d,), radius=2, max_terms=4))
        column = _evolve_column(f, H, hbars, t, J, radius)
        assert len(column) == len(hbars)
        for hbar, got in zip(hbars, column):
            want = evolve(f, H, hbar, t, J, trunc_radius=radius)
            assert_same_bits(got.element, want.element)
            assert got.discarded_mass.hex() == want.discarded_mass.hex()
            assert got.steps == want.steps

    def test_rows_stop_at_their_own_series_length(self, J):
        # at hbar = 0 the generic generator's norm grows with the mode, at
        # hbar = 0.1 its sines saturate: the rows take different term counts
        H = generic_hamiltonian()
        f = e((0, 1)) + 0.5j * e((1, -1))
        column = _evolve_column(f, H, (0.1, 0.0, 0.0125), 0.1, J, 6)
        steps = [r.steps for r in column]
        assert len(set(steps)) == 3
        assert steps == [evolve(f, H, h, 0.1, J, trunc_radius=6).steps for h in (0.1, 0.0, 0.0125)]

    def test_runaway_row_is_refused_before_the_mode_set(self, J, shear_hamiltonian, monkeypatch):
        def unreachable(*args):
            raise AssertionError("mode set built for a refused series")

        monkeypatch.setattr(deform, "_evolution_plan", unreachable)
        with pytest.raises(ConfigError, match="series of length"):
            _evolve_column(e((0, 1)), shear_hamiltonian, (0.1, 0.0), 1e6, J)


@st.composite
def nonzero_elements(draw, d, radius, max_terms):
    """Elements on T^d with 1 to `max_terms` modes: the first coefficient's real part is at least 0.25."""
    n = draw(st.integers(1, max_terms))
    modes = draw(st.lists(st.tuples(*[st.integers(-radius, radius)] * d), min_size=n, max_size=n, unique=True))
    parts = st.one_of(st.floats(-3, 3), st.sampled_from([0.0, -0.0]))
    coeffs = [complex(draw(st.floats(0.25, 3)), draw(parts))]
    coeffs += [complex(draw(parts), draw(parts)) for _ in range(n - 1)]
    return FourierElement(d, zip(modes, coeffs))


class TestChebyshevRecurrence:
    """`_chebyshev_propagate` against the recurrence with its doubling pass, on the CSR generator.

    `_evolve_column`'s elements are checked too, against the reference
    rows zeroed outside the truncation radius and coalesced.
    """

    @staticmethod
    def check_rows(f, H, J, hbars, t, radius):
        modes, L, v, outside = _evolution_plan(f, H, J, radius, hbars)
        V, terms, tails = _chebyshev_propagate(L, v, t)
        column = _evolve_column(f, H, hbars, t, J, radius)
        for i, hbar in enumerate(hbars):
            row, K, tail = reference_chebyshev_propagate(H, hbar, J, modes, v, t)
            assert V[i].tobytes() == row.tobytes()
            assert (int(terms[i]), tails[i].hex()) == (K, tail.hex())
            row[outside] = 0.0
            assert_same_bits(column[i].element, FourierElement._raw(f.dim, *_coalesce(f.dim, modes, row)))
        return L, terms

    @given(
        d=st.sampled_from([2, 3]),
        hbars=st.lists(st.sampled_from([0.0, 0.1, -0.37, 0.0125, 1.0]), min_size=1, max_size=4),
        t=st.sampled_from([0.04, -0.04, 0.15, -0.3]),
        radius=st.integers(1, 3),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_rows_match_the_reference_bit_for_bit(self, d, hbars, t, radius, data):
        # integral, non-integral and degenerate J; H of radius 2 takes chain
        # mode sets whose rows the operator gathers
        J = SymplecticStructure(data.draw(st.sampled_from(STRUCTURES[d])))
        H = data.draw(nonzero_elements(d, radius=data.draw(st.integers(1, 2)), max_terms=3))
        f = data.draw(nonzero_elements(d, radius=2, max_terms=3))
        self.check_rows(f, H + H.star(), J, hbars, t, radius)

    @pytest.mark.parametrize("t", [0.1, -0.1])
    def test_every_case_in_one_block(self, t):
        # rows of different lengths, one at hbar = 0; complex coefficients
        # split their terms, a non-integral J gives non-integral pairings,
        # and shifts +-(2, 1), +-(1, -1) reach the index-3 sublattice, whose
        # rows the operator gathers
        J = SymplecticStructure(0.37 * SymplecticStructure.standard().J)
        H = FourierElement(2, {(2, 1): 0.7 + 0.2j, (-2, -1): 0.7 - 0.2j, (1, -1): 0.5, (-1, 1): 0.5})
        f = e((0, 1)) + 0.5j * e((1, -1))
        L, terms = self.check_rows(f, H, J, (0.1, 0.0, 0.0125), t, 6)
        assert len(set(terms.tolist())) == 3
        assert any(split for _, _, split in L._layout) and any(o is None for _, o, _ in L._layout)


class TestAutomorphismProperties:
    def test_multiplicative_on_product(self, J, shear_hamiltonian):
        # beta_t(f x_h g) = beta_t(f) x_h beta_t(g), exact for conjugation
        h = 0.2
        qh = QuantumHamiltonian(shear_hamiltonian, h)
        t = 0.1
        f, g = e((0, 1)), e((1, 0))
        bf = conjugation_evolve(f, qh, t, J).element
        bg = conjugation_evolve(g, qh, t, J).element
        bfg = conjugation_evolve(deformed_mul(f, g, h, J), qh, t, J).element
        assert (deformed_mul(bf, bg, h, J, cap=512) - bfg).l1() < 1e-7

    def test_star_compatibility(self, J, shear_hamiltonian):
        h = 0.2
        qh = QuantumHamiltonian(shear_hamiltonian, h)
        f = e((0, 1)) + 0.5j * e((1, -1))
        bf = conjugation_evolve(f, qh, 0.1, J).element
        bfs = conjugation_evolve(f.star(), qh, 0.1, J).element
        assert (bf.star() - bfs).l1() < 1e-8

    def test_flow_property_in_time(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        f = e((0, 1))
        once = heisenberg_evolve(f, qh, 0.2, J, trunc_radius=32).element
        half = heisenberg_evolve(f, qh, 0.1, J, trunc_radius=32).element
        twice = heisenberg_evolve(half, qh, 0.1, J, trunc_radius=32).element
        assert (once - twice).l1() < 1e-8


class TestIsometryDefect:
    def test_small_for_character(self, J, shear_hamiltonian):
        qh = QuantumHamiltonian(shear_hamiltonian, 0.1)
        defect = isometry_defect(e((0, 1)), qh, 0.05, J, trunc_radius=24, window=28)
        assert defect < 1e-2
