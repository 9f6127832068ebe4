"""Acceptance suite: one test per numbered criterion, each printing a
single ``[ACCEPTANCE] criterion N: PASS|FAIL`` line before asserting.

The convergence scan (criterion 3) is computed once per session and
shared with the determinism check (criterion 9).
"""

import time

import numpy as np
import pytest

from nctorus import (
    FourierElement,
    PlanckParam,
    QuantumHamiltonian,
    SymplecticStructure,
    conjugation_evolve,
    deformed_mul,
    flow_points,
    gronwall_bound,
    hamiltonian_vector_field,
    heisenberg_evolve,
    lipschitz_check,
    op_norm_estimate,
    pullback,
    torus_distance,
    unitary_propagator,
)
from nctorus.harness import ExperimentConfig, scan

from conftest import random_element
from test_flow import bessel_series

pytestmark = pytest.mark.acceptance

e = FourierElement.character
unit = FourierElement.unit

HBAR_GRID = (0.1, 0.05, 0.025, 0.0125)


def shear():
    return e((1, 0)) + e((-1, 0))


def report(n, ok):
    print(f"\n[ACCEPTANCE] criterion {n}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="session")
def J():
    return SymplecticStructure.standard()


@pytest.fixture(scope="session")
def acceptance_config():
    return ExperimentConfig(
        hamiltonian=shear(),
        observable=e((0, 1)),
        J=SymplecticStructure.standard(),
        hbar_grid=HBAR_GRID,
        t_grid=(0.25, 0.5, 1.0),
        ode_step=1e-3,
        trunc_radius=32,
        norm_window=32,
    )


@pytest.fixture(scope="session")
def acceptance_scan(acceptance_config):
    start = time.perf_counter()
    result = scan(acceptance_config, write=False)
    return result, time.perf_counter() - start


def test_criterion_1_algebraic_exactness(J):
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    h = 0.3
    worst = 0.0
    for _ in range(1000):
        p, q, r = rng.integers(-6, 7, size=(3, 2))
        lhs = deformed_mul(deformed_mul(e(p), e(q), h, J, cap=256), e(r), h, J, cap=256)
        rhs = deformed_mul(e(p), deformed_mul(e(q), e(r), h, J, cap=256), h, J, cap=256)
        worst = max(worst, (lhs - rhs).l1())
    for _ in range(1000):
        p, q = rng.integers(-6, 7, size=(2, 2))
        c1, c2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f, g = c1 * e(p), c2 * e(q)
        prod = deformed_mul(f, g, h, J, cap=256)
        worst = max(
            worst,
            (prod.star() - deformed_mul(g.star(), f.star(), h, J, cap=256)).l1(),
        )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    assert report(1, ok), f"max deviation {worst:.3g}, {elapsed:.2f}s"


def test_criterion_2_commutator_to_bracket(J):
    # the residual's decay order is measured in the hbar-independent l1
    # norm; the deformed operator norm itself varies with hbar and would
    # contaminate the slope with the meter's own hbar dependence
    from nctorus import one_sided_residual, scaled_commutator_residual
    from nctorus.harness import fit_order

    start = time.perf_counter()
    H = shear()
    g = e((0, 1)) + e((0, -1))
    one_sided = fit_order(
        [(h, one_sided_residual(H, g, h, J).l1()) for h in HBAR_GRID]
    )
    anti = fit_order(
        [(h, scaled_commutator_residual(e((1, 0)), e((0, 1)), h, J).l1()) for h in HBAR_GRID]
    )
    elapsed = time.perf_counter() - start
    ok = (
        0.9 <= one_sided.slope <= 1.1
        and one_sided.r_squared >= 0.999
        and 1.9 <= anti.slope <= 2.1
        and elapsed < 10.0
    )
    assert report(2, ok), (
        f"one-sided order {one_sided.slope:.3f} (r2 {one_sided.r_squared:.5f}), "
        f"antisymmetrized order {anti.slope:.3f}, {elapsed:.2f}s"
    )


def test_criterion_3_classical_limit_scan(acceptance_scan):
    result, elapsed = acceptance_scan
    summary = result.summary
    clauses = []
    for t_key, entry in summary["per_t"].items():
        clauses.append((f"t={t_key} monotone", entry["monotone_decreasing"]))
        clauses.append((f"t={t_key} ratios in [0.35, 0.65]", entry["ratios_in_band"]))
        order = entry.get("fitted_order")
        clauses.append((f"t={t_key} fitted order >= 0.8", order is not None and order >= 0.8))
    clauses.append(("runtime < 5 min", elapsed < 300.0))
    ok = all(passed for _, passed in clauses)
    detail = "; ".join(f"{name}: {'ok' if p else 'FAIL'}" for name, p in clauses)
    assert report(3, ok), detail


def test_criterion_4_bessel_oracle(J):
    Phi = hamiltonian_vector_field(shear(), J)
    t = 0.01
    z = -8 * np.pi**2 * t
    res = pullback(e((0, 1)), Phi, t, grid=64, trunc_radius=12, steps=100)
    worst = max(
        abs(res.element.coefficient((n, 1)) - bessel_series(n, z)) for n in range(-6, 7)
    )
    ok = worst <= 1e-6
    assert report(4, ok), f"max Bessel coefficient deviation {worst:.3g}"


def test_criterion_5_conservation(J):
    H = shear()
    Phi = hamiltonian_vector_field(H, J)
    energy = (pullback(H, Phi, 0.5, grid=96, trunc_radius=20, steps=500).element - H).l1()
    pts = np.random.default_rng(200).random((100, 2))
    dets = flow_points(Phi, pts, 1.0, steps=1000, jacobians=True).jacobian_determinants()
    area = float(np.abs(dets - 1.0).max())
    once = flow_points(Phi, pts, 0.6, steps=600).points
    twice = flow_points(
        Phi, flow_points(Phi, pts, 0.3, steps=300).points, 0.3, steps=300
    ).points
    group = float(torus_distance(once, twice).max())
    ok = energy <= 1e-8 and area <= 1e-6 and group <= 1e-8
    assert report(5, ok), f"energy {energy:.3g}, area {area:.3g}, group law {group:.3g}"


def test_criterion_6_gronwall_lipschitz(J):
    Phi = hamiltonian_vector_field(shear(), J)
    rng = np.random.default_rng(300)
    violations = 0
    for t in (0.1, 0.5, 1.0):
        pairs = rng.random((100, 2, 2))
        rep = lipschitz_check(Phi, t, pairs, slack=1e-6)
        violations += rep.violations
        pts = rng.random((100, 2))
        res = flow_points(Phi, pts, t, steps=max(1, round(t / 1e-3)), jacobians=True)
        svals = np.linalg.svd(res.jacobians, compute_uv=False)[:, 0]
        violations += int(np.sum(svals > gronwall_bound(Phi, t, 1) * (1 + 1e-6)))
    ok = violations == 0
    assert report(6, ok), f"{violations} certificate violations"


def test_criterion_7_quantum_suite(J):
    H = shear()
    h = 0.1
    qh = QuantumHamiltonian(H, PlanckParam(h))
    t = 0.5

    u = unitary_propagator(qh, t, J).element
    radius = u.support_radius()
    unitarity = (
        deformed_mul(u, u.star(), h, J, cap=2 * radius + 2) - unit()
    ).l1()

    # automorphism and flow properties via conjugation at moderate hbar
    f, g = e((0, 1)), e((1, 0))
    ts = 0.1
    bf = conjugation_evolve(f, qh, ts, J).element
    bg = conjugation_evolve(g, qh, ts, J).element
    bfg = conjugation_evolve(deformed_mul(f, g, h, J), qh, ts, J).element
    automorphism = (deformed_mul(bf, bg, h, J, cap=512) - bfg).l1()
    two_step = conjugation_evolve(bf, qh, ts, J).element
    one_step = conjugation_evolve(f, qh, 2 * ts, J).element
    flow_prop = (two_step - one_step).l1()

    # ODE at step 2.5e-4 (converged) vs the series conjugation; radius 64
    # clears the ballistic spread 8 pi^2 t ~ 40 with an Airy-decay margin
    ode = heisenberg_evolve(f, qh, t, J, steps=2000, trunc_radius=64)
    conj = conjugation_evolve(f, qh, t, J, trunc_radius=64)
    agreement = (ode.element - conj.element.truncate(64)[0]).l1()

    ok = unitarity <= 1e-8 and automorphism <= 1e-6 and flow_prop <= 1e-6 and agreement <= 1e-6
    assert report(7, ok), (
        f"unitarity {unitarity:.3g}, automorphism {automorphism:.3g}, "
        f"flow {flow_prop:.3g}, agreement {agreement:.3g}"
    )


def test_criterion_8_norm_estimator(J):
    rng = np.random.default_rng(400)
    h = 0.3
    violations = 0
    for _ in range(500):
        f = random_element(rng, radius=3, n_terms=4)
        est = op_norm_estimate(f, h, J, window=8)
        slack = 1e-8 * max(1.0, est.upper_l1)
        if not (est.lower_l2 <= est.op_lower + slack <= est.upper_l1 + 2 * slack):
            violations += 1

    monotone_ok = True
    f = random_element(rng, radius=2, n_terms=4)
    prev = 0.0
    for W in (4, 8, 16):
        val = op_norm_estimate(f, h, J, window=W).op_lower
        if val < prev - 1e-9:
            monotone_ok = False
        prev = val

    # hbar = 0: the norm is the sup of |f| on the torus.  Degree-4
    # elements with smoothly decaying spectra stay within the window's
    # compression accuracy; flat spectra at frequency 4 are limited to
    # ~1.5% by the hard window (chains of ~2W/4 sites), so the test
    # class is degree-4 truncations of smooth symbols
    sup_ok = True
    worst_rel = 0.0
    for seed in (1, 2, 3):
        srng = np.random.default_rng(seed)
        d = {}
        for p1 in range(-4, 5):
            for p2 in range(-4, 5):
                amp = 2.0 ** (-max(abs(p1), abs(p2)))
                d[(p1, p2)] = amp * (srng.standard_normal() + 1j * srng.standard_normal())
        f = FourierElement(2, d)
        est = op_norm_estimate(f, 0.0, J, window=32)
        grid = np.arange(512) / 512
        mesh = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1).reshape(-1, 2)
        sup = float(np.abs(f.eval_at(mesh)).max())
        rel = abs(est.op_lower - sup) / sup
        worst_rel = max(worst_rel, rel)
        if rel > 0.01:
            sup_ok = False

    ok = violations == 0 and monotone_ok and sup_ok
    assert report(8, ok), (
        f"{violations} sandwich violations, monotone {monotone_ok}, "
        f"hbar=0 worst relative gap {worst_rel:.3g}"
    )


def test_criterion_9_determinism(acceptance_config, acceptance_scan):
    first, _ = acceptance_scan
    second = scan(acceptance_config, write=False)
    ok = first.csv_text == second.csv_text
    assert report(9, ok), "CSV differs between identical scan runs"
