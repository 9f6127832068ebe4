"""Acceptance suite: one test per numbered criterion, each printing a
single ``[ACCEPTANCE] criterion N: PASS|FAIL`` line before asserting.

The convergence scan (criterion 3) is computed once per session and
shared with the determinism check (criterion 9) and with the checks of
its norm numbers.
"""

import dataclasses
import math
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
import nctorus.cstar as cstar
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

    # exp(t L_hbar) f by the Chebyshev series, exact to roundoff with no
    # time step (`steps` is ignored), vs the series conjugation; radius 64
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


def shear_exact_error(hbar, t):
    """||beta^h_t f - beta_t f||_h in closed form for the acceptance scan.

    H depends on x only, so both flows multiply f = e(0,1) by a phase in
    x: the classical flow by exp(-8 i pi^2 t sin 2 pi x), the quantum one
    with 4 pi^2 replaced by c = 2 pi sin(2 pi hbar) / hbar (the Bessel
    series of both solve their mode recursions).  The difference is
    g(U) V with V unitary, so its norm is sup |g| = 2 sin(min(|b|, pi/2)),
    b = t (4 pi^2 - c).
    """
    c = 2.0 * math.pi * math.sin(2.0 * math.pi * hbar) / hbar
    b = abs(t * (4.0 * math.pi**2 - c))
    return 2.0 * math.sin(min(b, math.pi / 2))


def test_norm_records_certified(acceptance_scan):
    # every difference lies on one line, so op_lower samples the sup that
    # is its norm: never above it beyond rounding, and below it by at most
    # the grid's sampling gap; no mode is cut to the norm window
    result, _ = acceptance_scan
    assert len(result.records) == 12
    for r in result.records:
        exact = shear_exact_error(r.hbar, r.t)
        assert exact * (1 - 1e-5) <= r.err.op_lower <= exact * (1 + 1e-9), (r.hbar, r.t)
        assert r.window_dropped == 0.0 and r.valid, (r.hbar, r.t)


def act(A, f):
    """The image of f under e_p -> e_{A^T p}."""
    return FourierElement(f.dim, zip(map(tuple, (f.modes @ A).tolist()), f.coeffs))


def translated(f, s):
    """f(x + s): c_p -> e(p.s) c_p, the gauge action; a real f stays real."""
    phases = np.exp(2j * np.pi * (f.modes @ np.asarray(s)))
    return FourierElement(f.dim, zip(map(tuple, f.modes.tolist()), f.coeffs * phases))


#: Maps of the acceptance config's (H, f) whose exact records are the
#: shear's: a translation, a constant added to H, and two elements of
#: GL(2, Z), for which A J A^T = det(A) J.  The swap has det -1 and maps
#: hbar to -hbar; records are even in hbar.  The shear [[1, 1], [0, 1]]
#: is left out: its differences lie on lines along (1, 1), which the
#: norm's line path does not take yet.
SYMMETRIES = {
    "translation": lambda H, f: (translated(H, (0.1234, 0.377)), translated(f, (0.1234, 0.377))),
    "constant": lambda H, f: (H + 0.7 * unit(), f),
    "swap": lambda H, f: (act(np.array([[0, 1], [1, 0]]), H), act(np.array([[0, 1], [1, 0]]), f)),
    "quarter turn": lambda H, f: (act(np.array([[0, 1], [-1, 0]]), H), act(np.array([[0, 1], [-1, 0]]), f)),
}


@pytest.mark.parametrize("name", list(SYMMETRIES))
def test_symmetric_scans_certified(acceptance_config, acceptance_scan, name):
    # each image's records are the same exact numbers, so each must lie
    # where the acceptance records lie; a translation moves the sampling
    # grid and with it op_lower, inside the sampling gap, while a constant
    # in H changes no generator entry and so no bit
    H, f = SYMMETRIES[name](acceptance_config.hamiltonian, acceptance_config.observable)
    config = dataclasses.replace(acceptance_config, hamiltonian=H, observable=f)
    records = scan(config, write=False).records
    assert len(records) == 12
    for r in records:
        exact = shear_exact_error(r.hbar, r.t)
        assert r.valid, (r.hbar, r.t, r.note)
        assert exact * (1 - 1e-5) <= r.err.op_lower <= exact * (1 + 1e-9), (r.hbar, r.t)
    if name == "constant":
        base, _ = acceptance_scan
        assert [r.err.op_lower.hex() for r in records] == [r.err.op_lower.hex() for r in base.records]


# (iterations, op_lower) of each record's Lanczos estimate with the line
# path switched off (`cstar._line_axis` forced to None), from the loop that
# applied L and L* through the standard mode order.  Each difference is
# then cut to the norm window, so op_lower is the norm of that cut
NORM_PINS = {
    (0.0125, 0.25): (59, 0.020261310819850168),
    (0.0125, 0.5): (49, 0.04103723702772383),
    (0.0125, 1.0): (25, 0.08683017376049905),
    (0.025, 0.25): (59, 0.08094965293809561),
    (0.025, 0.5): (49, 0.16378389582264707),
    (0.025, 1.0): (25, 0.3448104015946235),
    (0.05, 0.25): (59, 0.3212935027575328),
    (0.05, 0.5): (43, 0.6431115027017809),
    (0.05, 1.0): (25, 1.2890263196946592),
    (0.1, 0.25): (64, 1.1877977075899309),
    (0.1, 0.5): (43, 2.0611432363541056),
    (0.1, 1.0): (25, 1.388285129576142),
}


def test_norm_loop_numbers_pinned(acceptance_config, monkeypatch):
    monkeypatch.setattr(cstar, "_line_axis", lambda f: None)
    loop = scan(acceptance_config, write=False)
    got = {(r.hbar, r.t): (r.err.iterations, r.err.op_lower) for r in loop.records}
    assert got.keys() == NORM_PINS.keys()
    for key, (iterations, op_lower) in NORM_PINS.items():
        assert got[key][0] == iterations, key
        assert got[key][1] == pytest.approx(op_lower, rel=1e-12), key
