"""Heisenberg-picture evolution in the deformed algebra.

The quantum Hamiltonian is the rescaled element (-pi/hbar) H; its
propagator is the deformed exponential exp_h(i t (-pi/hbar) H), and the
quantum flow conjugates observables by it.  Equivalently, observables
solve the Heisenberg equation

    dF/dt = (pi / (i hbar)) [H, F]_h,

whose generator stays O(1) as hbar -> 0 (it approximates the Poisson
bracket with H), so small-hbar runs do not stiffen.  Its solution
exp(t L_hbar) F is `deform.evolve`, exact to roundoff with no time step;
`heisenberg_evolve` is that call for a `QuantumHamiltonian`.  The
series-based conjugation here is an independent cross-check at moderate
hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cstar import default_window, op_norm_estimate
# `commutator` is not called here; it stays importable from this module
# because the benchmark tracer (perfbench/tracing.py) wraps it by name
from .deform import (  # noqa: F401
    EvolutionResult,
    PlanckParam,
    _as_hbar,
    _evolve_column,
    commutator,
    deformed_mul,
)
from .errors import RealityError, SeriesDivergenceError
from .lattice import FourierElement, _coalesce


@dataclass(frozen=True)
class QuantumHamiltonian:
    """A real-valued Hamiltonian with its hbar-rescaled generator."""

    base: FourierElement
    hbar: PlanckParam

    def __post_init__(self):
        h = _as_hbar(self.hbar)
        if h == 0.0:
            raise ValueError("quantum Hamiltonian needs hbar != 0")
        if not isinstance(self.hbar, PlanckParam):
            object.__setattr__(self, "hbar", PlanckParam(h))
        if not self.base.is_real():
            raise RealityError("Hamiltonian fails the reality test")

    @property
    def scaled(self):
        """(-pi / hbar) * base, the self-adjoint generator element."""
        return (-np.pi / self.hbar.hbar) * self.base


def _series_remainder(a, drops, last):
    """A bound on the l1 distance from the summed terms of `exp_deformed` to the whole series.

    With a = ||f||_1, the computed terms are T_0 = 1 and T_n = P_n(T_{n-1}
    x_h f / n) for n = 1..N, where P_n drops l1 mass d_n = drops[n - 1].
    As ||x x_h f||_1 <= a ||x||_1, the error e_n of T_n against f^n / n!
    obeys ||e_n||_1 <= (a / n) ||e_{n-1}||_1 + d_n, and each left-out term
    n > N is f^(n-N) (N! / n!) times f^N / N!, which is T_N + e_N.  So
    the distance is at most sum_n d_n E_n + last (E_N - 1), with `last`
    = ||T_N||_1 and E_n = sum_{j >= 0} a^j n! / (n + j)! <= e^a.  E_N is
    summed until its terms fall below roundoff and halve at each step,
    and E_{n-1} = 1 + a E_n / n.
    """
    N = len(drops)
    E = term = 1.0
    j = 0
    while term > 1e-17 * E or 2.0 * a > N + j:
        j += 1
        term *= a / (N + j)
        E += term
    bound = last * (E - 1.0)
    for n in range(N, 0, -1):
        bound += drops[n - 1] * E
        E = 1.0 + a * E / n
    return bound


def exp_deformed(f, hbar, J, tol=1e-12, trunc_radius=64):
    """The deformed exponential sum_n f^(x_h n) / n!.

    Term n is term n - 1 times f / n, and terms are taken until one's
    l1 norm falls below `tol`.  Term n lies within radius n r (r the
    support radius of f), so only from n r > `trunc_radius` on is a
    term truncated to that radius.  The terms are summed once, at the
    end, each mode from 0.0 in term order.  Raises
    `SeriesDivergenceError` if term norms stop decreasing past the
    expected series length.

    `discarded_mass` bounds, in l1 and hence in every C*-norm, the
    distance to exp_h(f): the mass each truncation drops, carried
    through the later terms, plus the series tail after the last term
    (`_series_remainder`).  It does not bound floating-point rounding,
    nor the coefficients below `lattice.PRUNE_TOL` that each product
    prunes, as `deform.evolve`'s does not.
    """
    h = _as_hbar(hbar)
    r = f.support_radius()
    cap = trunc_radius + max(r, 1)
    a = f.l1()
    max_terms = int(3 * a) + 60
    term = FourierElement.unit(f.dim)
    terms, drops = [term], []
    prev_norm = np.inf
    n = 0
    while True:
        tn = term.l1()
        if tn <= tol:
            break
        n += 1
        if n > max_terms:
            if tn >= prev_norm:
                raise SeriesDivergenceError(
                    f"exp series not converging at radius {trunc_radius} "
                    f"(term {n}, l1 {tn:.3g})"
                )
            max_terms += 20  # still shrinking; allow a longer tail
        prev_norm = tn
        term = deformed_mul(term, (1.0 / n) * f, h, J, cap=cap)
        dropped = 0.0
        if n * r > trunc_radius:
            term, dropped = term.truncate(trunc_radius)
        terms.append(term)
        drops.append(dropped)
    modes = np.concatenate([t.modes for t in terms])
    coeffs = np.concatenate([t.coeffs for t in terms])
    total = FourierElement._raw(f.dim, *_coalesce(f.dim, modes, coeffs))
    return EvolutionResult(element=total, discarded_mass=_series_remainder(a, drops, tn), steps=n)


def _propagator_radius(qh, t, trunc_radius):
    # series spread of exp(i t H^h): phase * support radius of H, plus margin
    phase = abs(t) * np.pi * qh.base.l1() / abs(qh.hbar.hbar)
    rH = max(qh.base.support_radius(), 1)
    return max(trunc_radius, rH * (math.ceil(phase) + 32))


#: Largest phase |t| pi ||H||_l1 / |hbar| that `unitary_propagator`
#: exponentiates by one series.
MAX_SUBSTEP_PHASE = 4.0


def unitary_propagator(qh, t, J, tol=1e-12, trunc_radius=32):
    """The propagator u_t = exp_h(i t (-pi/hbar) H).

    For |t| pi ||H||_l1 / hbar above `MAX_SUBSTEP_PHASE` the interval
    is split into substeps, each exponentiated by a short series and
    composed with the deformed product (semigroup property); the
    effective truncation radius is widened to hold the propagator's
    spectral spread.
    """
    h = qh.hbar.hbar
    if t == 0.0:
        return EvolutionResult(FourierElement.unit(qh.base.dim), 0.0, 0)
    phase = abs(t) * np.pi * qh.base.l1() / abs(h)
    n_sub = max(1, math.ceil(phase / MAX_SUBSTEP_PHASE))
    radius = _propagator_radius(qh, t, trunc_radius)
    g = (1j * (t / n_sub)) * qh.scaled
    step = exp_deformed(g, h, J, tol=tol, trunc_radius=radius)
    u = step.element
    discarded = step.discarded_mass
    for _ in range(n_sub - 1):
        u = deformed_mul(u, step.element, h, J, cap=radius + 1)
        u, dropped = u.truncate(radius)
        discarded += dropped
    return EvolutionResult(element=u, discarded_mass=discarded, steps=n_sub)


def conjugation_evolve(f, qh, t, J, tol=1e-12, trunc_radius=32):
    """The quantum flow as a sandwich: u_t x_h f x_h u_t^*.

    The star is an antilinear anti-automorphism of the deformed algebra
    (Rieffel, Pacific J. Math. 93, 1981), so for the real H that
    `QuantumHamiltonian` enforces, u_t^* = exp_h(-i t (-pi/hbar) H) =
    u_{-t}: one propagator serves both factors.  Star commutes with the
    symmetric box truncation, so the adjoint drops the same mass in the
    same substeps; `discarded_mass` and `steps` count both factors.
    """
    h = qh.hbar.hbar
    up = unitary_propagator(qh, t, J, tol=tol, trunc_radius=trunc_radius)
    cap = 2 * up.element.support_radius() + f.support_radius() + 2
    left = deformed_mul(up.element, f, h, J, cap=cap)
    out = deformed_mul(left, up.element.star(), h, J, cap=cap)
    return EvolutionResult(
        element=out, discarded_mass=2.0 * up.discarded_mass, steps=2 * up.steps
    )


def heisenberg_evolve(f, qh, t, J, steps=None, trunc_radius=32):
    """beta^h_t f = exp(t L_hbar) f, L_hbar F = (pi/(i hbar)) [H, F]_h.

    `deform.evolve` on qh's Hamiltonian and hbar: exact to roundoff,
    with `discarded_mass` and `steps` as documented there (the l1 mass
    beyond `trunc_radius` plus the series tail bound; series terms).
    `steps` is accepted and ignored: the evolution takes no time step,
    and callers that pass a step count keep working, among them the
    perfbench evolve-generic workload, which passes it fifth by position.
    `QuantumHamiltonian` has checked H's reality, and H cannot change
    after, so this call runs no reality test.
    """
    return _evolve_column(f, qh.base, (qh.hbar.hbar,), t, J, trunc_radius)[0]


def isometry_defect(f, qh, t, J, trunc_radius=32, window=None, tol=1e-8):
    """|estimate(beta^h_t f) - estimate(f)| with shared window and tolerance.

    The quantum flow is a *-automorphism, hence isometric, and
    `heisenberg_evolve` applies it exactly to roundoff; the defect
    measures estimator error and truncation, not time stepping.
    """
    evolved = heisenberg_evolve(f, qh, t, J, trunc_radius=trunc_radius)
    if window is None:
        window = max(default_window(f), default_window(evolved.element))
    a = op_norm_estimate(evolved.element, qh.hbar, J, window=window, tol=tol)
    b = op_norm_estimate(f, qh.hbar, J, window=window, tol=tol)
    return abs(a.op_lower - b.op_lower)
