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
    commutator,
    deformed_mul,
    evolve,
)
from .errors import RealityError, SeriesDivergenceError
from .lattice import FourierElement


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


def exp_deformed(f, hbar, J, tol=1e-12, trunc_radius=64, max_terms=None):
    """The deformed exponential sum_n f^(x_h n) / n!.

    Terms are accumulated until the running term's l1 norm falls below
    `tol`; modes outside `trunc_radius` are dropped with discarded-mass
    accounting.  Raises `SeriesDivergenceError` if term norms stop
    decreasing past the expected series length.
    """
    h = _as_hbar(hbar)
    cap = trunc_radius + max(f.support_radius(), 1)
    if max_terms is None:
        max_terms = int(3 * f.l1()) + 60
    total = FourierElement.unit(f.dim)
    term = total
    discarded = 0.0
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
        term = (1.0 / n) * deformed_mul(term, f, h, J, cap=cap)
        term, dropped = term.truncate(trunc_radius)
        discarded += dropped
        total = total + term
    return EvolutionResult(element=total, discarded_mass=discarded, steps=n)


def _propagator_radius(qh, t, trunc_radius):
    # series spread of exp(i t H^h): phase * support radius of H, plus margin
    phase = abs(t) * np.pi * qh.base.l1() / abs(qh.hbar.hbar)
    rH = max(qh.base.support_radius(), 1)
    return max(trunc_radius, rH * (math.ceil(phase) + 32))


def unitary_propagator(qh, t, J, tol=1e-12, trunc_radius=32, max_substep_phase=4.0):
    """The propagator u_t = exp_h(i t (-pi/hbar) H).

    For large |t| pi ||H||_l1 / hbar the interval is split into
    substeps, each exponentiated by a short series and composed with
    the deformed product (semigroup property); the effective truncation
    radius is widened to hold the propagator's spectral spread.
    """
    h = qh.hbar.hbar
    if t == 0.0:
        return EvolutionResult(FourierElement.unit(qh.base.dim), 0.0, 0)
    phase = abs(t) * np.pi * qh.base.l1() / abs(h)
    n_sub = max(1, math.ceil(phase / max_substep_phase))
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
    """The quantum flow as a sandwich: u_t x_h f x_h u_{-t}."""
    h = qh.hbar.hbar
    up = unitary_propagator(qh, t, J, tol=tol, trunc_radius=trunc_radius)
    um = unitary_propagator(qh, -t, J, tol=tol, trunc_radius=trunc_radius)
    radius = max(up.element.support_radius(), um.element.support_radius())
    cap = 2 * radius + f.support_radius() + 2
    out = deformed_mul(deformed_mul(up.element, f, h, J, cap=cap), um.element, h, J, cap=cap)
    return EvolutionResult(
        element=out,
        discarded_mass=up.discarded_mass + um.discarded_mass,
        steps=up.steps + um.steps,
    )


def heisenberg_evolve(f, qh, t, J, steps=None, trunc_radius=32):
    """beta^h_t f = exp(t L_hbar) f, L_hbar F = (pi/(i hbar)) [H, F]_h.

    `deform.evolve` on qh's Hamiltonian and hbar: exact to roundoff,
    with `discarded_mass` and `steps` as documented there (the l1 mass
    beyond `trunc_radius` plus the series tail bound; series terms).
    `steps` is accepted and ignored: the evolution takes no time step,
    and callers that pass a step count keep working, among them the
    perfbench evolve-generic workload, which passes it fifth by position.
    """
    return evolve(f, qh.base, qh.hbar.hbar, t, J, trunc_radius=trunc_radius)


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
