"""Heisenberg-picture evolution in the deformed algebra.

The quantum Hamiltonian is the rescaled element (-pi/hbar) H; its
propagator is the deformed exponential exp_h(i t (-pi/hbar) H), and the
quantum flow conjugates observables by it.  Equivalently, observables
solve the Heisenberg equation

    dF/dt = (pi / (i hbar)) [H, F]_h,

whose generator stays O(1) as hbar -> 0 (it approximates the Poisson
bracket with H), so small-hbar runs do not stiffen.  Its exact solution
exp(t L_hbar) F is `deform.evolve`, which the scans use; here are the
fixed-step RK4 solve of the same equation, `heisenberg_evolve`, and the
series-based conjugation, an independent cross-check at moderate hbar.
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
    _evolution_system,
    commutator,
    deformed_mul,
)
from .errors import RealityError, SeriesDivergenceError, TruncationOverflowError
from .flow import step_count
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


def heisenberg_evolve(f, qh, t, J, steps, trunc_radius=32):
    """Integrate the Heisenberg ODE dF/dt = (pi/(i hbar)) [H, F]_h by RK4.

    The fixed-step path: `deform.evolve` applies the exact exponential of
    the same generator, and this solve converges to it at order 4 in
    t / steps; its time-stepping error is not reported.  The right-hand
    side is linear in F, so it is built once as a sparse matrix
    (`deform._evolution_system`) on the modes reachable from supp f by
    adding modes of H within radius max(trunc_radius, radius of f) +
    4 rH, rH the support radius of H (at least 1): one RK4 step spreads
    the observable by at most 4 rH.  The fixed-step RK4 then runs on a
    dense coefficient vector.  After every step the modes
    beyond `trunc_radius` are zeroed and their l1 mass is accumulated,
    unpruned; callers decide whether the total invalidates the run
    (observable support spreads ballistically, so the radius should grow
    with |t|).

    Raises `TruncationOverflowError` when f reaches beyond
    trunc_radius + 4 rH, whose first step would pass the mode cap
    trunc_radius + 8 rH.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    H = qh.base
    rH = max(H.support_radius(), 1)
    cap = trunc_radius + 8 * rH
    if f.support_radius() > trunc_radius + 4 * rH:
        raise TruncationOverflowError(
            f"observable support radius {f.support_radius()} exceeds "
            f"{trunc_radius + 4 * rH}: its first step passes cap {cap}"
        )
    if f.n_modes == 0:
        return EvolutionResult(element=f, discarded_mass=0.0, steps=steps)
    modes, L, v, outside = _evolution_system(f, H, qh.hbar.hbar, J, trunc_radius)

    dt = t / steps
    discarded = 0.0
    for _ in range(steps):
        k1 = L @ v
        k2 = L @ (v + (0.5 * dt) * k1)
        k3 = L @ (v + (0.5 * dt) * k2)
        k4 = L @ (v + dt * k3)
        v = v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        discarded += float(np.abs(v[outside]).sum())
        v[outside] = 0.0
    element = FourierElement._raw(f.dim, *_coalesce(f.dim, modes, v))
    return EvolutionResult(element=element, discarded_mass=discarded, steps=steps)


def isometry_defect(f, qh, t, J, steps=None, trunc_radius=32, window=None, tol=1e-8):
    """|estimate(beta^h_t f) - estimate(f)| with shared window and tolerance.

    The quantum flow is a *-automorphism, hence isometric; the defect
    measures estimator error, not dynamics.
    """
    if steps is None:
        steps = step_count(t, 1e-3)
    evolved = heisenberg_evolve(f, qh, t, J, steps, trunc_radius=trunc_radius)
    if window is None:
        window = max(default_window(f), default_window(evolved.element))
    a = op_norm_estimate(evolved.element, qh.hbar, J, window=window, tol=tol)
    b = op_norm_estimate(f, qh.hbar, J, window=window, tol=tol)
    return abs(a.op_lower - b.op_lower)
