"""Workloads of the nctorus benchmark.

Each workload builds its inputs from a seed and runs one pass through
the package's public API.  A pass returns one `Operation` per scan
record or evolve call, with the certified numbers a later change must
reproduce and the correctness gates the operation missed, plus a
digest of its output, which must not change between the passes of a
run (acceptance criterion 9 for the scan CSV).

The scan workloads use the pinned acceptance configuration (shear
Hamiltonian H = e(1,0) + e(-1,0), observable f = e(0,1), standard J,
`ode_step` 1e-3, `trunc_radius` = `norm_window` = 32) on the slices of
its (hbar, t) grid that fit a run; they ignore the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field

import numpy as np

import nctorus.harness as harness
import nctorus.quantum as quantum
from nctorus import FourierElement, PlanckParam, QuantumHamiltonian, SymplecticStructure

e = FourierElement.character

#: Acceptance criterion 7's bound on |heisenberg_evolve - conjugation_evolve|_l1.
ORACLE_BOUND = 1e-6


@dataclass
class Operation:
    """One scan record or evolve call: its certified numbers and missed gates."""

    certified: dict
    failures: list = field(default_factory=list)


@dataclass
class PassResult:
    ops: list
    digest: str
    counters: dict


def run_pass(workload, inputs):
    """One pass of `workload`; a pass that raises fails all its operations."""
    try:
        return workload.run(inputs)
    except Exception as exc:  # noqa: BLE001 - reported as failed operations
        traceback.print_exc()
        failed = Operation({}, [f"raised {type(exc).__name__}: {exc}"])
        return PassResult([failed] * workload.n_ops, f"raised {exc!r}", {})


def sandwich_ok(est):
    """lower_l2 <= op_lower <= upper_l1 with acceptance criterion 8's slack."""
    slack = 1e-8 * max(1.0, est.upper_l1)
    return est.lower_l2 <= est.op_lower + slack <= est.upper_l1 + 2 * slack


def shear_exact_error(hbar, t):
    """||beta^h_t f - beta_t f||_h in closed form for the pinned shear scan.

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


class ScanWorkload:
    """`harness.scan(write=False)` on a slice of the acceptance grid."""

    def __init__(self, t_grid, hbar_grid):
        self.t_grid = t_grid
        self.hbar_grid = hbar_grid
        self.n_ops = len(t_grid) * len(hbar_grid)

    def build(self, seed):
        return harness.ExperimentConfig(
            hamiltonian=e((1, 0)) + e((-1, 0)),
            observable=e((0, 1)),
            J=SymplecticStructure.standard(),
            hbar_grid=self.hbar_grid,
            t_grid=self.t_grid,
            ode_step=1e-3,
            trunc_radius=32,
            norm_window=32,
        )

    def describe(self, config):
        return {
            "H": config.hamiltonian.to_literal(),
            "f": config.observable.to_literal(),
            "J": config.J.J.tolist(),
            "hbar_grid": list(config.hbar_grid),
            "t_grid": list(config.t_grid),
            "ode_step": config.ode_step,
            "trunc_radius": config.trunc_radius,
            "norm_window": config.norm_window,
            "norm_tol": config.norm_tol,
            "alias_tol": config.alias_tol,
            "max_discarded_mass": config.max_discarded_mass,
        }

    def run(self, config):
        result = harness.scan(config, write=False)
        ops = []
        above_exact = 0
        for r in result.records:
            est = r.err
            exact = shear_exact_error(r.hbar, r.t)
            certified = {
                "hbar": r.hbar,
                "t": r.t,
                "lower_l2": est.lower_l2,
                "op_lower": est.op_lower,
                "upper_l1": est.upper_l1,
                "iterations": est.iterations,
                "residual": est.residual,
                "window_dropped": r.window_dropped,
                "discarded_mass": r.discarded_mass,
                "exact": exact,
            }
            failures = []
            if not r.valid:
                failures.append(f"harness marked invalid: {r.note}")
            if not sandwich_ok(est):
                failures.append("lower_l2 <= op_lower <= upper_l1 violated")
            ops.append(Operation(certified, failures))
            # op_lower is reported as a certified lower bound on the exact norm
            above_exact += est.op_lower > exact * (1.0 + 1e-9)
        digest = hashlib.sha256(result.csv_text.encode()).hexdigest()
        return PassResult(ops, digest, {"harness.op_lower_above_exact": above_exact})


class EvolveWorkload:
    """`heisenberg_evolve` on seeded generic Hamiltonians, checked by conjugation.

    H is the shear plus a real radius-1 perturbation: magnitude a on
    (0, +-1) and b on +-(1, 1), drawn from a in [0.1, 0.25] and b in
    [0.05, 0.125].  Each draw comes with its mirror image through the
    centre of that box; the support, and with it the cost, grows with
    a and b, so a pass costs about the same on every seed.  t is small
    enough that the propagator series needs one substep on the whole box.
    """

    hbar = 0.1
    t = 0.04
    steps = 80
    radius = 24
    pairs = 1

    n_ops = 2 * pairs

    def build(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.1, 0.25, self.pairs)
        b = rng.uniform(0.05, 0.125, self.pairs)
        a = np.concatenate([a, 0.35 - a])
        b = np.concatenate([b, 0.175 - b])
        J = SymplecticStructure.standard()
        shear = e((1, 0)) + e((-1, 0))
        inputs = []
        for ai, bi in zip(a.tolist(), b.tolist()):
            H = shear + ai * (e((0, 1)) + e((0, -1))) + bi * (e((1, 1)) + e((-1, -1)))
            qh = QuantumHamiltonian(H, PlanckParam(self.hbar))
            inputs.append((ai, bi, qh))
        return {"J": J, "f": e((0, 1)), "draws": inputs}

    def describe(self, inputs):
        return {
            "f": inputs["f"].to_literal(),
            "J": inputs["J"].J.tolist(),
            "H": [qh.base.to_literal() for _, _, qh in inputs["draws"]],
            "hbar": self.hbar,
            "t": self.t,
            "steps": self.steps,
            "trunc_radius": self.radius,
        }

    def run(self, inputs):
        J, f = inputs["J"], inputs["f"]
        ops = []
        digest = hashlib.sha256()
        oracle_max = 0.0
        for a, b, qh in inputs["draws"]:
            Q = quantum.heisenberg_evolve(f, qh, self.t, J, self.steps, trunc_radius=self.radius)
            C = quantum.conjugation_evolve(f, qh, self.t, J, trunc_radius=self.radius)
            oracle = (Q.element - C.element).l1()
            oracle_max = max(oracle_max, oracle)
            certified = {
                "a": a,
                "b": b,
                "oracle_l1": oracle,
                "modes": Q.element.n_modes,
                "discarded_mass": Q.discarded_mass,
                "propagator_substeps": C.steps,
            }
            failures = []
            if not oracle <= ORACLE_BOUND:
                failures.append(f"oracle l1 {oracle:.3g} above {ORACLE_BOUND}")
            ops.append(Operation(certified, failures))
            digest.update(Q.element.modes.tobytes())
            digest.update(Q.element.coeffs.tobytes())
        return PassResult(ops, digest.hexdigest(), {"quantum.oracle_l1_max": oracle_max})


WORKLOADS = {
    # norm certification dominates: the t = 0.25 column without hbar = 0.05,
    # which would double the pass; (0.1, 0.25) is the record that hits the
    # power iteration's cap
    "scan-shear": ScanWorkload(t_grid=(0.25,), hbar_grid=(0.1, 0.025, 0.0125)),
    # one long pullback dominates: the worst-window record (0.1, 0.5)
    "scan-long-time": ScanWorkload(t_grid=(0.5,), hbar_grid=(0.1,)),
    "evolve-generic": EvolveWorkload(),
}


def config_hash(description):
    """SHA-256 of a workload's canonical input description."""
    text = json.dumps(description, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
