"""Quantum evolution converging to the classical flow as hbar -> 0.

Evolves the observable e(0,1) under the shear Hamiltonian two ways --
the Heisenberg flow exp(t L_hbar) f in the deformed algebra, and the
classical transport f o beta_t as exp(t L_0) f, L_0 F = {H, F} -- with
one Chebyshev series engine, then certifies the norm
of the difference with the sandwich estimator and fits the decay order
in hbar.

The time grid is matched to the truncation radius so that the
observable's ballistic spread stays well inside the mode window and
every record is clean.  The decay is order ~2, not 1: the quantum
generator weight (2 pi / hbar) sin(2 pi hbar p.Jq) and the classical
one 4 pi^2 p.Jq differ at O(hbar^2) for every mode pair, whatever its
pairing p.Jq.

Run:  python3 demos/03_semiclassical_limit.py   (a few seconds)
"""

import numpy as np

from nctorus import FourierElement, SymplecticStructure
from nctorus.harness import ExperimentConfig, scan

e = FourierElement.character

config = ExperimentConfig(
    hamiltonian=e((1, 0)) + e((-1, 0)),
    observable=e((0, 1)),
    J=SymplecticStructure.standard(),
    hbar_grid=(0.1, 0.05, 0.025, 0.0125),
    t_grid=(0.1, 0.2),
    ode_step=1e-3,
    trunc_radius=16,
    norm_window=16,
    output_dir="demo_output",
)

result = scan(config, write=False)
print("== certified error ||beta^h_t f - beta_t f||_h ==")
print(f"{'hbar':>8} {'t':>6} {'error (op lower)':>18} {'discarded':>10}")
for r in sorted(result.records, key=lambda r: (r.t, -r.hbar)):
    print(
        f"{r.hbar:>8} {r.t:>6} {r.err.op_lower:>18.6e} {r.discarded_mass:>10.2e}"
        + ("" if r.valid else "  INVALID")
    )

print("\n== per-t summary ==")
for t_key, entry in result.summary["per_t"].items():
    ratios = ", ".join(f"{x:.3f}" for x in entry["ratios"])
    print(
        f"  t={t_key}: fitted order {entry['fitted_order']:.3f}, "
        f"consecutive ratios [{ratios}], "
        f"monotone: {entry['monotone_decreasing']}"
    )
print(f"\nscan status: {result.status}; halving hbar quarters the error (order ~2)")
