import os
import subprocess
import sys
from pathlib import Path

import nctorus


def run_fresh(code, tmp_path=None):
    """Run `code` in a fresh interpreter that imports nctorus from this tree; return its stdout."""
    src = str(Path(nctorus.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    return out.stdout.strip()


def test_import_leaves_heavy_scipy_modules_unloaded():
    # each costs import time and resident memory on every run that imports
    # the package; nctorus computes its Bessel coefficients itself, needs
    # no dense linear algebra beyond numpy, takes its FFTs from numpy.fft,
    # and holds the evolution generator in numpy arrays
    heavy = ("scipy.sparse", "scipy.special", "scipy.sparse.linalg", "scipy.linalg", "scipy.fft")
    code = f"import sys, nctorus; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    assert run_fresh(code) == ""


def test_scan_and_evolutions_leave_scipy_sparse_unloaded(tmp_path):
    # the pinned shear scan's norms are one-line symbol sups by numpy.fft, and every
    # evolution engine builds its generator with numpy; only build_left_multiplication
    # forms a scipy matrix, and it still returns one in CSC form.  numpy.ma
    # stays unloaded too: numpy's plain np.unique imports it, so the package
    # dedupes by sorting (lattice._distinct)
    code = f"""
import sys
from nctorus import (
    ExperimentConfig, FourierElement, QuantumHamiltonian, SymplecticStructure,
    build_left_multiplication, conjugation_evolve, evolve, heisenberg_evolve, scan,
)
e = FourierElement.character
H, f, J = e((1, 0)) + e((-1, 0)), e((0, 1)), SymplecticStructure.standard()
config = ExperimentConfig(
    hamiltonian=H, observable=f, J=J, hbar_grid=(0.1,), t_grid=(0.25,), ode_step=1e-3,
    trunc_radius=32, norm_window=32, output_dir={str(tmp_path)!r},
)
assert len(scan(config).records) == 1
qh = QuantumHamiltonian(H, 0.1)
heisenberg_evolve(f, qh, 0.25, J, trunc_radius=16)
evolve(f, H, 0.0, 0.25, J, trunc_radius=16)
conjugation_evolve(f, qh, 0.05, J, trunc_radius=16)
print("scipy.sparse" in sys.modules, "numpy.ma" in sys.modules)
L = build_left_multiplication(f, 0.1, J, 4)
print(type(L).__module__.startswith("scipy.sparse"), L.format)
"""
    assert run_fresh(code, tmp_path).splitlines() == ["False False", "True csc"]
