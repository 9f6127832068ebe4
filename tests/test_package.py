import os
import subprocess
import sys
from pathlib import Path

import nctorus


def test_import_leaves_heavy_scipy_modules_unloaded():
    # each costs import time and resident memory on every run that imports
    # the package; nctorus computes its Bessel coefficients itself, needs
    # no dense linear algebra beyond numpy, and takes its FFTs from numpy.fft
    heavy = ("scipy.special", "scipy.sparse.linalg", "scipy.linalg", "scipy.fft")
    code = f"import sys, nctorus; print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    src = str(Path(nctorus.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == ""
