"""C*-norm estimation in the deformed algebra.

The norm of an element is bracketed between the l2 and l1 norms of its
coefficients; the headline estimate is the largest singular value of
the left-multiplication operator compressed to a finite mode window,
which is a certified lower bound (compressions reduce norms) and is
nondecreasing in the window size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .deform import _as_hbar


@dataclass(frozen=True)
class NormEstimate:
    """Sandwich bounds for the deformed C*-norm of an element.

    lower_l2 <= op_lower <= upper_l1; `op_lower` is the largest singular
    value of the truncated left-regular twisted representation and is
    the headline (certified lower) estimate, never an exact norm.
    """

    lower_l2: float
    upper_l1: float
    op_lower: float
    window: int
    iterations: int
    residual: float

    def to_json(self):
        return json.dumps(
            {
                "lower_l2": self.lower_l2,
                "upper_l1": self.upper_l1,
                "op_lower": self.op_lower,
                "window": self.window,
                "iterations": self.iterations,
                "residual": self.residual,
            }
        )


def l1_upper(f):
    """Upper bound: sum |c_p| (subadditivity over unitary characters)."""
    return f.l1()


def l2_lower(f):
    """Lower bound: (sum |c_p|^2)^(1/2) (representation on the 0 basis vector)."""
    return f.l2()


def default_window(f):
    """Window that empirically saturates estimates for desk-scale elements."""
    return max(32, 4 * f.support_radius())


def build_left_multiplication(f, hbar, J, window):
    """Sparse matrix of x -> f x_h x on modes q with |q|_inf <= window.

    Basis vectors are indexed by lattice modes in the window, in
    lexicographic order; the entry at (q + p, q) is c_p * cocycle(p, q).
    Both factors of an entry separate over the axes: the cocycle
    e(-hbar p.Jq) is the product over a of e(-hbar (pJ)_a q_a), and
    q + p lies in the window when |q_a + p_a| <= window on every axis.
    So the entries are outer products of per-axis factors, one complex
    exponential per mode, axis and coordinate.  The matrix is built in
    CSC form: the rows q + p of column q ascend with p, because the
    modes of f are sorted lexicographically.
    """
    if f.dim != J.dim:
        raise ValueError("element/structure dimension mismatch")
    h = _as_hbar(hbar)
    d = f.dim
    n = f.n_modes
    side = 2 * window + 1
    dim_rep = side**d
    k = np.arange(-window, window + 1)
    phase = np.exp((-2j * np.pi * h) * (f.modes @ J.J)[:, :, None] * k)  # (n, d, side)
    inside = np.abs(f.modes[:, :, None] + k) <= window  # (n, d, side)
    # (side,)*d + (n,) arrays over (q, p), q's axes ravelled first
    data = f.coeffs
    keep = np.ones(n, dtype=bool)
    for a in range(d):
        shape = (1,) * a + (side,) + (1,) * (d - 1 - a) + (n,)
        data = data * phase[:, a, :].T.reshape(shape)
        keep = keep & inside[:, a, :].T.reshape(shape)
    keep = keep.reshape(dim_rep, n)
    strides = side ** np.arange(d - 1, -1, -1, dtype=np.int64)
    rows = (np.arange(dim_rep, dtype=np.int64)[:, None] + f.modes @ strides)[keep]
    indptr = np.zeros(dim_rep + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    return sp.csc_matrix(
        (data.reshape(dim_rep, n)[keep], rows, indptr), shape=(dim_rep, dim_rep)
    )


def op_norm_estimate(f, hbar, J, window=None, tol=1e-8, max_iter=None):
    """Estimate the deformed C*-norm of `f` with sandwich certificates.

    Runs the Lanczos recurrence on L*L for the compressed left-multiplication
    operator L from a fixed dense start, keeping two vectors; the top Ritz
    value is a lower bound on ||L||^2 at every step, also in floating point
    (Paige, Linear Algebra Appl. 34, 1980).  Non-convergence within the
    step cap is reported through `residual`, not raised.

    Parameters
    ----------
    f : FourierElement
    hbar : float or PlanckParam
    J : SymplecticStructure
    window : int, optional
        Mode-window radius W; defaults to max(32, 4 * support radius).
        Must satisfy W >= support radius + 1 for the estimate to see
        every mode of `f`.
    tol : float
        Ritz estimate beta_m |y_m| / mu of ||(L*L) x - mu x|| / mu at which
        to stop, for the top Ritz pair (mu, x).
    max_iter : int, optional
        Step cap, default 10 * W^2; the recurrence also ends at dim L steps.
    """
    if window is None:
        window = default_window(f)
    if f.n_modes == 0:
        return NormEstimate(0.0, 0.0, 0.0, window, 0, 0.0)
    if window < f.support_radius() + 1:
        raise ValueError(
            f"window {window} too small for support radius {f.support_radius()}"
        )
    if max_iter is None:
        max_iter = 10 * window**2
    L = build_left_multiplication(f, hbar, J, window)
    Lt = L.T  # a view; L* w is conj(L^T conj(w))
    n = L.shape[0]
    steps = min(n, max_iter)

    # dense and free of lattice symmetry, so no symmetry sector of L*L is left out
    k = np.arange(n, dtype=np.float64)
    q = np.exp(2j * np.pi * np.sqrt(2.0) * k**2) / np.sqrt(n)
    q_prev = np.zeros(n, dtype=np.complex128)
    alpha, beta = [], []
    mu, residual, b, check = 0.0, np.inf, 0.0, 1
    for m in range(1, steps + 1):
        w = np.conj(Lt @ np.conj(L @ q))
        a = float(np.real(np.vdot(q, w)))
        w -= a * q + b * q_prev
        b = float(np.linalg.norm(w))
        alpha.append(a)
        beta.append(b)
        # b / max(alpha) bounds the Ritz estimate, so an invariant Krylov
        # space stops here; else the O(m^3) solve runs ~8 times per doubling
        if m >= check or m == steps or b <= tol * max(alpha):
            theta, y = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1), UPLO="L")
            mu = float(theta[-1])
            residual = b * abs(float(y[-1, -1])) / max(mu, 1e-300)
            if residual <= tol:
                break
            check = m + 1 + m // 8
        q_prev, q = q, w / b
    op_lower = float(np.sqrt(max(mu, 0.0)))
    return NormEstimate(
        lower_l2=l2_lower(f),
        upper_l1=l1_upper(f),
        op_lower=op_lower,
        window=window,
        iterations=len(alpha),
        residual=residual,
    )
