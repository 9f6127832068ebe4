"""Classical Hamiltonian flows on the torus.

Vector fields are tuples of real-valued trigonometric polynomials.  The
classical transport f -> f o beta_t solves dF/dt = {H, F}; the package
computes it as `deform.evolve` at hbar = 0, exp(t L_0) on the
coefficients of f.  This module realizes the flow independently, as an
oracle for that engine: fixed-step RK4 on T^d (coordinates wrapped mod
1), optionally co-integrating the variational equation for Jacobians,
and the pullback computed spectrally by flowing a uniform grid and
inverting the DFT, which reports its discarded coefficient mass.
Gronwall-type certificates bound the flow derivatives a priori.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import RealityError, UnderResolvedGridError
from .lattice import (
    FourierElement,
    _coalesce,
    _uniform_grid,
    partial_derivative,
    pointwise_mul,
    seminorm,
)


#: Grid points per Nyquist point of the grid suprema that
#: `VectorField.sup_jacobian_norm` and `gronwall_bound` take.
OVERSAMPLE = 4


class VectorField:
    """A smooth vector field on T^d with real-valued components.

    Parameters
    ----------
    components : sequence of FourierElement
        The d components; each must pass the reality test.
    """

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("vector field needs at least one component")
        dim = components[0].dim
        if len(components) != dim:
            raise ValueError("number of components must equal torus dimension")
        for c in components:
            if c.dim != dim:
                raise ValueError("component dimension mismatch")
            if not c.is_real():
                raise RealityError("vector field component fails the reality test")
        self.dim = dim
        self.components = components
        # (D Phi)_{kj} = d_j Phi_k, precomputed once
        self._jacobian_elements = tuple(
            tuple(partial_derivative(c, j) for j in range(dim)) for c in components
        )

    def eval(self, points):
        """Evaluate the field at points (n, d); returns a real (n, d) array."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, self.dim)
        out = np.empty_like(pts)
        for k, c in enumerate(self.components):
            out[:, k] = c.eval_at(pts).real
        return out

    def jacobian_eval(self, points):
        """Evaluate D Phi at points; returns (n, d, d) with [i, k, j] = d_j Phi_k."""
        pts = np.asarray(points, dtype=np.float64).reshape(-1, self.dim)
        out = np.empty((pts.shape[0], self.dim, self.dim))
        for k in range(self.dim):
            for j in range(self.dim):
                out[:, k, j] = self._jacobian_elements[k][j].eval_at(pts).real
        return out

    def support_radius(self):
        return max(c.support_radius() for c in self.components)

    def sup_jacobian_norm(self):
        """Grid supremum of the operator norm of D Phi.

        The grid resolution is `OVERSAMPLE` times the Nyquist
        requirement; the O(G^-2) underestimate is absorbed by the
        (1 + 1e-6) slack used wherever this value certifies a bound.
        """
        radius = max(
            el.support_radius() for row in self._jacobian_elements for el in row
        )
        G = max(OVERSAMPLE * (2 * radius + 1), 8)
        jac = self.jacobian_eval(_uniform_grid(self.dim, G))
        svals = np.linalg.svd(jac, compute_uv=False)
        return float(svals[:, 0].max())


def hamiltonian_vector_field(H, J):
    """Phi_k = sum_j J_jk d_j H, so that delta_Phi f = {H, f}."""
    if not H.is_real():
        raise RealityError("Hamiltonian fails the reality test")
    dH = [partial_derivative(H, j) for j in range(H.dim)]
    comps = []
    for k in range(H.dim):
        c = FourierElement.zero(H.dim)
        for j in range(H.dim):
            if J.J[j, k] != 0.0:
                c = c + J.J[j, k] * dH[j]
        comps.append(c)
    return VectorField(comps)


def delta_phi(f, Phi, cap=None):
    """The derivation delta_Phi f = sum_j Phi_j (d_j f)."""
    kwargs = {} if cap is None else {"cap": cap}
    out = FourierElement.zero(f.dim)
    for j in range(f.dim):
        out = out + pointwise_mul(Phi.components[j], partial_derivative(f, j), **kwargs)
    return out


def step_count(t, step):
    """Fewest steps of size <= `step` covering |t|, at least 1.

    Rounding |t| / step to 9 decimals keeps float overshoot
    (1.1 / 0.1 = 11.000000000000002) from adding a step.
    """
    return max(1, math.ceil(round(abs(t) / step, 9)))


@dataclass(frozen=True)
class FlowResult:
    """Flowed points (mod 1), optional tangent flows, and run metadata."""

    points: np.ndarray
    jacobians: np.ndarray | None
    t: float
    steps: int

    def jacobian_determinants(self):
        if self.jacobians is None:
            raise ValueError("flow was integrated without Jacobians")
        return np.linalg.det(self.jacobians)

    def to_csv(self, initial_points):
        """Serialize to CSV: index, initial coords, final coords, Jacobian, det."""
        buf = io.StringIO()
        d = self.points.shape[1]
        header = ["index"]
        header += [f"x0_{a}" for a in range(d)]
        header += [f"x_{a}" for a in range(d)]
        if self.jacobians is not None:
            header += [f"jac_{a}{b}" for a in range(d) for b in range(d)]
            header += ["det"]
        buf.write(",".join(header) + "\n")
        dets = self.jacobian_determinants() if self.jacobians is not None else None
        for i in range(self.points.shape[0]):
            row = [str(i)]
            row += [repr(float(x)) for x in np.asarray(initial_points)[i]]
            row += [repr(float(x)) for x in self.points[i]]
            if self.jacobians is not None:
                row += [repr(float(x)) for x in self.jacobians[i].reshape(-1)]
                row.append(repr(float(dets[i])))
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def flow_points(Phi, points, t, steps, jacobians=False):
    """Integrate dm/dt = Phi(m) on the torus by fixed-step RK4.

    Coordinates are wrapped mod 1 after each step; the variational
    equation dY/dt = (D Phi)(m(t)) Y is co-integrated wrap-free when
    `jacobians` is requested.  The field is globally Lipschitz on the
    compact torus, so no blow-up is possible.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pts = np.asarray(points, dtype=np.float64).reshape(-1, Phi.dim).copy()
    n, d = pts.shape
    jac = np.tile(np.eye(d), (n, 1, 1)) if jacobians else None
    dt = t / steps

    def rhs(p, y):
        f = Phi.eval(p)
        if y is None:
            return f, None
        dphi = Phi.jacobian_eval(p)
        return f, np.einsum("ikj,ijl->ikl", dphi, y)

    for _ in range(steps):
        k1p, k1j = rhs(pts, jac)
        k2p, k2j = rhs(pts + 0.5 * dt * k1p, None if jac is None else jac + 0.5 * dt * k1j)
        k3p, k3j = rhs(pts + 0.5 * dt * k2p, None if jac is None else jac + 0.5 * dt * k2j)
        k4p, k4j = rhs(pts + dt * k3p, None if jac is None else jac + dt * k3j)
        pts = np.mod(pts + (dt / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p), 1.0)
        if jac is not None:
            jac = jac + (dt / 6.0) * (k1j + 2 * k2j + 2 * k3j + k4j)
    return FlowResult(points=pts, jacobians=jac, t=t, steps=steps)


@dataclass(frozen=True)
class PullbackResult:
    """A spectrally computed pullback and its discarded l1 mass."""

    element: FourierElement
    discarded_mass: float
    grid: int
    steps: int


def pullback(f, Phi, t, grid, trunc_radius, steps):
    """Approximate the pullback beta_t f = f o beta_t spectrally.

    Evaluates `f` on the flowed image of a uniform grid, inverts the
    DFT, truncates to `trunc_radius` and reports the discarded l1
    coefficient mass, which the caller judges.

    Parameters
    ----------
    grid : int
        Per-axis resolution G; must satisfy G >= 2 * trunc_radius + 2.
    steps : int
        RK4 step count of `flow_points`.
    """
    if grid < 2 * trunc_radius + 2:
        raise UnderResolvedGridError(
            f"grid {grid} below anti-aliasing margin for radius {trunc_radius}"
        )
    d = f.dim
    flowed = flow_points(Phi, _uniform_grid(d, grid), t, steps).points
    vals = f.eval_at(flowed).reshape((grid,) * d)
    coeffs = np.fft.fftn(vals) / grid**d
    freqs = np.fft.fftfreq(grid, 1.0 / grid).astype(np.int64)
    mesh_p = np.meshgrid(*([freqs] * d), indexing="ij")
    modes = np.stack([m.reshape(-1) for m in mesh_p], axis=-1)
    flat = coeffs.reshape(-1)
    inside = np.abs(modes).max(axis=1) <= trunc_radius
    discarded = float(np.abs(flat[~inside]).sum())
    element = FourierElement._raw(d, *_coalesce(d, modes[inside], flat[inside]))
    return PullbackResult(element=element, discarded_mass=discarded, grid=grid, steps=steps)


def _bell_partial(n, m, x):
    """Partial Bell polynomial B_{n,m} evaluated at x[1..n-m+1] (1-based)."""
    if n == 0 and m == 0:
        return 1.0
    if n == 0 or m == 0:
        return 0.0
    total = 0.0
    for i in range(1, n - m + 2):
        total += math.comb(n - 1, i - 1) * x[i] * _bell_partial(n - i, m - 1, x)
    return total


def gronwall_bound(Phi, t, k):
    """Certified a priori bound on ||D^k beta(t, .)||.

    k = 1 returns exp(t ||D Phi||_inf); k >= 2 applies the recursive
    chain-rule scheme, bounding the inhomogeneity of the variational
    hierarchy by partial Bell polynomials in the lower-order bounds and
    the sup norms of D^m Phi.
    """
    if k < 1:
        raise ValueError("derivative order must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    L = Phi.sup_jacobian_norm()
    bounds = {1: math.exp(t * L)}
    if k == 1:
        return bounds[1]
    radius = Phi.support_radius()
    G = max(OVERSAMPLE * (2 * radius + 1), 8)

    @lru_cache(maxsize=None)
    def dphi_sup(m):
        # ||D^m Phi||_inf bounded by the l2 combination of component seminorms
        vals = [seminorm(c, m, G).grid_sup for c in Phi.components]
        return math.sqrt(sum(v * v for v in vals))

    for j in range(2, k + 1):
        x = [0.0] * (j + 1)
        for i in range(1, j):
            x[i] = bounds[i]
        Lj = 0.0
        for m in range(2, j + 1):
            Lj += dphi_sup(m) * _bell_partial(j, m, x)
        bounds[j] = t * Lj * math.exp(t * L)
    return bounds[k]


def torus_distance(x, y):
    """Euclidean distance on T^d (componentwise shortest representative)."""
    delta = np.abs(np.asarray(x) - np.asarray(y))
    delta = np.minimum(delta, 1.0 - delta)
    return np.linalg.norm(delta, axis=-1)


@dataclass(frozen=True)
class LipschitzReport:
    """Measured flow contraction ratios against the Gronwall bound."""

    max_ratio: float
    bound: float
    violations: int
    n_pairs: int

    @property
    def passed(self):
        return self.violations == 0


def lipschitz_check(Phi, t, pairs, steps=None, ode_step=1e-3, slack=1e-6):
    """Verify dist(beta_t x, beta_t y) <= dist(x, y) exp(t ||D Phi||_inf).

    `pairs` is an (n, 2, d) array of sample point pairs.  A violation
    beyond the (1 + slack) factor signals integrator misconfiguration.
    """
    pairs = np.asarray(pairs, dtype=np.float64)
    if steps is None:
        steps = step_count(t, ode_step)
    n = pairs.shape[0]
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    fx = flow_points(Phi, xs, t, steps).points
    fy = flow_points(Phi, ys, t, steps).points
    d0 = torus_distance(xs, ys)
    d1 = torus_distance(fx, fy)
    ok = d0 > 0
    ratios = np.ones(n)
    ratios[ok] = d1[ok] / d0[ok]
    bound = math.exp(t * Phi.sup_jacobian_norm())
    violations = int(np.sum(ratios > bound * (1.0 + slack)))
    return LipschitzReport(
        max_ratio=float(ratios.max()), bound=bound, violations=violations, n_pairs=n
    )
