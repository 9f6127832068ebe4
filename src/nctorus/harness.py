"""Experiment engine for the classical-limit convergence runs.

Reproduces, at desk scale, the statement that the Heisenberg evolution
of an observable converges in the deformed norm to its classical
transport f o beta_t as hbar -> 0, uniformly over finite time
intervals: it scans (hbar, t) grids, fits convergence orders on
log-log axes, and emits machine-readable CSV/JSON reports.  The
pipeline is deterministic: identical configs produce byte-identical
CSV.
"""

from __future__ import annotations

import io
import json
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .cstar import NormEstimate, op_norm_estimate
from .deform import (
    PlanckParam,
    SymplecticStructure,
    evolve,
    one_sided_residual,
    scaled_commutator_residual,
)
from .errors import ConfigError
# `pullback` and `heisenberg_evolve` are not called here; they stay
# importable from this module because the benchmark tracer
# (perfbench/tracing.py) wraps them by name
from .flow import classical_evolve, hamiltonian_vector_field, pullback  # noqa: F401
from .lattice import FourierElement
from .quantum import heisenberg_evolve  # noqa: F401

#: Environment variable overriding the configured output directory.
OUTPUT_DIR_ENV = "NCTORUS_OUTPUT_DIR"


def _is_finite_real(x):
    """A finite real number; booleans and ints too large for a float are not."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a convergence scan.

    `hamiltonian` and `observable` use the element literal form
    ([[p...], re, im] triples) in config files; hbar values must be
    nonzero and inside [-1, 1].
    """

    hamiltonian: FourierElement
    observable: FourierElement
    J: SymplecticStructure
    hbar_grid: tuple = (0.1, 0.05, 0.025, 0.0125)
    t_grid: tuple = (0.25, 0.5, 1.0)
    ode_step: float = 1e-3
    trunc_radius: int = 32
    norm_window: int = 32
    series_tol: float = 1e-12
    alias_tol: float = 1e-6
    norm_tol: float = 1e-6
    output_dir: str = "."
    # verdict thresholds (defaults from the acceptance criteria)
    min_fit_order: float = 0.8
    ratio_band: tuple = (0.35, 0.65)
    max_discarded_mass: float = 1e-6

    def __post_init__(self):
        for name in ("hbar_grid", "t_grid", "ratio_band"):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)) or not grid or not all(
                _is_finite_real(x) for x in grid
            ):
                raise ConfigError(f"{name} must be a nonempty list of finite numbers")
        for h in self.hbar_grid:
            if h == 0.0 or not -1.0 <= h <= 1.0:
                raise ConfigError(f"hbar {h} must be nonzero and within [-1, 1]")
        if any(t < 0.0 for t in self.t_grid):
            raise ConfigError("t_grid entries must be >= 0")
        if len(self.ratio_band) != 2 or self.ratio_band[0] > self.ratio_band[1]:
            raise ConfigError("ratio_band must be [lo, hi] with lo <= hi")
        if not self.hamiltonian.dim == self.observable.dim == self.J.dim:
            raise ConfigError("H, f and J must have the same torus dimension")
        if self.hamiltonian.n_modes == 0:
            raise ConfigError("Hamiltonian has no modes")
        if not self.hamiltonian.is_real():
            raise ConfigError("Hamiltonian fails the reality test")
        if not _is_finite_real(self.ode_step) or self.ode_step <= 0:
            raise ConfigError("ode_step must be a finite positive number")
        for radius in (self.trunc_radius, self.norm_window):
            if not isinstance(radius, numbers.Integral) or isinstance(radius, bool) or radius < 1:
                raise ConfigError("trunc_radius and norm_window must be integers >= 1")

    @classmethod
    def from_dict(cls, data):
        try:
            H = FourierElement.from_literal(data["H"])
            f = FourierElement.from_literal(data["f"])
            J = SymplecticStructure(data["J"])
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad config: {exc}") from exc
        keys = {fld.name for fld in fields(cls)} - {"hamiltonian", "observable", "J"}
        kwargs = {
            k: tuple(v) if isinstance(v, list) else v
            for k, v in data.items()
            if k in keys
        }
        return cls(hamiltonian=H, observable=f, J=J, **kwargs)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def resolved_output_dir(self):
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.output_dir))


@dataclass(frozen=True)
class ErrorRecord:
    """One (hbar, t) point of the convergence scan.

    `quantum_s`, `classical_s` and `norm_s` are the seconds this record
    spent in each stage (`classical_s` is ~0 when the classical side
    came from the per-t cache); `quantum_terms` and `classical_terms`
    are the series terms of each side.  None of them enters the CSV.
    """

    hbar: float
    t: float
    err: NormEstimate
    discarded_mass: float
    window_dropped: float
    wall_time: float
    valid: bool
    note: str = ""
    quantum_s: float = 0.0
    classical_s: float = 0.0
    norm_s: float = 0.0
    quantum_terms: int = 0
    classical_terms: int = 0


def evolution_radius(base_radius, t, phi_scale):
    """Truncation radius for evolved observables: base + ballistic spread."""
    return base_radius + math.ceil(8.0 * abs(t) * phi_scale)


def egorov_error(f, H, hbar, t, J, config, _classical_cache=None):
    """Norm-estimated error between quantum and classical evolution.

    Computes Q = exp(t L_hbar) f and C = f o beta_t = exp(t L_0) f with
    the one series engine (`evolve`, and `classical_evolve` at hbar = 0)
    at a widened evolution radius, restricts the difference to the norm
    window, and returns its sandwich estimate with truncation metadata
    and per-stage timings.  C depends on t only, so `_classical_cache`
    may carry it from one hbar to the next.  Truncation beyond the
    configured thresholds, or a norm residual above `norm_tol`, flags
    the record invalid rather than dropping it.  `config.ode_step` is
    not read: neither side takes time steps.
    """
    start = time.perf_counter()
    phi = hamiltonian_vector_field(H, J)
    n_ev = evolution_radius(config.trunc_radius, t, phi.max_component_l1())

    quantum_start = time.perf_counter()
    Q = evolve(f, H, hbar, t, J, trunc_radius=n_ev)
    classical_start = time.perf_counter()
    notes = []
    if _classical_cache is not None and t in _classical_cache:
        C = _classical_cache[t]
    else:
        C = classical_evolve(f, H, t, J, trunc_radius=n_ev)
        if _classical_cache is not None:
            _classical_cache[t] = C
    classical_end = time.perf_counter()
    if C.discarded_mass > config.alias_tol:
        notes.append("alias tolerance exceeded")

    diff = Q.element - C.element
    # the norm of the difference's modes inside the window, not of the
    # full difference: `window_dropped` is the l1 mass left outside, and
    # truncating modes is no compression, so no bound on the full norm
    restricted, window_dropped = diff.truncate(config.norm_window - 1)
    norm_start = time.perf_counter()
    est = op_norm_estimate(
        restricted, PlanckParam(hbar), J, window=config.norm_window, tol=config.norm_tol
    )
    norm_end = time.perf_counter()
    if est.residual > config.norm_tol:
        notes.append("norm estimate unconverged")
    discarded = Q.discarded_mass + C.discarded_mass
    if discarded > config.max_discarded_mass:
        notes.append("discarded mass above threshold")
    return ErrorRecord(
        hbar=hbar,
        t=t,
        err=est,
        discarded_mass=discarded,
        window_dropped=window_dropped,
        wall_time=time.perf_counter() - start,
        valid=not notes,
        note="; ".join(notes),
        quantum_s=classical_start - quantum_start,
        classical_s=classical_end - classical_start,
        norm_s=norm_end - norm_start,
        quantum_terms=Q.steps,
        classical_terms=C.steps,
    )


@dataclass(frozen=True)
class FitResult:
    """Least-squares slope of log(err) against log(hbar)."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_order(pairs):
    """Ordinary least squares on log-log (hbar, err) pairs.

    Non-positive errors are excluded; fewer than 3 usable pairs refuse
    the fit with a ValueError.
    """
    usable = [(h, e) for h, e in pairs if e > 0.0 and h > 0.0]
    if len(usable) < 3:
        raise ValueError(f"need >= 3 positive pairs to fit, got {len(usable)}")
    x = np.log(np.array([h for h, _ in usable]))
    y = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return FitResult(
        slope=float(slope), intercept=float(intercept), r_squared=r2, n_used=len(usable)
    )


@dataclass(frozen=True)
class ResidualScanResult:
    """Residual sizes over an hbar grid with the fitted decay order."""

    variant: str
    records: tuple  # of (hbar, NormEstimate)
    fit: FitResult | None
    degenerate: bool


def commutator_limit_scan(
    H, g, hbar_grid, J, variant="antisymmetrized", window=None, tol=1e-8
):
    """Size of the commutator-vs-bracket residual across an hbar grid.

    `variant` selects the antisymmetrized residual (decay order 2 on
    single-mode pairs) or the one-sided residual (decay order 1).
    Refuses to fit with fewer than 3 grid points; identically zero
    residuals report a degenerate scan instead of a fit.
    """
    if variant == "antisymmetrized":
        residual_fn = scaled_commutator_residual
    elif variant == "one-sided":
        residual_fn = one_sided_residual
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if not hbar_grid:
        raise ValueError("hbar grid must be nonempty")
    records = []
    for h in hbar_grid:
        r = residual_fn(H, g, h, J)
        est = op_norm_estimate(r, PlanckParam(h), J, window=window, tol=tol)
        records.append((h, est))
    pairs = [(abs(h), est.op_lower) for h, est in records]
    degenerate = all(e <= 0.0 for _, e in pairs)
    fit = None
    if not degenerate:
        if len(hbar_grid) < 3:
            raise ValueError("fewer than 3 grid points: fit refused")
        fit = fit_order(pairs)
    return ResidualScanResult(
        variant=variant, records=tuple(records), fit=fit, degenerate=degenerate
    )


CSV_HEADER = (
    "hbar,t,lower_l2,op_lower,upper_l1,window,iterations,residual,"
    "discarded_mass,window_dropped,valid"
)


def records_to_csv(records):
    """Render records as deterministic CSV, sorted by hbar then t."""
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in sorted(records, key=lambda r: (r.hbar, r.t)):
        e = r.err
        buf.write(
            f"{r.hbar!r},{r.t!r},{e.lower_l2!r},{e.op_lower!r},{e.upper_l1!r},"
            f"{e.window},{e.iterations},{e.residual!r},"
            f"{r.discarded_mass!r},{r.window_dropped!r},{int(r.valid)}\n"
        )
    return buf.getvalue()


@dataclass(frozen=True)
class ScanResult:
    records: tuple
    summary: dict
    status: str  # clean | partial | failed
    csv_text: str = field(repr=False, default="")


def scan(config, write=True):
    """Run the full (hbar, t) grid and assemble the verdict.

    The classical evolution at each t is computed once and shared
    across hbar values.  Returns a `ScanResult`; with `write=True` the
    CSV, JSON summary and gnuplot-ready err-vs-hbar columns are written
    to the configured output directory.
    """
    records = []
    cache = {}
    for t in sorted(config.t_grid):
        for h in sorted(config.hbar_grid, reverse=True):
            records.append(
                egorov_error(
                    config.observable,
                    config.hamiltonian,
                    h,
                    t,
                    config.J,
                    config,
                    _classical_cache=cache,
                )
            )
    records.sort(key=lambda r: (r.hbar, r.t))

    hbars = sorted(config.hbar_grid, reverse=True)  # largest first
    per_t = {}
    lo, hi = config.ratio_band
    all_pass = True
    enough_for_fit = len(hbars) >= 3
    for t in sorted(config.t_grid):
        errs = {
            r.hbar: r.err.op_lower for r in records if r.t == t
        }
        seq = [errs[h] for h in hbars]
        ratios = [
            seq[i + 1] / seq[i] if seq[i] > 0 else float("nan")
            for i in range(len(seq) - 1)
        ]
        monotone = all(seq[i + 1] < seq[i] for i in range(len(seq) - 1))
        in_band = all(lo <= r <= hi for r in ratios if not math.isnan(r))
        entry = {
            "errors": dict(zip(map(repr, hbars), seq)),
            "ratios": ratios,
            "monotone_decreasing": monotone,
            "ratios_in_band": in_band,
        }
        if enough_for_fit:
            try:
                fit = fit_order(list(zip(hbars, seq)))
                entry["fitted_order"] = fit.slope  # err ~ hbar^order
                entry["r_squared"] = fit.r_squared
                order_ok = fit.slope >= config.min_fit_order
            except ValueError:
                entry["fitted_order"] = None
                order_ok = False
            all_pass = all_pass and monotone and in_band and order_ok
        per_t[repr(t)] = entry

    max_discarded = max((r.discarded_mass for r in records), default=0.0)
    any_invalid = any(not r.valid for r in records)
    if not enough_for_fit:
        verdict = "insufficient-for-fit"
    else:
        verdict = "pass" if (all_pass and not any_invalid) else "fail"
    status = "partial" if any_invalid else "clean"
    summary = {
        "verdict": verdict,
        "per_t": per_t,
        "max_discarded_mass": max_discarded,
        "n_records": len(records),
        "invalid_records": sum(1 for r in records if not r.valid),
        "total_wall_time": sum(r.wall_time for r in records),
        # one classical solve per t; the other records reuse it
        "stages": {
            "quantum_s": sum(r.quantum_s for r in records),
            "classical_s": sum(r.classical_s for r in records),
            "norm_s": sum(r.norm_s for r in records),
            "quantum_terms": sum(r.quantum_terms for r in records),
            "classical_terms": sum({r.t: r.classical_terms for r in records}.values()),
        },
    }
    csv_text = records_to_csv(records)
    if write:
        out = config.resolved_output_dir()
        out.mkdir(parents=True, exist_ok=True)
        (out / "egorov_scan.csv").write_text(csv_text)
        (out / "egorov_summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        for t in sorted(config.t_grid):
            cols = "\n".join(
                f"{r.hbar!r} {r.err.op_lower!r}"
                for r in records
                if r.t == t
            )
            (out / f"err_vs_hbar_t{t}.dat").write_text(cols + "\n")
    return ScanResult(
        records=tuple(records), summary=summary, status=status, csv_text=csv_text
    )
