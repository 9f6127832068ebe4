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

from . import cstar
from .cstar import NormEstimate, op_norm_estimate
from .deform import (
    PlanckParam,
    SymplecticStructure,
    _check_dims,
    _check_hbar,
    _column_l1,
    _evolve_column,
    check_evolution_time,
    one_sided_residual,
    scaled_commutator_residual,
)
from .errors import ConfigError, RealityError
# `pullback` and `heisenberg_evolve` are not called here; they stay
# importable from this module because the benchmark tracer
# (perfbench/tracing.py) wraps them by name
from .flow import pullback  # noqa: F401
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
    nonzero and inside [-1, 1], with no |hbar| twice: a record is even
    in hbar (L_-hbar = L_hbar, and ||.||_-hbar = ||.||_hbar), so hbar and
    -hbar would be one point of the fit, and none may overflow 2 pi/|hbar|.
    `alias_tol`, `norm_tol` and `max_discarded_mass` must be finite and
    >= 0, `min_fit_order` finite; a NaN would switch its gate off.
    `output_dir` must be a string.
    """

    hamiltonian: FourierElement
    observable: FourierElement
    J: SymplecticStructure
    hbar_grid: tuple = (0.1, 0.05, 0.025, 0.0125)
    t_grid: tuple = (0.25, 0.5, 1.0)
    ode_step: float = 1e-3
    trunc_radius: int = 32
    norm_window: int = 32
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
            _check_hbar(h)
        if len({abs(h) for h in self.hbar_grid}) < len(self.hbar_grid):
            raise ConfigError("hbar_grid must not repeat an |hbar|")
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
        for name in ("alias_tol", "norm_tol", "max_discarded_mass", "min_fit_order"):
            if not _is_finite_real(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number")
        for name in ("alias_tol", "norm_tol", "max_discarded_mass"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if not isinstance(self.output_dir, str):
            raise ConfigError("output_dir must be a string")

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
        """Load a UTF-8 JSON config; a file that cannot be read or parsed raises `ConfigError`."""
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def resolved_output_dir(self):
        return Path(os.environ.get(OUTPUT_DIR_ENV, self.output_dir))


@dataclass(frozen=True)
class ErrorRecord:
    """One (hbar, t) point of the convergence scan.

    `quantum_s`, `classical_s` and `norm_s` are the seconds charged to
    each stage of this record, and `wall_time` includes them.  Both
    evolutions of a record are rows of one block solve (a scan's t
    column, or [hbar, 0] for a lone record), whose time is shared out by
    series terms: each row is charged its terms over the terms of the
    block, and all rows alike when no row takes a term.  In a scan the
    classical row is charged to the column's first record (largest
    |hbar|), and the others read `classical_s` 0.  `quantum_terms` and
    `classical_terms` are the series terms of each side.  None of them
    enters the CSV.
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
    """Truncation radius for evolved observables: base + ballistic spread.

    `phi_scale` is the flow speed v = max_k ||(X_H)_k||_1 of `_flow_speed`,
    and the spread is ceil(8 |t| v).
    """
    return base_radius + math.ceil(8.0 * abs(t) * phi_scale)


def _flow_speed(H, J):
    """max_k ||(X_H)_k||_1, the l1 norm of the largest component of H's Hamiltonian vector field.

    Component k of X_H has coefficients 2 pi i c_p (pJ)_k, so this is
    2 pi max_k sum_p |c_p| |(pJ)_k|: the largest l1 norm of the hbar = 0
    generator's columns at the unit vectors e_k, over 2 pi.
    """
    unit_modes = np.eye(H.dim, dtype=np.int64)
    return float(_column_l1(H, 0.0, J, unit_modes).max()) / (2.0 * np.pi)


def _solve_column(f, H, hbars, t, J, radius):
    """`_evolve_column` at `hbars`, with the seconds of the solve charged to each row by series terms."""
    start = time.perf_counter()
    results = _evolve_column(f, H, hbars, t, J, trunc_radius=radius)
    elapsed = time.perf_counter() - start
    terms = [r.steps for r in results]
    total = sum(terms)
    if total == 0:
        return results, [elapsed / len(results)] * len(results)
    return results, [elapsed * k / total for k in terms]


def egorov_error(f, H, hbar, t, J, config, _column=None):
    """Norm-estimated error between quantum and classical evolution.

    Computes Q = exp(t L_hbar) f and C = f o beta_t = exp(t L_0) f as
    the two rows of one block of the series engine (`_evolve_column` at
    [hbar, 0]) at a widened evolution radius, and returns the sandwich
    estimate of their difference with truncation metadata and per-stage
    timings.  A difference off one line (`cstar._line_axis`) is first cut
    to the norm window, the l1 mass outside being `window_dropped`.
    `scan` solves each t column for all its hbar at once and passes this
    record's part as `_column`: (Q, C, quantum_s, classical_s), the last
    two the seconds of the solve it charges to this record.  Truncation
    beyond the configured thresholds, or a norm residual above
    `norm_tol`, flags the record invalid rather than dropping it.
    `config.ode_step` is not read: neither side takes time steps.
    Called alone, it raises `DimensionMismatchError` for f, H and J on
    different tori and `RealityError` for an H that is not real, and
    widens the radius by `_flow_speed(H, J)`; `scan` computes that speed
    once and relies on its `ExperimentConfig`, which has checked H.
    """
    start = time.perf_counter()
    if _column is None:
        _check_dims(f, H, J)
        if not H.is_real():
            raise RealityError("Hamiltonian fails the reality test")
        n_ev = evolution_radius(config.trunc_radius, t, _flow_speed(H, J))
        (Q, C), (quantum_s, classical_s) = _solve_column(f, H, (hbar, 0.0), t, J, n_ev)
        charged = 0.0  # the solve ran inside this call
    else:
        Q, C, quantum_s, classical_s = _column
        charged = quantum_s + classical_s
    notes = []
    if C.discarded_mass > config.alias_tol:
        notes.append("alias tolerance exceeded")

    diff = Q.element - C.element
    if diff.n_modes and cstar._line_axis(diff) is not None:
        restricted, window_dropped = diff, 0.0
    else:
        # truncating modes is no compression, so this bounds no full norm
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
        wall_time=time.perf_counter() - start + charged,
        valid=not notes,
        note="; ".join(notes),
        quantum_s=quantum_s,
        classical_s=classical_s,
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

    Each t column is solved as one block (`_evolve_column` at the grid's
    hbar, largest |hbar| first, and at 0 for the classical side), and
    each record gets its quantum row and the shared classical one.
    Records are even in hbar, so each column is ordered and fitted by
    |hbar|.  A largest t whose series would pass `MAX_SERIES_Z` raises
    `ConfigError` before any record is computed.  Returns a
    `ScanResult`; with `write=True` the CSV, JSON summary and
    gnuplot-ready err-vs-hbar columns are written to the configured
    output directory, which is created before the first record: one
    that cannot be created raises `ConfigError`.
    """
    f, H, J = config.observable, config.hamiltonian, config.J
    # the hbar = 0 column norms bound those of every hbar, as
    # |sin(2 pi hbar k)| / |hbar| <= 2 pi |k|, so one check covers both sides
    check_evolution_time(f, H, 0.0, max(config.t_grid), J)
    if write:
        out = config.resolved_output_dir()
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    phi_scale = _flow_speed(H, J)
    hbars = sorted(config.hbar_grid, key=abs, reverse=True)  # largest |hbar| first
    records = []
    for t in sorted(config.t_grid):
        n_ev = evolution_radius(config.trunc_radius, t, phi_scale)
        (*quantum, C), (*quantum_s, classical_s) = _solve_column(f, H, (*hbars, 0.0), t, J, n_ev)
        for j, (h, Q, q_s) in enumerate(zip(hbars, quantum, quantum_s)):
            column = (Q, C, q_s, classical_s if j == 0 else 0.0)
            records.append(egorov_error(f, H, h, t, J, config, _column=column))
    records.sort(key=lambda r: (r.hbar, r.t))

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
            "errors": {repr(abs(h)): e for h, e in zip(hbars, seq)},
            "ratios": ratios,
            "monotone_decreasing": monotone,
            "ratios_in_band": in_band,
        }
        if enough_for_fit:
            try:
                fit = fit_order([(abs(h), e) for h, e in zip(hbars, seq)])
                entry["fitted_order"] = fit.slope  # err ~ |hbar|^order
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
        # one classical row per t, charged to the column's first record
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
