import json

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nctorus.cstar as cstar
import nctorus.deform as deform
import nctorus.flow as flow
import nctorus.harness as harness
from nctorus import (
    FourierElement,
    QuantumHamiltonian,
    SymplecticStructure,
    evolve,
    heisenberg_evolve,
    op_norm_estimate,
)
from nctorus.cli import main
from nctorus.errors import ConfigError, DimensionMismatchError, RealityError
from nctorus.flow import hamiltonian_vector_field
from nctorus.harness import (
    ExperimentConfig,
    _flow_speed,
    commutator_limit_scan,
    egorov_error,
    evolution_radius,
    fit_order,
    records_to_csv,
    scan,
)

from conftest import STRUCTURES, elements_nd

e = FourierElement.character
unit = FourierElement.unit

SHEAR = [[[1, 0], 1, 0], [[-1, 0], 1, 0]]
OBS = [[[0, 1], 1, 0]]
J_STD = [[0, 1], [-1, 0]]


def small_config(**overrides):
    """Desk-scale scan config: 3 hbar points, one short time."""
    kwargs = dict(
        hamiltonian=FourierElement.from_literal(SHEAR),
        observable=FourierElement.from_literal(OBS),
        J=SymplecticStructure.standard(),
        hbar_grid=(0.1, 0.05, 0.025),
        t_grid=(0.05,),
        ode_step=1e-3,
        trunc_radius=8,
        norm_window=10,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def no_record(*args, **kwargs):
    raise AssertionError("a scan record was computed")


class TestFitOrder:
    def test_synthetic_slopes(self):
        hs = [0.1, 0.05, 0.025, 0.0125]
        for order in (1.0, 2.0, 0.0):
            pairs = [(h, 3.0 * h**order) for h in hs]
            fit = fit_order(pairs)
            assert fit.slope == pytest.approx(order, abs=1e-10)
            assert fit.r_squared == pytest.approx(1.0)

    def test_noisy_slope(self):
        rng = np.random.default_rng(0)
        hs = np.geomspace(0.1, 1e-3, 8)
        pairs = [(h, 2.0 * h * np.exp(0.01 * rng.standard_normal())) for h in hs]
        fit = fit_order(pairs)
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_refuses_short_input(self):
        with pytest.raises(ValueError):
            fit_order([(0.1, 1.0), (0.05, 0.5)])

    def test_excludes_nonpositive(self):
        pairs = [(0.1, 1.0), (0.05, 0.5), (0.025, 0.25), (0.0125, 0.0)]
        fit = fit_order(pairs)
        assert fit.n_used == 3

    @pytest.mark.parametrize(
        "pairs",
        [
            [(0.1, 1.0), (0.1, 0.5), (0.1, 0.25)],
            [(0.1, 1.0), (0.1, 0.5), (0.1, 0.2), (0.05, 0.0), (0.025, -1.0)],  # one left after exclusion
        ],
        ids=["one-hbar", "one-hbar-after-exclusion"],
    )
    def test_refuses_a_single_hbar(self, pairs):
        with pytest.raises(ValueError, match="distinct hbar"):
            fit_order(pairs)

    @given(
        points=st.lists(
            st.tuples(st.floats(-9.0, 0.0), st.floats(-30.0, 5.0)),
            min_size=3,
            max_size=12,
            unique_by=lambda p: p[0],
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_polyfit(self, points):
        # log hbar spread over at least 0.1, so the slope is well conditioned
        log_h = [x for x, _ in points]
        assume(max(log_h) - min(log_h) >= 0.1)
        pairs = [(math.exp(x), math.exp(y)) for x, y in points]
        fit = fit_order(pairs)
        x = np.log([h for h, _ in pairs])
        y = np.log([err for _, err in pairs])
        slope, intercept = np.polyfit(x, y, 1)
        assert abs(fit.slope - slope) <= 1e-12 * max(1.0, abs(slope))
        assert abs(fit.intercept - intercept) <= 1e-12 * max(1.0, abs(intercept))
        assert fit.n_used == len(pairs)


class TestNoDenseSolve:
    """The order fit and the norm's Ritz check run no LAPACK solve; `np.polyfit` and `eigh` are test oracles only."""

    def test_scan_and_lanczos_estimate(self, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("a dense LAPACK solve ran")

        for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "eigh")):
            monkeypatch.setattr(owner, name, dense)
        result = scan(small_config(), write=False)
        assert isinstance(result.summary["per_t"]["0.05"]["fitted_order"], float)
        # two rows, so the Lanczos loop and its Ritz checks run
        est = op_norm_estimate(e((1, 0)) + 0.5 * e((0, 1)) + e((-1, 1)), 0.3, SymplecticStructure.standard(), window=8)
        assert est.iterations >= 1 and est.residual <= 1e-8


class TestConfigValidation:
    def test_round_trip_from_dict(self):
        cfg = ExperimentConfig.from_dict(
            {"H": SHEAR, "f": OBS, "J": J_STD, "hbar_grid": [0.1, 0.05, 0.025]}
        )
        assert cfg.hbar_grid == (0.1, 0.05, 0.025)
        assert cfg.hamiltonian.is_real()

    def test_rejects_zero_hbar(self):
        with pytest.raises(ConfigError):
            small_config(hbar_grid=(0.1, 0.0))

    def test_rejects_out_of_range_hbar(self):
        with pytest.raises(ConfigError):
            small_config(hbar_grid=(1.5,))

    @pytest.mark.parametrize("hbar", [1e-310, -5e-324])
    def test_rejects_hbar_whose_scale_overflows(self, hbar):
        # the clause of check_evolution_time, run on every hbar of the grid
        with pytest.raises(ConfigError, match=f"hbar = {hbar!r} is too small"):
            small_config(hbar_grid=(0.1, hbar))

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            small_config(t_grid=())

    def test_rejects_complex_hamiltonian(self):
        with pytest.raises(ConfigError):
            small_config(hamiltonian=e((1, 0)))

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            small_config(ode_step=-1e-3)

    def test_retired_series_tol_is_ignored(self, tmp_path):
        # no code read series_tol; a config file that still sets it loads and scans the same
        data = {"H": SHEAR, "f": OBS, "J": J_STD, "t_grid": [0.05], "trunc_radius": 8, "norm_window": 10}
        with_key = ExperimentConfig.from_dict(
            {**data, "series_tol": 1e-12, "output_dir": str(tmp_path / "with")}
        )
        assert not hasattr(with_key, "series_tol")
        scan(with_key)
        scan(ExperimentConfig.from_dict({**data, "output_dir": str(tmp_path / "without")}))
        csv = [(tmp_path / run / "egorov_scan.csv").read_bytes() for run in ("with", "without")]
        assert csv[0] == csv[1]

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"H": SHEAR})

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(str(path))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"hbar_grid": "abc"},
            {"J": [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]},
            {"t_grid": [float("nan")]},
            {"ode_step": float("nan")},
            {"ratio_band": [0.35]},
            {"trunc_radius": 8.0},
            {"H": []},
            {"t_grid": [0.25, -0.5]},
            {"f": [[[0, 1], float("nan"), 0]]},
            {"H": [[[1, 0], 1, 0], [[-1, 0], 1, 0], [[0, 1], 0, float("inf")]]},
            {"norm_tol": float("nan")},
            {"alias_tol": float("nan")},
            {"max_discarded_mass": float("nan")},
            {"min_fit_order": float("nan")},
            {"norm_tol": "1e-6"},
            {"min_fit_order": "0.8"},
            {"max_discarded_mass": True},
            {"alias_tol": -1e-6},
            {"hbar_grid": [0.1, 0.05, 0.1]},
            {"hbar_grid": [0.1, 0.05, -0.1]},
            {"output_dir": 5},
            {"J": [[0, float("nan")], [float("nan"), 0]]},
            {"f": [[[1.5, 0], 1, 0]]},
            {"H": [[[True, 0], 1, 0], [[-1, 0], 1, 0]]},
        ],
        ids=[
            "str-grid", "J-3x3", "nan-t", "nan-step", "short-band", "float-radius", "empty-H",
            "negative-t", "nan-f", "inf-H", "nan-norm-tol", "nan-alias-tol", "nan-discarded",
            "nan-fit-order", "str-norm-tol", "str-fit-order", "bool-discarded", "negative-alias-tol",
            "repeated-hbar", "opposite-hbar", "non-str-output-dir", "nan-J", "fractional-mode",
            "boolean-mode",
        ],
    )
    def test_rejects_bad_input(self, tmp_path, overrides):
        data = {"H": SHEAR, "f": OBS, "J": J_STD, "output_dir": str(tmp_path), **overrides}
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["scan", str(path)]) == 2

    @given(
        key=st.sampled_from(
            [
                "hbar_grid", "t_grid", "ratio_band", "trunc_radius", "norm_window",
                "norm_tol", "alias_tol", "max_discarded_mass", "min_fit_order", "output_dir",
            ]
        ),
        value=st.recursive(
            st.none()
            | st.booleans()
            | st.integers(min_value=-(10**400), max_value=10**400)
            | st.floats()
            | st.text(max_size=4),
            lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
            max_leaves=6,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_fields_fail_fast(self, key, value):
        """Any JSON value in a grid, band, radius, tolerance or output_dir is accepted well-formed or raises ConfigError."""
        try:
            cfg = ExperimentConfig.from_dict({"H": SHEAR, "f": OBS, "J": J_STD, key: value})
        except ConfigError:
            return
        for grid in (cfg.hbar_grid, cfg.t_grid, cfg.ratio_band):
            assert grid and all(
                isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                for x in grid
            )
        assert all(h != 0 and -1 <= h <= 1 for h in cfg.hbar_grid)
        assert len({abs(h) for h in cfg.hbar_grid}) == len(cfg.hbar_grid)
        assert all(t >= 0 for t in cfg.t_grid)
        lo, hi = cfg.ratio_band
        assert lo <= hi
        for radius in (cfg.trunc_radius, cfg.norm_window):
            assert isinstance(radius, int) and not isinstance(radius, bool) and radius >= 1
        for value in (cfg.norm_tol, cfg.alias_tol, cfg.max_discarded_mass, cfg.min_fit_order):
            assert isinstance(value, (int, float)) and not isinstance(value, bool)
            assert math.isfinite(value)
        assert min(cfg.norm_tol, cfg.alias_tol, cfg.max_discarded_mass) >= 0
        assert isinstance(cfg.output_dir, str)

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        cfg = small_config(output_dir="elsewhere")
        monkeypatch.setenv("NCTORUS_OUTPUT_DIR", str(tmp_path))
        assert cfg.resolved_output_dir() == tmp_path


class TestEgorovError:
    def test_zero_time_is_zero(self, J):
        cfg = small_config()
        rec = egorov_error(cfg.observable, cfg.hamiltonian, 0.1, 0.0, J, cfg)
        assert rec.err.op_lower < 1e-10
        assert rec.valid

    def test_hamiltonian_observable_is_fixed(self, J):
        # f = H is a fixed point of both evolutions; error is pure noise
        cfg = small_config()
        rec = egorov_error(cfg.hamiltonian, cfg.hamiltonian, 0.1, 0.05, J, cfg)
        assert rec.err.op_lower < 1e-8
        assert rec.valid

    def test_unconverged_norm_is_invalid(self, J, monkeypatch):
        def capped(*args, **kwargs):
            return op_norm_estimate(*args, max_iter=2, **kwargs)

        monkeypatch.setattr(harness, "op_norm_estimate", capped)
        # the shear difference lies on one line; force the Lanczos loop
        monkeypatch.setattr(cstar, "_line_axis", lambda f: None)
        cfg = small_config()
        rec = egorov_error(cfg.observable, cfg.hamiltonian, 0.1, 0.05, J, cfg)
        assert rec.err.iterations == 2
        assert rec.err.residual > cfg.norm_tol
        assert not rec.valid
        assert rec.note == "norm estimate unconverged"

    def test_alias_note_on_every_hbar(self, J):
        # trunc_radius 2 leaves too small a box at t = 0.05; the classical
        # row is solved once per t column and shared by every hbar
        cfg = small_config(trunc_radius=2, alias_tol=1e-9, max_discarded_mass=1.0)
        result = scan(cfg, write=False)
        assert len(result.records) == 3
        for rec in result.records:
            assert not rec.valid
            assert "alias tolerance exceeded" in rec.note

    def test_stage_timings_and_series_terms(self, J):
        cfg = small_config()
        rec = egorov_error(cfg.observable, cfg.hamiltonian, 0.1, 0.05, J, cfg)
        assert rec.quantum_s > 0.0 and rec.classical_s > 0.0 and rec.norm_s > 0.0
        assert rec.quantum_s + rec.classical_s + rec.norm_s <= rec.wall_time
        assert rec.quantum_terms >= 2 and rec.classical_terms >= 2

    def test_ode_step_is_not_read(self, J):
        # neither side takes time steps, so the step size cannot move a record
        a = scan(small_config(ode_step=1e-3), write=False)
        b = scan(small_config(ode_step=0.05), write=False)
        assert a.csv_text == b.csv_text

    def test_tracer_names_stay_importable(self):
        # the benchmark tracer wraps these names in the harness module
        assert callable(harness.heisenberg_evolve) and callable(harness.pullback)

    def test_evolution_radius_growth(self):
        assert evolution_radius(8, 0.0, 4 * np.pi) == 8
        assert evolution_radius(8, 0.5, 4 * np.pi) == 8 + int(np.ceil(16 * np.pi))

    @given(d=st.integers(1, 4), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_flow_speed_is_the_vector_field_l1(self, d, data):
        # the speed read from H's coefficients is the largest component l1
        # norm of the Hamiltonian vector field, and widens the radius alike
        J = SymplecticStructure(data.draw(st.sampled_from(STRUCTURES[d])))
        H = data.draw(elements_nd((d,), radius=3, max_terms=6))
        H = H + H.star()
        want = max(c.l1() for c in hamiltonian_vector_field(H, J).components)
        got = _flow_speed(H, J)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        for t in (0.25, 0.5, 1.0):
            assert evolution_radius(8, t, got) == evolution_radius(8, t, want)

    def test_non_real_hamiltonian_is_refused(self, J):
        cfg = small_config()
        with pytest.raises(RealityError):
            egorov_error(cfg.observable, 1j * e((1, 0)), 0.1, 0.05, J, cfg)

    @pytest.mark.parametrize(
        "f, J",
        [(e((0, 1)), SymplecticStructure.standard(4)), (e((0, 1, 0)), SymplecticStructure.standard())],
        ids=["J on T^4", "f on T^3"],
    )
    def test_mismatched_tori_are_refused_before_any_matmul(self, f, J, monkeypatch):
        cfg = small_config()

        def unreachable(*args):
            raise AssertionError("a matmul ran on mismatched tori")

        monkeypatch.setattr(harness, "_flow_speed", unreachable)
        with pytest.raises(DimensionMismatchError):
            egorov_error(f, cfg.hamiltonian, 0.1, 0.05, J, cfg)


class TestCommutatorLimitScan:
    def test_antisymmetrized_order_two(self, J, shear_hamiltonian):
        res = commutator_limit_scan(
            shear_hamiltonian, e((0, 1)), (0.1, 0.05, 0.025, 0.0125), J, window=8
        )
        assert not res.degenerate
        assert res.fit.slope == pytest.approx(2.0, abs=0.05)

    def test_one_sided_order_one(self, J, shear_hamiltonian):
        res = commutator_limit_scan(
            shear_hamiltonian,
            e((0, 1)),
            (0.1, 0.05, 0.025, 0.0125),
            J,
            variant="one-sided",
            window=8,
        )
        assert res.fit.slope == pytest.approx(1.0, abs=0.1)

    def test_degenerate_observable(self, J, shear_hamiltonian):
        # g = unit commutes exactly; no fit is attempted
        res = commutator_limit_scan(
            shear_hamiltonian, unit(), (0.1, 0.05, 0.025), J, window=8
        )
        assert res.degenerate
        assert res.fit is None

    def test_refuses_short_grid(self, J, shear_hamiltonian):
        with pytest.raises(ValueError):
            commutator_limit_scan(shear_hamiltonian, e((0, 1)), (0.1, 0.05), J, window=8)

    @pytest.mark.parametrize("grid", [(0.1, -0.1, 0.1), (0.1, 0.05, -0.05, 0.025)])
    def test_refuses_a_repeated_abs_hbar(self, J, shear_hamiltonian, grid, monkeypatch):
        # the residual norm is even in hbar, so the fit would see fewer points
        monkeypatch.setattr(harness, "scaled_commutator_residual", no_record)
        with pytest.raises(ValueError, match="repeat"):
            commutator_limit_scan(shear_hamiltonian, e((0, 1)), grid, J, window=8)

    def test_unknown_variant(self, J, shear_hamiltonian):
        with pytest.raises(ValueError):
            commutator_limit_scan(
                shear_hamiltonian, e((0, 1)), (0.1,), J, variant="sideways"
            )


class TestScan:
    def test_smoke_and_files(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path))
        result = scan(cfg)
        assert result.status == "clean"
        assert len(result.records) == 3
        assert all(r.valid for r in result.records)
        # errors strictly decrease with hbar at fixed t
        seq = [r.err.op_lower for r in sorted(result.records, key=lambda r: -r.hbar)]
        assert seq[0] > seq[1] > seq[2]
        assert (tmp_path / "egorov_scan.csv").exists()
        assert (tmp_path / "egorov_summary.json").exists()
        assert (tmp_path / "err_vs_hbar_t0.05.dat").exists()
        summary = json.loads((tmp_path / "egorov_summary.json").read_text())
        assert summary["n_records"] == 3
        assert summary["verdict"] in ("pass", "fail")

    def test_deterministic_csv(self, tmp_path):
        cfg = small_config(output_dir=str(tmp_path))
        a = scan(cfg, write=False)
        b = scan(cfg, write=False)
        assert a.csv_text == b.csv_text
        assert a.csv_text.splitlines()[0].startswith("hbar,t,lower_l2,op_lower")

    def test_csv_excludes_wall_time(self, tmp_path):
        cfg = small_config()
        result = scan(cfg, write=False)
        assert "wall" not in result.csv_text
        assert records_to_csv(result.records) == result.csv_text

    def test_summary_sums_stages(self):
        cfg = small_config(t_grid=(0.05, 0.1))
        result = scan(cfg, write=False)
        stages = result.summary["stages"]
        records = result.records
        for key in ("quantum_s", "classical_s", "norm_s", "quantum_terms"):
            assert stages[key] == pytest.approx(sum(getattr(r, key) for r in records))
        # one classical solve per t, shared by its three records
        per_t = {r.t: r.classical_terms for r in records}
        assert len(per_t) == 2 and stages["classical_terms"] == sum(per_t.values())
        assert result.csv_text.splitlines()[0] == harness.CSV_HEADER
        assert "quantum_s" not in result.csv_text and "terms" not in result.csv_text

    def test_column_timing_is_charged_to_its_records(self):
        result = scan(small_config(t_grid=(0.05, 0.1)), write=False)
        for t in (0.05, 0.1):
            column = sorted((r for r in result.records if r.t == t), key=lambda r: -abs(r.hbar))
            # the classical row is charged once, to the record of the largest |hbar|
            assert column[0].classical_s > 0.0
            assert all(r.classical_s == 0.0 for r in column[1:])
            for r in column:
                assert r.quantum_s > 0.0
                assert r.quantum_s + r.classical_s + r.norm_s <= r.wall_time

    def test_csv_matches_standalone_records(self):
        # a scan solves each t column as one block; a record computed on its
        # own solves its own [hbar, 0] block, and the rows are the same to the bit
        cfg = small_config(t_grid=(0.05, 0.1))
        result = scan(cfg, write=False)
        alone = [
            egorov_error(cfg.observable, cfg.hamiltonian, h, t, cfg.J, cfg)
            for t in cfg.t_grid
            for h in cfg.hbar_grid
        ]
        assert records_to_csv(alone) == result.csv_text
        for a, b in zip(sorted(alone, key=lambda r: (r.hbar, r.t)), result.records):
            assert (a.quantum_terms, a.classical_terms) == (b.quantum_terms, b.classical_terms)

    @pytest.mark.parametrize(
        "grid", [(-0.1, -0.05, -0.025), (-0.05, 0.1, -0.025)], ids=["negated", "mixed"]
    )
    def test_records_are_even_in_hbar(self, grid):
        # L_-hbar = L_hbar and ||.||_-hbar = ||.||_hbar: a grid with signs
        # flipped gives the same records, and each column is ordered and
        # fitted by |hbar|
        t_grid = (0.05, 0.1)
        plain = scan(small_config(t_grid=t_grid), write=False)
        signed = scan(small_config(hbar_grid=grid, t_grid=t_grid), write=False)
        by_abs = [sorted(s.records, key=lambda r: (abs(r.hbar), r.t)) for s in (plain, signed)]
        for a, b in zip(*by_abs):
            assert (abs(b.hbar), b.t) == (a.hbar, a.t)
            assert repr((a.err, a.discarded_mass, a.window_dropped, a.valid, a.note)) == repr(
                (b.err, b.discarded_mass, b.window_dropped, b.valid, b.note)
            )
        assert signed.summary["per_t"] == plain.summary["per_t"]
        assert signed.summary["verdict"] == plain.summary["verdict"]
        for entry in signed.summary["per_t"].values():
            assert entry["monotone_decreasing"] and entry["fitted_order"] > 1.0

    def test_runaway_time_is_refused_before_any_record(self, monkeypatch):
        monkeypatch.setattr(harness, "egorov_error", no_record)
        with pytest.raises(ConfigError, match="series of length"):
            scan(small_config(t_grid=(1e6, 0.05)), write=False)

    def test_subnormal_hbar_is_refused_before_any_mode_set(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("mode set built for a refused hbar")

        monkeypatch.setattr(deform, "_evolution_plan", unreachable)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="hbar = 1e-310 is too small"):
                scan(small_config(hbar_grid=(0.1, 1e-310, 0.05)), write=False)

    def test_validated_hamiltonian_is_not_checked_again(self, monkeypatch):
        # ExperimentConfig has checked H's reality and H cannot change after,
        # so a scan builds no vector field and runs no reality test
        cfg = small_config(t_grid=(0.05, 0.1))
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(FourierElement, "is_real", counted("is_real", FourierElement.is_real))
        monkeypatch.setattr(
            flow.VectorField, "__init__", counted("VectorField", flow.VectorField.__init__)
        )
        scan(cfg, write=False)
        assert calls == []

    def test_env_var_redirects_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCTORUS_OUTPUT_DIR", str(tmp_path / "redirected"))
        cfg = small_config(output_dir=str(tmp_path / "ignored"))
        scan(cfg)
        assert (tmp_path / "redirected" / "egorov_scan.csv").exists()
        assert not (tmp_path / "ignored").exists()


class TestCli:
    def test_product(self, capsys):
        code = main(
            [
                "product",
                "--f",
                '[[[1,0],1,0]]',
                "--g",
                '[[[0,1],1,0]]',
                "--hbar",
                "0.5",
            ]
        )
        assert code == 0
        [(mode, re, im)] = [tuple(x) for x in json.loads(capsys.readouterr().out)]
        assert mode == [1, 1]
        assert complex(re, im) == pytest.approx(-1.0, abs=1e-12)

    def test_bracket(self, capsys):
        code = main(["bracket", "--f", '[[[1,0],1,0]]', "--g", '[[[0,1],1,0]]'])
        assert code == 0
        literal = json.loads(capsys.readouterr().out)
        [(mode, re, im)] = [tuple(x) for x in literal]
        assert mode == [1, 1]
        assert re == pytest.approx(-4 * np.pi**2)

    def test_norm(self, capsys):
        code = main(["norm", "--f", '[[[1,0],1,0]]', "--hbar", "0.1", "--window", "6"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["op_lower"] == pytest.approx(1.0, abs=1e-8)

    def test_flow(self, capsys):
        code = main(
            [
                "flow",
                "--hamiltonian",
                json.dumps(SHEAR),
                "--points",
                "[[0.25, 0.0]]",
                "--t",
                "0.1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("index,")
        final_y = float(lines[1].split(",")[4])
        expected = (-4 * np.pi * 0.1 * np.sin(2 * np.pi * 0.25)) % 1.0
        assert final_y == pytest.approx(expected, abs=1e-9)

    def test_evolve_pair_agree(self, capsys):
        # the two commands are one engine at hbar and at 0: their difference
        # is the engine's Q - C
        common = ["--hamiltonian", json.dumps(SHEAR), "--t", "0.05", "--trunc-radius", "10"]
        assert main(["evolve-quantum", "--f", json.dumps(OBS), "--hbar", "0.05"] + common) == 0
        q = FourierElement.from_literal(json.loads(capsys.readouterr().out.splitlines()[0]))
        assert main(["evolve-classical", "--f", json.dumps(OBS)] + common) == 0
        c = FourierElement.from_literal(json.loads(capsys.readouterr().out.splitlines()[0]))
        H, f, J = FourierElement.from_literal(SHEAR), e((0, 1)), SymplecticStructure.standard()
        engine = evolve(f, H, 0.05, 0.05, J, 10).element - evolve(f, H, 0.0, 0.05, J, 10).element
        assert q - c == engine

    @pytest.mark.parametrize("hbar", [None, 0.1, -0.37], ids=["classical", "quantum", "negative"])
    def test_evolve_prints_the_engine(self, hbar, capsys):
        # each command prints evolve(f, H, hbar, t, J, r) to the bit, hbar = 0
        # for evolve-classical; for evolve-quantum that is also what
        # heisenberg_evolve, which it called before, returns
        H = FourierElement.from_literal(SHEAR) + 0.3 * (e((1, 1)) + e((-1, -1)))
        f = e((0, 1)) + 0.5j * e((1, -1))
        J = SymplecticStructure.standard()
        argv = ["--f", json.dumps(f.to_literal()), "--hamiltonian", json.dumps(H.to_literal()),
                "--t", "0.3", "--trunc-radius", "12"]
        if hbar is None:
            assert main(["evolve-classical"] + argv) == 0
        else:
            assert main(["evolve-quantum", "--hbar", str(hbar)] + argv) == 0
        out, err = capsys.readouterr()
        res = evolve(f, H, hbar or 0.0, 0.3, J, 12)
        if hbar is not None:
            old = heisenberg_evolve(f, QuantumHamiltonian(H, hbar), 0.3, J, trunc_radius=12)
            assert (old.element, old.discarded_mass, old.steps) == (res.element, res.discarded_mass, res.steps)
        assert out == json.dumps(res.element.to_literal()) + "\n"
        assert err == json.dumps({"discarded_mass": res.discarded_mass, "steps": res.steps}) + "\n"

    def test_commutator_scan(self, capsys):
        code = main(
            [
                "commutator-scan",
                "--hamiltonian",
                json.dumps(SHEAR),
                "--g",
                json.dumps(OBS),
                "--hbar-grid",
                "0.1,0.05,0.025",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["fitted_order"] == pytest.approx(2.0, abs=0.1)

    def test_scan_config_file(self, tmp_path, capsys):
        cfg = {
            "H": SHEAR,
            "f": OBS,
            "J": J_STD,
            "hbar_grid": [0.1, 0.05, 0.025],
            "t_grid": [0.05],
            "trunc_radius": 8,
            "norm_window": 10,
            "output_dir": str(tmp_path),
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["scan", str(path)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] == 3

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["scan", str(path)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path / "absent.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["scan", str(tmp_path)]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"H": "\xff"}')
        assert main(["scan", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "points, message",
        [("oops", "bad --points: Expecting value"),
         ("[[0.1, 0.2, 0.3]]", "not a nonempty list of 2-vectors")],
        ids=["not-json", "row-of-3-in-d=2"],
    )
    def test_bad_flow_points_exit_2(self, points, message, capsys):
        code = main(["flow", "--hamiltonian", json.dumps(SHEAR), "--points", points, "--t", "0.1"])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "--f", json.dumps(OBS), "--g", json.dumps(OBS), "--hbar", "nan"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "nan"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "0.1", "--tol", "nan"],
            ["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--hbar", "0.1", "--t", "inf"],
            ["flow", "--hamiltonian", json.dumps(SHEAR), "--points", "[[0.25, 0.0]]",
             "--t=-inf"],
            ["commutator-scan", "--hamiltonian", json.dumps(SHEAR), "--g", json.dumps(OBS),
             "--hbar-grid", "0.1,nan"],
        ],
        ids=["product-hbar", "norm-hbar", "norm-tol", "evolve-quantum-t", "flow-t",
             "commutator-scan-hbar-grid"],
    )
    def test_non_finite_float_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--hbar", "0.1", "--t", "0.1", "--trunc-radius", "-3"],
            ["evolve-classical", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--t", "0.1", "--trunc-radius", "0"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "0.1", "--window", "0"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "0.1", "--window", "2.5"],
        ],
        ids=["evolve-quantum-radius", "evolve-classical-radius", "norm-window-zero",
             "norm-window-float"],
    )
    def test_integer_option_below_one_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "integer" in capsys.readouterr().err

    def test_norm_window_inside_support_exits_2(self, capsys):
        # two rows, so the Lanczos loop, the one path that reads the window
        f = "[[[3,0],1,0],[[0,1],1,0]]"
        code = main(["norm", "--f", f, "--hbar", "0.1", "--window", "3"])
        assert code == 2
        assert "window 3 too small for support radius 3" in capsys.readouterr().err
        assert main(["norm", "--f", f, "--hbar", "0.1", "--window", "4"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["flow", "--hamiltonian", json.dumps(SHEAR), "--points", "[[0.25, 0.0]]",
             "--t", "0.1", "--step", "0"],
            ["flow", "--hamiltonian", json.dumps(SHEAR), "--points", "[[0.25, 0.0]]",
             "--t", "0.1", "--step=-0.5"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "0.1", "--tol=-1"],
            ["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--hbar", "0", "--t", "0.1"],
            ["commutator-scan", "--hamiltonian", json.dumps(SHEAR), "--g", json.dumps(OBS),
             "--hbar-grid", "0.1,0.05"],
            ["commutator-scan", "--hamiltonian", json.dumps(SHEAR), "--g", json.dumps(OBS),
             "--hbar-grid", "0.1,0,0.05"],
            # the fit's abscissa is |hbar|, so this grid is one point
            ["commutator-scan", "--hamiltonian", json.dumps(SHEAR), "--g", json.dumps(OBS),
             "--hbar-grid", "0.1,-0.1,0.1"],
        ],
        ids=["flow-step-zero", "flow-step-negative", "norm-tol-negative", "evolve-quantum-hbar-zero", "commutator-scan-short-grid",
             "commutator-scan-hbar-zero", "commutator-scan-repeated-abs-hbar"],
    )
    def test_bad_number_exits_2(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_runaway_evolve_quantum_exits_2(self, capsys):
        start = time.perf_counter()
        code = main(["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
                     "--hbar", "0.1", "--t", "1e6"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "series of length" in capsys.readouterr().err

    def test_runaway_evolve_classical_exits_2(self, capsys, monkeypatch):
        # refused before a mode set is built; the grid pullback it replaced
        # would have tried 1e10 RK4 steps
        monkeypatch.setattr(deform, "_evolution_plan", no_record)
        start = time.perf_counter()
        code = main(["evolve-classical", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
                     "--t", "1e7"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "series of length" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["product", "--f", json.dumps(OBS), "--g", "[[[1,0],1,0]]", "--hbar", "0.25",
              "--J", "[[0,NaN],[NaN,0]]"], "J has an entry that is not finite"),
            (["product", "--f", "[[[1.5,0],1,0]]", "--g", json.dumps(OBS), "--hbar", "0.25"],
             "mode entries must be integers"),
            (["bracket", "--f", "[[[true,0],1,0]]", "--g", json.dumps(OBS)],
             "mode entries must be integers"),
        ],
        ids=["nan-J", "fractional-mode", "boolean-mode"],
    )
    def test_unparsable_argument_exits_2(self, argv, message, capsys):
        # a NaN J passed the skewness test, and a mode entry was cut by int()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "--f", json.dumps(OBS), "--g", "[[[0,1,0],1,0]]", "--hbar", "0.25"],
            ["evolve-classical", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--t", "0.1", "--J", "[[0,1,0,0],[-1,0,0,0],[0,0,0,1],[0,0,-1,0]]"],
        ],
        ids=["element-on-T3", "J-on-T4"],
    )
    def test_dimension_mismatch_exits_2(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "invalid config: dimension mismatch" in err and "Traceback" not in err

    @pytest.mark.parametrize("t", ["0", "0.1"])
    def test_subnormal_hbar_exits_2(self, t, capsys):
        # 2 pi/|hbar| overflows: the message names hbar, not a series length
        # of nan or inf, and no RuntimeWarning is raised on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian",
                         json.dumps(SHEAR), "--hbar", "1e-310", "--t", t])
        assert code == 2
        err = capsys.readouterr().err
        assert "hbar = 1e-310 is too small" in err and "series of length" not in err

    def test_subnormal_hbar_scan_exits_2_and_makes_no_directory(self, tmp_path, capsys, monkeypatch):
        # the config refuses the hbar, so no output directory is left behind
        monkeypatch.delenv("NCTORUS_OUTPUT_DIR", raising=False)
        monkeypatch.setattr(harness, "_solve_column", no_record)
        out = tmp_path / "out"
        cfg = {"H": SHEAR, "f": OBS, "J": J_STD, "hbar_grid": [0.1, 1e-310, 0.05], "t_grid": [0.05],
               "trunc_radius": 8, "norm_window": 10, "output_dir": str(out)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["scan", str(path)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "hbar = 1e-310 is too small" in err and "Traceback" not in err

    def test_uncreatable_output_dir_exits_2(self, tmp_path, capsys, monkeypatch):
        # the output directory is made before the first record, so a path
        # under a regular file fails at once, with one line and exit 2
        monkeypatch.delenv("NCTORUS_OUTPUT_DIR", raising=False)
        monkeypatch.setattr(harness, "_solve_column", no_record)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = {"H": SHEAR, "f": OBS, "J": J_STD, "t_grid": [0.05], "trunc_radius": 8,
               "norm_window": 10, "output_dir": str(blocker / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["scan", str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "output directory" in err

    def test_runaway_scan_exits_2(self, tmp_path, capsys):
        cfg = {"H": SHEAR, "f": OBS, "J": J_STD, "hbar_grid": [0.1], "t_grid": [1e6],
               "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["scan", str(path)]) == 2
        assert "series of length" in capsys.readouterr().err

    def test_runaway_scan_exits_2_before_any_record(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(harness, "egorov_error", no_record)
        cfg = {"H": SHEAR, "f": OBS, "J": J_STD, "hbar_grid": [0.1, 0.05, 0.025],
               "t_grid": [0.25, 1e6], "output_dir": str(tmp_path)}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["scan", str(path)]) == 2
        assert "series of length" in capsys.readouterr().err

    def test_bad_element_literal(self, capsys):
        with pytest.raises(SystemExit):
            main(["bracket", "--f", "not json", "--g", '[[[0,1],1,0]]'])

    @pytest.mark.parametrize(
        "literal",
        [
            "[[[1,0],NaN,0],[[0,1],1,0]]",
            "[[[1,0],1,Infinity]]",
            f"[[[1,0],{10**400},0]]",
            f"[[[{10**30},0],1,0]]",
        ],
        ids=["nan", "inf", "huge-coefficient", "huge-mode"],
    )
    def test_unrepresentable_literal_exits_2(self, literal, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["product", "--f", literal, "--g", "[[[0,1],1,0]]", "--hbar", "0.1"])
        assert exc.value.code == 2
        assert "bad element literal" in capsys.readouterr().err
