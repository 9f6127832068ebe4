import json

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nctorus.harness as harness
from nctorus import FourierElement, SymplecticStructure, op_norm_estimate
from nctorus.cli import main
from nctorus.errors import ConfigError
from nctorus.harness import (
    ExperimentConfig,
    commutator_limit_scan,
    egorov_error,
    evolution_radius,
    fit_order,
    records_to_csv,
    scan,
)

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

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            small_config(t_grid=())

    def test_rejects_complex_hamiltonian(self):
        with pytest.raises(ConfigError):
            small_config(hamiltonian=e((1, 0)))

    def test_rejects_bad_step(self):
        with pytest.raises(ConfigError):
            small_config(ode_step=-1e-3)

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
        ],
        ids=[
            "str-grid", "J-3x3", "nan-t", "nan-step", "short-band", "float-radius", "empty-H",
            "negative-t", "nan-f", "inf-H",
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
        key=st.sampled_from(["hbar_grid", "t_grid", "ratio_band", "trunc_radius", "norm_window"]),
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
        """Any JSON value in a grid, band or radius is accepted well-formed or raises ConfigError."""
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
        assert all(t >= 0 for t in cfg.t_grid)
        lo, hi = cfg.ratio_band
        assert lo <= hi
        for radius in (cfg.trunc_radius, cfg.norm_window):
            assert isinstance(radius, int) and not isinstance(radius, bool) and radius >= 1

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
        cfg = small_config()
        rec = egorov_error(cfg.observable, cfg.hamiltonian, 0.1, 0.05, J, cfg)
        assert rec.err.iterations == 2
        assert rec.err.residual > cfg.norm_tol
        assert not rec.valid
        assert rec.note == "norm estimate unconverged"

    def test_alias_note_on_every_hbar(self, J):
        # trunc_radius 2 leaves too small a box at t = 0.05; the classical
        # side is computed once for the first hbar and reused by the rest
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
        common = ["--hamiltonian", json.dumps(SHEAR), "--t", "0.05", "--trunc-radius", "10"]
        assert main(["evolve-quantum", "--f", json.dumps(OBS), "--hbar", "0.05"] + common) == 0
        q = FourierElement.from_literal(json.loads(capsys.readouterr().out.splitlines()[0]))
        assert main(["evolve-classical", "--f", json.dumps(OBS)] + common) == 0
        c = FourierElement.from_literal(json.loads(capsys.readouterr().out.splitlines()[0]))
        assert (q - c).l1() < 0.3  # same transport, O(hbar) apart

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["product", "--f", json.dumps(OBS), "--g", json.dumps(OBS), "--hbar", "nan"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "nan"],
            ["norm", "--f", json.dumps(OBS), "--hbar", "0.1", "--tol", "nan"],
            ["evolve-quantum", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--hbar", "0.1", "--t", "inf"],
            ["evolve-classical", "--f", json.dumps(OBS), "--hamiltonian", json.dumps(SHEAR),
             "--t", "0.1", "--step", "inf"],
            ["flow", "--hamiltonian", json.dumps(SHEAR), "--points", "[[0.25, 0.0]]",
             "--t=-inf"],
            ["commutator-scan", "--hamiltonian", json.dumps(SHEAR), "--g", json.dumps(OBS),
             "--hbar-grid", "0.1,nan"],
        ],
        ids=["product-hbar", "norm-hbar", "norm-tol", "evolve-quantum-t",
             "evolve-classical-step", "flow-t", "commutator-scan-hbar-grid"],
    )
    def test_non_finite_float_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a finite number" in capsys.readouterr().err

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
