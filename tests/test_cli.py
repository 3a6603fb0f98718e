import argparse
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcrsim
from qcrsim import CouplingSpec, JunctionSpec, SystemSpec, cli, readout
from qcrsim.cli import PIPELINE_PRESETS, build_parser, main
from qcrsim.constants import AJ_PER_GHZ
from qcrsim.otto import OttoSpec, run_cycle


def read_rows(path):
    """Numeric CSV rows (comments skipped), plus the header list."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    rows = np.array([[float(x) for x in ln.split(",")] for ln in body])
    comments = [ln[1:].strip() for ln in lines[1:] if ln.startswith("#")]
    return header, rows, comments


class TestRates:
    def test_table_layout(self, tmp_path):
        assert main(
            ["rates", "--bias", "0.0", "1.2", "--outdir", str(tmp_path)]
        ) == 0
        header, rows, _ = read_rows(tmp_path / "rates.csv")
        assert header == [
            "V_mV",
            "m",
            "gamma_down_per_ns",
            "gamma_up_per_ns",
            "T_eff_K",
        ]
        assert rows.shape == (10, 5)  # 2 biases x 5 transitions
        idle = rows[rows[:, 0] == 0.0]
        assert idle[:, 4] == pytest.approx(0.1, abs=1e-9)

    def test_echo_written(self, tmp_path):
        main(["rates", "--outdir", str(tmp_path), "--seed", "5"])
        echo = (tmp_path / "config_echo.txt").read_text()
        assert "run.seed = 5" in echo
        assert "transmon.omega_ge = 4.09" in echo


class TestEvolve:
    def test_trajectory_csv(self, tmp_path):
        assert main(
            [
                "evolve",
                "--amplitude",
                "1.2",
                "--duration",
                "100",
                "--outdir",
                str(tmp_path),
            ]
        ) == 0
        header, rows, _ = read_rows(tmp_path / "evolve.csv")
        assert header == ["t_ns"] + [f"p{j}" for j in range(6)] + ["T_fit_K"]
        assert rows.shape[0] == 101  # 1000 steps, sampled every 10, plus t=0
        assert rows[0, -1] == pytest.approx(0.110, abs=1e-6)
        assert rows[-1, -1] == pytest.approx(0.47, abs=0.05)
        assert np.allclose(rows[:, 1:7].sum(axis=1), 1.0, atol=1e-9)

    def test_level_init(self, tmp_path):
        main(
            [
                "evolve",
                "--amplitude",
                "0.0",
                "--duration",
                "10",
                "--init",
                "level:3",
                "--outdir",
                str(tmp_path),
            ]
        )
        _, rows, _ = read_rows(tmp_path / "evolve.csv")
        assert rows[0, 4] == pytest.approx(1.0)

    def test_config_pulse_applies_without_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse.amplitude = 0.6\npulse.duration = 50.0\n")
        assert main(
            ["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]
        ) == 0
        _, rows, _ = read_rows(tmp_path / "evolve.csv")
        assert rows.shape[0] == 51  # 500 steps, sampled every 10, plus t=0
        assert rows[-1, 0] == pytest.approx(50.0)

    def test_flags_override_config_and_echo(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse.amplitude = 0.6\npulse.duration = 50.0\n")
        assert main(
            [
                "evolve",
                "--config",
                str(cfg),
                "--duration",
                "20",
                "--outdir",
                str(tmp_path),
            ]
        ) == 0
        _, rows, _ = read_rows(tmp_path / "evolve.csv")
        assert rows.shape[0] == 21
        echo = (tmp_path / "config_echo.txt").read_text()
        assert "pulse.duration = 20.0" in echo
        assert "pulse.amplitude = 0.6" in echo

    def test_bad_init_fails(self, tmp_path, capsys):
        assert main(
            ["evolve", "--init", "vacuum", "--outdir", str(tmp_path)]
        ) == 1
        assert "gibbs" in capsys.readouterr().err


class TestShots:
    def test_mixture_mode(self, tmp_path):
        assert main(
            ["shots", "--n", "500", "--outdir", str(tmp_path)]
        ) == 0
        header, rows, _ = read_rows(tmp_path / "shots.csv")
        assert header == ["i", "q"]
        assert rows.shape == (500, 2)

    def test_calibration_mode_labels(self, tmp_path):
        main(
            [
                "shots",
                "--n",
                "100",
                "--calibration",
                "--outdir",
                str(tmp_path),
            ]
        )
        text = (tmp_path / "shots.csv").read_text().splitlines()
        assert text[0] == "i,q,label"
        labels = [ln.rsplit(",", 1)[1] for ln in text[1:]]
        assert len(labels) == 400
        assert labels.count("g") == labels.count("h") == 100

    def test_seed_changes_draws(self, tmp_path):
        main(["shots", "--n", "50", "--seed", "1", "--outdir", str(tmp_path / "a")])
        main(["shots", "--n", "50", "--seed", "2", "--outdir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "shots.csv").read_bytes()
        b = (tmp_path / "b" / "shots.csv").read_bytes()
        assert a != b


class TestFitAndThermo:
    def test_round_trip(self, tmp_path):
        main(
            [
                "shots",
                "--populations",
                "0.83,0.14,0.025,0.005",
                "--n",
                "20000",
                "--seed",
                "11",
                "--outdir",
                str(tmp_path),
            ]
        )
        assert main(
            [
                "fit",
                "--shots",
                str(tmp_path / "shots.csv"),
                "--seed",
                "11",
                "--outdir",
                str(tmp_path),
            ]
        ) == 0
        model_text = (tmp_path / "model.txt").read_text()
        assert "converged = true" in model_text
        assert "weight.g = " in model_text and "cov.h.qq = " in model_text

        header, rows, _ = read_rows(tmp_path / "populations.csv")
        assert header == ["p0", "p1", "p2", "p3"]
        assert rows[0] == pytest.approx(
            [0.83, 0.14, 0.025, 0.005], abs=0.02
        )

        assert main(
            [
                "thermo",
                "--populations",
                str(tmp_path / "populations.csv"),
                "--outdir",
                str(tmp_path),
            ]
        ) == 0
        header, rows, _ = read_rows(tmp_path / "thermo.csv")
        assert header == ["T_mK", "T_err_mK", "residual"]
        assert rows[0, 0] == pytest.approx(110.0, abs=10.0)

    def test_blind_flag_is_gone(self, tmp_path, capsys):
        shots = str(tmp_path / "nope.csv")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--blind", "--shots", shots, "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --blind" in capsys.readouterr().err

    def test_anchor_flag_is_gone(self, tmp_path, capsys):
        shots = str(tmp_path / "nope.csv")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--anchor", "5", "--shots", shots, "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --anchor 5" in capsys.readouterr().err

    def test_parser_built_once(self, tmp_path, monkeypatch):
        # each build adds the subcommands once
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def counted(self, **kwargs):
            builds.append(self.prog)
            return add_subparsers(self, **kwargs)

        build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
        missing = str(tmp_path / "nope.csv")
        for _ in range(2):
            assert main(["fit", "--shots", missing, "--outdir", str(tmp_path)]) == 1
        assert builds == ["qcrsim"]

    def test_fit_missing_file(self, tmp_path, capsys):
        assert main(
            ["fit", "--shots", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)]
        ) == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_thermo_slope_above_configured_gap(self, tmp_path):
        from qcrsim.system import TransmonSpec
        from qcrsim.thermometry import gibbs_populations, normalize_leading

        spec = TransmonSpec()
        volts = [0.3, 0.4, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
        # Off-trend points below the gap, a 0.5 K/mV line above it.
        temps = [0.9, 0.8] + [0.1 + 0.5 * (v - 0.6) for v in volts[2:]]
        lines = ["V_mV,p0,p1,p2,p3"]
        for v, temp in zip(volts, temps):
            p = normalize_leading(gibbs_populations(temp, spec), 4)
            lines.append(",".join([repr(v)] + [repr(float(x)) for x in p]))
        src = tmp_path / "sweep.csv"
        src.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "gap.cfg"
        cfg.write_text("junction.delta = 0.5\n")

        assert main(
            [
                "thermo",
                "--populations",
                str(src),
                "--config",
                str(cfg),
                "--outdir",
                str(tmp_path),
            ]
        ) == 0
        _, _, comments = read_rows(tmp_path / "thermo.csv")
        summary = dict(c.split(" = ") for c in comments)
        assert float(summary["slope_K_per_mV"]) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_thermo_slope_needs_three_points_above_gap(self, tmp_path):
        from qcrsim.system import TransmonSpec
        from qcrsim.thermometry import gibbs_populations, normalize_leading

        lines = ["V_mV,p0,p1,p2,p3"]
        for v in (0.1, 0.2, 0.6, 1.2):
            p = normalize_leading(gibbs_populations(0.1 + v, TransmonSpec()), 4)
            lines.append(",".join([repr(v)] + [repr(float(x)) for x in p]))
        src = tmp_path / "sweep.csv"
        src.write_text("\n".join(lines) + "\n")

        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 0
        _, _, comments = read_rows(tmp_path / "thermo.csv")
        summary = dict(c.split(" = ") for c in comments)
        assert summary["slope_K_per_mV"].startswith("nan  # fewer than 3")

    @staticmethod
    def _saturation_summary(tmp_path, t_axis, temps):
        from qcrsim.system import TransmonSpec
        from qcrsim.thermometry import gibbs_populations, normalize_leading

        spec = TransmonSpec()
        lines = ["t_ns,p0,p1,p2,p3"]
        for t, temp in zip(t_axis, temps):
            p = normalize_leading(gibbs_populations(temp, spec), 4)
            lines.append(",".join([repr(float(t))] + [repr(float(x)) for x in p]))
        src = tmp_path / "pops.csv"
        src.write_text("\n".join(lines) + "\n")

        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 0
        _, rows, comments = read_rows(tmp_path / "thermo.csv")
        assert rows.shape[0] == t_axis.size
        return dict(c.split(" = ") for c in comments)

    def test_thermo_saturation_summary(self, tmp_path):
        t_axis = np.linspace(0.0, 600.0, 13)
        temps = 0.110 + 0.36 * (1.0 - np.exp(-t_axis / 109.0))
        summary = self._saturation_summary(tmp_path, t_axis, temps)
        assert float(summary["tau_ns"]) == pytest.approx(109.0, rel=0.01)
        assert float(summary["t0_K"]) == pytest.approx(0.110, abs=0.002)
        assert summary["saturated_within_window"] == "true"

    def test_thermo_straight_line_does_not_saturate(self, tmp_path):
        t_axis = np.linspace(0.0, 600.0, 13)
        summary = self._saturation_summary(tmp_path, t_axis, 0.110 + 0.004 * t_axis)
        assert summary["tau_ns"] == "nan" and summary["a_K"] == "nan"
        assert float(summary["t0_K"]) == pytest.approx(0.110, abs=0.002)
        assert summary["saturated_within_window"] == "false"

    def test_thermo_short_time_table_reports_nan_saturation(self, tmp_path):
        """Two thermal rows among five: the per-row table is still written."""
        from qcrsim.system import TransmonSpec
        from qcrsim.thermometry import gibbs_populations, normalize_leading

        thermal = [
            normalize_leading(gibbs_populations(temp, TransmonSpec()), 4)
            for temp in (0.11, 0.2)
        ]
        inverted = [np.array([0.2, 0.5, 0.2, 0.1])] * 3
        lines = ["t_ns,p0,p1,p2,p3"]
        for t, p in zip((0.0, 50.0, 100.0, 150.0, 200.0), thermal + inverted):
            lines.append(",".join([repr(t)] + [repr(float(x)) for x in p]))
        src = tmp_path / "pops.csv"
        src.write_text("\n".join(lines) + "\n")

        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 0
        _, rows, comments = read_rows(tmp_path / "thermo.csv")
        assert rows.shape == (5, 4)
        assert rows[:2, 1] == pytest.approx([110.0, 200.0], rel=1e-9)
        assert np.isnan(rows[2:, 1:3]).all()
        summary = dict(c.split(" = ") for c in comments)
        for key in ("t0_K", "a_K", "tau_ns", "fit_residual"):
            assert summary[key] == "nan  # fewer than 4 thermal samples"
        assert summary["saturated_within_window"] == "false"

    def test_thermo_error_names_file_and_row(self, tmp_path, capsys):
        src = tmp_path / "pops.csv"
        src.write_text("p0,p1,p2,p3\n0.8,0.15,0.04,0.01\nnan,0.1,0.05,0.01\n")
        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 1
        err = capsys.readouterr().err
        assert f"{src}: non-finite population nan in row 1" in err


class TestOtto:
    def test_csv_and_summary(self, tmp_path, capsys):
        assert main(
            ["otto", "--n-cycles", "3", "--outdir", str(tmp_path)]
        ) == 0
        header, rows, comments = read_rows(tmp_path / "otto.csv")
        assert header == ["cycle", "Q_h_aJ", "Q_c_aJ", "W_aJ", "eta"]
        assert rows.shape == (3, 5)
        assert (rows[:, 1] > 0).all() and (rows[:, 2] < 0).all()
        summary = dict(c.split(" = ") for c in comments)
        assert 0 < float(summary["eta_limit"]) < float(summary["eta_c"]) < 1
        assert summary["limit_cycle_reached"] == "true"
        assert summary["limit_cycle_at"] == "2"  # the cycle column's numbering
        assert "eta_limit=0.3038 (limit cycle)" in capsys.readouterr().out

    def test_limit_named_before_it_is_reached(self, tmp_path, capsys):
        argv = ["otto", "--t-isochore", "200", "--outdir", str(tmp_path)]
        assert main(argv) == 0
        assert "eta_limit=0.3062 (limit cycle)" in capsys.readouterr().out
        _, _, comments = read_rows(tmp_path / "otto.csv")
        summary = dict(c.split(" = ") for c in comments)
        assert summary["limit_cycle_reached"] == "false"
        assert summary["limit_cycle_at"] == "none"

    def test_flags_default_to_otto_spec(self):
        args = build_parser().parse_args(["otto"])
        spec = OttoSpec(
            **{f.name: getattr(args, f.name) for f in fields(OttoSpec)}
        )
        assert spec == OttoSpec()

    def test_invalid_bias_fails(self, tmp_path, capsys):
        assert main(
            ["otto", "--v-hot", "0.1", "--outdir", str(tmp_path)]
        ) == 1
        assert "v_hot" in capsys.readouterr().err

    def test_invalid_flag_value_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["otto", "--v-hot", "nan", "--outdir", str(tmp_path)]
        ) == 2
        assert "v_hot must be finite, got nan" in capsys.readouterr().err

    def test_isochore_needs_no_step_grid(self, tmp_path):
        """1001 ns is no multiple of any fixed sampling step; each isochore
        is one exact step, so the ledger is the library's, which closes
        the first law every cycle."""
        argv = ["otto", "--t-isochore", "1001", "--n-cycles", "2"]
        assert main(argv + ["--outdir", str(tmp_path)]) == 0
        _, rows, _ = read_rows(tmp_path / "otto.csv")
        result = run_cycle(
            OttoSpec(t_isochore=1001.0, n_cycles=2),
            SystemSpec(),
            JunctionSpec(),
            CouplingSpec(),
        )
        ledger = np.column_stack([result.q_hot, result.q_cold, result.work])
        assert_allclose(rows[:, 1:4], ledger * AJ_PER_GHZ, rtol=1e-15)
        balance = result.q_hot + result.q_cold - result.work - result.d_energy
        assert np.abs(balance).max() < 1e-12 * np.abs(result.q_hot).max()

    def test_t_adiabat_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["otto", "--t-adiabat", "50", "--outdir", str(tmp_path)])
        assert exc.value.code == 2


class TestPipelines:
    def test_fig3d_products(self, tmp_path):
        assert main(
            ["pipeline", "fig3d", "--seed", "42", "--outdir", str(tmp_path)]
        ) == 0
        for name in (
            "config_echo.txt",
            "shots_calibration.csv",
            "shots.csv",
            "model.txt",
            "populations.csv",
            "thermo.csv",
        ):
            assert (tmp_path / name).exists(), name
        _, rows, _ = read_rows(tmp_path / "thermo.csv")
        assert rows[0, 0] == pytest.approx(110.0, abs=15.0)

    def test_fig4a_monotone_above_gap(self, tmp_path):
        assert main(
            ["pipeline", "fig4a", "--seed", "42", "--outdir", str(tmp_path)]
        ) == 0
        _, rows, comments = read_rows(tmp_path / "thermo.csv")
        above = rows[rows[:, 0] > 0.215]
        assert (np.diff(above[:, 1]) > 0).all()
        summary = dict(c.split(" = ") for c in comments)
        assert 0.18 <= float(summary["slope_K_per_mV"]) <= 0.72

    def test_fig4a_builds_one_correction_matrix(self, tmp_path, monkeypatch):
        calls = []
        build = readout.correction_matrix

        def spy(model):
            calls.append(model)
            return build(model)

        monkeypatch.setattr(readout, "correction_matrix", spy)
        assert main(
            ["pipeline", "fig4a", "--seed", "1", "--outdir", str(tmp_path)]
        ) == 0
        assert len(calls) == 1

    def test_fig4a_integrates_its_rates_in_one_batch(
        self, tmp_path, integral_batches, spectral_calls
    ):
        """13 tables of 5 rate pairs hold 260 tunnelling terms, of which
        125 distinct |s| are integrated, in one tunnel_spectral_fn call."""
        assert main(
            ["pipeline", "fig4a", "--seed", "1", "--outdir", str(tmp_path)]
        ) == 0
        assert len(spectral_calls) == 13 * 2 * 5
        assert integral_batches == [125]

    @pytest.mark.parametrize("preset", ["fig3d", "fig4a", "fig4b", "full"])
    def test_readout_preset_needs_four_levels(self, tmp_path, capsys, preset):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("transmon.n_levels = 3\n")
        argv = ["pipeline", preset, "--config", str(cfg)]
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: transmon.n_levels = 3" in err
        assert "at least 4 levels" in err
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("preset", ["fig4a", "otto-demo"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2_before_any_file(
        self, tmp_path, capsys, preset, source
    ):
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("run.seed = -1\n" if source == "config" else "")
        argv = ["pipeline", preset, "--config", str(cfg)]
        argv += ["--seed", "-1"] if source == "flag" else []
        out = tmp_path / "out"
        assert main(argv + ["--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "run.seed must be an integer >= 0, got -1" in err
        assert not out.exists()

    def test_otto_demo_runs_on_three_levels(self, tmp_path):
        cfg = tmp_path / "three.cfg"
        cfg.write_text("transmon.n_levels = 3\n")
        argv = ["pipeline", "otto-demo", "--config", str(cfg)]
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == 0

    @pytest.mark.filterwarnings("error")
    def test_fig4a_draws_no_shots(self, tmp_path, monkeypatch):
        """The sweep's within-1-sigma counts come from their multinomial
        law (readout.sample_estimate), not from synthesized shots."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise AssertionError("fig4a synthesized shots")

        monkeypatch.setattr(readout, "synthesize_shots", spy)
        monkeypatch.setattr(cli, "synthesize_shots", spy)
        assert main(
            ["pipeline", "fig4a", "--seed", "1", "--outdir", str(tmp_path)]
        ) == 0
        assert calls == []

    @pytest.mark.filterwarnings("error")
    def test_fig4a_overlapping_geometry_exits_1(self, tmp_path, capsys):
        """At separation 2 sigma the broadened h ellipse overlaps its
        neighbours f and g; the counts would not be multinomial."""
        cfg = tmp_path / "overlap.cfg"
        cfg.write_text("geometry.separation = 2.0\n")
        argv = ["pipeline", "fig4a", "--config", str(cfg)]
        assert main(argv + ["--outdir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "stage 'readout' failed: 1-sigma ellipses overlap (g/h, f/h)" in err

    def test_full_pipeline_products_and_determinism(self, tmp_path):
        for sub in ("a", "b"):
            assert main(
                [
                    "pipeline",
                    "full",
                    "--seed",
                    "7",
                    "--outdir",
                    str(tmp_path / sub),
                ]
            ) == 0
        for name in (
            "rates.csv",
            "evolve.csv",
            "shots.csv",
            "populations.csv",
            "thermo.csv",
        ):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"

    def test_config_file_drives_full_pipeline(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pulse.amplitude = 0.6\nrun.seed = 3\n")
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]
        ) == 0
        echo = (tmp_path / "out" / "config_echo.txt").read_text()
        assert "pulse.amplitude = 0.6" in echo

    def test_failing_stage_named_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # Valid pulse of 21 periods, but 3.15 ns is no whole number of
        # 0.1 ns steps.
        cfg.write_text("pulse.period = 0.15\npulse.duration = 3.15\n")
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]
        ) == 1
        assert "stage 'evolve' failed" in capsys.readouterr().err

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(
            ["pipeline", "fig9z", "--outdir", str(tmp_path)]
        ) == 2
        assert "fig9z" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, block",
        [("transmon.omega_ge = nan", "system"), ("pulse.amplitude = nan", "pulse")],
    )
    def test_non_finite_config_exits_2(self, tmp_path, capsys, line, block):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]
        ) == 2
        assert f"{block} block invalid" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("junction.tn = 0.2\n")
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path)]
        ) == 2
        assert "junction.t_n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, value", [("separation", "nan"), ("sigma", "inf"), ("h_scale", "nan")]
    )
    def test_non_finite_geometry_exits_2(self, tmp_path, capsys, name, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"geometry.{name} = {value}\n")
        assert main(["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
        assert (
            f"geometry block invalid: {name} must be positive and finite, got {value}"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "key", ["reset.n_levels", "readout.n_levels", "junction.r_t"]
    )
    def test_removed_config_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 4\n")
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]
        ) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r} (nearest valid key: '" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text",
        [
            # top transition omega_ge + 15 alpha = -0.005 GHz
            "transmon.n_levels = 17\n",
            # dispersive at g-e, degenerate with the e-f transition
            "reset.omega = 3.817\nreset.g = 0.01\n",
            "reset.omega = 3.8169999999999997\nreset.g = 0.01\n",
            "transmon.alpha = -1e-3\ntransmon.n_levels = 257\n",
            "transmon.alpha = -1e-9\ntransmon.n_levels = 1000000000\n",
        ],
        ids=["top-negative", "near-e-f", "on-e-f", "257-levels", "1e9-levels"],
    )
    def test_system_outside_rate_model_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(
            ["pipeline", str(cfg), "--outdir", str(tmp_path / "out")]
        ) == 2
        assert "system block invalid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_level_cap_boundary_runs(self, tmp_path):
        cfg = tmp_path / "edge.cfg"
        cfg.write_text("transmon.alpha = -1e-3\ntransmon.n_levels = 256\n")
        assert main(
            ["rates", "--bias", "0.0", "--config", str(cfg), "--outdir", str(tmp_path)]
        ) == 0


@pytest.fixture(scope="module")
def preset_outputs(tmp_path_factory):
    """Every preset at seed 0, run with the CSV reader made to raise:
    the presets pass arrays in memory and read no product back."""
    root = tmp_path_factory.mktemp("presets")

    def refuse(*args, **kwargs):
        raise AssertionError("a preset read a CSV back")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qcrsim.cli, "read_csv_columns", refuse)
        codes = {
            name: main(["pipeline", name, "--seed", "0", "--outdir", str(root / name)])
            for name in PIPELINE_PRESETS
        }
    return root, codes


class TestCsvReaders:
    """Only ``fit`` and ``thermo`` read CSVs, and they reproduce the
    products the presets computed in memory."""

    def test_presets_read_no_csv(self, preset_outputs):
        _, codes = preset_outputs
        assert codes == {name: 0 for name in PIPELINE_PRESETS}

    def test_fit_reproduces_fig3d_populations(self, preset_outputs, tmp_path):
        root, _ = preset_outputs
        shots = root / "fig3d" / "shots.csv"
        assert main(
            ["fit", "--shots", str(shots), "--seed", "0", "--outdir", str(tmp_path)]
        ) == 0
        for name in ("populations.csv", "model.txt"):
            assert (tmp_path / name).read_bytes() == (
                root / "fig3d" / name
            ).read_bytes(), name

    @pytest.mark.parametrize(
        "preset, source, product",
        [
            ("fig3d", "populations.csv", "thermo.csv"),
            ("fig4a", "sweep_populations.csv", "thermo.csv"),
            ("fig4b", "temps_1p2mV.csv", "thermo_1p2mV.csv"),
        ],
    )
    def test_thermo_reproduces_preset_product(
        self, preset_outputs, tmp_path, preset, source, product
    ):
        root, _ = preset_outputs
        src = root / preset / source
        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 0
        assert (tmp_path / "thermo.csv").read_bytes() == (
            root / preset / product
        ).read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,q\n0.1,0.2\n", " lacks columns ['i']"),
            ("i,q\n0.1,0.2\n0.3\n", ": row 1 does not have 2 cells"),
            ("i,q\n0.1,0.2\n0.3,abc\n", ": row 1 column q: 'abc' is not a number"),
        ],
        ids=["missing-column", "ragged-row", "non-numeric-cell"],
    )
    def test_fit_names_malformed_input(self, tmp_path, capsys, text, message):
        src = tmp_path / "shots.csv"
        src.write_text(text)
        assert main(
            ["fit", "--shots", str(src), "--outdir", str(tmp_path)]
        ) == 1
        assert f"{src}{message}" in capsys.readouterr().err

    def test_thermo_names_non_numeric_cell(self, tmp_path, capsys):
        src = tmp_path / "populations.csv"
        row = "0.8,0.15,0.04,0.01"
        src.write_text(f"V_mV,p0,p1,p2,p3\n0.0,{row}\nx,{row}\n")
        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 1
        message = f"{src}: row 1 column V_mV: 'x' is not a number"
        assert message in capsys.readouterr().err

    def test_thermo_names_non_finite_sweep_cell(self, tmp_path, capsys):
        # not dropped and reported as too few points above the gap
        src = tmp_path / "populations.csv"
        row = "0.8,0.15,0.04,0.01"
        lines = [f"{v},{row}" for v in ("0.6", "nan", "0.8", "1.0")]
        src.write_text("\n".join(["V_mV,p0,p1,p2,p3", *lines]) + "\n")
        assert main(
            ["thermo", "--populations", str(src), "--outdir", str(tmp_path)]
        ) == 1
        message = f"{src}: row 1 column V_mV: nan is not finite"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "thermo.csv").exists()


def _child_env():
    # The child imports the same qcrsim as this process, installed or not.
    src = str(Path(qcrsim.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, path]))}


def test_console_script_entry_point(tmp_path):
    env = _child_env()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "qcrsim.cli",
            "rates",
            "--bias",
            "0.5",
            "--outdir",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "rates.csv").exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    """The tunnelling integrals use their own quadrature; loading
    scipy.integrate would add its import time and memory to every run."""
    code = "import sys, qcrsim.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_presets_run_without_scipy(tmp_path):
    """The package imports numpy and the standard library only: no scipy
    module is loaded by importing the CLI or by running presets."""
    code = (
        "import sys, qcrsim.cli\n"
        "for preset in ('full', 'otto-demo'):\n"
        "    out = sys.argv[1] + '/' + preset\n"
        "    assert qcrsim.cli.main(['pipeline', preset, '--outdir', out]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
