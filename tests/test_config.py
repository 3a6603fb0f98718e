import pytest

from qcrsim.config import (
    REGISTRY,
    ConfigError,
    ExperimentConfig,
    echo_config,
    load_config,
    parse_config,
    write_echo,
)
from qcrsim.dynamics import BiasPulse
from qcrsim.qcr import CouplingSpec, JunctionSpec
from qcrsim.system import SystemSpec

#: The default echo, written out: the registry is derived from the spec
#: dataclasses, so a new spec field must show up here as a new key.
DEFAULT_ECHO = """\
coupling.kappa_eff = 0.3437
coupling.purcell_filter = true
geometry.h_scale = 2.0
geometry.separation = 3.0
geometry.sigma = 1.0
junction.delta = 0.215
junction.gamma_d = 0.0023
junction.t_n = 0.1
pulse.amplitude = 1.2
pulse.dc_offset = 0.0
pulse.duration = 100.0
pulse.period = 10.0
readout.g = 0.0704
readout.omega = 7.44
reset.g = 0.0596
reset.omega = 4.67
run.outdir = out
run.seed = 0
transmon.alpha = -0.273
transmon.n_levels = 6
transmon.omega_ge = 4.09
"""


class TestParse:
    def test_empty_text_is_all_defaults(self):
        cfg = ExperimentConfig(parse_config(""))
        assert cfg.values == {k: d for k, (_, d) in REGISTRY.items()}

    def test_comments_and_blank_lines_ignored(self):
        values = parse_config(
            "# a comment\n\n  run.seed = 7  # trailing comment\n"
        )
        assert values == {"run.seed": 7}

    def test_unknown_key_names_nearest(self):
        with pytest.raises(ConfigError, match="transmon.omega_ge"):
            parse_config("transmon.omega_qe = 4.1")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("run.seed = 1\nrun.seed = 2")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("run.seed")

    @pytest.mark.parametrize(
        "line",
        [
            "run.seed = forty-two",
            "junction.delta = gap",
            "coupling.purcell_filter = yes",
        ],
    )
    def test_bad_values_rejected(self, line):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(line)

    def test_types_coerced(self):
        values = parse_config(
            "run.seed = 42\n"
            "junction.delta = 0.3\n"
            "coupling.purcell_filter = false\n"
            "run.outdir = results\n"
        )
        assert values == {
            "run.seed": 42,
            "junction.delta": 0.3,
            "coupling.purcell_filter": False,
            "run.outdir": "results",
        }


class TestExperimentConfig:
    def test_overrides_merge_over_defaults(self):
        cfg = ExperimentConfig({"junction.t_n": 0.2})
        assert cfg["junction.t_n"] == 0.2
        assert cfg["junction.delta"] == 0.215

    def test_block_accessors_build_specs(self):
        cfg = ExperimentConfig()
        assert cfg.as_system().transmon.omega_ge == 4.09
        assert cfg.as_junction().t_n == 0.1
        assert cfg.as_coupling().purcell_filter is True
        assert cfg.as_pulse().amplitude == 1.2
        assert cfg.as_readout_model().n_components == 4

    def test_default_blocks_are_the_spec_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.as_system() == SystemSpec()
        assert cfg.as_junction() == JunctionSpec()
        assert cfg.as_coupling() == CouplingSpec()
        assert cfg.as_pulse() == BiasPulse()

    def test_invalid_block_names_the_block(self):
        cfg = ExperimentConfig({"transmon.alpha": 0.3})
        with pytest.raises(ConfigError, match="system block"):
            cfg.validate()

    def test_system_invariants_are_checked(self):
        ExperimentConfig().validate()
        cfg = ExperimentConfig({"reset.omega": 4.1})
        with pytest.raises(ConfigError, match="system block invalid: reset_resonator"):
            cfg.validate()

    @pytest.mark.parametrize(
        "key, block",
        [
            ("transmon.omega_ge", "system"),
            ("transmon.alpha", "system"),
            ("reset.omega", "system"),
            ("readout.g", "system"),
            ("pulse.amplitude", "pulse"),
            ("pulse.dc_offset", "pulse"),
            ("pulse.period", "pulse"),
            ("pulse.duration", "pulse"),
            ("geometry.separation", "geometry"),
            ("geometry.sigma", "geometry"),
            ("geometry.h_scale", "geometry"),
        ],
    )
    def test_nan_names_the_block(self, key, block):
        cfg = ExperimentConfig({key: float("nan")})
        with pytest.raises(ConfigError, match=f"{block} block invalid"):
            cfg.validate()

    def test_invalid_geometry_names_the_block(self):
        cfg = ExperimentConfig({"geometry.sigma": -1.0})
        with pytest.raises(ConfigError, match="geometry block"):
            cfg.validate()


class TestEchoRoundTrip:
    def test_default_echo_is_golden(self):
        assert echo_config(ExperimentConfig()) == DEFAULT_ECHO

    def test_echo_lists_every_key(self):
        echo = echo_config(ExperimentConfig())
        for key in REGISTRY:
            assert f"{key} = " in echo

    def test_load_echo_load_is_identity(self, tmp_path):
        cfg = ExperimentConfig(
            {"junction.gamma_d": 3.3e-3, "run.seed": 9, "reset.g": 0.06}
        )
        first = write_echo(cfg, tmp_path / "echo.txt")
        again = load_config(first)
        assert again.values == cfg.values
        assert echo_config(again) == echo_config(cfg)

    def test_load_none_gives_defaults(self):
        assert load_config(None).values == ExperimentConfig().values

    def test_load_strict_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("junction.tn = 0.2\n")
        with pytest.raises(ConfigError, match="junction.t_n"):
            load_config(path)
