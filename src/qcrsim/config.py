"""Strict flat key-value experiment configuration.

The config format is line-oriented text: ``section.key = value`` with
``#`` comments and blank lines.  Every key has a registered type and
default; unknown keys are rejected naming the nearest valid key, so a
typo can never silently fall back to a default.  An empty file is a
valid all-defaults config.

The keys are derived, not listed: each block's keys are the fields of
the spec it builds (``transmon.*`` -> ``TransmonSpec``, ``reset.*`` and
``readout.*`` -> the resonators of ``SystemSpec``, ``junction.*``,
``coupling.*``, ``pulse.*`` -> ``JunctionSpec``, ``CouplingSpec``,
``BiasPulse``; ``geometry.*`` -> the keywords of ``default_model``), and
their defaults are the spec's own.  Only ``run.seed`` and
``run.outdir`` belong to the config itself.

``echo_config`` serializes the fully resolved configuration (every
key, defaults included, sorted) in the same format using exact-decimal
float reprs, so load -> echo -> load round-trips bitwise.  Pipelines
write this echo next to their outputs as the reproducibility record.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field, fields
from pathlib import Path

from .dynamics import BiasPulse
from .qcr import CouplingSpec, JunctionSpec
from .readout import ReadoutModel, default_model
from .system import ResonatorSpec, SystemSpec, TransmonSpec

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "REGISTRY",
    "echo_config",
    "load_config",
    "parse_config",
    "write_echo",
]


class ConfigError(ValueError):
    """A config line failed to parse or validate; carries diagnostics."""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _field_values(spec) -> dict[str, object]:
    return {f.name: getattr(spec, f.name) for f in fields(spec)}


_SYSTEM = SystemSpec()

#: block -> {field: default}, read off the spec each block builds.
_BLOCKS: dict[str, dict[str, object]] = {
    "transmon": _field_values(_SYSTEM.transmon),
    "reset": _field_values(_SYSTEM.reset_resonator),
    "readout": _field_values(_SYSTEM.readout_resonator),
    "junction": _field_values(JunctionSpec()),
    "coupling": _field_values(CouplingSpec()),
    "pulse": _field_values(BiasPulse()),
    "geometry": {
        name: param.default
        for name, param in inspect.signature(default_model).parameters.items()
    },
}

#: key -> (type, default).  This is the complete config surface.
REGISTRY: dict[str, tuple[type, object]] = {
    f"{block}.{name}": (type(default), default)
    for block, defaults in _BLOCKS.items()
    for name, default in defaults.items()
}
REGISTRY["run.seed"] = (int, 0)
REGISTRY["run.outdir"] = (str, "out")


def _coerce(key: str, text: str, line_no: int) -> object:
    kind, _ = REGISTRY[key]
    try:
        if kind is bool:
            return _parse_bool(text)
        if kind is int:
            return int(text)
        if kind is float:
            return float(text)
        return text
    except ValueError as exc:
        raise ConfigError(
            f"line {line_no}: bad value for {key}: {exc}"
        ) from None


def parse_config(text: str) -> dict[str, object]:
    """Parse config text into a {key: value} dict of the overridden keys.

    Raises ConfigError with a line number on malformed lines, unknown
    keys (naming the nearest registered key), duplicate keys, and
    uncoercible values.
    """
    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {line_no}: expected 'section.key = value', got {raw!r}"
            )
        key, _, value_text = line.partition("=")
        key, value_text = key.strip(), value_text.strip()
        if key not in REGISTRY:
            nearest = difflib.get_close_matches(key, REGISTRY, n=1, cutoff=0.0)
            raise ConfigError(
                f"line {line_no}: unknown key {key!r}"
                + (f" (nearest valid key: {nearest[0]!r})" if nearest else "")
            )
        if key in values:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        values[key] = _coerce(key, value_text, line_no)
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration.

    values holds every registered key (defaults merged in); the
    as_* accessors build validated module spec objects from the blocks,
    re-raising validation errors prefixed with the offending block.
    """

    values: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_, default) in REGISTRY.items()}
        merged.update(self.values)
        object.__setattr__(self, "values", merged)

    def __getitem__(self, key: str) -> object:
        return self.values[key]

    @property
    def seed(self) -> int:
        return int(self.values["run.seed"])  # type: ignore[arg-type]

    @property
    def outdir(self) -> str:
        return str(self.values["run.outdir"])

    def _fields(self, block: str) -> dict[str, object]:
        """The {field: value} keyword arguments of one block."""
        return {name: self.values[f"{block}.{name}"] for name in _BLOCKS[block]}

    def _build(self, block: str, factory):
        try:
            return factory()
        except ValueError as exc:
            raise ConfigError(f"{block} block invalid: {exc}") from None

    def as_system(self) -> SystemSpec:
        return self._build(
            "system",
            lambda: SystemSpec(
                transmon=TransmonSpec(**self._fields("transmon")),
                reset_resonator=ResonatorSpec(**self._fields("reset")),
                readout_resonator=ResonatorSpec(**self._fields("readout")),
            ).validate(),
        )

    def as_junction(self) -> JunctionSpec:
        return self._build(
            "junction", lambda: JunctionSpec(**self._fields("junction"))
        )

    def as_coupling(self) -> CouplingSpec:
        return self._build(
            "coupling", lambda: CouplingSpec(**self._fields("coupling"))
        )

    def as_pulse(self) -> BiasPulse:
        return self._build("pulse", lambda: BiasPulse(**self._fields("pulse")))

    def as_readout_model(self) -> ReadoutModel:
        return self._build(
            "geometry", lambda: default_model(**self._fields("geometry"))
        )

    def validate(self) -> "ExperimentConfig":
        """Build every block once so invariant violations surface now."""
        self.as_system()
        self.as_junction()
        self.as_coupling()
        self.as_pulse()
        self.as_readout_model()
        return self


def load_config(path: str | Path | None) -> ExperimentConfig:
    """Load and validate a config file; None means all defaults."""
    if path is None:
        return ExperimentConfig().validate()
    text = Path(path).read_text(encoding="utf-8")
    return ExperimentConfig(parse_config(text)).validate()


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(config: ExperimentConfig) -> str:
    """Serialize every resolved key, sorted, in loadable form."""
    lines = [
        f"{key} = {_format_value(config.values[key])}"
        for key in sorted(REGISTRY)
    ]
    return "\n".join(lines) + "\n"


def write_echo(config: ExperimentConfig, path: str | Path) -> Path:
    """Write the resolved-config echo file and return its path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(echo_config(config), encoding="utf-8", newline="\n")
    return target
