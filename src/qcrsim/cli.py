"""Config-driven command-line experiment runner.

Binds the simulation and analysis modules into reproducible pipelines
(rates -> evolve -> shots -> fit -> report).  Every run resolves one
``ExperimentConfig`` (defaults, optional config file, CLI overrides),
writes its echo next to the outputs, and derives all randomness from
one root seed through named sub-streams, so identical config + seed
produces byte-identical CSV files.

Subcommands: ``rates``, ``evolve``, ``shots``, ``fit``, ``thermo``,
``otto`` and ``pipeline <preset|file>`` with presets ``fig3d``,
``fig4a``, ``fig4b``, ``otto-demo`` and ``full``.  Exit code 0 on
success, 2 on config/usage errors, 1 on runtime failures (stage
failures name the stage on stderr).

Defaults owned elsewhere are not repeated here.  ``--seed``, ``--outdir`` and the
``evolve`` flags ``--amplitude``/``--duration`` default to the config
(``run.*``, ``pulse.*``) and, when given, override it, so the echo
records what ran.  The ``otto`` flags are the fields of ``OttoSpec``
with its defaults.  The idle temperature of the presets is
``calibrate.IDLE_TEMPERATURE`` and the heating slope of ``thermo`` is
taken above the configured ``junction.delta``.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .calibrate import IDLE_TEMPERATURE
from .config import ConfigError, ExperimentConfig, load_config, write_echo
from .constants import AJ_PER_GHZ
from .dynamics import BiasPulse, DensityMatrix, evolve
from .otto import OttoSpec, run_cycle
from .qcr import transition_rates
from .readout import (
    STATE_LABELS,
    estimate_populations,
    fit_gmm,
    synthesize_shots,
)
from .seeding import named_rng
from .thermometry import (
    fit_gibbs,
    fit_saturation,
    gibbs_populations,
    heating_slope,
    normalize_leading,
)

__all__ = ["main", "PIPELINE_PRESETS"]


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    """Exact-decimal cell formatting (floats via repr round-trip)."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows, comments: list[str] = ()):
    """Write rows with fixed newline discipline; comments go at the end
    as ``# key = value`` lines (summary block)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")
        for comment in comments:
            fh.write(f"# {comment}\n")
    return path


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    """Read a CSV into {column: list of raw strings}, skipping comments."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise ValueError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    return {
        name: [row[j] for row in body] for j, name in enumerate(header)
    }


def _seed_for(root_seed: int, stage: str, index: int = 0) -> int:
    """Derived integer root for a stage's own named sub-streams."""
    return int(named_rng(root_seed, stage, index).integers(2**63))


# ---------------------------------------------------------------- stages


def stage_rates(cfg: ExperimentConfig, outdir: Path, biases) -> Path:
    system = cfg.as_system()
    junction = cfg.as_junction()
    coupling = cfg.as_coupling()
    rows = []
    for v in biases:
        table = transition_rates(system, junction, coupling, v)
        t_eff = table.effective_temperatures()
        for m, pair in enumerate(table.pairs):
            rows.append(
                (float(v), m, pair.gamma_down, pair.gamma_up, t_eff[m])
            )
    return write_csv(
        outdir / "rates.csv",
        ["V_mV", "m", "gamma_down_per_ns", "gamma_up_per_ns", "T_eff_K"],
        rows,
    )


def _parse_init(text: str, transmon) -> DensityMatrix:
    kind, _, arg = text.partition(":")
    if kind == "gibbs":
        return DensityMatrix.gibbs(float(arg), transmon)
    if kind == "level":
        return DensityMatrix.level(int(arg), transmon)
    raise ValueError(
        f"initial state must be 'gibbs:<T_K>' or 'level:<n>', got {text!r}"
    )


def stage_evolve(
    cfg: ExperimentConfig,
    outdir: Path,
    pulse: BiasPulse,
    init: str = f"gibbs:{IDLE_TEMPERATURE}",
    dt: float = 0.1,
    sample_every: int = 10,
    name: str = "evolve.csv",
):
    system = cfg.as_system()
    transmon = system.transmon
    rho0 = _parse_init(init, transmon)
    traj = evolve(
        rho0,
        system,
        cfg.as_junction(),
        cfg.as_coupling(),
        pulse,
        dt=dt,
        sample_every=sample_every,
    )
    n = transmon.n_levels
    header = ["t_ns"] + [f"p{j}" for j in range(n)] + ["T_fit_K"]
    temps = traj.temperatures
    rows = [
        (traj.times[i], *traj.populations[i], temps[i])
        for i in range(traj.times.size)
    ]
    path = write_csv(outdir / name, header, rows)
    return path, traj


def stage_shots(
    cfg: ExperimentConfig,
    outdir: Path,
    populations,
    n_shots: int,
    seed: int,
    calibration: bool = False,
    name: str = "shots.csv",
) -> Path:
    """Synthesize IQ shots; calibration mode emits n_shots per prepared
    state with a label column instead of sampling the mixture."""
    model = cfg.as_readout_model()
    rows = []
    if calibration:
        for j, label in enumerate(model.labels):
            one_hot = np.eye(model.n_components)[j]
            pts = synthesize_shots(
                one_hot, model, n_shots, seed=_seed_for(seed, "calibration", j)
            )
            rows += [(p[0], p[1], label) for p in pts]
        header = ["i", "q", "label"]
    else:
        pts = synthesize_shots(
            populations, model, n_shots, seed=_seed_for(seed, "shots")
        )
        rows = [(p[0], p[1]) for p in pts]
        header = ["i", "q"]
    return write_csv(outdir / name, header, rows)


def _model_lines(gmm) -> list[str]:
    lines = [
        f"converged = {str(bool(gmm.converged)).lower()}",
        f"loglik = {_fmt(gmm.loglik)}",
        f"n_iter = {int(gmm.n_iter)}",
    ]
    for j, label in enumerate(gmm.labels):
        m, c = gmm.means[j], gmm.covariances[j]
        lines += [
            f"weight.{label} = {_fmt(gmm.weights[j])}",
            f"mean.{label}.i = {_fmt(m[0])}",
            f"mean.{label}.q = {_fmt(m[1])}",
            f"cov.{label}.ii = {_fmt(c[0, 0])}",
            f"cov.{label}.iq = {_fmt(c[0, 1])}",
            f"cov.{label}.qq = {_fmt(c[1, 1])}",
        ]
    return lines


def stage_fit(
    cfg: ExperimentConfig,
    outdir: Path,
    shots_path: Path,
    seed: int,
    blind: bool = False,
    anchor: float | None = None,
):
    """Fit the mixture to a shots CSV and estimate populations.

    Writes model.txt (key-value, exact decimals) and populations.csv
    (one row, canonical g/e/f/h order).
    """
    columns = read_csv_columns(shots_path)
    if "i" not in columns or "q" not in columns:
        raise ValueError(f"{shots_path} must have columns i,q")
    shots = np.column_stack(
        [
            np.array([float(x) for x in columns["i"]]),
            np.array([float(x) for x in columns["q"]]),
        ]
    )
    init = None if blind else cfg.as_readout_model()
    gmm = fit_gmm(
        shots, init=init, seed=_seed_for(seed, "gmm"), anchor=anchor
    )
    est = estimate_populations(shots, gmm)

    model_path = outdir / "model.txt"
    model_path.write_text(
        "\n".join(_model_lines(gmm)) + "\n", encoding="utf-8", newline="\n"
    )
    order = [est.labels.index(lbl) for lbl in STATE_LABELS]
    pops_path = write_csv(
        outdir / "populations.csv",
        [f"p{j}" for j in range(len(order))],
        [tuple(est.populations[j] for j in order)],
    )
    return model_path, pops_path, est


def stage_thermo(
    cfg: ExperimentConfig,
    outdir: Path,
    populations_path: Path,
    name: str = "thermo.csv",
) -> Path:
    """Per-row Gibbs-fit temperatures plus slope/saturation summary.

    The input CSV needs columns p0..p3 and may carry V_mV or t_ns;
    temperatures are reported in mK.  The summary block at the end of
    the file holds the heating slope above the configured gap
    ``junction.delta`` (V_mV input) or the saturation-fit parameters
    (t_ns input).
    """
    transmon = cfg.as_system().transmon
    columns = read_csv_columns(populations_path)
    missing = [k for k in ("p0", "p1", "p2", "p3") if k not in columns]
    if missing:
        raise ValueError(
            f"{populations_path} lacks population columns {missing}"
        )
    sweep_col = next(
        (k for k in ("V_mV", "t_ns") if k in columns), None
    )
    n_rows = len(columns["p0"])
    header = ([sweep_col] if sweep_col else []) + [
        "T_mK",
        "T_err_mK",
        "residual",
    ]

    rows, temps = [], []
    for i in range(n_rows):
        p = np.array([float(columns[f"p{j}"][i]) for j in range(4)])
        fit = fit_gibbs(p, transmon)
        t_mk = fit.temperature * 1e3 if fit.thermal else math.nan
        err_mk = fit.uncertainty * 1e3 if fit.thermal else math.nan
        temps.append(fit.temperature if fit.thermal else math.nan)
        row = (t_mk, err_mk, fit.residual)
        if sweep_col:
            row = (float(columns[sweep_col][i]),) + row
        rows.append(row)

    comments = []
    if sweep_col == "V_mV":
        v_gap = cfg.as_junction().delta
        v = np.array([float(x) for x in columns["V_mV"]])
        t = np.array(temps)
        ok = np.isfinite(t)
        try:
            slope = _fmt(heating_slope(v[ok], t[ok], v_min=v_gap))
        except ValueError:
            slope = "nan  # fewer than 3 points above the gap"
        comments.append(f"slope_K_per_mV = {slope}")
    elif sweep_col == "t_ns":
        t_axis = np.array([float(x) for x in columns["t_ns"]])
        t_kelvin = np.array(temps)
        ok = np.isfinite(t_kelvin)
        sat = fit_saturation(t_axis[ok], t_kelvin[ok])
        saturated = bool(np.isfinite(sat.tau) and sat.tau <= t_axis[ok].max())
        comments += [
            f"t0_K = {_fmt(sat.t0)}",
            f"a_K = {_fmt(sat.amplitude)}",
            f"tau_ns = {_fmt(sat.tau)}",
            f"fit_residual = {_fmt(sat.residual)}",
            f"saturated_within_window = {str(saturated).lower()}",
        ]
    return write_csv(outdir / name, header, rows, comments=comments)


def stage_otto(
    cfg: ExperimentConfig, outdir: Path, spec: OttoSpec, name: str = "otto.csv"
):
    result = run_cycle(
        spec, cfg.as_system(), cfg.as_junction(), cfg.as_coupling()
    )
    rows = [
        (
            cycle + 1,
            result.q_hot[cycle] * AJ_PER_GHZ,
            result.q_cold[cycle] * AJ_PER_GHZ,
            result.work[cycle] * AJ_PER_GHZ,
            result.eta[cycle],
        )
        for cycle in range(spec.n_cycles)
    ]
    comments = [
        f"eta_limit = {_fmt(result.eta_limit)}",
        f"eta_c = {_fmt(result.eta_carnot)}",
        f"eta_f = {_fmt(result.eta_frequency)}",
        f"T_h_K = {_fmt(result.t_hot)}",
        f"T_c_K = {_fmt(result.t_cold)}",
        f"limit_cycle_reached = {str(bool(result.limit_cycle_reached)).lower()}",
    ]
    path = write_csv(
        outdir / name,
        ["cycle", "Q_h_aJ", "Q_c_aJ", "W_aJ", "eta"],
        rows,
        comments=comments,
    )
    return path, result


# -------------------------------------------------------------- pipelines


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as a StageError naming it."""
    try:
        yield
    except Exception as exc:
        raise StageError(f"stage '{name}' failed: {exc}") from exc


def pipeline_fig3d(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Idle thermal state through the full readout chain.

    Calibration shots per prepared state, a thermal-mixture shot set at
    the idle temperature, a mixture fit on the calibration data and a
    corrected population estimate + Gibbs fit on the thermal set.
    """
    transmon = cfg.as_system().transmon
    p4 = normalize_leading(gibbs_populations(IDLE_TEMPERATURE, transmon), 4)
    with _stage("shots"):
        stage_shots(
            cfg,
            outdir,
            None,
            2500,
            seed,
            calibration=True,
            name="shots_calibration.csv",
        )
        shots_path = stage_shots(cfg, outdir, p4, 10000, seed)
    with _stage("fit"):
        _, pops_path, _ = stage_fit(cfg, outdir, shots_path, seed)
    with _stage("thermo"):
        stage_thermo(cfg, outdir, pops_path)


def pipeline_fig4a(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Amplitude sweep: 100 ns pulses, populations through synthetic
    readout, Gibbs fit per point, heating slope above the gap."""
    system = cfg.as_system()
    junction = cfg.as_junction()
    coupling = cfg.as_coupling()
    model = cfg.as_readout_model()
    transmon = system.transmon
    rho0 = DensityMatrix.gibbs(IDLE_TEMPERATURE, transmon)

    amplitudes = [round(0.1 * i, 1) for i in range(13)]  # 0 .. 1.2 mV
    rows = []
    for i, amp in enumerate(amplitudes):
        pulse = BiasPulse(dc_offset=0.0, amplitude=amp, duration=100.0)
        with _stage("evolve"):
            traj = evolve(rho0, system, junction, coupling, pulse)
        p_true = normalize_leading(traj.final.populations(), 4)
        with _stage("shots"):
            shots = synthesize_shots(
                p_true, model, 20000, _seed_for(seed, "fig4a-shots", i)
            )
        with _stage("fit"):
            est = estimate_populations(shots, model)
        order = [est.labels.index(lbl) for lbl in STATE_LABELS]
        rows.append((amp, *(est.populations[j] for j in order)))

    pops_path = write_csv(
        outdir / "sweep_populations.csv",
        ["V_mV", "p0", "p1", "p2", "p3"],
        rows,
    )
    with _stage("thermo"):
        stage_thermo(cfg, outdir, pops_path)


def pipeline_fig4b(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Heating saturation: T(t) under three pulse amplitudes with a
    saturation fit per amplitude (noiseless simulation)."""
    del seed  # purely deterministic simulation; seed only enters the echo
    for amp in (0.3, 0.6, 1.2):
        pulse = BiasPulse(dc_offset=0.0, amplitude=amp, duration=600.0)
        tag = f"{amp:.1f}".replace(".", "p")
        with _stage("evolve"):
            path, traj = stage_evolve(
                cfg,
                outdir,
                pulse,
                sample_every=50,
                name=f"evolve_{tag}mV.csv",
            )
        temps = traj.temperatures
        ok = np.isfinite(temps)
        pops_path = write_csv(
            outdir / f"temps_{tag}mV.csv",
            ["t_ns", "p0", "p1", "p2", "p3"],
            [
                (traj.times[j], *normalize_leading(traj.populations[j], 4))
                for j in range(traj.times.size)
                if ok[j]
            ],
        )
        with _stage("thermo"):
            stage_thermo(cfg, outdir, pops_path, name=f"thermo_{tag}mV.csv")


def pipeline_otto_demo(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Default Otto engine run: per-cycle ledger plus summary."""
    del seed
    with _stage("otto"):
        stage_otto(cfg, outdir, OttoSpec())


def pipeline_full(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Chained default pipeline: rates -> evolve -> shots -> fit ->
    thermo, all at the configured pulse."""
    pulse = cfg.as_pulse()
    with _stage("rates"):
        stage_rates(
            cfg, outdir, [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, pulse.amplitude]
        )
    with _stage("evolve"):
        _, traj = stage_evolve(cfg, outdir, pulse)
    p4 = normalize_leading(traj.final.populations(), 4)
    with _stage("shots"):
        shots_path = stage_shots(cfg, outdir, p4, 10000, seed)
    with _stage("fit"):
        _, pops_path, _ = stage_fit(cfg, outdir, shots_path, seed)
    with _stage("thermo"):
        stage_thermo(cfg, outdir, pops_path)


PIPELINE_PRESETS = {
    "fig3d": pipeline_fig3d,
    "fig4a": pipeline_fig4a,
    "fig4b": pipeline_fig4b,
    "otto-demo": pipeline_otto_demo,
    "full": pipeline_full,
}


# -------------------------------------------------------------- commands


def _resolve(args) -> tuple[ExperimentConfig, Path, int]:
    """Load config, apply CLI overrides, write the echo, return
    (config, outdir, seed)."""
    cfg = load_config(getattr(args, "config", None))
    overrides = dict(cfg.values)
    # A flag named after a key's field overrides that key when given.
    for key in ("run.seed", "run.outdir", "pulse.amplitude", "pulse.duration"):
        value = getattr(args, key.split(".")[1], None)
        if value is not None:
            overrides[key] = value
    cfg = ExperimentConfig(overrides).validate()
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_echo(cfg, outdir / "config_echo.txt")
    return cfg, outdir, cfg.seed


def cmd_rates(args) -> int:
    cfg, outdir, _ = _resolve(args)
    path = stage_rates(cfg, outdir, args.bias)
    print(path)
    return 0


def cmd_evolve(args) -> int:
    cfg, outdir, _ = _resolve(args)
    path, _ = stage_evolve(
        cfg,
        outdir,
        cfg.as_pulse(),
        init=args.init,
        dt=args.dt,
        sample_every=args.sample_every,
    )
    print(path)
    return 0


def cmd_shots(args) -> int:
    cfg, outdir, seed = _resolve(args)
    populations = None
    if not args.calibration:
        populations = np.array(
            [float(x) for x in args.populations.split(",")]
        )
    path = stage_shots(
        cfg,
        outdir,
        populations,
        args.n,
        seed,
        calibration=args.calibration,
    )
    print(path)
    return 0


def cmd_fit(args) -> int:
    cfg, outdir, seed = _resolve(args)
    model_path, pops_path, est = stage_fit(
        cfg,
        outdir,
        Path(args.shots),
        seed,
        blind=args.blind,
        anchor=args.anchor,
    )
    print(model_path)
    print(pops_path)
    for label, p in zip(est.labels, est.populations):
        print(f"{label}: {p:.4f}")
    return 0


def cmd_thermo(args) -> int:
    cfg, outdir, _ = _resolve(args)
    path = stage_thermo(cfg, outdir, Path(args.populations))
    print(path)
    return 0


def cmd_otto(args) -> int:
    cfg, outdir, _ = _resolve(args)
    spec = OttoSpec(**{f.name: getattr(args, f.name) for f in fields(OttoSpec)})
    path, result = stage_otto(cfg, outdir, spec)
    print(path)
    print(
        f"eta_limit={result.eta_limit:.4f} eta_c={result.eta_carnot:.4f} "
        f"eta_f={result.eta_frequency:.4f}"
    )
    return 0


def cmd_pipeline(args) -> int:
    target = args.preset_or_file
    if target in PIPELINE_PRESETS:
        preset, config_path = PIPELINE_PRESETS[target], args.config
    elif Path(target).is_file():
        preset, config_path = PIPELINE_PRESETS["full"], target
    else:
        raise ConfigError(
            f"unknown pipeline {target!r}: not a preset "
            f"({', '.join(sorted(PIPELINE_PRESETS))}) or a config file"
        )
    shadow = argparse.Namespace(
        config=config_path, seed=args.seed, outdir=args.outdir
    )
    cfg, outdir, seed = _resolve(shadow)
    preset(cfg, outdir, seed)
    print(outdir)
    return 0


# ---------------------------------------------------------------- parser


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--config", metavar="FILE", help="config file (strict keys)"
    )
    parser.add_argument(
        "--outdir", metavar="DIR", help="output directory (default: config)"
    )
    parser.add_argument(
        "--seed", type=int, metavar="N", help="root seed (default: config)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrsim",
        description=(
            "Transmon + tunnel-junction refrigerator simulator: tunneling "
            "rates, master-equation evolution, synthetic single-shot "
            "readout, thermometry and an Otto-engine demo."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="transition-rate table over bias points")
    p.add_argument(
        "--bias",
        type=float,
        nargs="+",
        default=[0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2],
        metavar="V_mV",
    )
    _add_common(p)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("evolve", help="integrate the pulsed master equation")
    p.add_argument(
        "--amplitude",
        type=float,
        metavar="mV",
        help="pulse amplitude (default: config)",
    )
    p.add_argument(
        "--duration",
        type=float,
        metavar="ns",
        help="pulse duration (default: config)",
    )
    p.add_argument("--dt", type=float, default=0.1, metavar="ns")
    p.add_argument(
        "--init",
        default=f"gibbs:{IDLE_TEMPERATURE}",
        metavar="gibbs:<T_K>|level:<n>",
        help="initial state",
    )
    p.add_argument("--sample-every", type=int, default=10, metavar="STEPS")
    _add_common(p)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("shots", help="synthesize single-shot IQ data")
    p.add_argument(
        "--populations",
        default="0.83,0.14,0.025,0.005",
        metavar="p0,p1,p2,p3",
    )
    p.add_argument("--n", type=int, default=10000, metavar="SHOTS")
    p.add_argument(
        "--calibration",
        action="store_true",
        help="emit --n labelled shots per prepared state instead",
    )
    _add_common(p)
    p.set_defaults(func=cmd_shots)

    p = sub.add_parser("fit", help="mixture fit + corrected populations")
    p.add_argument("--shots", required=True, metavar="CSV")
    p.add_argument(
        "--blind",
        action="store_true",
        help="ignore the configured geometry; seeded k-means++ init",
    )
    p.add_argument(
        "--anchor",
        type=float,
        default=None,
        metavar="SHOTS",
        help="calibration-prior strength (default: 200 with geometry init)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("thermo", help="Gibbs-fit temperatures per row")
    p.add_argument("--populations", required=True, metavar="CSV")
    _add_common(p)
    p.set_defaults(func=cmd_thermo)

    p = sub.add_parser("otto", help="four-stroke engine run")
    units = {"omega": "GHz", "v": "mV", "t": "ns", "n": "N"}
    for f in fields(OttoSpec):
        p.add_argument(
            "--" + f.name.replace("_", "-"),
            type=type(f.default),
            default=f.default,
            metavar=units[f.name.split("_")[0]],
        )
    _add_common(p)
    p.set_defaults(func=cmd_otto)

    p = sub.add_parser(
        "pipeline",
        help="run a named preset (fig3d, fig4a, fig4b, otto-demo, full) "
        "or the full pipeline under a config file",
    )
    p.add_argument("preset_or_file", metavar="PRESET|FILE")
    _add_common(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
