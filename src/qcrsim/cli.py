"""Config-driven command-line experiment runner.

Binds the simulation and analysis modules into reproducible pipelines
(rates -> evolve -> shots -> fit -> report).  Every run resolves one
``ExperimentConfig`` (defaults, optional config file, CLI overrides),
writes its echo next to the outputs, and derives all randomness from
one root seed through named sub-streams, so identical config + seed
produces byte-identical CSV files.  The presets pass arrays from stage
to stage in memory and write CSVs as products only; ``fit`` and
``thermo`` are the only commands that read a CSV (``read_csv_columns``).

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
import functools
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
    estimate_populations,
    fit_gmm,
    sample_estimate,
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
    """Exact-decimal float formatting (repr round-trip)."""
    return repr(float(value))


def write_csv(path: Path, header: list[str], columns, comments: list[str] = ()):
    """Write one column per header name, with fixed newline discipline;
    comments go at the end as ``# key = value`` lines (summary block).

    Each column is a 1-d array or sequence, all of one length.  It is
    converted with ``np.asarray(column).tolist()``, so integer columns
    stay integers, and each cell is written with ``%s``, which for a
    Python float is its ``repr``: the shortest decimal that reads back
    exactly.
    """
    cells = [np.asarray(column).tolist() for column in columns]
    template = ",".join(["%s"] * len(cells))
    lines = [",".join(header)]
    lines += [template % row for row in zip(*cells, strict=True)]
    lines += [f"# {comment}" for comment in comments]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_csv_columns(path: Path, required, optional=()) -> dict[str, np.ndarray]:
    """Float arrays of the ``required`` columns of a CSV and of those
    ``optional`` columns it has, skipping comment lines.

    Raises ValueError naming every missing required column, the first
    row whose cell count differs from the header's, or the first cell
    of a read column that is not a number.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [
            row
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    if not rows:
        raise ValueError(f"{path} is empty")
    header, body = rows[0], rows[1:]
    missing = [name for name in required if name not in header]
    if missing:
        raise ValueError(f"{path} lacks columns {missing}")
    ragged = next((i for i, row in enumerate(body) if len(row) != len(header)), None)
    if ragged is not None:
        raise ValueError(f"{path}: row {ragged} does not have {len(header)} cells")
    columns = {}
    for j, name in enumerate(header):
        if name in required or name in optional:
            values = columns[name] = np.empty(len(body))
            for i, row in enumerate(body):
                try:
                    values[i] = float(row[j])
                except ValueError:
                    raise ValueError(
                        f"{path}: row {i} column {name}: {row[j]!r} is not a number"
                    ) from None
    return columns


def _seed_for(root_seed: int, stage: str, index: int = 0) -> int:
    """Derived integer root for a stage's own named sub-streams."""
    return int(named_rng(root_seed, stage, index).integers(2**63))


# ---------------------------------------------------------------- stages


def stage_rates(cfg: ExperimentConfig, outdir: Path, biases) -> Path:
    system = cfg.as_system()
    junction = cfg.as_junction()
    coupling = cfg.as_coupling()
    tables = [transition_rates(system, junction, coupling, v) for v in biases]
    m = np.arange(system.transmon.n_levels - 1)
    return write_csv(
        outdir / "rates.csv",
        ["V_mV", "m", "gamma_down_per_ns", "gamma_up_per_ns", "T_eff_K"],
        [
            np.repeat(np.asarray(biases, dtype=float), m.size),
            np.tile(m, len(tables)),
            np.concatenate([t.gamma_down for t in tables]),
            np.concatenate([t.gamma_up for t in tables]),
            np.concatenate([t.effective_temperatures() for t in tables]),
        ],
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
    columns = [traj.times, *traj.populations.T, traj.temperatures]
    path = write_csv(outdir / name, header, columns)
    return path, traj


def stage_shots(
    cfg: ExperimentConfig,
    outdir: Path,
    populations,
    n_shots: int,
    seed: int,
    calibration: bool = False,
    name: str = "shots.csv",
) -> np.ndarray:
    """Synthesize IQ shots, write them and return the (n, 2) array;
    calibration mode emits n_shots per prepared state with a label
    column instead of sampling the mixture."""
    model = cfg.as_readout_model()
    if calibration:
        pts = np.concatenate(
            [
                synthesize_shots(
                    one_hot, model, n_shots, seed=_seed_for(seed, "calibration", j)
                )
                for j, one_hot in enumerate(np.eye(model.n_components))
            ]
        )
        labels = [label for label in model.labels for _ in range(n_shots)]
        write_csv(outdir / name, ["i", "q", "label"], [*pts.T, labels])
    else:
        pts = synthesize_shots(populations, model, n_shots, _seed_for(seed, "shots"))
        write_csv(outdir / name, ["i", "q"], pts.T)
    return pts


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


def stage_fit(cfg: ExperimentConfig, outdir: Path, shots: np.ndarray):
    """Fit the mixture to (n, 2) IQ shots and estimate populations.

    Writes model.txt (key-value, exact decimals) and populations.csv
    (one row), both in the label order g/e/f/h of the fitted model.
    """
    gmm = fit_gmm(shots, init=cfg.as_readout_model())
    est = estimate_populations(shots, gmm)

    model_path = outdir / "model.txt"
    model_path.write_text(
        "\n".join(_model_lines(gmm)) + "\n", encoding="utf-8", newline="\n"
    )
    p = est.populations
    pops_path = write_csv(
        outdir / "populations.csv", [f"p{j}" for j in range(p.size)], p[:, None]
    )
    return model_path, pops_path, est


def stage_thermo(
    cfg: ExperimentConfig,
    outdir: Path,
    p: np.ndarray,
    sweep_col: str | None = None,
    sweep: np.ndarray | None = None,
    name: str = "thermo.csv",
) -> Path:
    """Per-row Gibbs-fit temperatures plus slope/saturation summary.

    ``p`` is an (n, 4) population table; ``sweep``, if given, is its
    axis, named by ``sweep_col`` (V_mV or t_ns).  Temperatures
    are reported in mK.  The summary block at the end of the file holds
    the heating slope above the configured gap ``junction.delta``
    (V_mV axis) or the saturation-fit parameters (t_ns axis).  Raises
    ValueError, naming the row and column, for a NaN or infinite sweep
    value.
    """
    if sweep_col:
        bad = np.flatnonzero(~np.isfinite(sweep))
        if bad.size:
            i = bad[0]
            raise ValueError(f"row {i} column {sweep_col}: {sweep[i]} is not finite")
    fit = fit_gibbs(p, cfg.as_system().transmon)
    temps = fit.temperature  # K, NaN where non-thermal
    header = ["T_mK", "T_err_mK", "residual"]
    out = [temps * 1e3, fit.uncertainty * 1e3, fit.residual]

    comments = []
    if sweep_col:
        header.insert(0, sweep_col)
        out.insert(0, sweep)
        ok = np.isfinite(temps)
        sweep, temps = sweep[ok], temps[ok]
    if sweep_col == "V_mV":
        delta = cfg.as_junction().delta
        if np.count_nonzero(sweep > delta) < 3:
            slope = "nan  # fewer than 3 points above the gap"
        else:
            slope = _fmt(heating_slope(sweep, temps, v_min=delta))
        comments.append(f"slope_K_per_mV = {slope}")
    elif sweep_col == "t_ns":
        if temps.size < 4:
            values = ["nan  # fewer than 4 thermal samples"] * 4
            saturated = False
        else:
            sat = fit_saturation(sweep, temps)
            values = [_fmt(x) for x in (sat.t0, sat.amplitude, sat.tau, sat.residual)]
            saturated = bool(np.isfinite(sat.tau) and sat.tau <= sweep.max())
        keys = ("t0_K", "a_K", "tau_ns", "fit_residual")
        comments += [f"{key} = {value}" for key, value in zip(keys, values)]
        comments.append(f"saturated_within_window = {str(saturated).lower()}")
    return write_csv(outdir / name, header, out, comments=comments)


def stage_otto(
    cfg: ExperimentConfig, outdir: Path, spec: OttoSpec, name: str = "otto.csv"
):
    result = run_cycle(
        spec, cfg.as_system(), cfg.as_junction(), cfg.as_coupling()
    )
    columns = [
        np.arange(1, spec.n_cycles + 1),
        result.q_hot * AJ_PER_GHZ,
        result.q_cold * AJ_PER_GHZ,
        result.work * AJ_PER_GHZ,
        result.eta,
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
        columns,
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

    Calibration shots per prepared state (a written product only), a
    10 000-shot thermal-mixture set at the idle temperature, a mixture
    fit to that set, started from and anchored at the configured blob
    geometry, and a corrected population estimate + Gibbs fit on it.
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
        shots = stage_shots(cfg, outdir, p4, 10000, seed)
    with _stage("fit"):
        _, _, est = stage_fit(cfg, outdir, shots)
    with _stage("thermo"):
        stage_thermo(cfg, outdir, est.populations[None])


def pipeline_fig4a(cfg: ExperimentConfig, outdir: Path, seed: int):
    """Amplitude sweep: 100 ns pulses, populations through synthetic
    readout, Gibbs fit per point, heating slope above the gap.

    The readout of each point is its within-1-sigma counts of 20 000
    shots, drawn from their exact multinomial law by ``sample_estimate``
    with no shot drawn; the (13, 4) table is drawn and corrected in one
    call, with one confusion matrix for the one readout model.  A blob
    geometry whose 1-sigma ellipses overlap fails the readout stage,
    naming the pairs.
    """
    system = cfg.as_system()
    junction = cfg.as_junction()
    coupling = cfg.as_coupling()
    model = cfg.as_readout_model()
    transmon = system.transmon
    rho0 = DensityMatrix.gibbs(IDLE_TEMPERATURE, transmon)

    amplitudes = [round(0.1 * i, 1) for i in range(13)]  # 0 .. 1.2 mV
    p_true = np.empty((len(amplitudes), 4))
    for i, amp in enumerate(amplitudes):
        pulse = BiasPulse(dc_offset=0.0, amplitude=amp, duration=100.0)
        with _stage("evolve"):
            # only the end of the pulse is read out: one sample of 1000 steps
            traj = evolve(rho0, system, junction, coupling, pulse, sample_every=1000)
        p_true[i] = normalize_leading(traj.final.populations(), 4)
    with _stage("readout"):
        est = sample_estimate(p_true, model, 20000, _seed_for(seed, "fig4a-counts"))
    p = est.populations

    write_csv(
        outdir / "sweep_populations.csv",
        ["V_mV", "p0", "p1", "p2", "p3"],
        [amplitudes, *p.T],
    )
    with _stage("thermo"):
        stage_thermo(cfg, outdir, p, "V_mV", np.array(amplitudes))


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
        ok = np.isfinite(traj.temperatures)
        t, p = traj.times[ok], normalize_leading(traj.populations[ok], 4)
        write_csv(
            outdir / f"temps_{tag}mV.csv",
            ["t_ns", "p0", "p1", "p2", "p3"],
            [t, *p.T],
        )
        with _stage("thermo"):
            stage_thermo(cfg, outdir, p, "t_ns", t, name=f"thermo_{tag}mV.csv")


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
        shots = stage_shots(cfg, outdir, p4, 10000, seed)
    with _stage("fit"):
        _, _, est = stage_fit(cfg, outdir, shots)
    with _stage("thermo"):
        stage_thermo(cfg, outdir, est.populations[None])


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
    stage_shots(cfg, outdir, populations, args.n, seed, calibration=args.calibration)
    print(outdir / "shots.csv")
    return 0


def cmd_fit(args) -> int:
    cfg, outdir, _ = _resolve(args)
    columns = read_csv_columns(Path(args.shots), ("i", "q"))
    model_path, pops_path, est = stage_fit(
        cfg, outdir, np.column_stack([columns["i"], columns["q"]])
    )
    print(model_path)
    print(pops_path)
    for label, p in zip(est.labels, est.populations):
        print(f"{label}: {p:.4f}")
    return 0


def cmd_thermo(args) -> int:
    cfg, outdir, _ = _resolve(args)
    src, sweep_cols = Path(args.populations), ("V_mV", "t_ns")
    columns = read_csv_columns(src, ("p0", "p1", "p2", "p3"), sweep_cols)
    sweep_col = next((k for k in sweep_cols if k in columns), None)
    p = np.column_stack([columns[f"p{j}"] for j in range(4)])
    try:
        path = stage_thermo(cfg, outdir, p, sweep_col, columns.get(sweep_col))
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{src}: {exc}") from exc
    print(path)
    return 0


def cmd_otto(args) -> int:
    cfg, outdir, _ = _resolve(args)
    try:
        spec = OttoSpec(**{f.name: getattr(args, f.name) for f in fields(OttoSpec)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser as it was, and a
    # fresh build of every subcommand costs about a millisecond per call
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
    p.add_argument(
        "--dt",
        type=float,
        default=0.1,
        metavar="ns",
        help="sampling step; must divide the duration (edges may fall anywhere)",
    )
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
