"""Workloads of the benchmark and the product checks of each preset.

A workload is a list of ``qcrsim pipeline`` presets run one after
another in one process, each into its own output directory.  The
checks read the CSV products only and test physics, not bytes, so they
hold across legitimate numeric changes of the propagation and readout
algebra.  Where a checked quantity is statistical, its tolerance is
about five seed-to-seed standard deviations measured at the commit that
introduced the benchmark (see README.md), so seed-to-seed noise alone
does not fail a run.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

WORKLOADS = {
    "sweep": ("fig4a",),
    "engine": ("otto-demo",),
    "analysis": ("fig3d", "fig4b", "full"),
}

IDLE_T_MK = 110.0
#: |T(0 mV) - 110 mK| bound: 5 x the 2.0 mK spread of 20 000 shots.
IDLE_T_TOL_MK = 10.0
#: The heating slope must lie within a factor 2 of this (K/mV).
SLOPE_K_PER_MV = 0.36
#: Largest |p_n - Gibbs_n(110 mK)| of the fig3d estimate (10 000 shots).
IDLE_POP_TOL = 0.03
#: fig4b temperature of the 1.2 mV trace at t = 100 ns (mK) and its bound.
HEATED_T_MK, HEATED_TOL_MK = 470.0, 50.0
#: Relative first-law closure per cycle once in the limit cycle.
FIRST_LAW_RTOL = 1e-8
#: h / k_B in K/GHz (exact SI values).
H_OVER_KB = 6.62607015e-34 / 1.380649e-23 * 1e9


def read_table(path: Path) -> tuple[dict[str, list[float]], dict[str, str]]:
    """Numeric columns and trailing ``# key = value`` lines of a product."""
    columns: dict[str, list[float]] = {}
    summary: dict[str, str] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    for name in header:
        columns[name] = []
    for row in rows[1:]:
        if row and row[0].startswith("#"):
            key, _, value = ",".join(row)[1:].partition("=")
            summary[key.strip()] = value.split("#")[0].strip()
        elif row:
            for name, cell in zip(header, row):
                columns[name].append(float(cell))
    return columns, summary


def read_echo(path: Path) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def gibbs4(t_kelvin: float, echo: dict[str, str]) -> list[float]:
    """Leading four Gibbs populations of the configured transmon ladder."""
    omega, alpha = float(echo["transmon.omega_ge"]), float(echo["transmon.alpha"])
    energies = [n * omega + 0.5 * alpha * n * (n - 1) for n in range(4)]
    weights = [math.exp(-H_OVER_KB * e / t_kelvin) for e in energies]
    return [w / sum(weights) for w in weights]


def check_fig4a(d: Path) -> list[str]:
    bad = []
    pops, _ = read_table(d / "sweep_populations.csv")
    if len(pops["V_mV"]) != 13:
        bad.append(f"fig4a: {len(pops['V_mV'])} sweep rows, expected 13")
    for i, v in enumerate(pops["V_mV"]):
        total = sum(pops[f"p{j}"][i] for j in range(4))
        if abs(total - 1.0) > 1e-9:
            bad.append(f"fig4a: populations at {v} mV sum to {total}")
    thermo, summary = read_table(d / "thermo.csv")
    t0 = thermo["T_mK"][thermo["V_mV"].index(0.0)]
    if not abs(t0 - IDLE_T_MK) <= IDLE_T_TOL_MK:
        bad.append(f"fig4a: T(0 mV) = {t0} mK, expected {IDLE_T_MK} +- {IDLE_T_TOL_MK}")
    slope = float(summary["slope_K_per_mV"])
    if not SLOPE_K_PER_MV / 2 <= slope <= 2 * SLOPE_K_PER_MV:
        bad.append(f"fig4a: heating slope {slope} K/mV not within 2x of {SLOPE_K_PER_MV}")
    return bad


def check_otto(d: Path) -> list[str]:
    bad = []
    ledger, summary = read_table(d / "otto.csv")
    if summary.get("limit_cycle_reached") != "true":
        bad.append("otto: limit cycle not reached")
    eta_c = float(summary["eta_c"])
    q_h, q_c, w = ledger["Q_h_aJ"], ledger["Q_c_aJ"], ledger["W_aJ"]
    # Cycles whose heat intake has settled on the final value are in the
    # limit cycle; only there does the stored energy return and W = Q_h + Q_c.
    settled = [i for i in range(len(q_h)) if abs(q_h[i] - q_h[-1]) <= 1e-6 * abs(q_h[-1])]
    for i in settled:
        if abs(q_h[i] + q_c[i] - w[i]) > FIRST_LAW_RTOL * abs(q_h[i]):
            bad.append(f"otto: cycle {i + 1} violates Q_h + Q_c = W")
    etas = [e for e in ledger["eta"] if math.isfinite(e)] + [float(summary["eta_limit"])]
    if not etas or max(etas) > eta_c:
        bad.append(f"otto: efficiency {max(etas, default=math.nan)} exceeds eta_c {eta_c}")
    return bad


def check_fig3d(d: Path) -> list[str]:
    pops, _ = read_table(d / "populations.csv")
    expected = gibbs4(IDLE_T_MK / 1e3, read_echo(d / "config_echo.txt"))
    dev = max(abs(pops[f"p{j}"][0] - expected[j]) for j in range(4))
    if not dev <= IDLE_POP_TOL:
        return [f"fig3d: populations deviate {dev} from Gibbs(110 mK)"]
    return []


def check_fig4b(d: Path) -> list[str]:
    bad = []
    for tag in ("0p3", "0p6", "1p2"):
        thermo, summary = read_table(d / f"thermo_{tag}mV.csv")
        temps = thermo["T_mK"]
        if any(b < a for a, b in zip(temps, temps[1:])) or not all(map(math.isfinite, temps)):
            bad.append(f"fig4b: T(t) at {tag} mV is not non-decreasing")
        if tag == "1p2":
            t100 = temps[thermo["t_ns"].index(100.0)]
            if not abs(t100 - HEATED_T_MK) <= HEATED_TOL_MK:
                bad.append(f"fig4b: T(100 ns) at 1.2 mV = {t100} mK")
            # tau of this fit (~1.6e7 ns) is ill-conditioned; only the flag holds
            if summary.get("saturated_within_window") != "false":
                bad.append("fig4b: 1.2 mV trace reported saturated within the window")
    return bad


def check_full(d: Path) -> list[str]:
    pops, _ = read_table(d / "populations.csv")
    total = sum(pops[f"p{j}"][0] for j in range(4))
    thermo, _ = read_table(d / "thermo.csv")
    if abs(total - 1.0) > 1e-9 or not math.isfinite(thermo["T_mK"][0]):
        return [f"full: populations sum to {total}, T = {thermo['T_mK'][0]} mK"]
    return []


CHECKS = {
    "fig4a": check_fig4a,
    "otto-demo": check_otto,
    "fig3d": check_fig3d,
    "fig4b": check_fig4b,
    "full": check_full,
}


def check_products(workload: str, outdir: Path) -> list[str]:
    """Problems found in the products of one repetition (empty if none)."""
    bad = []
    for preset in WORKLOADS[workload]:
        try:
            bad += CHECKS[preset](outdir / preset)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            bad.append(f"{preset}: unreadable product ({type(exc).__name__}: {exc})")
    return bad
