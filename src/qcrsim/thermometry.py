"""Population thermometry: Gibbs fits, saturation curves, heating slopes.

Temperatures come out of measured ladder populations by matching them to
the truncated Gibbs distribution; time series of temperatures are
summarized by exponential-saturation fits, and amplitude sweeps by the
above-gap heating slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from .constants import H_OVER_KB
from .qcr import JunctionSpec
from .system import TransmonSpec, transmon_energies

T_BOUNDS = (1e-3, 5.0)  # K; search range of the Gibbs fit
TAU_STARTS = (25.0, 50.0, 100.0, 200.0, 400.0)  # ns; saturation multistart
V_MIN_DEFAULT = JunctionSpec().delta  # mV; gap edge, onset of the heating slope


class SaturationFitError(RuntimeError):
    """No saturation-fit start converged."""


def gibbs_populations(
    temperature: float, spec: TransmonSpec, truncation: int | None = None
) -> np.ndarray:
    """Thermal ladder populations p_n ∝ exp(-h E_n / k_B T), normalized.

    Parameters
    ----------
    temperature : float
        Temperature in K, > 0.
    spec : TransmonSpec
        Supplies the ladder energies.
    truncation : int, optional
        Number of states kept (default: spec.n_levels).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    n = spec.n_levels if truncation is None else truncation
    if not 2 <= n <= spec.n_levels:
        raise ValueError(f"truncation must lie in [2, {spec.n_levels}], got {n}")
    e = transmon_energies(spec)[:n]
    # subtract the ground energy (0 by construction) for overflow safety
    p = np.exp(-H_OVER_KB * e / temperature)
    return p / p.sum()


def normalize_leading(p, k: int = 4) -> np.ndarray:
    """Renormalize the first k entries of a population vector to sum 1."""
    p = np.asarray(p, dtype=float)
    if not 1 <= k <= p.size:
        raise ValueError(f"k must lie in [1, {p.size}], got {k}")
    lead = p[:k]
    total = lead.sum()
    if total <= 0:
        raise ValueError("leading populations sum to zero")
    return lead / total


def is_monotone_thermal(p, tol: float = 1e-12) -> bool:
    """True when populations are non-increasing up the ladder."""
    p = np.asarray(p, dtype=float)
    return bool(np.all(np.diff(p) <= tol))


@dataclass(frozen=True)
class GibbsFit:
    """Result of a thermal fit to measured populations.

    thermal=False marks inputs with population inversion somewhere up
    the ladder; such vectors carry no temperature (fields are NaN).
    """

    temperature: float  # K
    uncertainty: float  # K, from the residual curvature
    residual: float  # sum of squared population errors at the minimum
    truncation: int
    thermal: bool = True


def fit_gibbs(p_measured, spec: TransmonSpec) -> GibbsFit:
    """Least-squares Gibbs temperature for measured populations.

    The model is the spec.n_levels-truncated Gibbs distribution
    renormalized over the first len(p_measured) states; the single
    temperature parameter is minimized by bounded golden-section /
    parabolic search on T in [1 mK, 5 K].  The quoted uncertainty comes
    from the curvature of the residual at the minimum.
    """
    p = np.asarray(p_measured, dtype=float)
    if p.ndim != 1 or not 2 <= p.size <= spec.n_levels:
        raise ValueError(f"need between 2 and {spec.n_levels} populations")
    if p.min() < -1e-9:
        raise ValueError(f"negative population {p.min()}")
    p = np.clip(p, 0.0, None)
    if p.sum() <= 0:
        raise ValueError("populations sum to zero")
    p = p / p.sum()

    if not is_monotone_thermal(p):
        return GibbsFit(math.nan, math.nan, math.nan, p.size, thermal=False)

    k = p.size

    def residual(t: float) -> float:
        model = gibbs_populations(t, spec)
        lead = model[:k]
        diff = p - lead / lead.sum()
        return float(diff @ diff)

    res = minimize_scalar(
        residual,
        bounds=T_BOUNDS,
        method="bounded",
        options={"xatol": 1e-10},
    )
    t_hat = float(res.x)
    r_min = float(res.fun)

    # curvature-based 1-sigma: var = 2 s^2 / R''(T), s^2 = R/(k-1)
    h = max(1e-7, 1e-4 * t_hat)
    r_pp = (residual(t_hat + h) - 2.0 * r_min + residual(t_hat - h)) / h**2
    if r_pp > 0:
        dof = max(k - 1, 1)
        sigma = math.sqrt(max(2.0 * (r_min / dof) / r_pp, 0.0))
    else:
        sigma = math.inf

    return GibbsFit(t_hat, sigma, r_min, k, thermal=True)


@dataclass(frozen=True)
class SaturationFit:
    """Exponential saturation T(t) = t0 + a (1 - exp(-t/tau))."""

    t0: float  # K
    amplitude: float  # K
    tau: float  # ns
    residual: float
    degenerate: bool = False

    def value(self, t) -> np.ndarray:
        return self.t0 + self.amplitude * (1.0 - np.exp(-np.asarray(t) / self.tau))


def fit_saturation(times, temps) -> SaturationFit:
    """Fit T(t) = t0 + a(1 - e^{-t/tau}) to a temperature time series.

    Multi-start nonlinear least squares over tau in TAU_STARTS; the run
    with the smallest converged cost wins.  Constant data is flagged
    degenerate (tau unidentifiable) instead of fitted.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(temps, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and temps must be 1-d arrays of equal length")
    if t.size < 4:
        raise ValueError(f"need at least 4 samples, got {t.size}")
    if not np.all(np.isfinite(y)):
        raise ValueError("temperatures must be finite")

    spread = float(np.ptp(y))
    if spread < 1e-12:
        return SaturationFit(
            t0=float(y.mean()), amplitude=0.0, tau=math.nan, residual=0.0,
            degenerate=True,
        )

    def resid(params):
        t0, a, tau = params
        return t0 + a * (1.0 - np.exp(-t / tau)) - y

    t0_guess = max(float(y[np.argmin(t)]), 1e-3)
    a_guess = float(y[np.argmax(t)] - y[np.argmin(t)])
    lower = [1e-9, -np.inf, 1e-9]
    upper = [np.inf, np.inf, np.inf]

    best = None
    best_cost = math.inf
    for tau0 in TAU_STARTS:
        sol = least_squares(
            resid,
            x0=[t0_guess, a_guess if a_guess != 0 else spread, tau0],
            bounds=(lower, upper),
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )
        if sol.status > 0 and np.isfinite(sol.cost) and sol.cost < best_cost:
            best = sol
            best_cost = sol.cost

    if best is None:
        raise SaturationFitError("no saturation-fit start converged")

    t0, a, tau = (float(v) for v in best.x)
    degenerate = abs(a) < 1e-6 * max(spread, 1e-3)
    return SaturationFit(
        t0=t0, amplitude=a, tau=tau, residual=2.0 * float(best.cost),
        degenerate=degenerate,
    )


def heating_slope(voltages, temps, v_min: float = V_MIN_DEFAULT) -> float:
    """OLS slope dT/dV (K/mV) over sweep points with V > v_min.

    v_min defaults to the gap voltage, so only above-gap heating enters.
    Requires at least three qualifying points.
    """
    v = np.asarray(voltages, dtype=float)
    y = np.asarray(temps, dtype=float)
    if v.shape != y.shape or v.ndim != 1:
        raise ValueError("voltages and temps must be 1-d arrays of equal length")
    mask = v > v_min
    if mask.sum() < 3:
        raise ValueError(
            f"need at least 3 points above v_min={v_min} mV, got {int(mask.sum())}"
        )
    slope, _ = np.polyfit(v[mask], y[mask], 1)
    return float(slope)
