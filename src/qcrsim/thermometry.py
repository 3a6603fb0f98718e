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
from scipy.optimize import least_squares

from .constants import H_OVER_KB
from .qcr import JunctionSpec
from .system import TransmonSpec, transmon_energies

T_BOUNDS = (1e-3, 5.0)  # K; search range of the Gibbs fit
GIBBS_XTOL = 1e-14  # relative Newton step in 1/T that ends the Gibbs fit
GIBBS_NOISE = 1e-9  # Newton steps below this that stop halving are rounding
GIBBS_MAX_ITER = 100  # far above the ~57 halvings of the widest bracket
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

    The model is the Gibbs distribution q(beta) over the first
    k = len(p_measured) ladder states, beta = 1/T; the fit minimizes
    R = |p - q|^2 over T in T_BOUNDS.  R'(beta) and R''(beta) are
    analytic, so T is the root of R' found by Newton steps safeguarded by
    bisection of a sign-change bracket, started at the closed-form
    estimate from p_0/p_1; when R' does not change sign in the range the
    bound it points to is returned exactly.

    ``uncertainty`` is sqrt(2 s^2 / R''(T)) with s^2 = R/(k-1): a
    residual-curvature error that says how well one temperature
    describes the populations, not the shot noise of the readout.
    Raises ValueError for non-finite, negative or all-zero populations.
    """
    p = np.asarray(p_measured, dtype=float)
    if p.ndim != 1 or not 2 <= p.size <= spec.n_levels:
        raise ValueError(f"need between 2 and {spec.n_levels} populations")
    if not np.isfinite(p).all():
        raise ValueError(f"non-finite population {p[~np.isfinite(p)][0]}")
    if p.min() < -1e-9:
        raise ValueError(f"negative population {p.min()}")
    p = np.clip(p, 0.0, None)
    if p.sum() <= 0:
        raise ValueError("populations sum to zero")
    p = p / p.sum()

    if not is_monotone_thermal(p):
        return GibbsFit(math.nan, math.nan, math.nan, p.size, thermal=False)

    k = p.size
    e = H_OVER_KB * transmon_energies(spec)[:k]  # K, e[0] = 0

    def derivatives(beta: float):
        # q = softmax(-beta e), u = e - <e>_q:  q' = -q u,
        # q'' = q (u^2 - var u), so R' = 2 sum d q u with d = p - q and
        # R'' = 2 sum (q u)^2 - 2 sum d q u u + 2 var u sum d q.
        w = np.exp(-beta * e)
        total = w.sum()
        q = w / total
        u = e - q @ e
        qu = q * u
        d = p - q
        # p_0 - q_0 from 1 - q_0 = sum(w[1:]) / sum(w): when the excited
        # populations are tiny, p_0 - q_0 rounded near 1 would be noise.
        d[0] = (p[0] - 1.0) + (total - w[0]) / total
        r2 = qu @ qu - d @ (qu * u) + (qu @ u) * (d @ q)
        return d @ d, 2.0 * (d @ qu), 2.0 * r2

    lo, hi = 1.0 / T_BOUNDS[1], 1.0 / T_BOUNDS[0]
    beta = math.log(p[0] / p[1]) / e[1] if p[1] > 0 else hi
    beta = min(max(beta, lo), hi)
    r_min, r1, r2 = derivatives(beta)
    # The minimum lies downhill of the start: inside the bracket it forms
    # with the bound on that side, or at that bound when R' keeps its
    # sign all the way there.
    edge = lo if r1 > 0 else hi
    at_edge = derivatives(edge) if edge != beta else (r_min, r1, r2)
    if r1 != 0 and (at_edge[1] == 0 or (at_edge[1] > 0) == (r1 > 0)):
        beta, (r_min, r1, r2) = edge, at_edge
    else:
        # Newton on R' inside the sign-change bracket; a step that leaves
        # the bracket or does not halve the previous one is replaced by
        # bisection.  Stop once the Newton step or the bracket is below
        # GIBBS_XTOL of beta, or a step below GIBBS_NOISE fails to halve:
        # R' is then at its rounding noise (nearly uniform populations),
        # and bisecting a one-sided bracket would only wander off.
        lo, hi = min(beta, edge), max(beta, edge)
        last_step = hi - lo
        for _ in range(GIBBS_MAX_ITER):
            step = r1 / r2 if r2 > 0 else math.inf
            stalled = abs(step) > 0.5 * abs(last_step)
            tol = GIBBS_NOISE if stalled else GIBBS_XTOL
            if min(abs(step), hi - lo) <= tol * beta:
                break
            if stalled or not lo < beta - step < hi:
                step = beta - 0.5 * (lo + hi)
            beta -= step
            last_step = step
            r_min, r1, r2 = derivatives(beta)
            if r1 < 0:
                lo = beta
            else:
                hi = beta
        else:
            raise RuntimeError(f"Gibbs fit did not converge for populations {p}")

    t_hat = float(1.0 / beta)
    # curvature-based 1-sigma: var = 2 s^2 / R''(T), s^2 = R/(k-1), with
    # d2R/dT2 = beta^4 R''(beta) + 2 beta^3 R'(beta)
    r_pp = beta**4 * r2 + 2.0 * beta**3 * r1
    if r_pp > 0:
        dof = max(k - 1, 1)
        sigma = math.sqrt(max(2.0 * (r_min / dof) / r_pp, 0.0))
    else:
        sigma = math.inf

    return GibbsFit(t_hat, sigma, float(r_min), k, thermal=True)


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
