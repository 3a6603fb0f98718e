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

from ._checks import finite, integer, positive
from .constants import H_OVER_KB
from .system import TransmonSpec, transmon_energies

T_BOUNDS = (1e-3, 5.0)  # K; search range of the Gibbs fit
GIBBS_XTOL = 1e-14  # relative Newton step in 1/T that ends the Gibbs fit
GIBBS_NOISE = 1e-9  # Newton steps below this that stop halving are rounding
GIBBS_MAX_ITER = 100  # far above the ~57 halvings of the widest bracket
TAU_RANGE = (1e-3, 1e3)  # saturation tau searched, in units of the time span
TAU_GRID_PER_DECADE = 8  # coarse log-tau grid that brackets the minimum
TAU_XTOL = 1e-13  # log-tau bracket width that ends the saturation fit


class SaturationFitError(RuntimeError):
    """The profiled saturation cost has no resolvable minimum."""


def gibbs_populations(
    temperature: float, spec: TransmonSpec, truncation: int | None = None
) -> np.ndarray:
    """Thermal ladder populations p_n ∝ exp(-h E_n / k_B T), normalized.

    Parameters
    ----------
    temperature : float
        Temperature in K, finite and > 0.
    spec : TransmonSpec
        Supplies the ladder energies.
    truncation : int, optional
        Number of states kept (default: spec.n_levels).
    """
    positive("temperature", temperature)
    n = spec.n_levels if truncation is None else truncation
    integer("truncation", n, 2, spec.n_levels)
    e = transmon_energies(spec)[:n]
    # subtract the ground energy (0 by construction) for overflow safety
    p = np.exp(-H_OVER_KB * e / temperature)
    return p / p.sum()


def normalize_leading(p, k: int = 4) -> np.ndarray:
    """Renormalize the first k entries of a population vector, or of
    each row of a table, to sum 1.  Raises ValueError for a NaN or
    infinite entry among the first k."""
    p = np.asarray(p, dtype=float)
    integer("k", k, 1, p.shape[-1])
    lead = finite("populations p", p[..., :k])
    total = lead.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        raise ValueError("leading populations sum to zero")
    return lead / total


def is_monotone_thermal(p, tol: float = 1e-12):
    """True when populations are non-increasing up the ladder; for an
    (n, k) table, a boolean array with one entry per row."""
    flags = (np.diff(np.asarray(p, dtype=float), axis=-1) <= tol).all(axis=-1)
    return flags if flags.ndim else bool(flags)


@dataclass(frozen=True)
class GibbsFit:
    """Result of a thermal fit to measured populations.

    thermal=False marks inputs with population inversion somewhere up
    the ladder; such vectors carry no temperature (fields are NaN).
    A fit of one row holds floats; a fit of an (n, k) table holds (n,)
    arrays, one entry per row.
    """

    temperature: float | np.ndarray  # K
    uncertainty: float | np.ndarray  # K, from the residual curvature
    residual: float | np.ndarray  # sum of squared population errors at the minimum
    truncation: int | np.ndarray
    thermal: bool | np.ndarray = True


def _gibbs_derivatives(beta, p, e):
    # R, R' and R'' of each row at its beta.  q = softmax(-beta e),
    # u = e - <e>_q:  q' = -q u, q'' = q (u^2 - var u), so
    # R' = 2 sum d q u with d = p - q and
    # R'' = 2 sum (q u)^2 - 2 sum d q u u + 2 var u sum d q.
    w = np.exp(-beta[:, None] * e)
    total = w.sum(axis=1)
    q = w / total[:, None]
    u = e - (q @ e)[:, None]
    qu = q * u
    d = p - q
    # p_0 - q_0 from 1 - q_0 = sum(w[1:]) / sum(w): when the excited
    # populations are tiny, p_0 - q_0 rounded near 1 would be noise.
    d[:, 0] = (p[:, 0] - 1.0) + (total - w[:, 0]) / total
    r2 = (qu * qu).sum(1) - (d * qu * u).sum(1) + (qu * u).sum(1) * (d * q).sum(1)
    return (d * d).sum(1), 2.0 * (d * qu).sum(1), 2.0 * r2


def fit_gibbs(p_measured, spec: TransmonSpec) -> GibbsFit:
    """Least-squares Gibbs temperature for measured populations.

    ``p_measured`` is one row of k populations or an (n, k) table of
    rows; each row is fitted on its own, and a table gives a GibbsFit of
    (n,) arrays (empty for n = 0).  The model is the Gibbs distribution
    q(beta) over the first k ladder states, beta = 1/T; the fit minimizes
    R = |p - q|^2 over T in T_BOUNDS.  R'(beta) and R''(beta) are
    analytic, so T is the root of R' found by Newton steps safeguarded by
    bisection of a sign-change bracket, started at the closed-form
    estimate from p_0/p_1; when R' does not change sign in the range the
    bound it points to is returned exactly.  The rows of a table are
    solved together, each with its own bracket, until each has met the
    stopping rule; each row agrees with its fit alone to within a few ulps
    (batched products may round differently in the last bits).

    ``uncertainty`` is sqrt(2 s^2 / R''(T)) with s^2 = R/(k-1): a
    residual-curvature error that says how well one temperature
    describes the populations, not the shot noise of the readout.
    Raises ValueError for non-finite, negative or all-zero populations,
    and RuntimeError when the Newton solve does not converge; for a
    table the message names the 0-based row.
    """
    p = np.asarray(p_measured, dtype=float)
    table = p.ndim == 2
    if p.ndim not in (1, 2) or not 2 <= p.shape[-1] <= spec.n_levels:
        raise ValueError(f"need between 2 and {spec.n_levels} populations")
    rows = p if table else p[None]
    n, k = rows.shape

    def fail(error, message, i):
        raise error(message + (f" in row {i}" if table else ""))

    finite = np.isfinite(rows)
    if not finite.all():
        i = np.flatnonzero(~finite.all(axis=1))[0]
        fail(ValueError, f"non-finite population {rows[i][~finite[i]][0]}", i)
    low = rows.min(axis=1)
    if (low < -1e-9).any():
        i = np.flatnonzero(low < -1e-9)[0]
        fail(ValueError, f"negative population {low[i]}", i)
    rows = np.clip(rows, 0.0, None)
    total = rows.sum(axis=1)
    if (total <= 0).any():
        fail(ValueError, "populations sum to zero", np.flatnonzero(total <= 0)[0])
    rows = rows / total[:, None]

    temperature, uncertainty, residual = np.full((3, n), math.nan)
    thermal = is_monotone_thermal(rows)
    idx = np.flatnonzero(thermal)
    p = rows[idx]
    e = H_OVER_KB * transmon_energies(spec)[:k]  # K, e[0] = 0

    lo, hi = 1.0 / T_BOUNDS[1], 1.0 / T_BOUNDS[0]
    # p_1 = 0, or p_0 / p_1 beyond the largest double, starts at hi
    with np.errstate(divide="ignore", over="ignore"):
        beta = np.log(p[:, 0] / p[:, 1]) / e[1]
    beta = np.minimum(np.maximum(beta, lo), hi)
    r_min, r1, r2 = _gibbs_derivatives(beta, p, e)
    # The minimum lies downhill of the start: inside the bracket it forms
    # with the bound on that side, or at that bound when R' keeps its
    # sign all the way there.
    edge = np.where(r1 > 0, lo, hi)
    at_edge = _gibbs_derivatives(edge, p, e)
    to_edge = (r1 != 0) & ((at_edge[1] == 0) | ((at_edge[1] > 0) == (r1 > 0)))
    beta = np.where(to_edge, edge, beta)
    r_min, r1, r2 = (
        np.where(to_edge, x, y) for x, y in zip(at_edge, (r_min, r1, r2))
    )

    # Newton on R' inside each row's sign-change bracket; a step that
    # leaves the bracket or does not halve the previous one is replaced by
    # bisection.  A row stops once its Newton step or bracket is below
    # GIBBS_XTOL of beta, or a step below GIBBS_NOISE fails to halve: R'
    # is then at its rounding noise (nearly uniform populations), and
    # bisecting a one-sided bracket would only wander off.
    lo, hi = np.minimum(beta, edge), np.maximum(beta, edge)
    last_step = hi - lo
    a = np.flatnonzero(~to_edge)  # rows still iterating
    for _ in range(GIBBS_MAX_ITER):
        b, r1a, r2a = beta[a], r1[a], r2[a]
        step = np.divide(r1a, r2a, out=np.full(a.size, math.inf), where=r2a > 0)
        stalled = np.abs(step) > 0.5 * np.abs(last_step[a])
        tol = np.where(stalled, GIBBS_NOISE, GIBBS_XTOL)
        go = ~(np.minimum(np.abs(step), hi[a] - lo[a]) <= tol * b)
        a, b, step, stalled = a[go], b[go], step[go], stalled[go]
        if not a.size:
            break
        lo_a, hi_a = lo[a], hi[a]
        inside = (lo_a < b - step) & (b - step < hi_a)
        step = np.where(stalled | ~inside, b - 0.5 * (lo_a + hi_a), step)
        beta[a] = b = b - step
        last_step[a] = step
        r_min[a], r1[a], r2[a] = _gibbs_derivatives(b, p[a], e)
        down = r1[a] < 0
        lo[a[down]] = b[down]
        hi[a[~down]] = b[~down]
    else:
        if a.size:
            i = idx[a[0]]
            message = f"Gibbs fit did not converge for populations {rows[i]}"
            fail(RuntimeError, message, i)

    temperature[idx] = 1.0 / beta
    residual[idx] = r_min
    # curvature-based 1-sigma: var = 2 s^2 / R''(T), s^2 = R/(k-1), with
    # d2R/dT2 = beta^4 R''(beta) + 2 beta^3 R'(beta); inf where that is <= 0
    r_pp = beta**4 * r2 + 2.0 * beta**3 * r1
    var = np.divide(
        2.0 * (r_min / (k - 1)), r_pp, out=np.full(idx.size, math.inf), where=r_pp > 0
    )
    uncertainty[idx] = np.sqrt(var)

    if not table:
        return GibbsFit(
            float(temperature[0]), float(uncertainty[0]), float(residual[0]), k,
            thermal=bool(thermal[0]),
        )
    return GibbsFit(temperature, uncertainty, residual, np.full(n, k), thermal=thermal)


@dataclass(frozen=True)
class SaturationFit:
    """Exponential saturation T(t) = t0 + a (1 - exp(-t/tau)).

    degenerate=True marks data that do not fix tau: constant data
    (a = 0), or a profiled minimum at an end of TAU_RANGE (tau = NaN).
    At the upper end the trace does not saturate in its window and only
    a/tau is determined: a is NaN too, and t0 is the intercept of the
    straight-line fit.  At the lower end the trace is a step after the
    first sample: t0 is the level there and a the step.
    """

    t0: float  # K
    amplitude: float  # K
    tau: float  # ns
    residual: float
    degenerate: bool = False

    def value(self, t) -> np.ndarray:
        return self.t0 + self.amplitude * (1.0 - np.exp(-np.asarray(t) / self.tau))


def _linear_fit(y, basis):
    # y ~ c0 + c1 * basis for each row of basis, by the centred normal
    # equations: returns c0, c1 and the residual vectors
    mean = basis.mean(axis=-1)
    centred = basis - mean[..., None]
    yc = y - y.mean()
    c1 = (centred @ yc) / np.einsum("...i,...i->...", centred, centred)
    return y.mean() - c1 * mean, c1, yc - c1[..., None] * centred


def fit_saturation(times, temps) -> SaturationFit:
    """Fit T(t) = t0 + a(1 - e^{-t/tau}) to a temperature time series.

    Variable projection: for fixed tau the model is linear in (t0, a),
    so the least-squares cost is minimised over log tau alone.  A grid
    over TAU_RANGE times the sampled time span brackets the minimum;
    Illinois regula falsi then finds the root of the cost's derivative,
    which is closed form because the linear coefficients are optimal.
    Constant data and a minimum at an end of the range are flagged
    degenerate (see SaturationFit) instead of fitted.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(temps, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and temps must be 1-d arrays of equal length")
    if t.size < 4:
        raise ValueError(f"need at least 4 samples, got {t.size}")
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(t))):
        raise ValueError("times and temperatures must be finite")

    spread = float(np.ptp(y))
    if spread < 1e-12:
        return SaturationFit(
            t0=float(y.mean()), amplitude=0.0, tau=math.nan, residual=0.0,
            degenerate=True,
        )
    span = float(np.ptp(t))
    if span <= 0:
        raise ValueError("times must not all be equal")

    # basis exp(-x / tau), x = t - min(t): c0 + c1 exp(-x / tau) is the
    # model with a = -c1 exp(min(t) / tau) and t0 = c0 - a
    start = float(t.min())
    x = t - start

    def slope(log_tau):
        # sign of d cost / d log tau = -2 c1 sum(r x exp(-x / tau)) / tau
        e = np.exp(-x / math.exp(log_tau))
        _, c1, r = _linear_fit(y, e)
        return float(-c1 * (r @ (x * e)))

    lo, hi = (math.log(f * span) for f in TAU_RANGE)
    n_grid = round((hi - lo) / math.log(10.0) * TAU_GRID_PER_DECADE) + 1
    grid = np.linspace(lo, hi, n_grid)
    basis = np.exp(-x / np.exp(grid)[:, None])
    _, _, resid = _linear_fit(y, basis)
    i = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))

    if i == grid.size - 1:
        t0, _, r = _linear_fit(y, t)
        return SaturationFit(
            t0=float(t0), amplitude=math.nan, tau=math.nan,
            residual=float(r @ r), degenerate=True,
        )
    if i == 0:
        c0, c1, r = _linear_fit(y, basis[0])
        return SaturationFit(
            t0=float(c0 + c1), amplitude=float(-c1), tau=math.nan,
            residual=float(r @ r), degenerate=True,
        )

    a, b = grid[i - 1], grid[i + 1]
    fa, fb = slope(a), slope(b)
    if not fa < 0 < fb:
        raise SaturationFitError(
            f"no minimum of the profiled cost between tau = {math.exp(a):.3g} "
            f"and {math.exp(b):.3g}"
        )
    for _ in range(100):
        m = b - fb * (b - a) / (fb - fa)
        fm = slope(m)
        if (fm > 0) == (fb > 0):
            fa *= 0.5  # Illinois: halve the kept end so it cannot stall
        else:
            a, fa = b, fb
        b, fb = m, fm
        if fm == 0 or abs(b - a) <= TAU_XTOL * max(1.0, abs(b)):
            break
    else:
        raise SaturationFitError("saturation fit did not converge")

    tau = math.exp(b)
    c0, c1, r = _linear_fit(y, np.exp(-x / tau))
    amplitude = -float(c1) * math.exp(start / tau)
    degenerate = abs(amplitude) < 1e-6 * max(spread, 1e-3)
    return SaturationFit(
        t0=float(c0) - amplitude, amplitude=amplitude, tau=tau,
        residual=float(r @ r), degenerate=degenerate,
    )


def heating_slope(voltages, temps, v_min: float) -> float:
    """OLS slope dT/dV (K/mV) over sweep points with V > v_min.

    Pass the gap voltage (``JunctionSpec.delta``) as v_min, so only
    above-gap heating enters.  Requires at least three qualifying points.
    Raises ValueError, naming the argument, for a NaN or infinite entry
    of ``voltages`` or ``temps``.
    """
    v, y = finite("voltages", voltages), finite("temps", temps)
    if v.shape != y.shape or v.ndim != 1:
        raise ValueError("voltages and temps must be 1-d arrays of equal length")
    mask = v > v_min
    if mask.sum() < 3:
        raise ValueError(
            f"need at least 3 points above v_min={v_min} mV, got {int(mask.sum())}"
        )
    slope, _ = np.polyfit(v[mask], y[mask], 1)
    return float(slope)
