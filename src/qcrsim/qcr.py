"""Photon-assisted quasiparticle tunneling in a voltage-biased NIS junction.

The junction acts as a voltage-tunable bath for the transmon: golden-rule
tunneling rates evaluated at the ladder transition energies give a pair of
upward/downward rates per transition, whose ratio defines an effective
bath temperature.  Sub-gap biases cool (rates heavily tilted downward),
biases beyond the gap heat.

Energies in meV, voltages in mV (so e*V in meV equals V in mV), rates in
1/ns after scaling by ``CouplingSpec.kappa_eff``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .constants import H_MEV_PER_GHZ, H_OVER_KB, KB_MEV_PER_K
from .system import SystemSpec, TransmonSpec, transition_frequencies

# Integration window for the tunneling integrals, in units of the gap.
INTEGRATION_HALFWIDTH = 30.0
QUAD_RELTOL = 1e-10
QUAD_LIMIT = 400

# kappa_eff default: overall junction-transmon rate scale in 1/ns.
# Calibrated (see calibrate.calibrate_kappa_eff) so that a 100 ns, 1.2 mV
# square pulse starting from the 0.110 K Gibbs state leaves the transmon
# at a fitted temperature of 0.470 K with the remaining defaults.
KAPPA_EFF_DEFAULT = 0.3437


class NoGapError(ValueError):
    """IV curve shows no superconducting gap structure."""


@dataclass(frozen=True)
class JunctionSpec:
    """Dynes-broadened NIS junction.

    Parameters
    ----------
    delta : float
        Superconducting gap in meV.
    gamma_d : float
        Dimensionless Dynes broadening (ratio of sub-gap to normal-state
        conductance).
    r_t : float
        Tunneling resistance in kOhm.
    t_n : float
        Quasiparticle temperature of the normal electrode in K, used for
        both Fermi occupations.
    """

    delta: float = 0.215
    gamma_d: float = 2.3e-3
    r_t: float = 13.8
    t_n: float = 0.1

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.gamma_d < 1.0:
            raise ValueError(f"gamma_d must lie in (0, 1), got {self.gamma_d}")
        if self.r_t <= 0:
            raise ValueError(f"r_t must be positive, got {self.r_t}")
        if self.t_n <= 0:
            raise ValueError(f"t_n must be positive, got {self.t_n}")


@dataclass(frozen=True)
class CouplingSpec:
    """Junction-transmon coupling strength.

    kappa_eff sets the overall rate scale in 1/ns; purcell_filter applies
    the reset-resonator filter factor g1^2/(omega_m - omega_1)^2 to each
    ladder transition.
    """

    kappa_eff: float = KAPPA_EFF_DEFAULT
    purcell_filter: bool = True

    def __post_init__(self):
        if self.kappa_eff <= 0:
            raise ValueError(f"kappa_eff must be positive, got {self.kappa_eff}")


@dataclass(frozen=True)
class RatePair:
    """Downward/upward rate pair of one ladder transition m <-> m+1."""

    omega: float  # transition frequency, GHz
    gamma_down: float  # 1/ns
    gamma_up: float  # 1/ns


@dataclass(frozen=True)
class RateTable:
    """All ladder rate pairs at one bias voltage."""

    v: float  # mV
    omegas: np.ndarray  # (n-1,) GHz
    gamma_down: np.ndarray  # (n-1,) 1/ns
    gamma_up: np.ndarray  # (n-1,) 1/ns

    @property
    def pairs(self) -> list[RatePair]:
        return [
            RatePair(float(w), float(d), float(u))
            for w, d, u in zip(self.omegas, self.gamma_down, self.gamma_up)
        ]

    def effective_temperatures(self) -> np.ndarray:
        return np.array(
            [
                effective_temperature(d, u, w)
                for d, u, w in zip(self.gamma_down, self.gamma_up, self.omegas)
            ]
        )


def dynes_dos(eps, gamma_d: float):
    """Dynes-broadened BCS density of states, normalized to the gap.

    n_S(eps) = | Re[ (eps + i*gamma_d) / sqrt((eps + i*gamma_d)^2 - 1) ] |

    Parameters
    ----------
    eps : float or array
        Quasiparticle energy in units of the gap.
    gamma_d : float
        Dynes parameter, 0 < gamma_d < 1.

    Even in eps; tends to 1 far outside the gap and to
    gamma_d/sqrt(1+gamma_d^2) at eps = 0.
    """
    if not 0.0 < gamma_d < 1.0:
        raise ValueError(f"gamma_d must lie in (0, 1), got {gamma_d}")
    z = np.asarray(eps, dtype=float) + 1j * gamma_d
    out = np.abs(np.real(z / np.sqrt(z * z - 1.0)))
    if np.isscalar(eps):
        return float(out)
    return out


def _fermi(y: float) -> float:
    # occupation 1/(1+e^y) with overflow guard; y = energy/kT
    if y > 700.0:
        return 0.0
    if y < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(y))


def _dynes_scalar(x: float, gamma_d: float) -> float:
    z = complex(x, gamma_d)
    return abs((z / (z * z - 1.0) ** 0.5).real)


def tunnel_spectral_fn(e: float, v: float, junction: JunctionSpec) -> float:
    """Normalized golden-rule spectral function F(E, V) of the junction.

    F(E, V) = (1/Delta) * sum_{tau=+-1} integral deps
              n_S(eps) f(eps - tau*eV - E) [1 - f(eps)]

    with both Fermi factors at the quasiparticle temperature t_n.  E > 0
    is energy absorbed by the junction (transmon decay), E < 0 emission
    (transmon excitation).  Dimensionless; multiply by kappa_eff (and the
    transition matrix elements) for physical rates.

    Parameters
    ----------
    e : float
        Photon energy in meV (signed).
    v : float
        Bias voltage in mV; enters via |v|, so F is even in v.
    junction : JunctionSpec

    Notes
    -----
    Adaptive quadrature over eps in +-30 Delta with forced subdivision at
    the gap edges and at the Fermi edges, relative tolerance 1e-10.
    """
    delta = junction.delta
    beta = delta / (KB_MEV_PER_K * junction.t_n)  # gap / thermal energy
    u = abs(v) / delta
    w = e / delta
    gamma_d = junction.gamma_d

    def integrand(x: float) -> float:
        return (
            _dynes_scalar(x, gamma_d)
            * (_fermi(beta * (x - u - w)) + _fermi(beta * (x + u - w)))
            * (1.0 - _fermi(beta * x))
        )

    lim = INTEGRATION_HALFWIDTH
    edges = [-1.0, 1.0, u + w, -u + w, 0.0]
    points = sorted({p for p in edges if -lim < p < lim})
    value, _ = quad(
        integrand,
        -lim,
        lim,
        points=points,
        epsabs=0.0,
        epsrel=QUAD_RELTOL,
        limit=QUAD_LIMIT,
    )
    return value


def nis_current(v, junction: JunctionSpec):
    """DC tunneling current through the junction, in nA.

    I(V) = (1/(e R_T)) * integral deps n_S(eps) [f(eps - eV) - f(eps)]

    Odd in V; ohmic (I = V/R_T) far beyond the gap; suppressed to
    O(gamma_d) inside it.

    Parameters
    ----------
    v : float or array
        Bias voltage in mV.
    junction : JunctionSpec
    """
    if not np.isscalar(v):
        return np.array([nis_current(float(x), junction) for x in np.asarray(v)])

    delta = junction.delta
    beta = delta / (KB_MEV_PER_K * junction.t_n)
    u = v / delta
    gamma_d = junction.gamma_d

    def integrand(x: float) -> float:
        return _dynes_scalar(x, gamma_d) * (_fermi(beta * (x - u)) - _fermi(beta * x))

    lim = INTEGRATION_HALFWIDTH + abs(u)
    points = sorted({p for p in (-1.0, 1.0, 0.0, u) if -lim < p < lim})
    value, _ = quad(
        integrand,
        -lim,
        lim,
        points=points,
        epsabs=0.0,
        epsrel=QUAD_RELTOL,
        limit=QUAD_LIMIT,
    )
    # integral is in units of Delta; Delta[meV]/R_T[kOhm] = 1e-6 A = 1000 nA
    return 1000.0 * delta * value / junction.r_t


def purcell_factor(system: SystemSpec, omega: float) -> float:
    """Reset-resonator filter factor g1^2/(omega - omega_1)^2."""
    g1 = system.reset_resonator.g
    detuning = omega - system.reset_resonator.omega
    if detuning == 0.0:
        raise ZeroDivisionError("transition degenerate with the reset resonator")
    return g1**2 / detuning**2


@functools.lru_cache(maxsize=1024)
def _spectral_rows(
    transmon: TransmonSpec, v: float, junction: JunctionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """F(+h*omega_m, v) and F(-h*omega_m, v) over the ladder, read-only.

    F depends on nothing but the frozen specs and |v|, while kappa_eff
    and the Purcell weights scale it linearly, so every rate table at
    the same bias shares these two rows.  Callers pass v = |v|.  The
    cache is bounded so a process sweeping many biases stays small.
    """
    omegas = transition_frequencies(transmon)
    rows = np.empty((2, omegas.size))
    for i, omega in enumerate(omegas):
        e_phot = H_MEV_PER_GHZ * omega
        rows[0, i] = tunnel_spectral_fn(+e_phot, v, junction)
        rows[1, i] = tunnel_spectral_fn(-e_phot, v, junction)
    rows.flags.writeable = False
    return rows[0], rows[1]


def transition_rates(
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
    v: float,
) -> RateTable:
    """Ladder transition rates of the transmon at bias v (mV).

    gamma_down(m) = kappa_eff * (m+1) * P(omega_m) * F(+h*omega_m, v)
    gamma_up(m)   = kappa_eff * (m+1) * P(omega_m) * F(-h*omega_m, v)

    with omega_m = omega_ge + m*alpha the m <-> m+1 transition frequency,
    (m+1) the ladder matrix element squared, and P the Purcell filter
    factor (1 when disabled).  Even in v by construction.  The F rows
    are memoised per process (see ``_spectral_rows``), so only the first
    table at a given (transmon, junction, |v|) evaluates integrals.
    """
    omegas = transition_frequencies(system.transmon)
    m = np.arange(omegas.size)
    weights = (m + 1).astype(float)
    if coupling.purcell_filter:
        weights *= np.array([purcell_factor(system, w) for w in omegas])

    f_down, f_up = _spectral_rows(system.transmon, float(abs(v)), junction)
    scale = coupling.kappa_eff * weights
    return RateTable(
        v=abs(v), omegas=omegas, gamma_down=f_down * scale, gamma_up=f_up * scale
    )


def effective_temperature(gamma_down: float, gamma_up: float, omega: float) -> float:
    """Bath temperature implied by one rate pair, in K.

    T = h*omega / (k_B * ln(gamma_down/gamma_up)).  Returns +inf for
    gamma_up == gamma_down and a negative value for gamma_up > gamma_down
    (population inversion): nonpositive-slope ladders have no thermal
    description, and the sign carries that flag.
    """
    if gamma_down < 0 or gamma_up < 0 or gamma_down + gamma_up == 0:
        raise ValueError("need non-negative rates, at least one positive")
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if gamma_up == 0.0:
        return 0.0  # pure decay: absolute zero
    if gamma_down == 0.0:
        return -0.0  # complete inversion
    log_ratio = math.log(gamma_down / gamma_up)
    if log_ratio == 0.0:
        return math.inf
    return H_OVER_KB * omega / log_ratio


@dataclass(frozen=True)
class DynesFit:
    """Gap parameters extracted from an IV curve."""

    delta: float  # meV
    gamma_d: float  # dimensionless
    r_inside: float  # kOhm, linear fit inside the gap
    r_outside: float  # kOhm, linear fit outside the gap
    v_edge_pos: float  # mV, maximum-slope edge at positive bias
    v_edge_neg: float  # mV, maximum-slope edge at negative bias


def _ols_slope(v: np.ndarray, i: np.ndarray) -> float:
    a = np.vstack([v, np.ones_like(v)]).T
    sol, *_ = np.linalg.lstsq(a, i, rcond=None)
    return float(sol[0])


def extract_dynes(iv_curve) -> DynesFit:
    """Gap halfwidth and Dynes parameter from a measured IV curve.

    The gap is located by the maximum of |dI/dV| on each bias side
    (plateau-edge detection); gamma_d is the ratio of the linear-fit
    slopes well inside (|V| < 0.5 Delta/e) and well outside
    (|V| > 1.5 Delta/e) the plateau.

    Parameters
    ----------
    iv_curve : array-like
        (N, 2) array of (V in mV, I in nA), N >= 50, spanning beyond
        +-2 Delta/e.

    Raises
    ------
    NoGapError
        If the curve shows no plateau (slope ratio > 0.5), e.g. an ohmic
        line.
    ValueError
        If the curve is too short or does not span the gap.
    """
    data = np.asarray(iv_curve, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) IV array, got shape {data.shape}")
    if data.shape[0] < 50:
        raise ValueError(f"need at least 50 IV points, got {data.shape[0]}")

    order = np.argsort(data[:, 0])
    v, i = data[order, 0], data[order, 1]
    didv = np.gradient(i, v)

    pos = v > 0
    neg = v < 0
    if not pos.any() or not neg.any():
        raise ValueError("IV curve must cover both bias signs")

    # an edge has to stand out of the background conductance; an ohmic
    # line has a flat |dI/dV| and therefore no plateau to bound
    background = float(np.median(np.abs(didv)))
    if background > 0 and float(np.abs(didv).max()) < 2.0 * background:
        raise NoGapError("no conductance peak above the ohmic background")

    v_edge_pos = float(v[pos][np.argmax(np.abs(didv[pos]))])
    v_edge_neg = float(v[neg][np.argmax(np.abs(didv[neg]))])
    delta = 0.5 * (v_edge_pos - v_edge_neg)  # halfwidth; mV -> meV for e*V

    if delta <= 0:
        raise NoGapError("edge detection found no positive plateau halfwidth")
    if v.max() < 2.0 * delta or v.min() > -2.0 * delta:
        raise ValueError(
            f"IV curve must span beyond +-2 Delta/e = {2 * delta:.3f} mV"
        )

    inside = np.abs(v) < 0.5 * delta
    outside = np.abs(v) > 1.5 * delta
    if inside.sum() < 2 or outside.sum() < 2:
        raise ValueError("not enough points inside/outside the gap for slopes")

    slope_in = _ols_slope(v[inside], i[inside])
    slope_out = _ols_slope(v[outside], i[outside])
    if slope_out <= 0:
        raise NoGapError("outside-gap branch has nonpositive conductance")
    gamma_d = slope_in / slope_out

    if gamma_d > 0.5:
        raise NoGapError(
            f"sub-gap to normal conductance ratio {gamma_d:.3f} shows no gap"
        )

    # slope is nA/mV, so R[kOhm] = 1000/slope
    return DynesFit(
        delta=delta,
        gamma_d=gamma_d,
        r_inside=1000.0 / slope_in if slope_in > 0 else math.inf,
        r_outside=1000.0 / slope_out,
        v_edge_pos=v_edge_pos,
        v_edge_neg=v_edge_neg,
    )
