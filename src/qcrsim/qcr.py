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

import math
from dataclasses import dataclass

import numpy as np

from ._checks import finite, positive
from .constants import H_MEV_PER_GHZ, H_OVER_KB, KB_MEV_PER_K
from .system import SystemSpec, transition_frequencies

QUAD_RELTOL = 1e-10
QUAD_LIMIT = 400  # most panels one integral may be cut into
_SLICE = 256  # most panels one integrand call evaluates

# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK qk15), outermost node
# first: node, Kronrod weight, Gauss weight (zero on the Kronrod-only
# nodes).  Mirrored about the centre node into increasing node order.
_GK_HALF = np.array(
    [
        [0.991455371120812639, 0.022935322010529225, 0.0],
        [0.949107912342758525, 0.063092092629978553, 0.129484966168869693],
        [0.864864423359769073, 0.104790010322250184, 0.0],
        [0.741531185599394440, 0.140653259715525919, 0.279705391489276668],
        [0.586087235467691130, 0.169004726639267903, 0.0],
        [0.405845151377397167, 0.190350578064785410, 0.381830050505118945],
        [0.207784955007898468, 0.204432940075298892, 0.0],
        [0.0, 0.209482141084727828, 0.417959183673469388],
    ]
)
_GK_X, _GK_WK, _GK_WG = np.vstack([_GK_HALF * [-1, 1, 1], _GK_HALF[-2::-1]]).T

# kappa_eff default: overall junction-transmon rate scale in 1/ns.
# Calibrated (see calibrate.calibrate_kappa_eff) so that a 100 ns, 1.2 mV
# square pulse starting from the 0.110 K Gibbs state leaves the transmon
# at a fitted temperature of 0.470 K with the remaining defaults.
KAPPA_EFF_DEFAULT = 0.3437


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
    t_n : float
        Quasiparticle temperature of the normal electrode in K, used for
        both Fermi occupations.
    """

    delta: float = 0.215
    gamma_d: float = 2.3e-3
    t_n: float = 0.1

    def __post_init__(self):
        positive("delta", self.delta)
        if not 0.0 < self.gamma_d < 1.0:
            raise ValueError(f"gamma_d must lie in (0, 1), got {self.gamma_d}")
        positive("t_n", self.t_n)


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
        positive("kappa_eff", self.kappa_eff)


@dataclass(frozen=True)
class RateTable:
    """All ladder rate pairs at one bias voltage."""

    v: float  # mV
    omegas: np.ndarray  # (n-1,) GHz
    gamma_down: np.ndarray  # (n-1,) 1/ns
    gamma_up: np.ndarray  # (n-1,) 1/ns

    def effective_temperatures(self) -> np.ndarray:
        pairs = zip(self.gamma_down, self.gamma_up, self.omegas)
        return np.array([effective_temperature(*pair) for pair in pairs])


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
    # at |eps|, so it is even to the last bit; (z - 1)(z + 1), not z^2 - 1,
    # which cancels near the gap edge
    z = np.abs(np.asarray(eps, dtype=float)) + 1j * gamma_d
    return np.abs(np.real(z / np.sqrt((z - 1.0) * (z + 1.0))))


def dynes_antiderivative(eps, gamma_d: float):
    """N(eps) = sign(eps) |Re sqrt(p + iq)|, p + iq = (eps + i*gamma_d)^2 - 1:
    the odd antiderivative of ``dynes_dos`` that vanishes at 0.  Re sqrt is
    sqrt(r/2) for p >= 0 and |q|/sqrt(2r) below, with r = |p + iq| + |p|,
    so neither branch cancels."""
    if not 0.0 < gamma_d < 1.0:
        raise ValueError(f"gamma_d must lie in (0, 1), got {gamma_d}")
    x = np.asarray(eps, dtype=float)
    p, q = (x - 1.0) * (x + 1.0) - gamma_d**2, 2.0 * gamma_d * x
    root = np.sqrt(2.0 * (np.sqrt(p * p + q * q) + np.abs(p)))
    return np.where(p >= 0.0, np.copysign(0.5 * root, x), q / root)[()]


def _gauss_kronrod(integrand, knots, where) -> np.ndarray:
    """Adaptive G7/K15 quadrature of a batch of integrals.

    Integral i runs over the increasing breakpoints ``knots[i]``, one
    starting panel between each neighbouring pair.  ``integrand(x, k)``
    returns integrand k[p] at x[p] for a (panels, 15) array x.  It is called
    on slices of at most _SLICE panels, each reduced to its rule sums at
    once, which bounds the temporaries of a large batch; every step acts
    on a panel's own row, so the slicing changes no bit.  Each round
    evaluates only the panels not seen before.  Integral i is done when
    the |K - G| of its panels sum to at most max(QUAD_RELTOL |I|,
    50 eps int|f|), the second term a floor at the roundoff of the sum.
    Until then, its panels with the largest |K - G| are cut into four
    equal panels, as few as leave the others' sum within an eighth of that
    tolerance, so panels at the integrand's roundoff level are not split
    for their own sake.  With starting knots that already grade toward
    the integrand's peaks (``_knots``), a quarter cut reaches a tolerance
    in fewer rounds than a bisection, and a round costs more than the few
    extra panels.
    Every sum over an integral's panels runs in an order only its own
    history sets (``np.bincount``, a row-wise ``np.cumsum``), so a value
    does not depend, bit for bit, on the rest of the batch.  Raises
    RuntimeError naming ``where(i)`` when integral i would need more than
    QUAD_LIMIT panels.
    """
    n = len(knots)
    if n == 0:
        return np.empty(0)
    counts = np.array([len(t) - 1 for t in knots])
    owner = np.repeat(np.arange(n), counts)
    new_lo = np.concatenate([t[:-1] for t in knots])
    new_hi = np.concatenate([t[1:] for t in knots])
    panels = np.empty((6, 0))  # rows: lo, hi, owner, K, |K - G|, int |f|
    result = np.empty(n)
    pending = np.ones(n, dtype=bool)
    while True:
        if counts.max() > QUAD_LIMIT:
            i = int(np.argmax(counts))
            raise RuntimeError(
                f"tunnelling integral at {where(i)} needs more than "
                f"{QUAD_LIMIT} panels"
            )
        half = 0.5 * (new_hi - new_lo)
        centre = new_lo + half
        sums = np.empty((3, half.size))  # rule sums: Kronrod, Gauss, |f|
        for i in range(0, half.size, _SLICE):
            part = slice(i, i + _SLICE)
            f = integrand(centre[part, None] + half[part, None] * _GK_X, owner[part])
            sums[0, part] = (f * _GK_WK).sum(axis=1)
            sums[1, part] = (f * _GK_WG).sum(axis=1)
            sums[2, part] = (np.abs(f) * _GK_WK).sum(axis=1)
        kronrod, gauss, magnitude = sums * half
        error = np.abs(kronrod - gauss)
        panels = np.hstack(
            [panels, [new_lo, new_hi, owner, kronrod, error, magnitude]]
        )
        own = panels[2].astype(int)
        value, total_error, total_magnitude = (
            np.bincount(own, row, n) for row in panels[3:]
        )
        tol = np.maximum(
            QUAD_RELTOL * np.abs(value), 50.0 * np.finfo(float).eps * total_magnitude
        )
        done = pending & (total_error <= tol)
        result[done] = value[done]
        pending &= ~done
        if not pending.any():
            return result
        keep = pending[own]
        panels, own = panels[:, keep], own[keep]
        # Sort each integral's panels by error and add the errors up from
        # the smallest, one table row per integral; a panel splits once
        # the running sum passes tol/8 (NaN sorts last and splits too).
        order = np.lexsort((panels[4], own))
        ranked = own[order]
        rank = np.arange(own.size) - np.searchsorted(ranked, ranked)
        table = np.zeros((n, rank.max() + 1))
        table[ranked, rank] = panels[4, order]
        split = np.empty(own.size, dtype=bool)
        split[order] = ~(np.cumsum(table, axis=1)[ranked, rank] <= tol[ranked] / 8)
        lo, hi = panels[0, split], panels[1, split]
        mid = 0.5 * (lo + hi)
        cuts = [lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi]
        new_lo = np.concatenate(cuts[:-1])
        new_hi = np.concatenate(cuts[1:])
        owner = np.tile(own[split], 4)
        panels = panels[:, ~split]
        counts = np.bincount(own, minlength=n) + 3 * np.bincount(
            own[split], minlength=n
        )


def _knots(centres: np.ndarray, beta: float, gamma_d: float) -> list[np.ndarray]:
    # Starting breakpoints on [0, centre + 50 kT] (the kernel's e^-50 tail
    # is below eps even of sub-gap N): 0, the gap edge, 1 +- gamma_d 8^j up
    # to 0.3 and the centre +- 2^j kT (j = 0..5), graded toward the cusp of
    # N and the kernel's peak; points outside and repeats are dropped.
    edge = gamma_d * 8.0 ** np.arange(math.floor(math.log(0.3 / gamma_d, 8)) + 1)
    steps = 2.0 ** np.arange(6) / beta
    fixed = np.concatenate([[0.0, 1.0], 1.0 - edge, 1.0 + edge])
    near = np.concatenate([[0.0], -steps, steps, [50.0 / beta]])
    points = np.empty((centres.size, fixed.size + near.size))
    points[:, : fixed.size] = fixed
    points[:, fixed.size :] = centres[:, None] + near
    points[(points < 0.0) | (points > points[:, -1:])] = np.inf
    points.sort(axis=1, kind="stable")  # the SIMD quicksort adds 0.2 MB of RSS
    keep = np.isfinite(points)
    keep[:, 1:] &= points[:, 1:] > points[:, :-1]
    return [row[k] for row, k in zip(points, keep)]


def tunnel_spectral_fn(e, v, junction: JunctionSpec):
    """Normalized golden-rule spectral function F(E, V) of the junction.

    F(E, V) = (1/Delta) * sum_{tau=+-1} integral deps
              n_S(eps) f(eps - tau*eV - E) [1 - f(eps)]

    with both Fermi factors at the quasiparticle temperature t_n.  E > 0
    is energy absorbed by the junction (transmon decay), E < 0 emission
    (transmon excitation).  Dimensionless; multiply by kappa_eff (and the
    transition matrix elements) for physical rates.

    Parameters
    ----------
    e : float or array
        Photon energy in meV (signed).
    v : float or array
        Bias voltage in mV; enters via |v|, so F is even in v.  e and v
        broadcast against each other and are integrated as one batch,
        giving an array of the broadcast shape; two scalars give a float.
    junction : JunctionSpec

    Raises
    ------
    ValueError
        If e or v is NaN or infinite.
    RuntimeError
        If an integral needs more than QUAD_LIMIT panels.

    Notes
    -----
    Both Fermi factors share t_n, so integrating by parts against the odd
    antiderivative N of n_S (``dynes_antiderivative``) leaves, per term,
    one bounded, kT-wide integral I(s) of N(eps) G(eps) over
    [0, t + 50/beta], in units of Delta with s = (E + tau eV)/Delta,
    t = |s|, beta = Delta/kT and d = beta |eps - t|.  The kernel
    G = [K(eps - s) - K(eps + s)] / (1 - e^(-beta s)), K = -f', has no 0/0
    at s = 0 and is evaluated free of overflow and cancellation as
    beta (1 + e^(-beta t)) e^(beta min(s, 0)) (1 - e^(-2 beta eps)) e^(-d)
    / ((1 + e^(-d)) (1 + e^(-beta (eps + t))))^2.  It depends on the sign
    of s only through e^(beta min(s, 0)), so detailed balance holds term
    by term, I(-t) = e^(-beta t) I(t): each distinct t of the batch is
    integrated once and the factor applied after.  The up row of a rate
    table thus reuses the integrals of its down row.
    Adaptive Gauss-Kronrod (G7/K15) quadrature from starting panels graded
    toward the cusp of N at the gap edge and the kernel's peak at t (see
    ``_knots``); a panel that needs refining is cut into four, to relative
    tolerance QUAD_RELTOL.  Each value is the same, bit for bit, alone or
    in any batch.
    """
    energies, volts = np.broadcast_arrays(
        finite("photon energy e", e), finite("bias v", v)
    )
    beta = junction.delta / (KB_MEV_PER_K * junction.t_n)  # gap / thermal energy
    # kernel centres, two per element: s = (E + e|V|)/Delta, (E - e|V|)/Delta
    flat, bias = energies.ravel(), np.abs(volts).ravel()
    s = np.stack([flat + bias, flat - bias], axis=1).ravel() / junction.delta
    # one integral per distinct t = |s|.  The stable sort and searchsorted
    # are the routines _knots and _gauss_kronrod already run: argsort or
    # np.unique's quicksort would page in more of numpy (0.1-0.35 MB RSS).
    ranked = np.sort(np.abs(s), kind="stable")
    t = ranked[np.diff(ranked, prepend=-1.0) > 0]
    index = np.searchsorted(t, np.abs(s))
    scale = beta * (1.0 + np.exp(-beta * t))

    def first(i):  # the first element whose terms need integral i
        return int(np.argmax(index == i)) // 2

    def integrand(x, k):
        tk = t[k][:, None]
        tail = np.exp(-beta * np.abs(x - tk))
        kernel = scale[k][:, None] * -np.expm1(-2.0 * beta * x) * tail
        kernel /= ((1.0 + tail) * (1.0 + np.exp(-beta * (x + tk)))) ** 2
        return dynes_antiderivative(x, junction.gamma_d) * kernel

    integrals = _gauss_kronrod(
        integrand,
        _knots(t, beta, junction.gamma_d),
        lambda i: f"E = {flat[first(i)]} meV, V = {volts.flat[first(i)]} mV",
    )
    terms = integrals[index] * np.exp(beta * np.minimum(s, 0.0))
    values = terms[0::2] + terms[1::2]
    if energies.ndim == 0:
        return float(values[0])
    return values.reshape(energies.shape)


def purcell_factor(system: SystemSpec, omega: float) -> float:
    """Reset-resonator filter factor g1^2/(omega - omega_1)^2."""
    g1 = system.reset_resonator.g
    detuning = omega - system.reset_resonator.omega
    if detuning == 0.0:
        raise ZeroDivisionError("transition degenerate with the reset resonator")
    return g1**2 / detuning**2


def rate_tables(
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
    biases,
) -> list[RateTable]:
    """Ladder transition rates of the transmon at each bias in ``biases``
    (mV), one table per bias.

    gamma_down(m) = kappa_eff * (m+1) * P(omega_m) * F(+h*omega_m, v)
    gamma_up(m)   = kappa_eff * (m+1) * P(omega_m) * F(-h*omega_m, v)

    with omega_m = omega_ge + m*alpha the m <-> m+1 transition frequency,
    (m+1) the ladder matrix element squared, and P the Purcell filter
    factor (1 when disabled).  Even in v by construction.  Every call
    integrates the F rows of all its biases afresh, in one batch that
    integrates each distinct |s| once (``tunnel_spectral_fn``); a table is
    the same, bit for bit, in any batch, and a caller that needs the same
    bath again keeps it.  Raises ValueError unless ``biases`` is a 1-d
    sequence of finite voltages, and, via ``SystemSpec.validate``, for a
    system whose ladder or resonators are outside the dispersive model
    these rates assume.
    """
    system.validate()
    volts = np.abs(finite("bias v", biases))
    if volts.ndim != 1:
        raise ValueError(f"biases must be a 1-d sequence, got shape {volts.shape}")
    omegas = transition_frequencies(system.transmon)
    m = np.arange(omegas.size)
    weights = (m + 1).astype(float)
    if coupling.purcell_filter:
        weights *= np.array([purcell_factor(system, w) for w in omegas])

    e_phot = np.outer([1.0, -1.0], H_MEV_PER_GHZ * omegas)  # absorbed, emitted
    rows = tunnel_spectral_fn(e_phot, volts[:, None, None], junction)
    scale = coupling.kappa_eff * weights
    return [
        RateTable(v=v, omegas=omegas, gamma_down=down * scale, gamma_up=up * scale)
        for v, (down, up) in zip(volts.tolist(), rows)
    ]


def transition_rates(
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
    v: float,
) -> RateTable:
    """Ladder transition rates of the transmon at one bias v (mV): the
    table of ``rate_tables`` for [v], with the same checks."""
    return rate_tables(system, junction, coupling, [v])[0]


def effective_temperature(gamma_down: float, gamma_up: float, omega: float) -> float:
    """Bath temperature implied by one rate pair, in K.

    T = h*omega / (k_B * ln(gamma_down/gamma_up)).  Returns +inf for
    gamma_up == gamma_down and a negative value for gamma_up > gamma_down
    (population inversion): nonpositive-slope ladders have no thermal
    description, and the sign carries that flag.  Raises ValueError
    naming an argument that is NaN or infinite.
    """
    finite("gamma_down", gamma_down)
    finite("gamma_up", gamma_up)
    finite("omega", omega)
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
