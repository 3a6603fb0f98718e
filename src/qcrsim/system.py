"""Transmon + two-resonator circuit model.

Builds the rotating-wave Hamiltonian of a transmon ladder coupled to a
reset resonator and a readout resonator, and provides dressed-state
spectra with bare-state labels.  All frequencies are ordinary (GHz),
all couplings real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Largest tensor-product dimension we are willing to diagonalize.
MAX_HILBERT_DIM = 4096

# |g| / |omega - omega_ge| threshold below which a resonator counts as
# dispersively coupled.  The design-point reset resonator sits at 0.103,
# so the hard validation limit carries a little headroom.
DISPERSIVE_RATIO_MAX = 0.12


class DimensionError(ValueError):
    """Raised when the requested Hilbert space exceeds MAX_HILBERT_DIM."""


@dataclass(frozen=True)
class TransmonSpec:
    """Truncated transmon ladder.

    Parameters
    ----------
    omega_ge : float
        g-e transition frequency in GHz.
    alpha : float
        Anharmonicity in GHz (negative for a transmon).
    n_levels : int
        Number of ladder states kept (default 6).
    """

    omega_ge: float = 4.09
    alpha: float = -0.273
    n_levels: int = 6

    def __post_init__(self):
        if not 0 < self.omega_ge < math.inf:
            raise ValueError(
                f"omega_ge must be positive and finite, got {self.omega_ge}"
            )
        if not -math.inf < self.alpha < 0:
            raise ValueError(f"alpha must be negative and finite, got {self.alpha}")
        if self.n_levels < 2:
            raise ValueError(f"n_levels must be at least 2, got {self.n_levels}")


@dataclass(frozen=True)
class ResonatorSpec:
    """Single-mode resonator with a Jaynes-Cummings coupling to the transmon.

    Parameters
    ----------
    omega : float
        Resonator frequency in GHz.
    g : float
        Transmon-resonator coupling in GHz.
    n_levels : int
        Fock-space truncation (default 4).
    """

    omega: float = 4.67
    g: float = 0.0596
    n_levels: int = 4

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling g must be positive and finite, got {self.g}")
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be at least 1, got {self.n_levels}")

    def dispersive_ratio(self, omega_ge: float) -> float:
        """|g| / |omega - omega_ge|; small values mean dispersive coupling."""
        detuning = abs(self.omega - omega_ge)
        if detuning == 0.0:
            return np.inf
        return abs(self.g) / detuning


@dataclass(frozen=True)
class SystemSpec:
    """Transmon + reset resonator + readout resonator."""

    transmon: TransmonSpec = field(default_factory=TransmonSpec)
    reset_resonator: ResonatorSpec = field(default_factory=ResonatorSpec)
    readout_resonator: ResonatorSpec = field(
        default_factory=lambda: ResonatorSpec(omega=7.44, g=0.0704, n_levels=4)
    )

    @property
    def dims(self) -> tuple[int, int, int]:
        return (
            self.transmon.n_levels,
            self.reset_resonator.n_levels,
            self.readout_resonator.n_levels,
        )

    @property
    def hilbert_dim(self) -> int:
        nt, n1, n2 = self.dims
        return nt * n1 * n2

    def validate(self):
        """Check dimension cap and the dispersive-coupling requirement."""
        if self.hilbert_dim > MAX_HILBERT_DIM:
            raise DimensionError(
                f"Hilbert dimension {self.hilbert_dim} exceeds cap {MAX_HILBERT_DIM}"
            )
        for name, res in (
            ("reset_resonator", self.reset_resonator),
            ("readout_resonator", self.readout_resonator),
        ):
            ratio = res.dispersive_ratio(self.transmon.omega_ge)
            if ratio >= DISPERSIVE_RATIO_MAX:
                raise ValueError(
                    f"{name} is not dispersively coupled: "
                    f"|g|/|omega-omega_ge| = {ratio:.3f} >= {DISPERSIVE_RATIO_MAX}"
                )
        return self


def transmon_energies(spec: TransmonSpec) -> np.ndarray:
    """Bare ladder energies E_n = n*omega_ge + (alpha/2)*n*(n-1) in GHz.

    E_0 = 0 by construction and the spacings E_{n+1}-E_n shrink by
    |alpha| per step.
    """
    n = np.arange(spec.n_levels)
    return n * spec.omega_ge + 0.5 * spec.alpha * n * (n - 1)


def transition_frequencies(spec: TransmonSpec) -> np.ndarray:
    """Ladder transition frequencies omega_m = omega_ge + m*alpha (GHz).

    omega_m is the m -> m+1 spacing; length n_levels - 1.
    """
    m = np.arange(spec.n_levels - 1)
    return spec.omega_ge + m * spec.alpha


def ladder_elements(n_levels: int) -> np.ndarray:
    """Matrix elements <n+1|b†|n> = sqrt(n+1) for n = 0 .. n_levels-2."""
    return np.sqrt(np.arange(1, n_levels, dtype=float))


def destroy(n_levels: int) -> np.ndarray:
    """Annihilation operator on an n_levels-dimensional Fock space."""
    a = np.zeros((n_levels, n_levels))
    n = np.arange(1, n_levels)
    a[n - 1, n] = np.sqrt(n)
    return a


def build_hamiltonian(spec: SystemSpec) -> np.ndarray:
    """Rotating-wave Hamiltonian of the tripartite system, in GHz.

    H = omega_ge b†b + (alpha/2) b†b†bb
        + omega_1 a1†a1 + omega_2 a2†a2
        + g_1 (b†a1 + b a1†) + g_2 (b†a2 + b a2†)

    with only excitation-conserving coupling terms kept.  Returned as a
    real symmetric matrix in the bare product basis, ordered with the
    transmon index slowest and the readout resonator fastest.
    """
    spec.validate()
    nt, n1, n2 = spec.dims

    b = destroy(nt)
    a1 = destroy(n1)
    a2 = destroy(n2)
    it, i1, i2 = np.eye(nt), np.eye(n1), np.eye(n2)

    num_t = b.T @ b
    kerr = b.T @ b.T @ b @ b

    h = (
        spec.transmon.omega_ge * np.kron(np.kron(num_t, i1), i2)
        + 0.5 * spec.transmon.alpha * np.kron(np.kron(kerr, i1), i2)
        + spec.reset_resonator.omega * np.kron(np.kron(it, a1.T @ a1), i2)
        + spec.readout_resonator.omega * np.kron(np.kron(it, i1), a2.T @ a2)
        + spec.reset_resonator.g
        * (np.kron(np.kron(b.T, a1), i2) + np.kron(np.kron(b, a1.T), i2))
        + spec.readout_resonator.g
        * (np.kron(np.kron(b.T, i1), a2) + np.kron(np.kron(b, i1), a2.T))
    )
    return h


def total_excitation_number(spec: SystemSpec) -> np.ndarray:
    """N = b†b + a1†a1 + a2†a2 in the same product basis as the Hamiltonian."""
    nt, n1, n2 = spec.dims
    nums = [d.T @ d for d in (destroy(nt), destroy(n1), destroy(n2))]
    it, i1, i2 = np.eye(nt), np.eye(n1), np.eye(n2)
    return (
        np.kron(np.kron(nums[0], i1), i2)
        + np.kron(np.kron(it, nums[1]), i2)
        + np.kron(np.kron(it, i1), nums[2])
    )


@dataclass(frozen=True)
class Spectrum:
    """Dressed spectrum with maximum-overlap bare labels.

    Attributes
    ----------
    energies : np.ndarray
        Eigenvalues in GHz, ascending, shifted so the ground state is 0.
    transmon_labels : np.ndarray
        Bare transmon index of the dominant bare component, per eigenstate.
    bare_indices : np.ndarray
        (dim, 3) array of (transmon, reset, readout) bare indices of the
        dominant component, per eigenstate.
    overlaps : np.ndarray
        |<bare|dressed>|^2 of the dominant component, per eigenstate.
    """

    energies: np.ndarray
    transmon_labels: np.ndarray
    bare_indices: np.ndarray
    overlaps: np.ndarray

    def energy_of(self, nt: int, n1: int, n2: int) -> float:
        """Energy of the dressed state labelled by a bare triple."""
        match = np.flatnonzero(
            (self.bare_indices[:, 0] == nt)
            & (self.bare_indices[:, 1] == n1)
            & (self.bare_indices[:, 2] == n2)
        )
        if match.size != 1:
            raise KeyError(
                f"bare label ({nt},{n1},{n2}) matched {match.size} dressed states"
            )
        return float(self.energies[match[0]])


def diagonalize(spec: SystemSpec) -> Spectrum:
    """Exact dressed spectrum of the tripartite Hamiltonian.

    Eigenstates are labelled by the bare product state with maximal
    overlap (ties broken toward the lowest bare index), which is
    unambiguous in the dispersive regime enforced by ``validate``.
    """
    h = build_hamiltonian(spec)
    energies, vecs = np.linalg.eigh(h)
    energies = energies - energies[0]

    nt, n1, n2 = spec.dims
    weights = vecs.real**2 + vecs.imag**2 if np.iscomplexobj(vecs) else vecs**2
    dominant = np.argmax(weights, axis=0)  # argmax returns the first maximum
    overlaps = weights[dominant, np.arange(weights.shape[1])]

    bare = np.empty((h.shape[0], 3), dtype=int)
    bare[:, 0] = dominant // (n1 * n2)
    bare[:, 1] = (dominant // n2) % n1
    bare[:, 2] = dominant % n2

    return Spectrum(
        energies=energies,
        transmon_labels=bare[:, 0].copy(),
        bare_indices=bare,
        overlaps=overlaps,
    )


def dispersive_shift(spec: SystemSpec) -> float:
    """Second-order qubit pull of the readout resonator, in GHz.

    chi = g_2^2 * alpha / (delta_2 * (delta_2 + alpha)) with
    delta_2 = omega_ge - omega_2.  The exact readout frequency moves by
    2*chi between the qubit ground and excited states.
    """
    delta2 = spec.transmon.omega_ge - spec.readout_resonator.omega
    g2 = spec.readout_resonator.g
    return g2**2 * spec.transmon.alpha / (delta2 * (delta2 + spec.transmon.alpha))


def readout_pull(spec: SystemSpec) -> float:
    """Exact qubit-state-dependent readout pull from the dressed spectrum.

    Returns [E(e,0,1) - E(e,0,0)] - [E(g,0,1) - E(g,0,0)] in GHz, which
    the dispersive approximation puts at 2*chi.
    """
    sp = diagonalize(spec)
    omega_ro_g = sp.energy_of(0, 0, 1) - sp.energy_of(0, 0, 0)
    omega_ro_e = sp.energy_of(1, 0, 1) - sp.energy_of(1, 0, 0)
    return omega_ro_e - omega_ro_g
