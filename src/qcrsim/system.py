"""Transmon ladder and the two resonators coupled to it.

The transmon is a truncated anharmonic ladder.  The reset and readout
resonators enter only through their frequency and coupling, which set
the Purcell filter of the junction rates and the dispersive-coupling
requirement.  All frequencies are ordinary (GHz), all couplings real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Most ladder states a transmon may keep, so that an oversized ladder
# fails validation instead of an allocation.
MAX_LEVELS = 256

# |g| / |omega - omega_m| threshold below which a resonator counts as
# dispersively coupled.  The design-point reset resonator sits at 0.103,
# so the hard validation limit carries a little headroom.
DISPERSIVE_RATIO_MAX = 0.12


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
        if not isinstance(self.n_levels, (int, np.integer)) or self.n_levels < 2:
            raise ValueError(f"n_levels must be an integer >= 2, got {self.n_levels}")


@dataclass(frozen=True)
class ResonatorSpec:
    """Single-mode resonator with a Jaynes-Cummings coupling to the transmon.

    Parameters
    ----------
    omega : float
        Resonator frequency in GHz.
    g : float
        Transmon-resonator coupling in GHz.
    """

    omega: float = 4.67
    g: float = 0.0596

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not 0 < self.g < math.inf:
            raise ValueError(f"coupling g must be positive and finite, got {self.g}")

    def dispersive_ratio(self, omega_m: float) -> float:
        """|g| / |omega - omega_m| at a transmon transition omega_m; small
        values mean dispersive coupling."""
        detuning = abs(self.omega - omega_m)
        if detuning == 0.0:
            return np.inf
        return abs(self.g) / detuning


@dataclass(frozen=True)
class SystemSpec:
    """Transmon + reset resonator + readout resonator."""

    transmon: TransmonSpec = field(default_factory=TransmonSpec)
    reset_resonator: ResonatorSpec = field(default_factory=ResonatorSpec)
    readout_resonator: ResonatorSpec = field(
        default_factory=lambda: ResonatorSpec(omega=7.44, g=0.0704)
    )

    def validate(self):
        """Check the ladder size, that every ladder transition is positive
        and that both resonators are dispersive at each of them."""
        n = self.transmon.n_levels
        if n > MAX_LEVELS:
            raise ValueError(f"transmon n_levels {n} exceeds cap {MAX_LEVELS}")
        omegas = transition_frequencies(self.transmon)
        if omegas[-1] <= 0.0:
            raise ValueError(
                f"top ladder transition omega_ge + (n_levels-2)*alpha = "
                f"{omegas[-1]} GHz is not positive"
            )
        for name, res in (
            ("reset_resonator", self.reset_resonator),
            ("readout_resonator", self.readout_resonator),
        ):
            ratios = [res.dispersive_ratio(w) for w in omegas]
            m = int(np.argmax(ratios))
            if ratios[m] >= DISPERSIVE_RATIO_MAX:
                raise ValueError(
                    f"{name} is not dispersively coupled at the {m}-{m + 1} "
                    f"transition: |g|/|omega-omega_m| = {ratios[m]:.3g} "
                    f">= {DISPERSIVE_RATIO_MAX}"
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
