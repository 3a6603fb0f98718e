"""Calibration of the junction-transmon rate scale.

The golden-rule tunnel rates carry one free overall scale,
``CouplingSpec.kappa_eff``, that the circuit parameters alone do not
pin down.  This module fixes it against a physical anchor: a 100 ns
square pulse at 1.2 mV amplitude, driven from the 0.110 K idle Gibbs
state, must heat the transmon to a fitted temperature of 0.470 K.

``calibrate_kappa_eff`` runs a bisection on that target (the reached
temperature rises monotonically with the rate scale) and returns the
scale together with the achieved temperature.  The shipped default
``qcr.KAPPA_EFF_DEFAULT`` is the frozen output of this procedure at
the default system parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import BiasPulse, DensityMatrix, evolve
from .qcr import CouplingSpec, JunctionSpec
from .system import SystemSpec
from .thermometry import fit_gibbs, normalize_leading

__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "calibrate_kappa_eff",
    "heated_temperature",
]

#: Calibration anchor: fitted temperature after the reference pulse (K).
TARGET_TEMPERATURE = 0.470

#: Reference pulse played during calibration.
REFERENCE_PULSE = BiasPulse(dc_offset=0.0, amplitude=1.2, duration=100.0)

#: Idle (cryostat) temperature the reference pulse starts from (K).
IDLE_TEMPERATURE = 0.110

#: Bisection stops once the reached temperature is this close (K).
TEMPERATURE_TOL = 1e-4

#: Most bisection steps before giving up.
MAX_BISECTIONS = 60


class CalibrationError(RuntimeError):
    """The bisection could not bracket or reach the target temperature."""


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a rate-scale calibration run.

    kappa_eff is the calibrated scale (1/ns); achieved and target are
    the fitted temperatures (K) at that scale and the anchor value;
    iterations counts bisection steps.
    """

    kappa_eff: float
    achieved: float
    target: float
    iterations: int


def heated_temperature(
    kappa_eff: float,
    system: SystemSpec | None = None,
    junction: JunctionSpec | None = None,
    pulse: BiasPulse = REFERENCE_PULSE,
) -> float:
    """Fitted temperature (K) reached by ``pulse`` at a given rate scale.

    Runs the master equation from the idle Gibbs state and fits the
    closest Gibbs state to the final four-state-normalized populations.
    Returns NaN if the final populations are not thermal-fittable.
    """
    system = system if system is not None else SystemSpec()
    junction = junction if junction is not None else JunctionSpec()
    coupling = CouplingSpec(kappa_eff=kappa_eff)
    rho0 = DensityMatrix.gibbs(IDLE_TEMPERATURE, system.transmon)
    # one exact step over the pulse: only its end state is read
    traj = evolve(rho0, system, junction, coupling, pulse, dt=pulse.duration)
    p4 = normalize_leading(traj.final.populations(), 4)
    fit = fit_gibbs(p4, system.transmon)
    return fit.temperature if fit.thermal else float("nan")


def calibrate_kappa_eff(
    target: float = TARGET_TEMPERATURE,
    system: SystemSpec | None = None,
    junction: JunctionSpec | None = None,
    pulse: BiasPulse = REFERENCE_PULSE,
    lo: float = 0.01,
    hi: float = 2.0,
) -> CalibrationResult:
    """Find the rate scale that heats the reference pulse to ``target``.

    Bisection on kappa_eff over [lo, hi]; the reached temperature is
    monotone in the scale, so a sign change of (reached - target) at the
    bracket ends guarantees convergence.  It stops once the temperature
    mismatch is below TEMPERATURE_TOL (K).

    Raises ValueError, before any evolve, unless 0 < lo < hi < inf and
    ``target`` is finite and above IDLE_TEMPERATURE, and
    CalibrationError if the bracket does not straddle the target
    or the mismatch stays above TEMPERATURE_TOL after MAX_BISECTIONS
    steps.
    """
    if not 0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lo < hi < inf, got [{lo}, {hi}]")
    if not IDLE_TEMPERATURE < target < math.inf:
        raise ValueError(
            f"target {target} K must be finite and exceed the idle temperature "
            f"{IDLE_TEMPERATURE} K"
        )

    def mismatch(kappa: float) -> float:
        return (
            heated_temperature(kappa, system=system, junction=junction, pulse=pulse)
            - target
        )

    f_lo, f_hi = mismatch(lo), mismatch(hi)
    if not (f_lo < 0 < f_hi):
        raise CalibrationError(
            f"bracket [{lo}, {hi}] does not straddle the target: "
            f"reached {f_lo + target:.4f} K and {f_hi + target:.4f} K "
            f"vs target {target} K"
        )

    mid, f_mid = lo, f_lo
    for i in range(1, MAX_BISECTIONS + 1):
        mid = 0.5 * (lo + hi)
        f_mid = mismatch(mid)
        if abs(f_mid) < TEMPERATURE_TOL:
            return CalibrationResult(
                kappa_eff=mid, achieved=f_mid + target, target=target,
                iterations=i,
            )
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"no convergence after {MAX_BISECTIONS} steps; best kappa_eff {mid} "
        f"reaches {f_mid + target:.4f} K vs target {target} K"
    )
