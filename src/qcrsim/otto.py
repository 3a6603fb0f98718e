"""Four-stroke quantum Otto cycle with the junction as tunable bath.

One cycle of the working medium (the transmon ladder):

  (i)   isochoric heat:  bias above the gap (v_hot) at omega_max
  (ii)  adiabat:         omega_max -> omega_min, populations frozen
  (iii) isochoric cool:  bias inside the gap (v_cold) at omega_min
  (iv)  adiabat:         omega_min -> omega_max, populations frozen

Each isochore is one exact step of the Lindblad machinery; adiabats are
ideal population-preserving frequency rescalings.  Heat counts positive
into the medium, work positive when extracted; energies are in GHz*h
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import evolve_constant, steady_state_from_rates, trace_distance
from .qcr import CouplingSpec, JunctionSpec, effective_temperature, transition_rates
from .system import SystemSpec, TransmonSpec, transmon_energies

LIMIT_CYCLE_TOL = 1e-6


@dataclass(frozen=True)
class OttoSpec:
    """Cycle parameters.

    omega_max/omega_min are the medium's g-e frequency during the hot and
    cold strokes (GHz); v_hot must lie beyond the gap, v_cold inside it
    (mV); t_isochore is the bath-contact time per isochore (ns);
    n_cycles the number of full cycles run.
    """

    omega_max: float = 4.09
    omega_min: float = 3.0
    v_hot: float = 1.2
    v_cold: float = 0.19
    t_isochore: float = 20000.0
    n_cycles: int = 6

    def __post_init__(self):
        if not 0 < self.omega_min < self.omega_max < math.inf:
            raise ValueError(
                "need 0 < omega_min < omega_max < inf, got "
                f"{self.omega_min}, {self.omega_max}"
            )
        for name in ("v_hot", "v_cold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.t_isochore < math.inf:
            raise ValueError(
                f"t_isochore must be positive and finite, got {self.t_isochore}"
            )
        if not isinstance(self.n_cycles, (int, np.integer)) or self.n_cycles < 1:
            raise ValueError(f"n_cycles must be an integer >= 1, got {self.n_cycles}")


@dataclass(frozen=True)
class OttoResult:
    """Per-cycle energy ledger and summary efficiencies.

    q_hot/q_cold: heat into the medium during the isochores; work: net
    work extracted over both adiabats; d_energy: medium energy change
    over the full cycle, so q_hot + q_cold - work - d_energy = 0 to
    machine precision every cycle and d_energy -> 0 at the limit cycle.
    eta is work/q_hot per cycle.
    """

    q_hot: np.ndarray
    q_cold: np.ndarray
    work: np.ndarray
    d_energy: np.ndarray
    eta: np.ndarray
    cycle_distance: np.ndarray
    t_hot: float
    t_cold: float
    eta_carnot: float
    eta_frequency: float
    limit_cycle_reached: bool
    limit_cycle_at: int | None
    final_populations: np.ndarray

    @property
    def eta_limit(self) -> float:
        return float(self.eta[-1])


def frequency_efficiency(spec: OttoSpec) -> float:
    """Otto frequency-ratio efficiency eta_f = 1 - omega_min/omega_max."""
    return 1.0 - spec.omega_min / spec.omega_max


def ladder_energy(populations, transmon: TransmonSpec) -> float:
    """Mean ladder energy sum_n p_n E_n in GHz*h units."""
    return float(np.asarray(populations) @ transmon_energies(transmon))


def run_cycle(
    spec: OttoSpec,
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
) -> OttoResult:
    """Run n_cycles of the Otto cycle and return the energy ledger.

    The medium starts in the cold-bath stationary state (the steady state
    at v_cold and omega_min), which makes the limit cycle typically a
    one-to-two-cycle affair.  Each isochore is one exact propagation step
    of length t_isochore under its bath's rate table, built once.  Bath
    temperatures quoted are the m=0-transition effective temperatures at
    the respective stroke frequency and bias.
    """
    if spec.v_hot <= junction.delta:
        raise ValueError(
            f"v_hot = {spec.v_hot} mV must exceed the gap {junction.delta} meV / e"
        )
    if spec.v_cold >= junction.delta:
        raise ValueError(
            f"v_cold = {spec.v_cold} mV must lie inside the gap "
            f"{junction.delta} meV / e"
        )

    hot_medium = replace(system.transmon, omega_ge=spec.omega_max)
    cold_medium = replace(system.transmon, omega_ge=spec.omega_min)
    hot_system = replace(system, transmon=hot_medium)
    cold_system = replace(system, transmon=cold_medium)

    rates_hot = transition_rates(hot_system, junction, coupling, spec.v_hot)
    rates_cold = transition_rates(cold_system, junction, coupling, spec.v_cold)

    t_hot = effective_temperature(
        rates_hot.gamma_down[0], rates_hot.gamma_up[0], spec.omega_max
    )
    t_cold = effective_temperature(
        rates_cold.gamma_down[0], rates_cold.gamma_up[0], spec.omega_min
    )
    eta_c = 1.0 - t_cold / t_hot if math.isfinite(t_hot) and t_hot > 0 else math.nan

    e_hot, e_cold = transmon_energies(hot_medium), transmon_energies(cold_medium)
    h_hot, h_cold = np.diag(e_hot), np.diag(e_cold)
    rho = steady_state_from_rates(h_cold, rates_cold)

    def isochore(state, h, rates, medium):
        t = spec.t_isochore
        return evolve_constant(state, h, rates, dt=t, t_end=t, transmon=medium).final

    n = spec.n_cycles
    q_hot = np.empty(n)
    q_cold = np.empty(n)
    work = np.empty(n)
    d_energy = np.empty(n)
    eta = np.full(n, math.nan)
    distance = np.empty(n)
    limit_at = None

    for c in range(n):
        start = rho
        p_a = start.populations()
        e_a_hot = p_a @ e_hot

        # (i) hot isochore at omega_max
        rho = isochore(rho, h_hot, rates_hot, hot_medium)
        p_b = rho.populations()
        e_b_hot = p_b @ e_hot
        q_hot[c] = e_b_hot - e_a_hot

        # (ii) adiabat down: populations frozen, spectrum rescaled
        e_b_cold = p_b @ e_cold
        w_out = e_b_hot - e_b_cold

        # (iii) cold isochore at omega_min
        rho = isochore(rho, h_cold, rates_cold, cold_medium)
        p_c = rho.populations()
        e_c_cold = p_c @ e_cold
        q_cold[c] = e_c_cold - e_b_cold

        # (iv) adiabat up
        e_c_hot = p_c @ e_hot
        w_in = e_c_hot - e_c_cold

        work[c] = w_out - w_in
        d_energy[c] = e_c_hot - e_a_hot
        if q_hot[c] > 0:
            eta[c] = work[c] / q_hot[c]

        distance[c] = trace_distance(rho, start)
        if limit_at is None and distance[c] < LIMIT_CYCLE_TOL:
            limit_at = c

    return OttoResult(
        q_hot=q_hot,
        q_cold=q_cold,
        work=work,
        d_energy=d_energy,
        eta=eta,
        cycle_distance=distance,
        t_hot=t_hot,
        t_cold=t_cold,
        eta_carnot=eta_c,
        eta_frequency=frequency_efficiency(spec),
        limit_cycle_reached=limit_at is not None,
        limit_cycle_at=limit_at,
        final_populations=rho.populations(),
    )
