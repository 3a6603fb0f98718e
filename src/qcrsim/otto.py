"""Four-stroke quantum Otto cycle with the junction as tunable bath.

One cycle of the working medium (the transmon ladder):

  (i)   isochoric heat:  bias above the gap (v_hot) at omega_max
  (ii)  adiabat:         omega_max -> omega_min, populations frozen
  (iii) isochoric cool:  bias inside the gap (v_cold) at omega_min
  (iv)  adiabat:         omega_min -> omega_max, populations frozen

The medium starts diagonal, the Hamiltonian is diagonal and the jumps
are pure ladder jumps, so the state stays diagonal: each isochore is one
exact column-stochastic map exp(Q t_isochore) on the populations, and
the adiabats are ideal population-preserving frequency rescalings.  Heat
counts positive into the medium, work positive when extracted; energies
are in GHz*h units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._checks import finite, integer, positive
from .dynamics import _expm_metzler, _ladder_blocks, steady_state_from_rates
from .qcr import CouplingSpec, JunctionSpec, effective_temperature, transition_rates
from .system import SystemSpec, transmon_energies

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
        finite("v_hot", self.v_hot)
        finite("v_cold", self.v_cold)
        positive("t_isochore", self.t_isochore)
        integer("n_cycles", self.n_cycles, 1)


@dataclass(frozen=True)
class OttoResult:
    """Per-cycle energy ledger and summary efficiencies.

    q_hot/q_cold: heat into the medium during the isochores; work: net
    work extracted over both adiabats; d_energy: medium energy change
    over the full cycle, so q_hot + q_cold - work - d_energy = 0 to
    machine precision every cycle and d_energy -> 0 at the limit cycle.
    eta is work/q_hot per cycle; cycle_distance is (1/2)||p_end - p_start||_1
    over each cycle, the trace distance of the diagonal states.
    eta_limit is the efficiency of the limit cycle itself, the fixed
    point p* of the one-cycle map, however many cycles ran;
    limit_cycle_at is the first cycle (from 0) run on the limit cycle: it
    starts, and so also ends, within LIMIT_CYCLE_TOL of p* in
    (1/2)||p - p*||_1.
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
    eta_limit: float
    final_populations: np.ndarray


def frequency_efficiency(spec: OttoSpec) -> float:
    """Otto frequency-ratio efficiency eta_f = 1 - omega_min/omega_max."""
    return 1.0 - spec.omega_min / spec.omega_max


def _minus_identity(m: np.ndarray) -> np.ndarray:
    """m - I for a column-stochastic m, with each diagonal entry taken as
    minus its column's off-diagonal sum (as Grassmann-Taksar-Heyman state
    reduction does): nothing cancels, however close m is to I."""
    out = m - np.diag(m.diagonal())
    np.fill_diagonal(out, -out.sum(axis=0))
    return out


def run_cycle(
    spec: OttoSpec,
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
) -> OttoResult:
    """Run n_cycles of the Otto cycle and return the energy ledger.

    The medium starts in the cold-bath stationary state (the steady state
    at v_cold and omega_min), which makes the limit cycle typically a
    one-to-two-cycle affair.  Each bath's rate table and isochore map
    exp(Q t_isochore) are built once, and every cycle is two products of
    a map with the population vector.  The limit cycle is solved for
    exactly as the fixed point of the one-cycle map.  Bath temperatures
    quoted are the m=0-transition effective temperatures at the
    respective stroke frequency and bias.
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
    h_cold = np.diag(e_cold)
    t = spec.t_isochore
    hot_map = _expm_metzler(_ladder_blocks(np.diag(e_hot), rates_hot)[0] * t)
    cold_map = _expm_metzler(_ladder_blocks(h_cold, rates_cold)[0] * t)

    # Limit cycle: p* = cold_map @ hot_map @ p*, normalised by a row of
    # ones.  At p* the cold stroke undoes the hot stroke's population
    # change, so q_c* = -e_cold . (hot_map - I) p*.
    cycle = _minus_identity(cold_map @ hot_map)
    cycle[0] = 1.0
    p_star = np.linalg.solve(cycle, np.eye(len(e_hot))[0])
    flow = _minus_identity(hot_map) @ p_star
    q_hot_limit = e_hot @ flow
    eta_limit = 1.0 - (e_cold @ flow) / q_hot_limit if q_hot_limit > 0 else math.nan

    # Populations at the start of each cycle and after its last (starts),
    # and after each hot stroke (p_b); the adiabats leave them unchanged.
    starts = [steady_state_from_rates(h_cold, rates_cold).populations()]
    p_b = []
    for _ in range(spec.n_cycles):
        p_b.append(hot_map @ starts[-1])
        starts.append(cold_map @ p_b[-1])
    starts, p_b = np.array(starts), np.array(p_b)
    p_a, p_c = starts[:-1], starts[1:]
    e_a_hot, e_b_hot, e_b_cold = p_a @ e_hot, p_b @ e_hot, p_b @ e_cold
    e_c_cold, e_c_hot = p_c @ e_cold, p_c @ e_hot
    q_hot = e_b_hot - e_a_hot
    work = (e_b_hot - e_b_cold) - (e_c_hot - e_c_cold)
    eta = np.divide(work, q_hot, out=np.full(q_hot.size, math.nan), where=q_hot > 0)
    on_limit = 0.5 * np.abs(p_a - p_star).sum(axis=1) < LIMIT_CYCLE_TOL
    limit_at = int(np.argmax(on_limit)) if on_limit.any() else None

    return OttoResult(
        q_hot=q_hot,
        q_cold=e_c_cold - e_b_cold,
        work=work,
        d_energy=e_c_hot - e_a_hot,
        eta=eta,
        cycle_distance=0.5 * np.abs(p_c - p_a).sum(axis=1),
        t_hot=t_hot,
        t_cold=t_cold,
        eta_carnot=eta_c,
        eta_frequency=frequency_efficiency(spec),
        limit_cycle_reached=limit_at is not None,
        limit_cycle_at=limit_at,
        eta_limit=eta_limit,
        final_populations=p_c[-1],
    )
