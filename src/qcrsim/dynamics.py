"""Lindblad dynamics of the transmon ladder under the tunable bath.

The master equation (frequencies in GHz, hence the explicit 2*pi)

    drho/dt = -2*pi*i [H, rho]
              + sum_m gamma_down(m) D[|m><m+1|] rho
              + sum_m gamma_up(m)   D[|m+1><m|] rho

has a diagonal H and pure ladder jumps, so it never mixes populations
with coherences.  The populations obey the d x d Pauli rate equation
dp/dt = Q p, and each coherence decays on its own,

    rho_mn(t) = rho_mn(0) exp[(-2*pi*i (E_m - E_n) - (G_m + G_n)/2) t],

with G_m the total rate out of level m; Q and these rates are built
straight from the rate table.  The rates are constant between the
edges of the bias pulse, so a run is cut into pieces at those edges,
wherever they fall, and at the samples, and every piece is solved
exactly: exp(Q t) on the populations and the scalar exponentials on
the coherences.  The time step sets only the sampling grid.
Dissipators act directly on the transmon ladder; the resonators enter
through the rate model only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import thermometry
from .qcr import CouplingSpec, JunctionSpec, RateTable, transition_rates
from .system import SystemSpec, TransmonSpec, transmon_energies

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
EIG_TOL = 1e-9
ABORT_TRACE_DRIFT = 1e-6
ABORT_NEG_EIG = -1e-6
EXPM_THETA = 4.0  # norm of the scaled uniformised matrix in _expm_metzler


class IntegratorError(RuntimeError):
    """The propagated state is non-finite or lost trace or positivity."""


class DensityMatrix:
    """Density matrix with validation against non-finite entries (named
    by index) and against hermiticity, trace and positivity tolerances.

    Construct from a raw matrix, from populations, or with the ``gibbs``
    / ``level`` convenience constructors.
    """

    def __init__(self, matrix, validate: bool = True):
        self.matrix = np.asarray(matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got {self.matrix.shape}")
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> "DensityMatrix":
        m = self.matrix
        if not np.isfinite(m).all():
            i, j = np.argwhere(~np.isfinite(m))[0]
            raise ValueError(f"entry [{i}, {j}] = {m[i, j]} is not finite")
        scale = max(1.0, float(np.abs(m).max()))
        herm = np.abs(m - m.conj().T).max() / scale
        if herm > HERM_TOL:
            raise ValueError(f"not hermitian: relative deviation {herm:.2e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {TRACE_TOL}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min())
        if min_eig < -EIG_TOL:
            raise ValueError(f"negative eigenvalue {min_eig:.2e}")
        return self

    def populations(self) -> np.ndarray:
        return self.matrix.diagonal().real.copy()

    @classmethod
    def from_populations(cls, p) -> "DensityMatrix":
        p = np.asarray(p, dtype=float)
        return cls(np.diag(p.astype(complex)))

    @classmethod
    def gibbs(cls, temperature: float, spec: TransmonSpec) -> "DensityMatrix":
        """Gibbs state of the truncated ladder at ``temperature`` (K)."""
        return cls.from_populations(thermometry.gibbs_populations(temperature, spec))

    @classmethod
    def level(cls, n: int, spec: TransmonSpec) -> "DensityMatrix":
        """Ladder eigenstate |n><n|."""
        if not 0 <= n < spec.n_levels:
            raise ValueError(f"level {n} outside ladder of {spec.n_levels} states")
        p = np.zeros(spec.n_levels)
        p[n] = 1.0
        return cls.from_populations(p)


def _same_dim(a: DensityMatrix, b: DensityMatrix):
    if a.dim != b.dim:
        raise ValueError(f"states of dimension {a.dim} and {b.dim} differ")


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """T(a, b) = (1/2) ||a - b||_1.  Raises ValueError, naming both
    dimensions, for states of different dimension."""
    _same_dim(a, b)
    eigs = np.linalg.eigvalsh(a.matrix - b.matrix)
    return 0.5 * float(np.abs(eigs).sum())


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2, clipped to [0, 1].
    Raises ValueError, naming both dimensions, for states of different
    dimension."""
    _same_dim(a, b)
    evals, vecs = np.linalg.eigh(a.matrix)
    sqrt_a = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    inner = sqrt_a @ b.matrix @ sqrt_a
    seigs = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    f = float(np.sqrt(np.clip(seigs, 0.0, None)).sum() ** 2)
    return min(f, 1.0)


@dataclass(frozen=True)
class BiasPulse:
    """Net-zero square bias drive.

    dc_offset +- amplitude alternating every half period during
    [0, duration), zero afterwards.  The ac part integrates to zero, so
    the waveform integrates to dc_offset * duration.

    All times in ns, voltages in mV.
    """

    dc_offset: float = 0.0
    amplitude: float = 1.2
    duration: float = 100.0
    period: float = 10.0

    def __post_init__(self):
        if not math.isfinite(self.dc_offset):
            raise ValueError(f"dc_offset must be finite, got {self.dc_offset}")
        if not 0 <= self.duration < math.inf:
            raise ValueError(
                f"duration must be non-negative and finite, got {self.duration}"
            )
        if not 0 < self.period < math.inf:
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(
                f"amplitude must be non-negative and finite, got {self.amplitude}"
            )
        if self.amplitude > 0 and self.duration > 0:
            cycles = self.duration / self.period
            if abs(cycles - round(cycles)) > 1e-9:
                raise ValueError(
                    "duration must be an integer number of periods so the ac "
                    f"part cancels; got duration/period = {cycles}"
                )


def pulse_voltage(pulse: BiasPulse, t):
    """Instantaneous bias (mV) of the square pulse at time t (ns).

    Vectorized over t.  Edges are ideal steps.  Raises ValueError for a
    NaN or infinite t.
    """
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"time t must be finite, got {t[~np.isfinite(t)][0]}")
    phase = np.mod(t, pulse.period)
    square = np.where(phase < 0.5 * pulse.period, pulse.amplitude, -pulse.amplitude)
    v = np.where(
        (t >= 0.0) & (t < pulse.duration),
        pulse.dc_offset + square,
        0.0,
    )
    if v.ndim == 0:
        return float(v)
    return v


def lindblad_generator(hamiltonian: np.ndarray, rates: RateTable) -> np.ndarray:
    """Vectorized Lindblad generator (row-major vec convention).

    vec(drho/dt) = L vec(rho) with L of shape (d^2, d^2); hamiltonian is
    d x d in GHz, rates hold the d-1 ladder pairs in 1/ns.
    """
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    if rates.gamma_down.shape[0] != d - 1:
        raise ValueError(
            f"rate table has {rates.gamma_down.shape[0]} pairs, need {d - 1}"
        )
    eye = np.eye(d, dtype=complex)
    gen = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
    # D[|i><j|] adds rate at vec (ii, jj) and -rate/2 on the diagonal
    # for every vec index in row j or column j, so -rate at jj itself.
    # diag[a, b] is a view of the diagonal entry at vec index (ab, ab).
    diag = gen.reshape(-1)[:: d * d + 1].reshape(d, d)
    for m in range(d - 1):
        for rate, (i, j) in (
            (rates.gamma_down[m], (m, m + 1)),  # |m><m+1|
            (rates.gamma_up[m], (m + 1, m)),  # |m+1><m|
        ):
            if rate == 0.0:
                continue
            others = np.arange(d) != j
            gen[i * (d + 1), j * (d + 1)] += rate
            diag[j, others] -= 0.5 * rate
            diag[others, j] -= 0.5 * rate
            diag[j, j] -= rate
    return gen


def _expm_metzler(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square matrix with non-negative off-diagonal entries.

    Uniformisation with scaling and squaring: with mu = max(-diag a),
    c = a + mu I is entrywise >= 0 and exp(a) = e^{-mu} exp(c).  The
    Taylor series of exp(c / 2^s), ||c / 2^s||_1 <= EXPM_THETA, is then
    squared s times.  Every term and every product is non-negative, so
    nothing cancels and the result is entrywise >= 0; for a rate matrix
    (columns summing to zero) its columns sum to 1 up to rounding.
    """
    eye = np.eye(a.shape[0])
    mu = max(0.0, -float(a.diagonal().min()))
    c = a + mu * eye
    norm = float(c.sum(axis=0).max())
    s = max(0, math.frexp(norm / EXPM_THETA)[1])
    scale = 0.5**s
    c *= scale
    # Horner over the terms down to the first whose bound x^K / K! on
    # ||c^K / K!||_1 is below 1e-17
    x = norm * scale
    n_terms, bound = 1, x
    while bound > 1e-17:
        n_terms += 1
        bound *= x / n_terms
    out = eye
    for k in range(n_terms, 0, -1):
        out = c.dot(out)
        out *= 1.0 / k
        out += eye
    out *= math.exp(-mu * scale)
    for _ in range(s):
        out = out.dot(out)
    return out


def split_generator(generator: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a ladder generator into its Pauli block and coherence rates.

    ``generator`` is (d^2, d^2) in the vec convention of
    ``lindblad_generator``.  Returns the real d x d rate matrix Q acting
    on the populations (vec indices m*(d+1)) and the d x d array lam of
    coherence eigenvalues, d rho_mn/dt = lam[m, n] rho_mn, with zeros on
    its diagonal.  Raises ValueError if any other entry is nonzero,
    which a non-diagonal Hamiltonian or a non-ladder jump produces.
    """
    gen = np.asarray(generator)
    d = math.isqrt(gen.shape[0])
    if gen.shape != (d * d, d * d):
        raise ValueError(f"generator must be (d^2, d^2), got {gen.shape}")
    pop = np.ix_(np.arange(d) * (d + 1), np.arange(d) * (d + 1))
    q = gen[pop]
    lam = gen.diagonal().reshape(d, d).copy()
    np.fill_diagonal(lam, 0.0)
    rest = gen.copy()
    rest[pop] = 0.0
    np.fill_diagonal(rest, 0.0)
    if np.any(rest):
        raise ValueError(
            "generator couples populations and coherences: exact propagation "
            "needs a diagonal Hamiltonian and pure ladder jumps"
        )
    if np.any(np.imag(q)):
        raise ValueError("population block of the generator is not real")
    return np.real(q).copy(), lam


def _ladder(hamiltonian: np.ndarray, rates: RateTable):
    """Energies and stacked (gamma_down, gamma_up) of a diagonal ladder H."""
    g = np.asarray([rates.gamma_down, rates.gamma_up], dtype=float)
    d = g.shape[-1] + 1
    h = np.asarray(hamiltonian)
    if g.ndim != 2 or h.shape != (d, d) or np.any(h != np.diag(h.diagonal())):
        raise ValueError(f"hamiltonian must be diagonal and {d} x {d} for the rates")
    return h.diagonal().real, g


def _ladder_blocks(hamiltonian: np.ndarray, rates: RateTable):
    """Pauli block Q and coherence rates lam of the ladder master equation.

    Q[m, m+1] = gamma_down(m), Q[m+1, m] = gamma_up(m) and Q[m, m] = -G_m,
    with G_m the total rate out of level m; lam[m, n] = -2*pi*i (E_m - E_n)
    - (G_m + G_n)/2 off the diagonal and 0 on it.  Q equals the Pauli
    block of ``split_generator(lindblad_generator(hamiltonian, rates))``
    bit for bit; lam sums the same rates in another order.
    """
    e, (down, up) = _ladder(hamiltonian, rates)
    out = np.zeros(e.size)
    out[1:] += down
    out[:-1] += up
    q = np.diag(down, 1) + np.diag(up, -1) - np.diag(out)
    lam = -2j * np.pi * (e[:, None] - e) - 0.5 * (out[:, None] + out)
    np.fill_diagonal(lam, 0.0)
    return q, lam


@dataclass
class Trajectory:
    """Sampled populations along one integration run.

    times in ns; populations has one row per sample and one column per
    ladder state; final is the end-of-run density matrix.
    """

    times: np.ndarray
    populations: np.ndarray
    final: DensityMatrix
    transmon: TransmonSpec
    states: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def temperatures(self) -> np.ndarray:
        """Per-sample Gibbs-fit temperature (K); NaN where non-thermal."""
        p = self.populations[:, :4]
        return thermometry.fit_gibbs(p, self.transmon).temperature


def _snap(steps: float):
    """``steps`` as an int when within 1e-9 of one, else unchanged."""
    nearest = round(steps)
    return nearest if abs(steps - nearest) <= 1e-9 else steps


def _n_steps(t_end: float, dt: float, sample_every) -> int:
    for name, value in (("dt", dt), ("t_end", t_end)):
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    steps = _snap(t_end / dt)
    if not isinstance(steps, int):
        raise ValueError(f"dt={dt} must evenly divide t_end={t_end}")
    _check_sampling(steps, sample_every)
    return steps


def _check_sampling(n_steps: int, sample_every) -> None:
    if not isinstance(sample_every, (int, np.integer)) or sample_every < 1:
        raise ValueError(f"sample_every must be an integer >= 1, got {sample_every}")
    if n_steps % sample_every:
        raise ValueError("sample_every must divide the number of steps")


def _pulse_stretches(pulse: BiasPulse, dt: float, n_steps: int):
    """Sorted distinct |V| of the pulse over ``n_steps`` steps of ``dt``
    and its stretches (|V| index, start, stop) in units of dt.  An edge
    within 1e-9 of the grid is put on it, so on-grid stretches last whole
    numbers of steps."""
    half = 0.5 * pulse.period / dt
    n_half = round(2 * pulse.duration / pulse.period) if pulse.amplitude > 0 else 1
    n_half = min(n_half, math.ceil(n_steps / half))  # none at or past the end
    edges = [_snap(k * half) for k in range(n_half)]
    edges += [_snap(pulse.duration / dt), n_steps]
    cuts = sorted({min(edge, n_steps) for edge in edges})
    mids = 0.5 * (np.array(cuts[:-1]) + cuts[1:]) * dt
    volts = np.round(np.abs(pulse_voltage(pulse, mids)), 12)
    volts, ids = np.unique(volts, return_inverse=True)
    return volts.tolist(), list(zip(ids.tolist(), cuts, cuts[1:]))


def _propagate_stretches(
    rho0, blocks, stretches, dt, sample_every, transmon, keep_states=False
) -> Trajectory:
    """Exact propagation through ``stretches`` (block index, start, stop),
    in units of dt and in order from 0, under ``blocks`` of (Q, lam).

    Stretches are cut at every sample and each piece is solved exactly,
    one propagator per distinct (block, length); ``evolve`` lists the
    checks.
    """
    d = rho0.dim
    for q, _ in blocks:
        if q.shape != (d, d):
            raise ValueError(f"state dimension {d} != ladder size {q.shape[0]}")
    if not all(np.isfinite(q).all() and np.isfinite(lam).all() for q, lam in blocks):
        raise IntegratorError("non-finite generator entries")
    merged = []
    for block, start, stop in stretches:
        if merged and merged[-1][0] == block:
            merged[-1][2] = stop
        else:
            merged.append([block, start, stop])
    n_steps = merged[-1][2] if merged else 0
    rhos = np.empty((n_steps // sample_every + 1, d, d), dtype=complex)
    rhos[0] = rho0.matrix
    rho = rhos[0]
    propagators = {}
    k = 1
    for block, start, stop in merged:
        while start < stop:
            end = min(stop, (start // sample_every + 1) * sample_every)
            key = (block, end - start)
            if key not in propagators:
                q, lam = blocks[block]
                tau = key[1] * dt
                propagators[key] = (_expm_metzler(q * tau), np.exp(lam * tau))
            pauli, decay = propagators[key]
            populations = pauli @ rho.diagonal()
            rho = rho * decay
            np.fill_diagonal(rho, populations)
            if end % sample_every == 0:
                rhos[k] = rho
                k += 1
            start = end

    times = np.arange(rhos.shape[0]) * (dt * sample_every)

    def at(i):
        return f"at t={times[i]:.3f} ns (step {i * sample_every}, dt={dt})"

    finite = np.isfinite(rhos).all(axis=(1, 2))
    if not finite.all():
        raise IntegratorError(f"non-finite state {at(int(np.argmin(finite)))}")
    traces = np.einsum("tii->t", rhos).real
    drift = np.abs(traces - 1.0)
    if drift.max() > ABORT_TRACE_DRIFT:
        k = int(np.argmax(drift > ABORT_TRACE_DRIFT))
        raise IntegratorError(f"trace drift {drift[k]:.3e} {at(k)}")
    herm = 0.5 * (rhos + np.conj(np.swapaxes(rhos, 1, 2)))
    min_eigs = np.linalg.eigvalsh(herm)[:, 0]
    if min_eigs.min() < ABORT_NEG_EIG:
        k = int(np.argmin(min_eigs))
        raise IntegratorError(f"negative eigenvalue {min_eigs[k]:.3e} {at(k)}")

    trans = transmon if transmon is not None else TransmonSpec(n_levels=d)
    return Trajectory(
        times=times,
        populations=rhos.diagonal(axis1=1, axis2=2).real.copy(),
        final=DensityMatrix(rho, validate=False),
        transmon=trans,
        states=rhos if keep_states else None,
    )


def propagate(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray,
    generators: np.ndarray,
    seg_ids: np.ndarray,
    dt: float,
    sample_every: int = 1,
    keep_states: bool = False,
    transmon: TransmonSpec | None = None,
) -> Trajectory:
    """Exact propagation under piecewise-constant ladder generators.

    ``generators`` stacks (d^2, d^2) generators of ladder form (see
    ``split_generator``); step i of length ``dt`` runs under
    ``generators[seg_ids[i]]`` and every ``sample_every``-th step is
    recorded after the initial state in row 0, solved and checked as in
    ``evolve``.  ``hamiltonian`` is not read: the generators carry it.
    """
    blocks = [split_generator(g) for g in generators]
    seg_ids = np.asarray(seg_ids, dtype=np.int64)
    if seg_ids.size and (seg_ids.min() < 0 or seg_ids.max() >= len(blocks)):
        raise ValueError("segment index out of range")
    stretches = [(k, i, i + 1) for i, k in enumerate(seg_ids.tolist())]
    _check_sampling(len(stretches), sample_every)
    return _propagate_stretches(
        rho0, blocks, stretches, dt, sample_every, transmon, keep_states
    )


def evolve(
    rho0: DensityMatrix,
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
    pulse: BiasPulse,
    dt: float = 0.1,
    t_end: float | None = None,
    sample_every: int = 1,
) -> Trajectory:
    """Propagate the pulsed master equation exactly from ``rho0``.

    The bare ladder Hamiltonian supplies the coherent part; rates are
    rebuilt once per distinct |V| taken by the pulse (the tunneling rates
    are even in V, so the net-zero square drive acts as a constant-|V|
    bath when dc_offset = 0).

    Parameters
    ----------
    rho0 : DensityMatrix
        Initial ladder state, dimension transmon.n_levels.
    dt : float
        Sampling step in ns; must divide t_end.  The run is cut into
        pieces at the pulse edges, wherever they fall, and at the
        samples; each piece is solved exactly, so dt sets the sampling
        grid only.
    t_end : float
        Total integration time in ns (default: pulse duration).
    sample_every : int
        Record every k-th step into the trajectory.

    Raises ValueError, naming the argument, unless dt and t_end are
    positive and finite and sample_every an integer dividing the steps.
    Every sample is checked; a non-finite state, a trace drift or a
    negative eigenvalue beyond 1e-6 aborts with an IntegratorError naming
    the time and step, and so do non-finite rates.
    """
    if t_end is None:
        t_end = pulse.duration
    volts, stretches = _pulse_stretches(pulse, dt, _n_steps(t_end, dt, sample_every))
    h = np.diag(transmon_energies(system.transmon))
    blocks = [
        _ladder_blocks(h, transition_rates(system, junction, coupling, v))
        for v in volts
    ]
    return _propagate_stretches(
        rho0, blocks, stretches, dt, sample_every, system.transmon
    )


def evolve_constant(
    rho0: DensityMatrix,
    hamiltonian: np.ndarray,
    rates: RateTable,
    dt: float,
    t_end: float,
    sample_every: int = 1,
    transmon: TransmonSpec | None = None,
) -> Trajectory:
    """Propagate under a single fixed rate table (no pulse bookkeeping).

    ``hamiltonian`` must be diagonal and sized for the rates; dt and
    t_end as for ``evolve``.
    """
    stretches = [(0, 0, _n_steps(t_end, dt, sample_every))]
    blocks = [_ladder_blocks(hamiltonian, rates)]
    return _propagate_stretches(rho0, blocks, stretches, dt, sample_every, transmon)


def steady_state_from_rates(
    hamiltonian: np.ndarray, rates: RateTable
) -> DensityMatrix:
    """Stationary ladder state by detailed balance.

    With a diagonal H and pure ladder jumps the populations form a
    birth-death chain; its stationary state balances every rung,
    p_{m+1} gamma_down(m) = p_m gamma_up(m), so

        p_m ∝ prod_{k<m} gamma_up(k) * prod_{k>=m} gamma_down(k).

    Every weight holds one rate of each rung, so each rung is divided by
    its larger rate first, and the products are summed in logs: they
    cannot underflow, and the result does not depend on the overall rate
    scale.  Raises ValueError for a non-diagonal or wrongly sized H, for
    non-finite or negative rates, and when every weight vanishes: then
    the rates split the ladder into parts that never exchange population
    (a rung with both rates zero, say), and the steady state is not
    unique.
    """
    e, g = _ladder(hamiltonian, rates)
    if not np.all((0 <= g) & (g < np.inf)):
        raise ValueError("rates must be finite and non-negative")
    scale = g.max(axis=0)
    ratios = np.divide(g, scale, out=np.zeros_like(g), where=scale > 0)
    with np.errstate(divide="ignore"):
        log_down, log_up = np.log(ratios)
    log_w = np.array([log_up[:m].sum() + log_down[m:].sum() for m in range(e.size)])
    if log_w.max() == -np.inf:
        raise ValueError(
            "the rates split the ladder into parts that never exchange "
            "population: the steady state is not unique"
        )
    p = np.exp(log_w - log_w.max())
    return DensityMatrix.from_populations(p / p.sum())


def steady_state(
    system: SystemSpec,
    junction: JunctionSpec,
    coupling: CouplingSpec,
    v: float,
) -> DensityMatrix:
    """Stationary ladder state under a constant bias |v| (mV)."""
    h = np.diag(transmon_energies(system.transmon))
    rates = transition_rates(system, junction, coupling, v)
    return steady_state_from_rates(h, rates)


def two_level_relaxation(
    p_e0: float, gamma_down: float, gamma_up: float, t
) -> np.ndarray:
    """Closed-form qubit excited population under constant rates.

    p_e(t) = p_inf + (p_e(0) - p_inf) exp(-(gd+gu) t) with
    p_inf = gu/(gd+gu); the analytic oracle for the integrator.
    """
    total = gamma_down + gamma_up
    p_inf = gamma_up / total
    return p_inf + (p_e0 - p_inf) * np.exp(-total * np.asarray(t, dtype=float))
