import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_max_ulp
from scipy.linalg import expm

from qcrsim.dynamics import (
    _expm_metzler,
    _ladder_blocks,
    BiasPulse,
    DensityMatrix,
    IntegratorError,
    Trajectory,
    evolve,
    evolve_constant,
    fidelity,
    lindblad_generator,
    propagate,
    pulse_voltage,
    split_generator,
    steady_state,
    steady_state_from_rates,
    trace_distance,
    two_level_relaxation,
)
from qcrsim.qcr import JunctionSpec, RateTable, transition_rates
from qcrsim.system import TransmonSpec, transmon_energies
from qcrsim.thermometry import gibbs_populations
from qcrsim.constants import H_OVER_KB

TWO_LEVEL = TransmonSpec(n_levels=2)


def two_level_table(gamma_down, gamma_up):
    return RateTable(
        v=0.0,
        omegas=np.array([4.09]),
        gamma_down=np.array([gamma_down]),
        gamma_up=np.array([gamma_up]),
    )


def ladder_table(gamma_down, gamma_up):
    """Rate table and bare ladder H for d = len(gamma_down) + 1 levels."""
    d = len(gamma_down) + 1
    table = RateTable(
        v=0.0,
        omegas=np.ones(d - 1),
        gamma_down=np.asarray(gamma_down, dtype=float),
        gamma_up=np.asarray(gamma_up, dtype=float),
    )
    return np.diag(transmon_energies(TransmonSpec(n_levels=d))), table


def ladder_generator(gamma_down, gamma_up):
    """Generator of the bare ladder with d = len(gamma_down) + 1 levels."""
    return lindblad_generator(*ladder_table(gamma_down, gamma_up))


def kron_generator(hamiltonian, rates):
    """Reference build of lindblad_generator from Kronecker products."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    gen = -2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))
    for m in range(d - 1):
        for rate, (i, j) in (
            (rates.gamma_down[m], (m, m + 1)),
            (rates.gamma_up[m], (m + 1, m)),
        ):
            if rate == 0.0:
                continue
            op = np.zeros((d, d), dtype=complex)
            op[i, j] = 1.0
            opdag_op = op.conj().T @ op
            gen += rate * (
                np.kron(op, op.conj())
                - 0.5 * (np.kron(opdag_op, eye) + np.kron(eye, opdag_op.T))
            )
    return gen


@st.composite
def generator_inputs(draw):
    """A d-level Hermitian H (diagonal or not) and ladder rates with zeros."""
    d = draw(st.integers(min_value=2, max_value=6))
    entry = st.floats(min_value=-10.0, max_value=10.0)
    re = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)))
    im = np.array(draw(st.lists(entry, min_size=d * d, max_size=d * d)))
    a = (re + 1j * im).reshape(d, d)
    h = np.diag(re[:d]) if draw(st.booleans()) else a + a.conj().T
    rate = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0))
    gamma_down = draw(st.lists(rate, min_size=d - 1, max_size=d - 1))
    gamma_up = draw(st.lists(rate, min_size=d - 1, max_size=d - 1))
    table = RateTable(
        v=0.0,
        omegas=np.ones(d - 1),
        gamma_down=np.array(gamma_down),
        gamma_up=np.array(gamma_up),
    )
    return h, table


class TestDensityMatrix:
    def test_gibbs_matches_population_formula(self, transmon):
        for t in (0.02, 0.3, 5.0):
            rho = DensityMatrix.gibbs(t, transmon)
            assert np.array_equal(rho.populations(), gibbs_populations(t, transmon))

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
    def test_gibbs_rejects_bad_temperature(self, transmon, bad):
        with pytest.raises(ValueError, match="temperature"):
            DensityMatrix.gibbs(bad, transmon)

    def test_level_state(self, transmon):
        rho = DensityMatrix.level(2, transmon)
        p = np.zeros(transmon.n_levels)
        p[2] = 1.0
        assert_allclose(rho.populations(), p)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(3))

    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 0.3
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_from_populations(self):
        rho = DensityMatrix.from_populations([0.5, 0.3, 0.2])
        assert_allclose(np.diag(rho.matrix).real, [0.5, 0.3, 0.2])


class TestStateDistances:
    def test_orthogonal_pure_states(self):
        a = DensityMatrix.level(0, TWO_LEVEL)
        b = DensityMatrix.level(1, TWO_LEVEL)
        assert trace_distance(a, b) == pytest.approx(1.0)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_identical_states(self, transmon):
        rho = DensityMatrix.gibbs(0.2, transmon)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
        assert fidelity(rho, rho) == pytest.approx(1.0)

    def test_diagonal_fidelity_closed_form(self):
        # for commuting states F = (sum sqrt(p q))^2
        p, q = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        a = DensityMatrix.from_populations(p)
        b = DensityMatrix.from_populations(q)
        assert fidelity(a, b) == pytest.approx(
            float(np.sqrt(p * q).sum()) ** 2, rel=1e-10
        )


class TestBiasPulse:
    def test_square_wave_samples(self):
        pulse = BiasPulse(amplitude=1.2, duration=100.0, period=10.0)
        assert pulse_voltage(pulse, 2.5) == 1.2
        assert pulse_voltage(pulse, 7.5) == -1.2
        assert pulse_voltage(pulse, 12.5) == 1.2

    def test_zero_mean_over_period(self):
        pulse = BiasPulse(amplitude=0.9, duration=50.0, period=10.0)
        t = np.arange(0.05, 10.0, 0.1)
        assert pulse_voltage(pulse, t).mean() == pytest.approx(0.0, abs=1e-12)

    def test_dc_offset_shifts(self):
        pulse = BiasPulse(dc_offset=0.3, amplitude=0.9, duration=50.0)
        t = np.arange(0.05, 10.0, 0.1)
        assert pulse_voltage(pulse, t).mean() == pytest.approx(0.3, abs=1e-12)

    def test_off_after_duration(self):
        pulse = BiasPulse(dc_offset=0.3, amplitude=1.2, duration=100.0)
        assert pulse_voltage(pulse, 100.0 + 1e-9) == 0.0

    def test_duration_must_fit_whole_periods(self):
        with pytest.raises(ValueError, match="period"):
            BiasPulse(amplitude=1.2, duration=95.0, period=10.0)

    def test_constant_bias_any_duration(self):
        BiasPulse(dc_offset=1.2, amplitude=0.0, duration=33.3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["dc_offset", "amplitude", "duration", "period"]
    )
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            BiasPulse(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_voltage_rejects_non_finite_time(self, value):
        pulse = BiasPulse(amplitude=1.2, duration=100.0)
        with pytest.raises(ValueError, match=f"time t must be finite, got {value}"):
            pulse_voltage(pulse, value)
        with pytest.raises(ValueError, match=f"time t .*{value}"):
            pulse_voltage(pulse, np.array([2.5, value]))


class TestLindbladGenerator:
    def test_matches_dense_master_equation(self):
        """Vectorized action equals the matrix-form right-hand side."""
        rng = np.random.default_rng(5)
        n = 4
        spec = TransmonSpec(n_levels=n)
        h = np.diag(transmon_energies(spec))
        table = RateTable(
            v=0.0,
            omegas=np.array([4.09, 3.817, 3.544]),
            gamma_down=np.array([0.03, 0.05, 0.01]),
            gamma_up=np.array([0.01, 0.02, 0.004]),
        )
        gen = lindblad_generator(h, table)

        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real

        def dissipator(op, g, r):
            return g * (
                op @ r @ op.conj().T
                - 0.5 * (op.conj().T @ op @ r + r @ op.conj().T @ op)
            )

        rhs = -2j * math.pi * (h @ rho - rho @ h)
        for m_ in range(n - 1):
            down = np.zeros((n, n), dtype=complex)
            down[m_, m_ + 1] = 1.0  # |m><m+1|, rate already holds the ladder factor
            rhs += dissipator(down, table.gamma_down[m_], rho)
            rhs += dissipator(down.conj().T, table.gamma_up[m_], rho)

        got = (gen @ rho.reshape(-1)).reshape(n, n)
        assert_allclose(got, rhs, atol=1e-12)

    def test_preserves_trace(self):
        spec = TransmonSpec(n_levels=3)
        h = np.diag(transmon_energies(spec))
        table = RateTable(
            v=0.0,
            omegas=np.array([4.09, 3.817]),
            gamma_down=np.array([0.03, 0.05]),
            gamma_up=np.array([0.01, 0.02]),
        )
        gen = lindblad_generator(h, table)
        # <I| L = 0: columns of the generator sum to zero over the trace
        tr_vec = np.eye(3, dtype=complex).reshape(-1)
        assert np.abs(tr_vec @ gen).max() < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(generator_inputs())
    def test_equals_kron_reference(self, inputs):
        """Every entry equals the Kronecker build exactly.  For a diagonal
        H even the signs of the zeros agree; otherwise the Kronecker build
        turns some -0.0 imaginary parts into +0.0 by adding 0 to them."""
        h, table = inputs
        got, want = lindblad_generator(h, table), kron_generator(h, table)
        assert np.array_equal(got, want)
        if not np.any(h - np.diag(np.diag(h))):
            assert got.tobytes() == want.tobytes()


class TestEvolve:
    def test_two_level_closed_form(self):
        gd, gu = 0.031, 0.013
        h = np.diag(transmon_energies(TWO_LEVEL))
        traj = evolve_constant(
            DensityMatrix.level(1, TWO_LEVEL),
            h,
            two_level_table(gd, gu),
            dt=0.1,
            t_end=200.0,
            transmon=TWO_LEVEL,
        )
        expected = two_level_relaxation(1.0, gd, gu, traj.times)
        assert np.abs(traj.populations[:, 1] - expected).max() < 1e-6

    def test_trace_and_positivity_preserved(
        self, system, junction, coupling
    ):
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        pulse = BiasPulse(amplitude=1.2, duration=100.0)
        traj = evolve(
            rho0, system, junction, coupling, pulse, dt=0.1, t_end=200.0
        )
        sums = traj.populations.sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-9
        assert traj.populations.min() > -1e-9

    def test_square_pulse_equals_constant_bias(
        self, system, junction, coupling
    ):
        """Rates are even in V, so the net-zero drive acts like dc."""
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        kwargs = dict(dt=0.1, t_end=100.0, sample_every=100)
        ac = evolve(
            rho0,
            system,
            junction,
            coupling,
            BiasPulse(amplitude=1.2, duration=100.0),
            **kwargs,
        )
        dc = evolve(
            rho0,
            system,
            junction,
            coupling,
            BiasPulse(dc_offset=1.2, amplitude=0.0, duration=100.0),
            **kwargs,
        )
        assert np.array_equal(ac.populations, dc.populations)

    def test_temperatures_start_at_initial_gibbs(
        self, system, junction, coupling
    ):
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        pulse = BiasPulse(amplitude=1.2, duration=100.0)
        traj = evolve(
            rho0, system, junction, coupling, pulse, dt=0.1, sample_every=100
        )
        assert traj.temperatures[0] == pytest.approx(0.11, abs=1e-6)
        assert traj.temperatures[-1] > 0.4

    def test_temperatures_fit_the_given_ladder_only(self):
        """A run that is not given its ladder cannot fit temperatures;
        given the 3 GHz ladder, its 0.2 K Gibbs state reads 0.2 K."""
        ladder = TransmonSpec(omega_ge=3.0)
        h, table = ladder_table([0.03] * 5, [0.01] * 5)
        rho0 = DensityMatrix.gibbs(0.2, ladder)
        bare = evolve_constant(rho0, h, table, dt=1.0, t_end=1.0)
        with pytest.raises(ValueError, match="transmon is None"):
            bare.temperatures
        traj = evolve_constant(rho0, h, table, dt=1.0, t_end=1.0, transmon=ladder)
        assert traj.temperatures[0] == pytest.approx(0.2, rel=1e-9)

    def test_inverted_population_flagged_non_thermal(self):
        h = np.diag(transmon_energies(TWO_LEVEL))
        traj = evolve_constant(
            DensityMatrix.level(1, TWO_LEVEL),
            h,
            two_level_table(0.03, 0.01),
            dt=0.1,
            t_end=1.0,
            transmon=TWO_LEVEL,
        )
        assert math.isnan(traj.temperatures[0])

    def test_edge_between_samples_matches_two_piece_closed_form(
        self, system, junction, coupling
    ):
        """The 0.15 ns half period puts every other edge between the
        0.1 ns samples; each period is still 0.15 ns at 1.2 mV, then
        0.15 ns at 0.6 mV."""
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        pulse = BiasPulse(dc_offset=0.3, amplitude=0.9, duration=3.0, period=0.3)
        traj = evolve(rho0, system, junction, coupling, pulse, dt=0.1)
        h = np.diag(transmon_energies(system.transmon))

        def step(v, tau):
            table = transition_rates(system, junction, coupling, v)
            return _expm_metzler(split_generator(lindblad_generator(h, table))[0] * tau)

        p0 = rho0.populations()
        period = step(0.6, 0.15) @ step(1.2, 0.15)
        want = np.linalg.matrix_power(period, 10) @ p0
        assert np.abs(want - p0).max() > 1e-3
        assert np.abs(traj.populations[-1] - want).max() < 1e-12
        # the sample at 0.2 ns lies 0.05 ns into the first 0.6 mV stretch
        want = step(0.6, 0.05) @ step(1.2, 0.15) @ p0
        assert np.abs(traj.populations[2] - want).max() < 1e-12

    def test_rates_of_every_bias_in_one_batch(
        self, integral_batches, spectral_calls, system, junction, coupling
    ):
        """A pulse with a dc offset takes two |V|; evolve integrates both
        rate tables in one tunnelling batch."""
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        pulse = BiasPulse(dc_offset=0.3, amplitude=0.9, duration=20.0)
        evolve(rho0, system, junction, coupling, pulse)
        assert len(integral_batches) == 1
        assert sorted({v for _, v, _ in spectral_calls}) == [0.6, 1.2]

    def test_t_end_must_be_whole_steps(self, system, junction, coupling):
        rho0 = DensityMatrix.gibbs(0.11, system.transmon)
        pulse = BiasPulse(amplitude=1.2, duration=100.0, period=10.0)
        with pytest.raises(ValueError, match="t_end"):
            evolve(rho0, system, junction, coupling, pulse, dt=0.1, t_end=0.35)


class TestPropagate:
    H2 = np.diag(transmon_energies(TWO_LEVEL))

    def test_sample_layout(self):
        # row 0 is the initial state, then one row per sample_every steps
        rho0 = DensityMatrix([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
        gen = ladder_generator([0.031], [0.013])
        traj = propagate(
            rho0,
            self.H2,
            gen[np.newaxis],
            np.zeros(400, dtype=np.int64),
            dt=0.05,
            sample_every=40,
            keep_states=True,
        )
        assert traj.states.shape == (11, 2, 2)
        assert_allclose(traj.times, 2.0 * np.arange(11))
        assert np.array_equal(traj.states[0], rho0.matrix)
        assert np.array_equal(traj.states[-1], traj.final.matrix)

    def test_segment_switching_changes_generator(self):
        gens = np.stack(
            [ladder_generator([0.1], [0.0]), ladder_generator([0.5], [0.0])]
        )
        seg = np.array([0] * 50 + [1] * 50, dtype=np.int64)
        traj = propagate(
            DensityMatrix.level(1, TWO_LEVEL), self.H2, gens, seg, 0.1, 100
        )
        expected = np.exp(-0.1 * 5.0) * np.exp(-0.5 * 5.0)
        assert traj.populations[-1, 1] == pytest.approx(expected, rel=1e-12)

    def test_matches_dense_generator_exponential(self):
        """Coherent 4-level state against expm of the full generator."""
        rng = np.random.default_rng(11)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho0 = m @ m.conj().T
        rho0 /= np.trace(rho0).real
        gens = np.stack(
            [ladder_generator(*rng.uniform(0.01, 0.3, (2, 3))) for _ in range(2)]
        )
        seg = np.array([0] * 30 + [1] * 50 + [0] * 20, dtype=np.int64)
        dt = 0.25
        h = np.diag(transmon_energies(TransmonSpec(n_levels=4)))
        traj = propagate(DensityMatrix(rho0), h, gens, seg, dt, 10, keep_states=True)
        steps = [expm(g * dt) for g in gens]
        y = rho0.reshape(-1)
        expected = [y]
        for i, k in enumerate(seg):
            y = steps[k] @ y
            if (i + 1) % 10 == 0:
                expected.append(y)
        assert_allclose(traj.states.reshape(len(expected), -1), expected, atol=1e-12)

    def test_coherence_decays_at_closed_form_rate(self, system, junction, coupling):
        """At dt = 0.1 rho_01 turns by 2.6 rad per step; the sampling step
        must not touch its decay."""
        d = system.transmon.n_levels
        m = np.zeros((d, d), dtype=complex)
        m[:2, :2] = 0.5
        pulse = BiasPulse(amplitude=1.2, duration=100.0)
        traj = evolve(DensityMatrix(m), system, junction, coupling, pulse, dt=0.1)
        table = transition_rates(system, junction, coupling, 1.2)
        gamma_0 = table.gamma_up[0]
        gamma_1 = table.gamma_down[0] + table.gamma_up[1]
        expected = 0.5 * math.exp(-(gamma_0 + gamma_1) * 100.0 / 2)
        assert abs(traj.final.matrix[0, 1]) == pytest.approx(expected, rel=1e-12)

    def test_widest_coherence_stays_physical(self, system, junction, coupling):
        d = system.transmon.n_levels
        m = np.zeros((d, d), dtype=complex)
        m[np.ix_([0, d - 1], [0, d - 1])] = 0.5
        pulse = BiasPulse(amplitude=1.2, duration=100.0)
        traj = evolve(DensityMatrix(m), system, junction, coupling, pulse, dt=0.1)
        final = traj.final.matrix
        assert np.isfinite(final).all()
        assert abs(np.trace(final) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(final).min() > -1e-12

    def test_trace_drift_aborts(self):
        gen = np.zeros((1, 4, 4))
        gen[0, 3, 3] = -0.05  # level 1 decays into nothing
        with pytest.raises(IntegratorError, match="trace drift"):
            propagate(
                DensityMatrix.level(1, TWO_LEVEL),
                self.H2,
                gen,
                np.zeros(100, dtype=np.int64),
                dt=0.1,
            )

    def test_negative_rate_aborts(self):
        with pytest.raises(IntegratorError, match="negative eigenvalue"):
            evolve_constant(
                DensityMatrix.level(0, TWO_LEVEL),
                self.H2,
                two_level_table(0.03, -0.5),
                dt=0.1,
                t_end=10.0,
                transmon=TWO_LEVEL,
            )

    @pytest.mark.parametrize("gamma_up", [math.nan, -1e4])
    def test_non_finite_aborts(self, gamma_up):
        """A NaN rate, or one whose propagator overflows, ends in an
        IntegratorError rather than a LinAlgError from the guard."""
        with np.errstate(all="ignore"), pytest.raises(
            IntegratorError, match="non-finite"
        ):
            evolve_constant(
                DensityMatrix.level(0, TWO_LEVEL),
                self.H2,
                two_level_table(0.03, gamma_up),
                dt=0.1,
                t_end=10.0,
                transmon=TWO_LEVEL,
            )

    def test_coherent_drive_rejected(self):
        h = np.array([[0.0, 0.1], [0.1, 4.09]])
        gen = lindblad_generator(h, two_level_table(0.03, 0.01))
        with pytest.raises(ValueError, match="couples populations and coherences"):
            split_generator(gen)


@st.composite
def ladder_rates(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rate = st.floats(min_value=0.05, max_value=1.0)
    gamma_down = draw(st.lists(rate, min_size=n, max_size=n))
    gamma_up = draw(st.lists(rate, min_size=n, max_size=n))
    return np.array(gamma_down), np.array(gamma_up)


class TestPauliBlock:
    def test_ladder_blocks_match_split_generator(self):
        """Q bit for bit; lam sums the same rates in another order."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = int(rng.integers(2, 8))
            h = np.diag(np.sort(rng.uniform(0.0, 30.0, d)))
            down = rng.uniform(0.0, 1.0, d - 1) * 10.0 ** rng.uniform(-3, 1, d - 1)
            up = rng.uniform(0.0, 1.0, d - 1) * down
            down[rng.random(d - 1) < 0.2] = 0.0
            up[rng.random(d - 1) < 0.2] = 0.0
            _, table = ladder_table(down, up)
            q, lam = _ladder_blocks(h, table)
            q_ref, lam_ref = split_generator(lindblad_generator(h, table))
            assert np.array_equal(q, q_ref)
            assert np.array_equal(lam.imag, lam_ref.imag)
            assert_array_max_ulp(lam.real, lam_ref.real, maxulp=4)

    def test_constant_evolution_rejects_non_diagonal_hamiltonian(self):
        h, table = ladder_table([0.05], [0.01])
        with pytest.raises(ValueError, match="diagonal"):
            evolve_constant(
                DensityMatrix.level(0, TWO_LEVEL),
                h + np.array([[0.0, 0.1], [0.1, 0.0]]),
                table,
                dt=0.1,
                t_end=1.0,
            )

    @settings(max_examples=50, deadline=None)
    @given(ladder_rates())
    def test_columns_sum_to_zero(self, rates):
        q, _ = split_generator(ladder_generator(*rates))
        assert np.abs(q.sum(axis=0)).max() < 1e-14

    @settings(max_examples=50, deadline=None)
    @given(ladder_rates())
    def test_off_diagonals_non_negative(self, rates):
        q, _ = split_generator(ladder_generator(*rates))
        assert (q - np.diag(np.diag(q)) >= 0.0).all()

    @settings(max_examples=50, deadline=None)
    @given(ladder_rates())
    def test_stationary_vector_obeys_detailed_balance(self, rates):
        gamma_down, gamma_up = rates
        q, _ = split_generator(ladder_generator(gamma_down, gamma_up))
        p = np.linalg.svd(q)[2][-1]
        p /= p.sum()
        assert_allclose(p[1:] / p[:-1], gamma_up / gamma_down, rtol=1e-9)


def random_rate_matrix(rng, d, norm):
    # birth-death generator with rates spread over six decades, scaled to
    # the given 1-norm
    down = rng.uniform(0.0, 1.0, d - 1) * 10.0 ** rng.uniform(-3, 3, d - 1)
    up = rng.uniform(0.0, 1.0, d - 1) * down
    q = np.diag(down, 1) + np.diag(up, -1)
    q -= np.diag(q.sum(axis=0))
    return q * (norm / np.abs(q).sum(axis=0).max())


class TestExpmMetzler:
    @pytest.mark.parametrize("log_norm", [-8, -5, -2, 0, 1, 2, 3])
    def test_matches_scipy_on_rate_matrices(self, log_norm):
        rng = np.random.default_rng(log_norm + 100)
        for _ in range(40):
            q = random_rate_matrix(rng, int(rng.integers(2, 8)), 10.0**log_norm)
            got = _expm_metzler(q)
            assert np.abs(got - expm(q)).max() <= 1e-11
            assert (got >= 0.0).all()
            assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-13

    def test_general_metzler_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            a = rng.uniform(0.0, 3.0, (5, 5))
            np.fill_diagonal(a, rng.uniform(-6.0, 2.0, 5))
            want = expm(a)
            got = _expm_metzler(a)
            assert (got >= 0.0).all()
            assert_allclose(got, want, rtol=1e-12, atol=1e-14 * want.max())

    def test_zero_matrix_gives_identity(self):
        assert_allclose(_expm_metzler(np.zeros((4, 4))), np.eye(4), atol=0.0)


def lstsq_steady_state(hamiltonian, rates):
    """Null vector of the dense (d^2, d^2) generator, trace-normalized.

    Solves the stacked system [L; trace] x = [0; 1] by least squares with
    three passes of iterative refinement: the general-purpose reference
    the detailed-balance product is checked against.
    """
    gen = lindblad_generator(hamiltonian, rates)
    d = hamiltonian.shape[0]
    trace_row = np.zeros(d * d, dtype=complex)
    trace_row[:: d + 1] = 1.0
    a = np.vstack([gen, trace_row])
    b = np.zeros(d * d + 1, dtype=complex)
    b[-1] = 1.0
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    for _ in range(3):
        corr, *_ = np.linalg.lstsq(a, b - a @ x, rcond=None)
        x = x + corr
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / rho.trace().real


class TestSteadyState:
    def test_detailed_balance_gives_gibbs(self, transmon):
        t = 0.3
        omegas = np.array(
            [4.09 + m * transmon.alpha for m in range(transmon.n_levels - 1)]
        )
        gd = 0.02 * (np.arange(5) + 1.0)
        gu = gd * np.exp(-H_OVER_KB * omegas / t)
        table = RateTable(v=0.0, omegas=omegas, gamma_down=gd, gamma_up=gu)
        h = np.diag(transmon_energies(transmon))
        ss = steady_state_from_rates(h, table)
        assert fidelity(ss, DensityMatrix.gibbs(t, transmon)) > 0.9999999

    def test_equal_rates_give_uniform(self, transmon):
        omegas = np.ones(5)
        g = 0.05 * np.ones(5)
        table = RateTable(v=0.0, omegas=omegas, gamma_down=g, gamma_up=g)
        h = np.diag(transmon_energies(transmon))
        ss = steady_state_from_rates(h, table)
        assert_allclose(ss.populations(), np.full(6, 1 / 6), atol=1e-10)

    def test_pure_decay_gives_ground(self, transmon):
        omegas = np.ones(5)
        table = RateTable(
            v=0.0,
            omegas=omegas,
            gamma_down=0.05 * np.ones(5),
            gamma_up=np.zeros(5),
        )
        h = np.diag(transmon_energies(transmon))
        ss = steady_state_from_rates(h, table)
        assert ss.populations()[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rates_rejected(self, transmon):
        table = RateTable(
            v=0.0,
            omegas=np.ones(5),
            gamma_down=np.zeros(5),
            gamma_up=np.zeros(5),
        )
        h = np.diag(transmon_energies(transmon))
        with pytest.raises(ValueError):
            steady_state_from_rates(h, table)

    def test_physical_bias_approaches_rate_temperature(
        self, system, junction, coupling
    ):
        ss = steady_state(system, junction, coupling, 1.2)
        table = transition_rates(system, junction, coupling, 1.2)
        t_eff = float(table.effective_temperatures()[0])
        assert (
            fidelity(ss, DensityMatrix.gibbs(t_eff, system.transmon)) > 0.999
        )

    @settings(max_examples=50, deadline=None)
    @given(ladder_rates())
    def test_matches_lstsq_null_vector(self, rates):
        h, table = ladder_table(*rates)
        ss = steady_state_from_rates(h, table)
        want = lstsq_steady_state(h, table)
        assert_allclose(ss.matrix, want, rtol=0, atol=1e-12)

    def test_sub_gap_bias_matches_long_evolution(self, system, coupling):
        """Every rung of this table has T_eff = 0.02 K with rates near
        5e-12 / ns; 1e14 ns is about 250 of the slowest relaxation times."""
        junction = JunctionSpec(gamma_d=1e-8, t_n=0.02)
        ss = steady_state(system, junction, coupling, 0.0)
        table = transition_rates(system, junction, coupling, 0.0)
        h = np.diag(transmon_energies(system.transmon))
        for start in (0, system.transmon.n_levels - 1):
            rho0 = DensityMatrix.level(start, system.transmon)
            final = evolve_constant(rho0, h, table, dt=1e14, t_end=1e14).final
            assert_allclose(ss.populations(), final.populations(), atol=1e-12)
        gibbs = gibbs_populations(0.02, system.transmon)
        assert_allclose(ss.populations(), gibbs, atol=1e-12)
        assert ss.populations()[0] == pytest.approx(0.99995, abs=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(
            st.tuples(st.floats(1e-3, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=6,
        ),
        log_scale=st.floats(-15.0, 3.0),
    )
    def test_independent_of_rate_scale(self, rates, log_scale):
        gamma_down, gamma_up = np.array(rates).T
        h, table = ladder_table(gamma_down, gamma_up)
        _, scaled = ladder_table(
            gamma_down * 10.0**log_scale, gamma_up * 10.0**log_scale
        )
        p = steady_state_from_rates(h, table).populations()
        p_scaled = steady_state_from_rates(h, scaled).populations()
        assert_allclose(p_scaled, p, rtol=0, atol=1e-12)

    def test_split_ladder_rejected(self):
        # rung 2<->3 has no rates: {0, 1, 2} and {3, 4, 5} never exchange
        h, table = ladder_table(
            [0.05, 0.05, 0.0, 0.05, 0.05], [0.01, 0.01, 0.0, 0.01, 0.01]
        )
        with pytest.raises(ValueError, match="not unique"):
            steady_state_from_rates(h, table)

    def test_two_closed_ends_rejected(self):
        # nothing climbs rung 1<->2 and nothing descends rung 3<->4, so
        # {0, 1} and {4, 5} each keep whatever population they hold
        h, table = ladder_table(
            [0.05, 0.05, 0.05, 0.0, 0.05], [0.01, 0.0, 0.01, 0.01, 0.01]
        )
        with pytest.raises(ValueError, match="not unique"):
            steady_state_from_rates(h, table)

    def test_non_diagonal_hamiltonian_rejected(self):
        h, table = ladder_table([0.05, 0.05], [0.01, 0.01])
        h = h.astype(complex)
        h[0, 1] = h[1, 0] = 0.01
        with pytest.raises(ValueError, match="diagonal"):
            steady_state_from_rates(h, table)

    def test_wrongly_sized_hamiltonian_rejected(self):
        h, table = ladder_table([0.05, 0.05], [0.01, 0.01])
        with pytest.raises(ValueError, match="diagonal and 3 x 3"):
            steady_state_from_rates(h[:2, :2], table)
        _, short = ladder_table([0.05], [0.01])
        with pytest.raises(ValueError, match="diagonal and 2 x 2"):
            steady_state_from_rates(h, short)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.01])
    @pytest.mark.parametrize("which", ["down", "up"])
    def test_bad_rates_rejected(self, which, bad):
        rates = {"down": [0.05, 0.05], "up": [0.01, 0.01]}
        rates[which][1] = bad
        h, table = ladder_table(rates["down"], rates["up"])
        with pytest.raises(ValueError, match="finite and non-negative"):
            steady_state_from_rates(h, table)


class TestTwoLevelRelaxation:
    def test_limits(self):
        gd, gu = 0.03, 0.01
        assert two_level_relaxation(0.7, gd, gu, 0.0) == pytest.approx(0.7)
        late = two_level_relaxation(0.7, gd, gu, 1e6)
        assert late == pytest.approx(gu / (gd + gu), rel=1e-9)

    def test_decay_rate_is_sum(self):
        gd, gu = 0.03, 0.01
        t = np.array([0.0, 10.0, 20.0])
        p = two_level_relaxation(1.0, gd, gu, t)
        p_inf = gu / (gd + gu)
        log_dev = np.log(p - p_inf)
        assert_allclose(np.diff(log_dev), -(gd + gu) * 10.0, rtol=1e-10)
