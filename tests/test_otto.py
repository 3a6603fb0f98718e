import math

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from qcrsim import otto
from qcrsim.otto import (
    LIMIT_CYCLE_TOL,
    OttoSpec,
    frequency_efficiency,
    run_cycle,
)
from qcrsim.dynamics import (
    evolve_constant,
    steady_state_from_rates,
    two_level_relaxation,
)
from qcrsim.qcr import transition_rates
from qcrsim.system import SystemSpec, TransmonSpec, transmon_energies


def two_level_system():
    return SystemSpec(transmon=TransmonSpec(n_levels=2))


def adaptive_isochore(system, junction, coupling, spec):
    """Long enough for complete thermalization on both strokes."""
    slowest = np.inf
    for v in (spec.v_hot, spec.v_cold):
        table = transition_rates(system, junction, coupling, v)
        slowest = min(slowest, float(table.gamma_down[0] + table.gamma_up[0]))
    return float(np.ceil(8.0 / slowest / 100.0) * 100.0)


class TestOttoSpec:
    def test_defaults_are_consistent(self):
        spec = OttoSpec()
        assert spec.omega_min < spec.omega_max
        assert 0 < frequency_efficiency(spec) < 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega_min": 4.09, "omega_max": 4.09},
            {"omega_min": -1.0},
            {"t_isochore": 0.0},
            {"n_cycles": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            OttoSpec(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["omega_max", "omega_min", "v_hot", "v_cold", "t_isochore"]
    )
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            OttoSpec(**{name: value})


def test_frequency_efficiency_value():
    spec = OttoSpec(omega_max=4.09, omega_min=3.0)
    assert frequency_efficiency(spec) == pytest.approx(1.0 - 3.0 / 4.09)


class TestBiasWindows:
    def test_hot_stroke_must_heat(self, system, junction, coupling):
        spec = OttoSpec(v_hot=0.1)  # below the gap: not a hot bath
        with pytest.raises(ValueError, match="v_hot"):
            run_cycle(spec, system, junction, coupling)

    def test_cold_stroke_must_cool(self, system, junction, coupling):
        spec = OttoSpec(v_cold=0.5)  # above the gap: heats instead
        with pytest.raises(ValueError, match="v_cold"):
            run_cycle(spec, system, junction, coupling)


@pytest.fixture(scope="module")
def result(system, junction, coupling):
    return run_cycle(OttoSpec(n_cycles=4), system, junction, coupling)


class TestSixLevelEngine:

    def test_first_law_closes_each_cycle(self, result):
        balance = result.q_hot + result.q_cold - result.work - result.d_energy
        assert np.abs(balance).max() < 1e-10

    def test_reaches_limit_cycle(self, result):
        assert result.limit_cycle_reached
        assert result.limit_cycle_at == 1
        assert result.cycle_distance[-1] < 1e-6
        assert abs(result.d_energy[-1]) < 1e-9

    def test_engine_produces_work_from_hot_bath(self, result):
        assert result.work[-1] > 0
        assert result.q_hot[-1] > 0
        assert result.q_cold[-1] < 0

    def test_bath_temperatures(self, result, junction):
        assert result.t_hot > 5.0  # far above the gap: strongly heated
        assert result.t_cold < junction.t_n  # refrigeration below the bath

    def test_efficiency_bounded_by_carnot(self, result):
        assert 0 < result.eta_limit < result.eta_carnot

    def test_anharmonic_medium_beats_frequency_ratio(self, result):
        """With a negative-anharmonicity ladder the hot stroke absorbs
        extra heat in the alpha term, so eta settles slightly above
        1 - omega_min/omega_max instead of approaching it from below."""
        assert result.eta_limit > result.eta_frequency
        assert result.eta_limit == pytest.approx(
            result.eta_frequency, abs=0.06
        )


def test_two_level_limit_hits_frequency_efficiency(
    junction, coupling
):
    system = two_level_system()
    spec = OttoSpec(n_cycles=4)
    spec = replace(
        spec,
        t_isochore=adaptive_isochore(system, junction, coupling, spec),
    )
    result = run_cycle(spec, system, junction, coupling)
    assert result.limit_cycle_reached
    assert result.work[-1] > 0
    assert result.eta_limit == pytest.approx(
        result.eta_frequency, rel=1e-9
    )


def test_two_level_isochores_match_closed_form(junction, coupling):
    """Each isochore is one exact step, so a qubit medium follows the
    closed-form relaxation from the cold steady state, for any t_isochore."""
    system = two_level_system()
    spec = OttoSpec(t_isochore=1001.0, n_cycles=2)
    result = run_cycle(spec, system, junction, coupling)

    def relax(p, omega, v):
        medium = replace(system, transmon=replace(system.transmon, omega_ge=omega))
        table = transition_rates(medium, junction, coupling, v)
        gd, gu = table.gamma_down[0], table.gamma_up[0]
        return two_level_relaxation(p, gd, gu, spec.t_isochore), gu / (gd + gu)

    _, p = relax(0.0, spec.omega_min, spec.v_cold)  # cold steady state
    for c in range(spec.n_cycles):
        p_hot, _ = relax(p, spec.omega_max, spec.v_hot)
        p_cold, _ = relax(p_hot, spec.omega_min, spec.v_cold)
        q_hot = (p_hot - p) * spec.omega_max
        q_cold = (p_cold - p_hot) * spec.omega_min
        assert result.q_hot[c] == pytest.approx(q_hot, rel=1e-10)
        assert result.q_cold[c] == pytest.approx(q_cold, rel=1e-10)
        p = p_cold
    assert_allclose(result.final_populations, [1.0 - p, p], rtol=1e-12)
    balance = result.q_hot + result.q_cold - result.work - result.d_energy
    assert np.abs(balance).max() < 1e-12 * np.abs(result.q_hot).max()


@pytest.mark.parametrize("t_isochore", [1e-9, 1e-3, 1.0, 200.0, 2e4, 1e9])
def test_two_level_limit_is_frequency_efficiency_at_any_contact_time(
    t_isochore, junction, coupling
):
    """A qubit's limit cycle moves one population between the strokes, so
    its efficiency is 1 - omega_min/omega_max whatever t_isochore; short
    isochores leave maps within 1e-12 of I, where a naive P - I cancels."""
    spec = OttoSpec(t_isochore=t_isochore, n_cycles=1)
    result = run_cycle(spec, two_level_system(), junction, coupling)
    assert result.eta_limit == pytest.approx(frequency_efficiency(spec), rel=1e-10)


def test_eta_limit_is_the_limit_of_iterated_cycles(system, junction, coupling):
    """At 200 ns the medium is 16 cycles from its limit cycle: eta_limit
    is that cycle's efficiency, not the last one run."""
    short = run_cycle(OttoSpec(t_isochore=200.0), system, junction, coupling)
    long = run_cycle(
        OttoSpec(t_isochore=200.0, n_cycles=400), system, junction, coupling
    )
    assert long.limit_cycle_reached
    assert short.eta_limit == pytest.approx(long.eta[-1], abs=1e-10)
    assert short.eta_limit == long.eta_limit
    assert not short.limit_cycle_reached and short.limit_cycle_at is None
    assert short.eta[-1] < 0.1


def test_slow_map_is_not_a_limit_cycle(system, junction, coupling):
    """At 1e-9 ns consecutive cycles differ by 1.5e-11 but sit far from
    the fixed point, so the limit cycle is not reached."""
    result = run_cycle(OttoSpec(t_isochore=1e-9), system, junction, coupling)
    assert np.all(result.cycle_distance < LIMIT_CYCLE_TOL)
    assert not result.limit_cycle_reached
    assert result.limit_cycle_at is None
    assert result.eta_limit == pytest.approx(0.30615, abs=1e-5)
    assert abs(result.eta[-1]) < 1e-3


def reference_ledger(spec, system, junction, coupling):
    """Q_h, Q_c, W and eta per cycle with every isochore one public
    ``evolve_constant`` step on the full density matrix."""
    strokes = []
    for omega, v in ((spec.omega_max, spec.v_hot), (spec.omega_min, spec.v_cold)):
        medium = replace(system, transmon=replace(system.transmon, omega_ge=omega))
        energies = transmon_energies(medium.transmon)
        table = transition_rates(medium, junction, coupling, v)
        strokes.append((energies, np.diag(energies), table))
    (e_hot, h_hot, hot), (e_cold, h_cold, cold) = strokes
    t = spec.t_isochore
    rho = steady_state_from_rates(h_cold, cold)
    rows = []
    for _ in range(spec.n_cycles):
        heated = evolve_constant(rho, h_hot, hot, dt=t, t_end=t).final
        cooled = evolve_constant(heated, h_cold, cold, dt=t, t_end=t).final
        p_a, p_b, p_c = (s.populations() for s in (rho, heated, cooled))
        q_hot = p_b @ e_hot - p_a @ e_hot
        work = (p_b @ e_hot - p_b @ e_cold) - (p_c @ e_hot - p_c @ e_cold)
        rows.append([q_hot, p_c @ e_cold - p_b @ e_cold, work, work / q_hot])
        rho = cooled
    return np.array(rows), rho.populations()


@pytest.mark.parametrize("t_isochore", [20000.0, 1001.0])
def test_ledger_matches_density_matrix_isochores(
    t_isochore, system, junction, coupling
):
    spec = OttoSpec(t_isochore=t_isochore)
    result = run_cycle(spec, system, junction, coupling)
    rows, final = reference_ledger(spec, system, junction, coupling)
    ledger = np.column_stack([result.q_hot, result.q_cold, result.work, result.eta])
    assert_allclose(ledger, rows, rtol=1e-13)
    assert_allclose(result.final_populations, final, rtol=1e-13)


def test_deeper_compression_raises_efficiency(system, junction, coupling):
    shallow = run_cycle(
        OttoSpec(omega_min=3.5, n_cycles=3), system, junction, coupling
    )
    deep = run_cycle(
        OttoSpec(omega_min=3.0, n_cycles=3), system, junction, coupling
    )
    assert deep.eta_limit > shallow.eta_limit


def test_cycle_runs_are_deterministic(system, junction, coupling):
    spec = OttoSpec(n_cycles=2)
    a = run_cycle(spec, system, junction, coupling)
    b = run_cycle(spec, system, junction, coupling)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.final_populations, b.final_populations)


def test_cycle_computes_each_bath_once(
    monkeypatch, spectral_calls, system, junction, coupling
):
    """The cycle builds 2 rate tables, one per bath (v_hot and v_cold),
    and reuses them on every isochore: 2 tables x 5 transitions x 2 signs
    of tunnelling integrals."""
    tables = []

    def counted(*args):
        tables.append(args[-1])
        return transition_rates(*args)

    monkeypatch.setattr(otto, "transition_rates", counted)
    spec = OttoSpec()
    run_cycle(spec, system, junction, coupling)
    assert tables == [spec.v_hot, spec.v_cold]
    assert len(spectral_calls) == 20
    assert {v for _, v, _ in spectral_calls} == {spec.v_hot, spec.v_cold}
