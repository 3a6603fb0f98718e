import math

import mpmath
import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from qcrsim import qcr
from qcrsim.constants import H_MEV_PER_GHZ, H_OVER_KB, KB_MEV_PER_K
from qcrsim.dynamics import BiasPulse, DensityMatrix, evolve
from qcrsim.qcr import (
    JunctionSpec,
    CouplingSpec,
    dynes_antiderivative,
    dynes_dos,
    effective_temperature,
    purcell_factor,
    transition_rates,
    tunnel_spectral_fn,
)
from qcrsim.system import ResonatorSpec, SystemSpec, TransmonSpec

# High-precision reference values from tests/oracles/tunnel_integrals.py
# (mpmath adaptive quadrature at 30 significant digits).  Keys are the
# photon frequency in GHz (signed: positive = absorption by the bath)
# and the bias in mV.
SPECTRAL_ORACLE = {
    (4.09, 0.0): 4.258355300645085e-4,
    (4.09, 0.6): 2.6893420151018009,
    (4.09, 1.2): 5.5710154603123052,
    (-4.09, 0.0): 5.9809471341996778e-5,
    (-4.09, 0.6): 2.5207615657962756,
    (-4.09, 1.2): 5.4110778290222392,
    (3.817, 0.0): 4.0654627214251962e-4,
    (3.817, 0.6): 2.6837378610388462,
    (3.817, 1.2): 5.5656800713090086,
    (4.09, 10.0): 46.579568661890349,  # Fermi edge beyond 30 Delta
}
# The same oracle for sharp gap edges at t_n = 0.03 K, with a Fermi edge
# near a gap edge.  Keys are gamma_d, the signed photon frequency in GHz
# and the bias in mV.
SHARP_EDGE_ORACLE = {
    (1e-5, 4.09, 0.2): 0.12620593616688521,
    (1e-4, -4.09, 0.23): 0.050290570988093106,
    (1e-5, -1.0, 0.22): 0.10207663516087062,
}


class TestDynesDos:
    def test_zero_energy_value(self, junction):
        g = junction.gamma_d
        expected = g / math.sqrt(1.0 + g * g)
        assert dynes_dos(0.0, g) == pytest.approx(expected, rel=1e-14)

    def test_even_in_energy(self, junction):
        x = np.linspace(0.0, 4.0, 101)
        assert np.array_equal(
            dynes_dos(x, junction.gamma_d), dynes_dos(-x, junction.gamma_d)
        )

    def test_tends_to_unity_far_from_gap(self, junction):
        assert dynes_dos(50.0, junction.gamma_d) == pytest.approx(1.0, abs=1e-3)

    def test_peak_just_outside_gap(self, junction):
        edge = dynes_dos(1.001, junction.gamma_d)
        assert edge > 10.0
        assert np.isfinite(edge)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_gamma_domain(self, bad):
        with pytest.raises(ValueError):
            dynes_dos(0.5, bad)

    def test_against_mpmath_at_a_sharp_edge(self):
        """No cancellation in z^2 - 1 where z = eps + i gamma_d is near 1:
        61 energies within 3e-5 of the edge at gamma_d = 1e-5."""
        gamma_d = 1e-5
        x = 1.0 + np.linspace(-3e-5, 3e-5, 61)
        with mpmath.workdps(40):
            want = [
                float(abs(mpmath.re(z / mpmath.sqrt(z * z - 1))))
                for z in (mpmath.mpc(e, gamma_d) for e in x.tolist())
            ]
        assert_allclose(dynes_dos(x, gamma_d), want, rtol=1e-14, atol=0.0)


class TestDynesAntiderivative:
    @pytest.mark.parametrize("gamma_d", [2.3e-3, 1e-5])
    def test_odd_and_zero_at_zero(self, gamma_d):
        assert dynes_antiderivative(0.0, gamma_d) == 0.0
        x = np.linspace(0.0, 4.0, 401)
        assert np.array_equal(
            dynes_antiderivative(-x, gamma_d), -dynes_antiderivative(x, gamma_d)
        )

    @pytest.mark.parametrize("gamma_d", [2.3e-3, 1e-5])
    @pytest.mark.parametrize("x", [0.3, 0.999, 1.0, 1.001, 3.0, 40.0])
    def test_integrates_the_dos(self, gamma_d, x):
        """N(x) is the integral of n_S from 0, inside, at and outside the
        gap edge."""
        near = 1.0 + gamma_d * np.array([-100.0, -1.0, 0.0, 1.0, 100.0])
        points = [p for p in near if 0.0 < p < x] or None
        integral, _ = quad(
            dynes_dos,
            0.0,
            x,
            args=(gamma_d,),
            points=points,
            epsabs=0.0,
            epsrel=1e-13,
            limit=500,
        )
        assert dynes_antiderivative(x, gamma_d) == pytest.approx(integral, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_gamma_domain(self, bad):
        with pytest.raises(ValueError, match="gamma_d"):
            dynes_antiderivative(0.5, bad)


class TestSpectralFunction:
    @pytest.mark.parametrize(("f_ghz", "v"), sorted(SPECTRAL_ORACLE))
    def test_against_oracle(self, junction, f_ghz, v):
        got = tunnel_spectral_fn(H_MEV_PER_GHZ * f_ghz, v, junction)
        assert got == pytest.approx(SPECTRAL_ORACLE[(f_ghz, v)], rel=2e-14)

    @pytest.mark.parametrize(("gamma_d", "f_ghz", "v"), sorted(SHARP_EDGE_ORACLE))
    def test_sharp_edges_against_oracle(self, gamma_d, f_ghz, v):
        jn = JunctionSpec(gamma_d=gamma_d, t_n=0.03)
        got = tunnel_spectral_fn(H_MEV_PER_GHZ * f_ghz, v, jn)
        assert got == pytest.approx(SHARP_EDGE_ORACLE[(gamma_d, f_ghz, v)], rel=5e-14)

    def test_even_in_bias(self, junction):
        e = H_MEV_PER_GHZ * 4.09
        for v in (0.3, 0.9, 1.2):
            assert tunnel_spectral_fn(e, v, junction) == tunnel_spectral_fn(
                e, -v, junction
            )

    @pytest.mark.parametrize("t_n", [0.03, 0.1, 0.3])
    @pytest.mark.parametrize("f_ghz", [4.09, 3.817, 2.0])
    def test_detailed_balance_at_zero_bias(self, t_n, f_ghz):
        """Emission/absorption ratio at V = 0 is the Boltzmann factor."""
        jn = JunctionSpec(t_n=t_n)
        e = H_MEV_PER_GHZ * f_ghz
        ratio = tunnel_spectral_fn(-e, 0.0, jn) / tunnel_spectral_fn(e, 0.0, jn)
        assert ratio == pytest.approx(
            math.exp(-e / (KB_MEV_PER_K * t_n)), rel=1e-10
        )

    @pytest.mark.parametrize("gamma_d", [1e-5, 1e-4])
    def test_detailed_balance_cold_sharp_junction(self, gamma_d):
        """At 10 mK emission is e^-19.6 of absorption at 4.09 GHz, so the
        Fermi tails must be accurate relative to their size: written as
        (1 - tanh(y/2))/2 they carry eps-sized absolute noise, and the
        integrals hit the panel cap."""
        jn = JunctionSpec(gamma_d=gamma_d, t_n=0.01)
        e = H_MEV_PER_GHZ * 4.09
        ratio = tunnel_spectral_fn(-e, 0.0, jn) / tunnel_spectral_fn(e, 0.0, jn)
        assert ratio == pytest.approx(math.exp(-e / (KB_MEV_PER_K * 0.01)), rel=1e-10)

    def test_monotone_in_energy(self, junction):
        energies = np.linspace(-0.05, 0.05, 21)
        for v in (0.0, 0.6, 1.2):
            f = [tunnel_spectral_fn(e, v, junction) for e in energies]
            assert np.all(np.diff(f) > 0)

    def test_ohmic_slope_at_large_bias(self, junction):
        """Far beyond the gap each extra mV adds (1 mV)/Delta to F: the
        window follows the Fermi edge instead of cutting it off."""
        e = H_MEV_PER_GHZ * 4.09
        step = tunnel_spectral_fn(e, 10.0, junction) - tunnel_spectral_fn(
            e, 9.0, junction
        )
        assert step == pytest.approx(1.0 / junction.delta, rel=1e-3)

    def test_array_of_energies(self, junction):
        e = H_MEV_PER_GHZ * np.array([[4.09, -4.09], [3.817, 0.0]])
        out = tunnel_spectral_fn(e, 0.6, junction)
        assert out.shape == (2, 2)
        assert isinstance(tunnel_spectral_fn(float(e[0, 0]), 0.6, junction), float)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, junction, bad):
        with pytest.raises(ValueError, match=f"photon energy e .*{bad}"):
            tunnel_spectral_fn(bad, 0.6, junction)
        with pytest.raises(ValueError, match=f"photon energy e .*{bad}"):
            tunnel_spectral_fn(np.array([0.01, bad]), 0.6, junction)
        with pytest.raises(ValueError, match=f"bias v .*{bad}"):
            tunnel_spectral_fn(0.01, bad, junction)


def _fermi_scalar(y):
    if y > 700.0:
        return 0.0
    if y < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(y))


def _dynes_scalar(x, gamma_d):
    z = complex(x, gamma_d)
    return abs((z / (z * z - 1.0) ** 0.5).real)


# Window of the quad reference beyond the furthest Fermi edge, in units
# of the gap.
QUAD_HALFWIDTH = 30.0


def quad_spectral_fn(e, v, junction):
    """F(E, V) by scipy.integrate.quad on the three-factor definition,
    n_S(eps) f(eps - tau eV - E) [1 - f(eps)], independent of the
    antiderivative form the package integrates, with the window reaching
    QUAD_HALFWIDTH beyond both Fermi edges.

    quad also gets breakpoints 36 kT either side of each Fermi edge:
    without them it misses thermal tails at t_n = 0.03 K by up to 1.7e-9
    relative (checked against mpmath), even at epsrel = 1e-12.  Points
    closer than 1e-12 are merged, since quad mis-integrates panels of
    length ~1e-15 (V = 2e-16 mV gave an error of 8e-7).  Near sharp gap
    edges quad may warn of roundoff; its value still agrees to 1e-9.
    """
    delta = junction.delta
    beta = delta / (KB_MEV_PER_K * junction.t_n)
    u, w = abs(v) / delta, e / delta

    def integrand(x):
        return (
            _dynes_scalar(x, junction.gamma_d)
            * (_fermi_scalar(beta * (x - u - w)) + _fermi_scalar(beta * (x + u - w)))
            * (1.0 - _fermi_scalar(beta * x))
        )

    lim = QUAD_HALFWIDTH + u + abs(w)
    edges = (u + w, -u + w, 0.0)
    points = {-1.0, 1.0, *edges} | {p + s * 36.0 / beta for p in edges for s in (-1, 1)}
    points = {round(p, 12) for p in points}
    value, _ = quad(
        integrand,
        -lim,
        lim,
        points=sorted(p for p in points if -lim < p < lim),
        epsabs=0.0,
        epsrel=1e-10,
        limit=400,
    )
    return value


class TestThermalKernel:
    """The kernel of the integral centres on s = (E +- eV)/Delta."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        ("gaps", "kts"),
        [(0.0, 0.0), (1e-12, 0.0), (-1e-12, 0.0), (0.0, 1e-3), (0.0, -1e-3)],
    )
    def test_continuous_through_the_kernel_centre(self, junction, sign, gaps, kts):
        # E = +-eV + gaps Delta + kts kT, so s = 0 and |s| = 1e-12, 1e-3 kT
        kt = KB_MEV_PER_K * junction.t_n
        e = sign * 0.6 + gaps * junction.delta + kts * kt
        assert tunnel_spectral_fn(e, 0.6, junction) == pytest.approx(
            quad_spectral_fn(e, 0.6, junction), rel=1e-10
        )

    def test_cold_sharp_junction_far_beyond_the_gap(self):
        """At 10 mK, gamma_d = 1e-5 and 10 mV the kernel's exponents
        reach about 1e4: no overflow, no NaN, and quad's value."""
        jn = JunctionSpec(gamma_d=1e-5, t_n=0.01)
        e = H_MEV_PER_GHZ * np.array([4.09, -4.09, 0.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = tunnel_spectral_fn(e, 10.0, jn)
            idle = tunnel_spectral_fn(e, 0.0, jn)
        assert np.all(np.isfinite(idle)) and np.all(idle > 0)
        assert_allclose(got, [quad_spectral_fn(x, 10.0, jn) for x in e], rtol=1e-9)


class TestGaussKronrod:
    def test_rules_exact_on_monomials(self):
        # K15 integrates x^n exactly up to n = 22, G7 up to n = 13
        for n in range(23):
            exact = 2.0 / (n + 1) if n % 2 == 0 else 0.0
            kronrod = (qcr._GK_WK * qcr._GK_X**n).sum()
            assert kronrod == pytest.approx(exact, abs=1e-15), n
            if n <= 13:
                gauss = (qcr._GK_WG * qcr._GK_X**n).sum()
                assert gauss == pytest.approx(exact, abs=1e-15), n
        assert (qcr._GK_WG * qcr._GK_X**14).sum() != pytest.approx(2 / 15, abs=1e-6)

    def test_spectral_batch_equals_alone(self):
        jn = JunctionSpec(gamma_d=1e-4, t_n=0.03)
        e = H_MEV_PER_GHZ * np.array([4.09, -4.09, 8.0, -1.0, 3.817, 0.0])
        for v in (0.0, 0.2, 0.23, 1.2, 10.0):
            batch = tunnel_spectral_fn(e, v, jn)
            alone = [tunnel_spectral_fn(float(x), v, jn) for x in e]
            assert np.array_equal(batch, alone)
            assert np.array_equal(batch[::-1], tunnel_spectral_fn(e[::-1], v, jn))

    @pytest.mark.parametrize("v", [0.0, 0.6, 1.2])
    def test_rate_table_takes_few_rounds(
        self, monkeypatch, spectral_calls, system, junction, coupling, v
    ):
        # the starting knots graded toward the gap edge and the kernel's
        # peak resolve both in the first round
        rounds = []
        antiderivative = qcr.dynes_antiderivative

        def counted(x, gamma_d):
            rounds.append(x.shape[0])
            return antiderivative(x, gamma_d)

        monkeypatch.setattr(qcr, "dynes_antiderivative", counted)
        transition_rates(system, junction, coupling, v)
        assert len(spectral_calls) == 10
        assert 1 <= len(rounds) <= 2

    def test_panel_cap_raises_before_evaluating(self, monkeypatch, junction):
        def no_evaluation(*args):
            raise AssertionError("integrand evaluated past the panel cap")

        monkeypatch.setattr(qcr, "QUAD_LIMIT", 2)
        monkeypatch.setattr(qcr, "dynes_antiderivative", no_evaluation)
        with pytest.raises(RuntimeError, match=r"E = .* meV, V = 0\.6 mV"):
            tunnel_spectral_fn(H_MEV_PER_GHZ * np.full(1000, 4.09), 0.6, junction)

    def test_panel_cap_stops_refinement(self, monkeypatch, junction):
        # the 21 starting panels of each term fit, the refinement one of
        # them needs does not
        evaluations = []
        antiderivative = qcr.dynes_antiderivative

        def counted(x, gamma_d):
            evaluations.append(x.size)
            return antiderivative(x, gamma_d)

        monkeypatch.setattr(qcr, "QUAD_LIMIT", 21)
        monkeypatch.setattr(qcr, "dynes_antiderivative", counted)
        with pytest.raises(
            RuntimeError, match=r"E = .* meV, V = 0\.3 mV needs more than 21"
        ):
            tunnel_spectral_fn(H_MEV_PER_GHZ * 4.09, 0.3, junction)
        assert evaluations

    @pytest.mark.parametrize(
        ("t_n", "gamma_d", "f_ghz", "v"),
        [
            # a 1/(36 kT)-wide Fermi step ending a 30 Delta panel: without
            # the starting points 36 kT either side it was missed, 6e-4 off
            (0.01, 2.3e-3, 4.09, 1.0),
            (0.01, 2.3e-3, 4.09, 3.0),
            # a Fermi edge just inside a sharp gap edge: bisecting every
            # panel whose error exceeds its length share of the tolerance
            # split roundoff noise there until the panel cap
            (0.03, 1e-5, -1.0, 0.22),
            (0.03, 1e-5, 4.09, 0.2),
            (0.03, 1e-4, -4.09, 0.23),
        ],
    )
    def test_hard_inputs_agree_with_quad(self, t_n, gamma_d, f_ghz, v):
        jn = JunctionSpec(gamma_d=gamma_d, t_n=t_n)
        e = H_MEV_PER_GHZ * f_ghz
        assert tunnel_spectral_fn(e, v, jn) == pytest.approx(
            quad_spectral_fn(e, v, jn), rel=1e-9
        )

    @settings(max_examples=60, deadline=None)
    @given(
        t_n=st.floats(0.03, 0.3),
        gamma_d=st.floats(1e-4, 0.1),
        f_ghz=st.floats(1.0, 8.0),
        sign=st.sampled_from([1.0, -1.0]),
        v=st.floats(0.0, 3.0),
    )
    def test_agrees_with_quad(self, t_n, gamma_d, f_ghz, sign, v):
        jn = JunctionSpec(gamma_d=gamma_d, t_n=t_n)
        e = sign * H_MEV_PER_GHZ * f_ghz
        assert tunnel_spectral_fn(e, v, jn) == pytest.approx(
            quad_spectral_fn(e, v, jn), rel=1e-9
        )


class TestJunctionValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": -0.215},
            {"gamma_d": 0.0},
            {"gamma_d": 1.0},
            {"t_n": -0.1},
            {"t_n": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            JunctionSpec(**kwargs)

    def test_coupling_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            CouplingSpec(kappa_eff=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["delta", "gamma_d", "t_n"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            JunctionSpec(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_coupling_rejects_non_finite_kappa(self, value):
        with pytest.raises(ValueError, match="kappa_eff"):
            CouplingSpec(kappa_eff=value)


def test_purcell_factor_value(system):
    g1 = system.reset_resonator.g
    detuning = system.transmon.omega_ge - system.reset_resonator.omega
    assert purcell_factor(system, system.transmon.omega_ge) == pytest.approx(
        g1**2 / detuning**2, rel=1e-14
    )
    with pytest.raises(ZeroDivisionError):
        purcell_factor(system, system.reset_resonator.omega)


class TestTransitionRates:
    def test_composition(self, system, junction, coupling):
        """Each ladder rate is kappa * (m+1) * filter * spectral weight."""
        v = 0.8
        table = transition_rates(system, junction, coupling, v)
        assert table.omegas.shape == (system.transmon.n_levels - 1,)
        for m, omega in enumerate(table.omegas):
            e = H_MEV_PER_GHZ * omega
            base = coupling.kappa_eff * (m + 1) * purcell_factor(system, omega)
            assert table.gamma_down[m] == pytest.approx(
                base * tunnel_spectral_fn(e, v, junction), rel=1e-12
            )
            assert table.gamma_up[m] == pytest.approx(
                base * tunnel_spectral_fn(-e, v, junction), rel=1e-12
            )

    def test_filter_can_be_disabled(self, system, junction):
        plain = CouplingSpec(purcell_filter=False)
        table = transition_rates(system, junction, plain, 0.8)
        e = H_MEV_PER_GHZ * table.omegas[0]
        assert table.gamma_down[0] == pytest.approx(
            plain.kappa_eff * tunnel_spectral_fn(e, 0.8, junction), rel=1e-12
        )

    def test_idle_thermalizes_to_bath_temperature(
        self, system, junction, coupling
    ):
        table = transition_rates(system, junction, coupling, 0.0)
        assert_allclose(
            table.effective_temperatures(),
            junction.t_n,
            rtol=1e-9,
        )

    def test_bias_heats_all_transitions(self, system, junction, coupling):
        table = transition_rates(system, junction, coupling, 1.2)
        temps = table.effective_temperatures()
        assert np.all(temps > 5.0)
        # nearly ladder-independent for this junction
        assert np.ptp(temps) / temps.mean() < 0.01

    def test_even_in_bias(self, system, junction, coupling):
        """A table at -V equals the table at +V bit for bit."""
        for v in (0.19, 1.2):
            plus = transition_rates(system, junction, coupling, v)
            minus = transition_rates(system, junction, coupling, -v)
            assert minus.v == plus.v == v
            assert np.array_equal(minus.gamma_down, plus.gamma_down)
            assert np.array_equal(minus.gamma_up, plus.gamma_up)

    def test_rejects_non_dispersive_system(self, junction, coupling):
        """A reset resonator near the 1-2 transition has no dispersive
        Purcell factor: rates and evolution both refuse it by name
        instead of integrating rates of order 1e27 /ns."""
        near = SystemSpec(reset_resonator=ResonatorSpec(omega=3.817, g=0.01))
        with pytest.raises(ValueError, match="not dispersively coupled"):
            transition_rates(near, junction, coupling, 0.5)
        rho0 = DensityMatrix.gibbs(0.11, near.transmon)
        pulse = BiasPulse(amplitude=1.2, duration=10.0)
        with pytest.raises(ValueError, match="not dispersively coupled"):
            evolve(rho0, near, junction, coupling, pulse)


class TestRateCache:
    """transition_rates keeps no rate cache: every call integrates its
    own rows and returns arrays no other table shares."""

    def test_new_specs_compute_new_integrals(
        self, spectral_calls, system, junction, coupling
    ):
        transition_rates(system, junction, coupling, 0.8)
        transition_rates(system, replace(junction, t_n=0.2), coupling, 0.8)
        assert len(spectral_calls) == 20
        three_levels = SystemSpec(transmon=TransmonSpec(n_levels=3))
        transition_rates(three_levels, junction, coupling, 0.8)
        assert len(spectral_calls) == 24
        transition_rates(system, junction, coupling, 0.81)
        assert len(spectral_calls) == 34

    def test_returned_arrays_are_fresh(
        self, spectral_calls, system, junction, coupling
    ):
        first = transition_rates(system, junction, coupling, 0.8)
        want_down, want_up = first.gamma_down.copy(), first.gamma_up.copy()
        first.gamma_down[:] = -1.0
        first.gamma_up[0] = 0.0
        again = transition_rates(system, junction, coupling, 0.8)
        assert np.array_equal(again.gamma_down, want_down)
        assert np.array_equal(again.gamma_up, want_up)


class TestEffectiveTemperature:
    def test_matches_rate_ratio(self):
        omega, t = 4.09, 0.37
        ratio = math.exp(-H_OVER_KB * omega / t)
        assert effective_temperature(1.0, ratio, omega) == pytest.approx(
            t, rel=1e-12
        )

    def test_equal_rates_is_infinite(self):
        assert math.isinf(effective_temperature(0.5, 0.5, 4.09))

    def test_inverted_rates_are_negative(self):
        assert effective_temperature(0.1, 0.2, 4.09) < 0

    def test_pure_decay_is_zero(self):
        assert effective_temperature(0.5, 0.0, 4.09) == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        ("name", "args"),
        [
            ("gamma_down", lambda x: (x, 1.0, 4.0)),
            ("gamma_up", lambda x: (1.0, x, 4.0)),
            ("omega", lambda x: (1.0, 0.5, x)),
        ],
    )
    def test_rejects_non_finite(self, name, args, bad):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
            effective_temperature(*args(bad))
