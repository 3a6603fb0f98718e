import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import minimize_scalar

from qcrsim.constants import H_OVER_KB
from qcrsim.system import TransmonSpec, transmon_energies
from qcrsim.thermometry import (
    T_BOUNDS,
    GibbsFit,
    SaturationFit,
    fit_gibbs,
    fit_saturation,
    gibbs_populations,
    heating_slope,
    is_monotone_thermal,
    normalize_leading,
)


class TestGibbsPopulations:
    def test_matches_boltzmann_weights(self, transmon):
        t = 0.25
        e = transmon_energies(transmon)
        w = np.exp(-H_OVER_KB * e / t)
        assert_allclose(gibbs_populations(t, transmon), w / w.sum(), atol=1e-14)

    def test_idle_ground_population(self, transmon):
        """Four-state-normalized ground weight at the idle temperature."""
        p = normalize_leading(gibbs_populations(0.110, transmon), 4)
        assert p[0] == pytest.approx(0.8289, abs=2e-4)

    def test_heated_ground_population(self, transmon):
        p = normalize_leading(gibbs_populations(0.476, transmon), 4)
        assert p[0] == pytest.approx(0.412, abs=2e-3)

    def test_truncation_renormalizes(self, transmon):
        full = gibbs_populations(0.3, transmon)
        lead = gibbs_populations(0.3, transmon, truncation=4)
        assert lead.shape == (4,)
        assert_allclose(lead, full[:4] / full[:4].sum(), atol=1e-14)
        assert lead.sum() == pytest.approx(1.0)

    def test_cold_limit_is_ground_state(self, transmon):
        p = gibbs_populations(0.001, transmon)
        assert p[0] == pytest.approx(1.0, abs=1e-12)

    def test_monotone_decreasing(self, transmon):
        for t in (0.05, 0.3, 1.0, 5.0):
            assert is_monotone_thermal(gibbs_populations(t, transmon))

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_rejects_nonpositive_temperature(self, transmon, bad):
        with pytest.raises(ValueError):
            gibbs_populations(bad, transmon)

    @pytest.mark.parametrize("bad", [1, 7])
    def test_rejects_bad_truncation(self, transmon, bad):
        with pytest.raises(ValueError):
            gibbs_populations(0.3, transmon, truncation=bad)


def test_normalize_leading():
    p = np.array([0.5, 0.25, 0.15, 0.06, 0.03, 0.01])
    lead = normalize_leading(p, 4)
    assert lead.sum() == pytest.approx(1.0)
    assert_allclose(lead, p[:4] / 0.96)
    with pytest.raises(ValueError):
        normalize_leading(p, 7)


def test_is_monotone_thermal_edges():
    assert is_monotone_thermal([0.5, 0.5])  # ties allowed
    assert is_monotone_thermal([0.6, 0.4, 0.4 - 1e-13])  # within tol
    assert not is_monotone_thermal([0.4, 0.6])


def bounded_search_fit(p, spec):
    """(T, residual function) of the bounded golden-section/parabolic
    search that fit_gibbs used before its Newton solve: the oracle.

    The residual is evaluated with 30 digits.  In double precision, inputs
    such as [1 - 2e-9, 1e-9, 1e-9] leave R with rounding noise of 1e-7 of
    its value, which moves the search's minimum by 1e-6 of T.
    """
    p = np.asarray(p, dtype=float)
    p = p / p.sum()
    e = H_OVER_KB * transmon_energies(spec)[: p.size]

    def residual(t):
        with mpmath.workdps(30):
            w = [mpmath.exp(-mpmath.mpf(e_n) / t) for e_n in e]
            total = sum(w)
            diff = [mpmath.mpf(p_n) - w_n / total for p_n, w_n in zip(p, w)]
            return float(sum(x**2 for x in diff))

    res = minimize_scalar(
        residual, bounds=T_BOUNDS, method="bounded", options={"xatol": 1e-10}
    )
    return float(res.x), residual


@st.composite
def thermal_populations(draw):
    """Non-increasing population vectors of 2 to 6 states: either sorted
    arbitrary weights or a Gibbs vector with relative noise, sorted.

    Entries below 1e-8 of the largest are set to zero.  Below that the
    least-squares T is decided by the rounding of p_0: for p = [1, 1e-14]
    one ulp of p_0 moves the exact minimum by 1.7e-4 of T, so no double
    precision fit can be held to 1e-6 there.
    """
    k = draw(st.integers(min_value=2, max_value=6))
    if draw(st.booleans()):
        weights = np.array(
            draw(
                st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(
                    lambda w: sum(w) > 0
                )
            )
        )
    else:
        t = draw(st.floats(0.01, 3.0))
        noise = draw(st.lists(st.floats(-0.2, 0.2), min_size=k, max_size=k))
        weights = gibbs_populations(t, TransmonSpec(), truncation=k) * (
            1.0 + np.array(noise)
        )
    weights[weights < 1e-8 * weights.max()] = 0.0
    return sorted(weights, reverse=True)


class TestFitGibbs:
    @pytest.mark.parametrize("t_true", [0.05, 0.11, 0.3, 0.476, 1.0])
    def test_round_trip(self, transmon, t_true):
        fit = fit_gibbs(gibbs_populations(t_true, transmon), transmon)
        assert fit.thermal
        assert fit.temperature == pytest.approx(t_true, rel=1e-12)
        assert fit.residual < 1e-15
        assert 0 <= fit.uncertainty < math.inf

    def test_truncated_input_round_trip(self, transmon):
        p4 = gibbs_populations(0.3, transmon, truncation=4)
        fit = fit_gibbs(p4, transmon)
        assert fit.truncation == 4
        assert fit.temperature == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_boundary_inputs_return_the_bounds(self, transmon, k):
        assert fit_gibbs(np.eye(k)[0], transmon).temperature == T_BOUNDS[0]
        assert fit_gibbs(np.full(k, 1.0 / k), transmon).temperature == T_BOUNDS[1]

    @settings(max_examples=200, deadline=None)
    @given(thermal_populations())
    def test_agrees_with_bounded_search(self, p):
        spec = TransmonSpec()
        fit = fit_gibbs(p, spec)
        t_oracle, residual = bounded_search_fit(p, spec)
        assert fit.temperature == pytest.approx(t_oracle, rel=1e-6)
        r_oracle = residual(t_oracle)
        # q_n in double precision carries an absolute error of about eps,
        # which leaves R undetermined at the level (k eps)^2 ~ 1e-30
        assert residual(fit.temperature) <= r_oracle + 1e-30

    def test_uncertainty_is_residual_curvature(self, transmon):
        """sigma^2 = 2 (R/(k-1)) / R''(T), R'' by central difference."""
        p = gibbs_populations(0.2, transmon, truncation=4) * [1.0, 1.02, 0.95, 1.1]
        fit = fit_gibbs(p, transmon)
        _, residual = bounded_search_fit(p, transmon)
        t, h = fit.temperature, 1e-4 * fit.temperature
        r_pp = (residual(t + h) - 2.0 * residual(t) + residual(t - h)) / h**2
        assert fit.uncertainty == pytest.approx(
            math.sqrt(2.0 * fit.residual / 3 / r_pp), rel=1e-6
        )

    @pytest.mark.parametrize(
        "p",
        [[math.nan, 0.1, 0.05, 0.01], [math.inf, 0.1, 0.05, 0.01], [0.5, -math.inf]],
    )
    def test_rejects_non_finite(self, transmon, p):
        bad = next(x for x in p if not math.isfinite(x))
        with pytest.raises(ValueError, match=f"non-finite population {bad}"):
            fit_gibbs(p, transmon)

    def test_non_monotone_flagged(self, transmon):
        fit = fit_gibbs([0.3, 0.5, 0.15, 0.05], transmon)
        assert not fit.thermal
        assert math.isnan(fit.temperature)
        assert math.isnan(fit.uncertainty)

    def test_noisy_populations_recover_within_spread(self, transmon):
        t_true = 0.3
        p_true = gibbs_populations(t_true, transmon)
        errors = []
        n_rejected = 0
        for s in range(50):
            rng = np.random.default_rng(s)
            noisy = np.clip(p_true + rng.normal(0.0, 0.01, p_true.size), 0, None)
            fit = fit_gibbs(noisy, transmon)
            if fit.thermal:
                errors.append(abs(fit.temperature - t_true))
            else:
                n_rejected += 1
        errors = np.array(errors)
        assert errors.size >= 40  # a few draws break monotonicity; that's fine
        assert errors.max() < 0.05
        assert errors.mean() < 0.02

    def test_input_validation(self, transmon):
        with pytest.raises(ValueError):
            fit_gibbs([0.5], transmon)
        with pytest.raises(ValueError):
            fit_gibbs([0.6, 0.5, -0.1], transmon)
        with pytest.raises(ValueError):
            fit_gibbs(np.zeros(4), transmon)


class TestFitSaturation:
    @pytest.mark.parametrize("tau", [185.0, 80.0, 109.0])
    def test_noiseless_round_trip(self, tau):
        t = np.arange(0.0, 1001.0, 10.0)
        y = 0.110 + 0.36 * (1.0 - np.exp(-t / tau))
        fit = fit_saturation(t, y)
        assert not fit.degenerate
        assert fit.t0 == pytest.approx(0.110, rel=1e-6)
        assert fit.amplitude == pytest.approx(0.36, rel=1e-6)
        assert fit.tau == pytest.approx(tau, rel=1e-6)
        assert fit.residual < 1e-20

    def test_value_evaluates_the_model(self):
        fit = SaturationFit(
            t0=0.1, amplitude=0.3, tau=100.0, residual=0.0, degenerate=False
        )
        t = np.array([0.0, 100.0])
        assert_allclose(
            fit.value(t), 0.1 + 0.3 * (1.0 - np.exp(-t / 100.0))
        )

    def test_noisy_round_trip(self):
        rng = np.random.default_rng(42)
        t = np.arange(0.0, 2001.0, 20.0)
        y = 0.110 + 0.36 * (1.0 - np.exp(-t / 109.0))
        fit = fit_saturation(t, y + rng.normal(0.0, 0.002, t.size))
        assert fit.tau == pytest.approx(109.0, rel=0.10)
        assert fit.amplitude == pytest.approx(0.36, rel=0.05)

    def test_constant_data_is_degenerate(self):
        t = np.arange(0.0, 100.0, 10.0)
        fit = fit_saturation(t, np.full(t.size, 0.2))
        assert fit.degenerate
        assert fit.t0 == pytest.approx(0.2)
        assert fit.amplitude == 0.0
        assert math.isnan(fit.tau)

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_saturation([0.0, 1.0, 2.0], [0.1, 0.2, 0.3])

    def test_rejects_non_finite(self):
        t = np.arange(5.0)
        y = np.array([0.1, 0.2, math.nan, 0.3, 0.4])
        with pytest.raises(ValueError):
            fit_saturation(t, y)


class TestHeatingSlope:
    def test_recovers_linear_trend(self):
        v = np.linspace(0.0, 1.2, 25)
        t = 0.11 + 0.36 * np.clip(v - 0.215, 0.0, None)
        slope = heating_slope(v, t)
        assert slope == pytest.approx(0.36, rel=1e-6)

    def test_masks_subgap_points(self):
        v = np.array([0.0, 0.1, 0.3, 0.6, 0.9, 1.2])
        t = np.where(v > 0.215, 0.4 * v, 99.0)  # junk below the gap edge
        assert heating_slope(v, t) == pytest.approx(0.4, rel=1e-9)

    def test_needs_three_points_above_onset(self):
        with pytest.raises(ValueError):
            heating_slope([0.3, 0.4], [0.2, 0.25])
