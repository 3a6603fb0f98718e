import math
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import least_squares, minimize_scalar

from qcrsim import thermometry
from qcrsim.cli import main
from qcrsim.constants import H_OVER_KB
from qcrsim.system import TransmonSpec, transmon_energies
from qcrsim.thermometry import (
    T_BOUNDS,
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

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, math.inf])
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_normalize_leading_rejects_non_finite(bad):
    with pytest.raises(ValueError, match=f"populations p must be finite, got {bad}"):
        normalize_leading([bad, 1.0, 1.0, 1.0], 4)
    with pytest.raises(ValueError, match="populations p"):
        normalize_leading([[0.5, 0.3, 0.1, 0.1], [0.5, bad, 0.1, 0.1]], 4)


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
def thermal_populations(draw, k=None):
    """Non-increasing population vectors of k states (k drawn from 2 to 6
    when not given): either sorted arbitrary weights or a Gibbs vector
    with relative noise, sorted.

    Entries below 1e-8 of the largest are set to zero.  Below that the
    least-squares T is decided by the rounding of p_0: for p = [1, 1e-14]
    one ulp of p_0 moves the exact minimum by 1.7e-4 of T, so no double
    precision fit can be held to 1e-6 there.
    """
    if k is None:
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


def assert_rows_agree_with_single_fits(table, spec):
    """Every row of the batched fit of ``table`` agrees with the fit of
    that row alone: thermal flags, truncations and NaN pattern exactly,
    T, uncertainty and residual within 1e-13 relative (the batched
    products may round differently in the last bits)."""
    fit = fit_gibbs(table, spec)
    for i, row in enumerate(table):
        alone = fit_gibbs(row, spec)
        assert fit.thermal[i] == alone.thermal, (i, row)
        assert fit.truncation[i] == alone.truncation, (i, row)
        for name in ("temperature", "uncertainty", "residual"):
            got, want = getattr(fit, name)[i], getattr(alone, name)
            assert_allclose(got, want, rtol=1e-13, err_msg=f"{name} of row {i}")


@st.composite
def population_tables(draw):
    """(n, k) tables, k = 2 to 6, whose rows mix thermal vectors, rows
    in any order (mostly non-monotone), the boundary rows e_0 and
    uniform, and sorted rows with a zero tail."""
    k = draw(st.integers(min_value=2, max_value=6))
    weights = st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k).filter(
        lambda w: sum(w) > 0
    )
    zero_tail = st.tuples(weights, st.integers(1, k - 1)).map(
        lambda wz: sorted(wz[0], reverse=True)[: k - wz[1]] + [0.0] * wz[1]
    ).filter(lambda w: sum(w) > 0)
    row = st.one_of(
        thermal_populations(k),
        weights,
        st.just(list(np.eye(k)[0])),
        st.just([1.0 / k] * k),
        zero_tail,
    )
    return np.array(draw(st.lists(row, min_size=1, max_size=8)), dtype=float)


class TestBatchFit:
    def test_fig4b_rows_agree_with_single_fits(self, transmon, tmp_path):
        assert main(["pipeline", "fig4b", "--outdir", str(tmp_path)]) == 0
        table = np.vstack(
            [
                np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
                for path in sorted(tmp_path.glob("temps_*.csv"))
            ]
        )
        assert table.shape == (363, 4)
        assert_rows_agree_with_single_fits(table, transmon)

    @settings(max_examples=150, deadline=None)
    @given(population_tables())
    @example(np.array([[1.0, 5e-324]]))
    def test_mixed_table_rows_agree_with_single_fits(self, table):
        assert_rows_agree_with_single_fits(table, TransmonSpec())

    def test_row_fit_returns_python_scalars(self, transmon):
        fit = fit_gibbs(gibbs_populations(0.2, transmon, truncation=4), transmon)
        assert type(fit.temperature) is float and type(fit.uncertainty) is float
        assert type(fit.residual) is float and type(fit.truncation) is int
        assert fit.thermal is True

    def test_table_fit_returns_arrays(self, transmon):
        table = np.array([[0.3, 0.5, 0.15, 0.05], [0.7, 0.2, 0.07, 0.03]])
        fit = fit_gibbs(table, transmon)
        for value in astuple(fit):
            assert isinstance(value, np.ndarray) and value.shape == (2,)
        assert fit.thermal.tolist() == [False, True]
        assert fit.truncation.tolist() == [4, 4]
        assert math.isnan(fit.temperature[0]) and fit.temperature[1] > 0

    def test_empty_table_gives_empty_arrays(self, transmon):
        fit = fit_gibbs(np.empty((0, 4)), transmon)
        for value in astuple(fit):
            assert isinstance(value, np.ndarray) and value.shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 1), (3, 7), (2, 2, 4), ()])
    def test_rejects_bad_shapes(self, transmon, shape):
        with pytest.raises(ValueError, match="populations"):
            fit_gibbs(np.full(shape, 0.25), transmon)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([math.nan, 0.1, 0.05, 0.01], "non-finite population nan in row 1"),
            ([0.5, 0.3, -0.2, 0.0], "negative population -0.2 in row 1"),
            ([0.0, 0.0, 0.0, 0.0], "populations sum to zero in row 1"),
        ],
    )
    def test_bad_row_is_named(self, transmon, bad, message):
        good = [0.8, 0.15, 0.04, 0.01]
        with pytest.raises(ValueError, match=message):
            fit_gibbs(np.array([good, bad, good]), transmon)

    def test_non_convergence_names_the_row(self, transmon, monkeypatch):
        # uniform rows return the bound without a Newton step; row 1 needs
        # more than one
        monkeypatch.setattr(thermometry, "GIBBS_MAX_ITER", 1)
        table = np.array([[0.25] * 4, [0.7, 0.2, 0.07, 0.03], [0.25] * 4])
        with pytest.raises(RuntimeError, match="did not converge .* in row 1"):
            fit_gibbs(table, transmon)


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
        k = len(p)
        # the row alone and as the middle row of a table
        table = np.array([np.eye(k)[0], p, np.full(k, 1.0 / k)])
        t_table = fit_gibbs(table, spec).temperature[1]
        fit = fit_gibbs(p, spec)
        t_oracle, residual = bounded_search_fit(p, spec)
        r_oracle = residual(t_oracle)
        for t in (fit.temperature, t_table):
            assert t == pytest.approx(t_oracle, rel=1e-6)
            # q_n in double precision carries an absolute error of about
            # eps, which leaves R undetermined at the level (k eps)^2 ~ 1e-30
            assert residual(t) <= r_oracle + 1e-30

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


def least_squares_saturation(t, y):
    """Reference fit: bounded nonlinear least squares over (t0, a, tau),
    multi-started in tau, the best converged run kept."""
    best = None
    for tau0 in (25.0, 50.0, 100.0, 200.0, 400.0):
        sol = least_squares(
            lambda p: p[0] + p[1] * (1.0 - np.exp(-t / p[2])) - y,
            x0=[max(y[0], 1e-3), y[-1] - y[0], tau0],
            bounds=([1e-9, -np.inf, 1e-9], [np.inf, np.inf, np.inf]),
            xtol=1e-14,
            ftol=1e-14,
            gtol=1e-14,
        )
        if sol.status > 0 and (best is None or sol.cost < best.cost):
            best = sol
    return best


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

    @pytest.mark.parametrize("tau", [40.0, 109.0, 185.0, 300.0])
    @pytest.mark.parametrize("n", [13, 61])
    def test_agrees_with_least_squares(self, tau, n):
        rng = np.random.default_rng(int(tau) + n)
        t = np.linspace(0.0, 600.0, n)
        y = 0.110 + 0.36 * (1.0 - np.exp(-t / tau)) + rng.normal(0.0, 0.003, n)
        fit = fit_saturation(t, y)
        ref = least_squares_saturation(t, y)
        assert not fit.degenerate
        assert_allclose([fit.t0, fit.amplitude, fit.tau], ref.x, rtol=1e-6)
        assert fit.residual == pytest.approx(2.0 * ref.cost, rel=1e-9)

    def test_straight_line_is_degenerate(self):
        t = np.linspace(0.0, 600.0, 13)
        fit = fit_saturation(t, 0.11 + 0.004 * t)
        assert fit.degenerate
        assert math.isnan(fit.tau) and math.isnan(fit.amplitude)
        assert fit.t0 == pytest.approx(0.11, rel=1e-12)
        assert fit.residual < 1e-25

    def test_step_before_second_sample_is_degenerate(self):
        t = np.linspace(0.0, 600.0, 13)
        y = np.where(t > 0.0, 0.47, 0.11)
        fit = fit_saturation(t, y)
        assert fit.degenerate
        assert math.isnan(fit.tau)
        assert fit.t0 == pytest.approx(0.11, rel=1e-12)
        assert fit.amplitude == pytest.approx(0.36, rel=1e-12)

    def test_shifted_time_origin(self):
        t = np.linspace(-100.0, 500.0, 25)
        y = 0.110 + 0.36 * (1.0 - np.exp(-t / 109.0))
        fit = fit_saturation(t, y)
        assert_allclose(
            [fit.t0, fit.amplitude, fit.tau], [0.110, 0.36, 109.0], rtol=1e-9
        )

    def test_rejects_equal_times(self):
        with pytest.raises(ValueError, match="equal"):
            fit_saturation(np.full(5, 3.0), np.arange(5.0))

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
        slope = heating_slope(v, t, v_min=0.215)
        assert slope == pytest.approx(0.36, rel=1e-6)

    def test_masks_subgap_points(self):
        v = np.array([0.0, 0.1, 0.3, 0.6, 0.9, 1.2])
        t = np.where(v > 0.215, 0.4 * v, 99.0)  # junk below the gap edge
        assert heating_slope(v, t, v_min=0.215) == pytest.approx(0.4, rel=1e-9)

    def test_needs_three_points_above_onset(self):
        with pytest.raises(ValueError):
            heating_slope([0.3, 0.4], [0.2, 0.25], v_min=0.215)
