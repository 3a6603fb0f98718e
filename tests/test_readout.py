import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import dblquad
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from qcrsim import readout
from qcrsim.readout import (
    STATE_LABELS,
    CovarianceCollapseError,
    ReadoutModel,
    SingularCorrectionError,
    correction_matrix,
    default_model,
    estimate_populations,
    fit_gmm,
    fraction_within_sigma,
    mahalanobis_sq,
    synthesize_shots,
)
from qcrsim.seeding import named_rng, stream_key


class TestSeeding:
    def test_named_streams_are_reproducible(self):
        a = named_rng(42, "shots").standard_normal(8)
        b = named_rng(42, "shots").standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ_by_name_and_index(self):
        base = named_rng(42, "shots").standard_normal(8)
        other = named_rng(42, "correction").standard_normal(8)
        indexed = named_rng(42, "shots", 1).standard_normal(8)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, indexed)

    def test_stream_key_is_stable(self):
        # sha256-derived words; frozen so pipelines stay byte-stable
        assert stream_key("shots") == stream_key("shots")
        assert len(stream_key("shots")) == 4
        assert all(0 <= w < 2**32 for w in stream_key("shots"))


class TestModelGeometry:
    def test_default_blob_layout(self):
        model = default_model(separation=3.0, sigma=1.0, h_scale=2.0)
        radii = np.linalg.norm(model.means, axis=1)
        assert_allclose(radii, 3.0 / math.sqrt(2.0), atol=1e-12)
        # adjacent blobs are exactly `separation` sigma apart
        assert np.linalg.norm(model.means[0] - model.means[1]) == pytest.approx(
            3.0
        )
        assert_allclose(model.covariances[0], np.eye(2), atol=1e-12)
        assert_allclose(model.covariances[3], 2.0 * np.eye(2), atol=1e-12)
        assert model.labels == STATE_LABELS

    def test_rejects_non_spd_covariance(self):
        means = np.zeros((2, 2))
        covs = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(ValueError):
            ReadoutModel(means=means, covariances=covs, labels=("g", "e"))

    def test_rejects_bad_geometry_args(self):
        with pytest.raises(ValueError):
            default_model(separation=0.0)


def test_mahalanobis_identity_covariance():
    pts = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0]])
    d2 = mahalanobis_sq(pts, np.zeros(2), np.eye(2))
    assert_allclose(d2, [1.0, 4.0, 25.0])


@pytest.mark.parametrize(
    "points, mean, cov",
    [
        (np.zeros((3, 2)), np.zeros(2), [[1.0, 1.0], [1.0, 1.0]]),
        (np.zeros((3, 2)), np.zeros(2), [[1.0, 0.0], [0.0, -1.0]]),
        (np.zeros((3, 2)), np.zeros(2), [[-1.0, 0.0], [0.0, -1.0]]),
        (np.zeros((3, 2)), np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]),
        (np.zeros((3, 2)), np.zeros(2), [[1.0, np.nan], [np.nan, 1.0]]),
        (np.zeros((3, 2)), np.zeros(2), np.eye(3)),
        (np.zeros((3, 3)), np.zeros(2), np.eye(2)),
        (np.zeros(2), np.zeros(2), np.eye(2)),
        (np.zeros((3, 2)), np.zeros(3), np.eye(2)),
    ],
    ids=[
        "singular", "indefinite", "negative", "asymmetric", "nan",
        "3x3-cov", "3-columns", "1-d-points", "3-mean",
    ],
)
def test_mahalanobis_rejects_malformed_input(points, mean, cov):
    with pytest.raises(ValueError):
        mahalanobis_sq(points, mean, cov)


@settings(max_examples=200, deadline=None)
@given(
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    log_cond=st.floats(min_value=0.0, max_value=6.0, exclude_max=True),
    angle=st.floats(min_value=0.0, max_value=math.pi),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_explicit_inverse_matches_solve(log_scale, log_cond, angle, seed):
    """Distances and log densities agree with np.linalg.solve/slogdet.

    Both sides round at the level eps * cond(cov): at cond 1e6 solve
    itself is 3e-11 away from the exact value (extended precision), so the
    tolerance is 1e-12 up to cond ~ 1e3 and grows as 4 eps cond above.
    """
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([10.0**log_scale, 10.0 ** (log_scale + log_cond)]) @ rot.T
    cov = 0.5 * (cov + cov.T)
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(2)
    points = rng.multivariate_normal(mean, cov, size=50)
    diff = points - mean
    want = np.einsum("ni,in->n", diff, np.linalg.solve(cov, diff.T))
    rtol = max(1e-12, 4 * np.finfo(float).eps * np.linalg.cond(cov))
    assert_allclose(mahalanobis_sq(points, mean, cov), want, rtol=rtol)
    log_density = (
        -math.log(2.0 * math.pi) - 0.5 * np.linalg.slogdet(cov)[1] - 0.5 * want
    )
    # log det carries an absolute error of about its relative error
    got = readout._log_gaussian(points, mean, cov)
    assert_allclose(got, log_density, rtol=rtol, atol=rtol)


class TestFractionWithinSigma:
    def test_closed_form(self):
        assert fraction_within_sigma(1.0) == 1.0 - math.exp(-0.5)
        assert fraction_within_sigma(2.0) == 1.0 - math.exp(-2.0)

    def test_empirical_coverage(self):
        """>= 1e5 Gaussian shots: 1-sigma ellipse holds 39.34 +- 0.5 %."""
        model = default_model()
        shots = synthesize_shots([0.0, 0.0, 0.0, 1.0], model, 100_000, seed=9)
        d2 = mahalanobis_sq(shots, model.means[3], model.covariances[3])
        frac = float(np.mean(d2 <= 1.0))
        assert frac == pytest.approx(0.3934693402873666, abs=0.005)


class TestSynthesizeShots:
    def test_deterministic_per_seed(self):
        model = default_model()
        p = [0.7, 0.2, 0.07, 0.03]
        a = synthesize_shots(p, model, 500, seed=1)
        b = synthesize_shots(p, model, 500, seed=1)
        c = synthesize_shots(p, model, 500, seed=2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_cloud_means_match_model(self):
        model = default_model()
        shots, states = synthesize_shots(
            [0.25, 0.25, 0.25, 0.25], model, 40_000, seed=3, return_states=True
        )
        for j in range(4):
            cloud = shots[states == j]
            assert np.linalg.norm(cloud.mean(axis=0) - model.means[j]) < 0.05

    def test_state_frequencies_match_populations(self):
        model = default_model()
        p = np.array([0.83, 0.14, 0.025, 0.005])
        _, states = synthesize_shots(p, model, 100_000, seed=4, return_states=True)
        freq = np.bincount(states, minlength=4) / states.size
        assert np.abs(freq - p).max() < 0.005

    def test_input_validation(self):
        model = default_model()
        with pytest.raises(ValueError):
            synthesize_shots([0.5, 0.5], model, 100)
        with pytest.raises(ValueError):
            synthesize_shots([0.5, 0.5, 0.5, -0.5], model, 100)
        with pytest.raises(ValueError):
            synthesize_shots([0.25] * 4, model, 0)


class TestFitGmm:
    def test_anchored_fit_recovers_mixture(self):
        model = default_model()
        p = np.array([0.6, 0.25, 0.1, 0.05])
        shots = synthesize_shots(p, model, 20_000, seed=5)
        fit = fit_gmm(shots, init=model, seed=5)
        assert fit.converged
        assert fit.labels == STATE_LABELS
        assert np.abs(fit.weights - p).max() < 0.02
        assert np.abs(fit.means - model.means).max() < 0.1

    def test_blind_fit_labels_by_weight(self):
        model = default_model()
        p = np.array([0.6, 0.25, 0.1, 0.05])
        shots = synthesize_shots(p, model, 20_000, seed=11)
        fit = fit_gmm(shots, seed=2)
        assert fit.converged
        # components come out in arbitrary order; labels rank them
        order = {lbl: j for j, lbl in enumerate(fit.labels)}
        weights = fit.weights[[order[lbl] for lbl in STATE_LABELS]]
        assert np.abs(weights - p).max() < 0.03

    def test_objective_never_decreases(self):
        model = default_model()
        shots = synthesize_shots([0.5, 0.3, 0.15, 0.05], model, 15_000, seed=6)
        for anchor in (None, 0.0):
            fit = fit_gmm(shots, init=model, seed=6, anchor=anchor)
            h = fit.loglik_history
            assert np.all(np.diff(h) >= -1e-10 * np.abs(h[:-1]))

    def test_unanchored_prior_requires_init(self):
        model = default_model()
        shots = synthesize_shots([0.25] * 4, model, 1_000, seed=7)
        with pytest.raises(ValueError, match="anchor"):
            fit_gmm(shots, anchor=10.0)

    def test_anchor_holds_empty_component_at_calibration(self):
        """A component that owns no shots must stay put, not wander."""
        model = default_model()
        p = np.array([0.75, 0.25, 0.0, 0.0])
        shots = synthesize_shots(p, model, 10_000, seed=8)
        fit = fit_gmm(shots, init=model, seed=8)
        assert np.linalg.norm(fit.means[3] - model.means[3]) < 0.05
        assert np.abs(fit.weights[2:]).max() < 0.01

    def test_needs_enough_shots(self):
        model = default_model()
        shots = synthesize_shots([0.25] * 4, model, 30, seed=9)
        with pytest.raises(ValueError, match="shots"):
            fit_gmm(shots)

    @pytest.mark.parametrize(
        "init", [default_model(), None], ids=["anchored", "blind"]
    )
    def test_loglik_is_data_likelihood_of_returned_model(self, init):
        p = [0.6, 0.25, 0.1, 0.05]
        shots = synthesize_shots(p, default_model(), 10_000, seed=15)
        fit = fit_gmm(shots, init=init, seed=15)
        log_pdf = [
            math.log(w) + multivariate_normal(m, c).logpdf(shots)
            for w, m, c in zip(fit.weights, fit.means, fit.covariances)
        ]
        want = float(logsumexp(log_pdf, axis=0).sum())
        assert fit.loglik == pytest.approx(want, rel=1e-12)

    def test_repeated_point_cluster_collapses(self):
        model = default_model()
        good = synthesize_shots([0.4, 0.3, 0.2, 0.1], model, 15_000, seed=3)
        spike = np.tile([[9.0, 9.0]], (5_000, 1))
        with pytest.raises(CovarianceCollapseError):
            fit_gmm(np.vstack([good, spike]), seed=1)


def anisotropic_model():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 2, 2))
    return ReadoutModel(
        means=2.0 * rng.standard_normal((4, 2)),
        covariances=a @ np.swapaxes(a, 1, 2) + 0.1 * np.eye(2),
    )


def crossed_model(axis_ratio):
    """Two blobs whose covariances have eigenvalue ratio ``axis_ratio``,
    long axes crossed at 90 degrees, means 0.36 apart."""
    r = math.sqrt(axis_ratio)
    q = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    return ReadoutModel(
        means=np.array([[0.0, 0.0], [0.3, 0.2]]),
        covariances=np.stack(
            [q @ np.diag([r, 1.0 / r]) @ q.T, q @ np.diag([1.0 / r, r]) @ q.T]
        ),
        labels=("a", "b"),
    )


def dblquad_mass(model, i, j):
    """Mass of blob j inside the 1-sigma ellipse of blob i by adaptive 2D
    quadrature: polar coordinates (r, t) about mean i scaled by
    chol(cov_i), so the ellipse is r <= 1, and blob j's density evaluated
    directly."""
    chol = np.linalg.cholesky(model.covariances[i])
    prec = np.linalg.inv(model.covariances[j])
    offset = model.means[i] - model.means[j]
    norm = np.linalg.det(chol) / (
        2.0 * math.pi * math.sqrt(np.linalg.det(model.covariances[j]))
    )

    def integrand(r, t):
        x = offset + r * (chol @ (math.cos(t), math.sin(t)))
        return r * math.exp(-0.5 * (x @ prec @ x))

    mass, _ = dblquad(integrand, 0.0, 2.0 * math.pi, 0.0, 1.0, epsabs=1e-12)
    return norm * mass


@st.composite
def affine_maps(draw):
    entry = st.floats(min_value=-2.0, max_value=2.0)
    a = np.array(draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)
    assume(abs(np.linalg.det(a)) > 0.1 and np.linalg.cond(a) < 10.0)
    shift = st.floats(min_value=-5.0, max_value=5.0)
    return a, np.array(draw(st.lists(shift, min_size=2, max_size=2)))


class TestCorrectionMatrix:
    ONE_SIGMA = 1.0 - math.exp(-0.5)

    def test_well_separated_is_diagonal_coverage(self):
        far = default_model(separation=40.0)
        m = correction_matrix(far)
        assert_allclose(np.diag(m), self.ONE_SIGMA, atol=1e-12)
        off = m - np.diag(np.diag(m))
        assert np.abs(off).max() < 1e-12

    def test_columns_are_probabilities(self):
        m = correction_matrix(default_model())
        assert np.all(m >= 0.0)
        assert np.all(m <= 1.0)

    @pytest.mark.parametrize(
        "model",
        [default_model(), anisotropic_model(), default_model(h_scale=6.0)],
        ids=["default", "anisotropic", "broad-h"],
    )
    def test_diagonal_is_one_sigma_mass(self, model):
        """Criterion 3: every blob puts 1 - e^-1/2 inside its own ellipse."""
        m = correction_matrix(model)
        assert_allclose(np.diag(m), self.ONE_SIGMA, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "model",
        [default_model(), anisotropic_model(), crossed_model(1e4)],
        ids=["default", "anisotropic", "crossed-1e4"],
    )
    def test_matches_dblquad_oracle(self, model):
        k = model.n_components
        want = [[dblquad_mass(model, i, j) for j in range(k)] for i in range(k)]
        assert_allclose(correction_matrix(model), want, rtol=0.0, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(affine_maps())
    def test_invariant_under_common_affine_map(self, affine):
        a, shift = affine
        model = default_model()
        mapped = ReadoutModel(
            means=model.means @ a.T + shift,
            covariances=a @ model.covariances @ a.T,
        )
        assert_allclose(
            correction_matrix(mapped), correction_matrix(model), rtol=0.0, atol=1e-12
        )

    def test_deterministic_without_random_draws(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("correction_matrix drew random numbers")

        monkeypatch.setattr(readout, "named_rng", no_draws)
        first = correction_matrix(default_model())
        assert correction_matrix(default_model()).tobytes() == first.tobytes()

    def test_unresolved_geometry_raises(self):
        with pytest.raises(ValueError, match="anisotropic"):
            correction_matrix(crossed_model(1e8))


class TestEstimatePopulations:
    def test_round_trip_with_true_model(self):
        model = default_model()
        p = np.array([0.83, 0.14, 0.025, 0.005])
        shots = synthesize_shots(p, model, 50_000, seed=12)
        est = estimate_populations(shots, model, seed=12)
        assert est.populations.sum() == pytest.approx(1.0)
        assert np.abs(est.populations - p).max() < 0.01
        assert est.labels == STATE_LABELS
        assert est.condition_number < 20.0

    def test_correction_beats_raw_counts(self):
        """Overlap correction must shrink the bias of naive counting."""
        model = default_model()
        p = np.array([0.55, 0.3, 0.1, 0.05])
        shots = synthesize_shots(p, model, 50_000, seed=13)
        est = estimate_populations(shots, model, seed=13)
        naive = est.raw_counts / est.raw_counts.sum()
        assert (
            np.abs(est.populations - p).max() < np.abs(naive - p).max()
        )

    @pytest.mark.parametrize(
        "shots",
        [np.empty((0, 2)), np.zeros((5, 3)), np.array([[0.0, np.nan]] * 50)],
        ids=["empty", "three-columns", "nan"],
    )
    def test_rejects_malformed_shots(self, shots):
        with pytest.raises(ValueError, match=re.escape(str(shots.shape))):
            estimate_populations(shots, default_model())
        with pytest.raises(ValueError, match=re.escape(str(shots.shape))):
            fit_gmm(shots)

    def test_overlapping_geometry_is_singular(self):
        means = np.tile([[0.0, 0.0]], (4, 1))
        covs = np.repeat(np.eye(2)[None], 4, axis=0)
        model = ReadoutModel(means=means, covariances=covs)
        shots = synthesize_shots([0.25] * 4, model, 1_000, seed=14)
        with pytest.raises(SingularCorrectionError):
            estimate_populations(shots, model, seed=14)
