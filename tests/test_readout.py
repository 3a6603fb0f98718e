import math
import re
import warnings

import mpmath
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
    ANCHOR_SHOTS,
    STATE_LABELS,
    CovarianceCollapseError,
    ReadoutModel,
    SingularCorrectionError,
    correct_counts,
    correction_matrix,
    count_within_sigma,
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

    @pytest.mark.parametrize(
        "cov, valid",
        [
            ([[1.0, 0.0], [0.0, 1.0]], True),
            ([[1e8, 1.0 + 1e-4], [1.0, 1e8]], True),
            ([[1e-8, 0.0], [1e-20, 1e-8]], True),
            ([[1e-8, 0.0], [1e-13, 1e-8]], False),
            ([[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]], True),
            ([[1e8, 1.0 + 1e-3], [1.0, 1e8]], False),
            ([[1.0, 1.0], [1.0, 1.0]], False),
            ([[1.0, 0.0], [0.0, -1.0]], False),
            ([[-1.0, 0.0], [0.0, -1.0]], False),
            ([[1.0, 0.5], [0.0, 1.0]], False),
            ([[1.0, np.nan], [np.nan, 1.0]], False),
            ([[np.inf, 0.0], [0.0, 1.0]], False),
        ],
        ids=[
            "identity", "asymmetry-5e-13", "tiny-scale", "tiny-scale-asymmetric",
            "near-singular",
            "asymmetry-5e-12", "singular", "indefinite", "negative",
            "asymmetric", "nan", "inf",
        ],
    )
    def test_accepts_covariance_exactly_when_mahalanobis_does(self, cov, valid):
        """One rule for a 2x2 covariance: symmetric to 1e-12 of its
        diagonal, with positive leading entry and determinant."""

        def accepts(build):
            try:
                build()
            except ValueError:
                return False
            return True

        cov, mean = np.array(cov), np.zeros(2)
        assert accepts(lambda: mahalanobis_sq(np.zeros((1, 2)), mean, cov)) is valid
        assert accepts(
            lambda: ReadoutModel(
                means=mean[None], covariances=cov[None], labels=("g",)
            )
        ) is valid

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


@settings(max_examples=100, deadline=None)
@given(
    log_scale=st.floats(min_value=-3.0, max_value=3.0),
    log_cond=st.floats(min_value=0.0, max_value=6.0),
    angle=st.floats(min_value=0.0, max_value=math.pi),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_quad_form_matches_extended_precision(log_scale, log_cond, angle, seed):
    """The whitened quadratic form holds 1e-12 relative up to cond(cov) =
    1e6 against the exact distance of the same doubles (50 digits); the
    expanded form of the explicit inverse loses up to 1e-10 there."""
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([10.0**log_scale, 10.0 ** (log_scale + log_cond)]) @ rot.T
    cov = 0.5 * (cov + cov.T)
    rng = np.random.default_rng(seed)
    mean = rng.standard_normal(2)
    points = rng.multivariate_normal(mean, cov, size=50)
    with mpmath.workdps(50):
        a, b, d = (mpmath.mpf(x) for x in (cov[0, 0], cov[0, 1], cov[1, 1]))
        m0, m1 = (mpmath.mpf(x) for x in mean)
        want = []
        for x, y in points.tolist():
            dx, dy = x - m0, y - m1
            q = (d * dx**2 - 2 * b * dx * dy + a * dy**2) / (a * d - b**2)
            want.append(float(q))
    assert_allclose(mahalanobis_sq(points, mean, cov), want, rtol=1e-12)


def test_log_density_normaliser_matches_extended_precision():
    """-log(2 pi) - log(det cov)/2 of each E-step component holds 1e-12
    absolute at cond(cov) = 1e6 against the exact determinant of the same
    doubles (50 digits); the expanded a c - b^2 is up to 4e-11 off there."""
    rng = np.random.default_rng(7)
    angle = rng.uniform(0.0, math.pi, 500)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, 500)
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(-1, 2, 2)
    covs = rot @ (scale[:, None, None] * np.diag([1.0, 1e6])) @ rot.transpose(0, 2, 1)
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    got = readout._log_gaussian(np.zeros((1, 2)), np.zeros((500, 2)), covs)[:, 0]
    with mpmath.workdps(50):
        want = [
            float(-mpmath.log(2 * mpmath.pi) - mpmath.log(a * d - b * b) / 2)
            for a, b, d in (map(mpmath.mpf, (x[0, 0], x[0, 1], x[1, 1])) for x in covs)
        ]
    assert_allclose(got, want, rtol=0, atol=1e-12)


class TestFractionWithinSigma:
    def test_closed_form(self):
        assert fraction_within_sigma(1.0) == 1.0 - math.exp(-0.5)
        assert fraction_within_sigma(2.0) == 1.0 - math.exp(-2.0)

    @pytest.mark.parametrize("m", [-1.0, math.nan])
    def test_rejects_bad_radius(self, m):
        with pytest.raises(ValueError, match=f"radius .* got {m}"):
            fraction_within_sigma(m)

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

    @pytest.mark.parametrize(
        "populations, n_shots, message",
        [
            ([0.5, np.nan, 0.25, 0.25], 100, "nan"),
            ([0.5, np.inf, 0.25, 0.25], 100, "inf"),
            ([1e308, 1e308, 0.0, 0.0], 100, "1e+308"),
            ([0.0] * 4, 100, "[0.0, 0.0, 0.0, 0.0]"),
            ([0.25] * 4, 2.5, "2.5"),
            ([0.25] * 4, True, "True"),
        ],
        ids=["nan", "inf", "overflowing-sum", "zero-sum", "float-n", "bool-n"],
    )
    def test_rejects_bad_input_before_drawing(
        self, monkeypatch, populations, n_shots, message
    ):
        def no_draws(*args):
            raise AssertionError("synthesize_shots drew before validating")

        monkeypatch.setattr(readout, "named_rng", no_draws)
        with pytest.raises(ValueError, match=re.escape(message)):
            synthesize_shots(populations, default_model(), n_shots)

    def test_accepts_numpy_integer_shot_count(self):
        p = [0.7, 0.2, 0.07, 0.03]
        a = synthesize_shots(p, default_model(), np.int64(300), seed=5)
        assert a.tobytes() == synthesize_shots(p, default_model(), 300, seed=5).tobytes()

    @pytest.mark.parametrize("case", range(12))
    def test_matches_cholesky_gather_oracle(self, case):
        rng = np.random.default_rng(case)
        model = random_geometry(rng)
        p = rng.dirichlet(np.ones(4)) if case % 3 else np.eye(4)[case % 4]
        n = int(rng.integers(1, 5000))
        shots, states = synthesize_shots(p, model, n, seed=case, return_states=True)
        want, want_states = gather_synthesis(p, model, n, seed=case)
        assert shots.tobytes() == want.tobytes()
        assert states.tobytes() == want_states.tobytes()
        assert synthesize_shots(p, model, n, seed=case).tobytes() == want.tobytes()


def random_geometry(rng):
    """Four blobs with correlated covariances, one of them stretched to an
    axis ratio up to 1e6."""
    a = rng.standard_normal((4, 2, 2)) * rng.uniform(0.1, 10.0, (4, 1, 1))
    covs = a @ np.swapaxes(a, 1, 2) + 1e-3 * np.eye(2)
    r, t = 10.0 ** rng.uniform(0.0, 3.0), rng.uniform(0.0, math.pi)
    q = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    covs[0] = q @ np.diag([r, 1.0 / r]) @ q.T
    return ReadoutModel(means=3.0 * rng.standard_normal((4, 2)), covariances=covs)


def gather_synthesis(populations, model, n_shots, seed):
    """Shots and states the way synthesize_shots drew them through a
    per-shot (n, 2, 2) gather of Cholesky factors: same draws, and
    means[s] + L[s] @ z by einsum."""
    p = np.asarray(populations, dtype=float)
    rng = named_rng(seed, "shots")
    states = rng.choice(model.n_components, size=n_shots, p=p / p.sum())
    z = rng.standard_normal((n_shots, 2))
    chol = np.linalg.cholesky(model.covariances)
    return model.means[states] + np.einsum("nij,nj->ni", chol[states], z), states


def anchored_objective(shots, init, weights, means, covs):
    # the fit's objective: data log likelihood plus the log density of the
    # calibration prior
    log_mix = readout._e_step(shots, weights, means, covs)[1]
    psi0 = (ANCHOR_SHOTS + 4) * init.covariances
    prior = readout._log_anchor_prior(means, covs, init.means, psi0)
    return float(log_mix.sum()) + prior


def plain_em(shots, init, reltol):
    """Plain EM, the reference for fit_gmm's extrapolated loop: one E step
    per M step of the anchored (MAP) update, until the objective changes
    by at most ``reltol`` relative; returns the parameters after the last
    M step."""
    n, k, anchor = shots.shape[0], init.n_components, ANCHOR_SHOTS
    m0, psi0 = init.means, (anchor + 4) * init.covariances
    weights, means, covs = np.full(k, 1.0 / k), init.means, init.covariances
    prev = -math.inf
    for _ in range(10_000):
        resp, log_mix = readout._e_step(shots, weights, means, covs)
        obj = log_mix.sum() + readout._log_anchor_prior(means, covs, m0, psi0)
        nk = resp.sum(axis=1)
        xbar = resp @ shots / nk[:, None]
        diff = shots - xbar[:, None]
        scatter = np.einsum("jn,jna,jnb->jab", resp, diff, diff)
        pull = xbar - m0
        shrink = anchor * nk / (anchor + nk)
        weights = nk / n
        means = (anchor * m0 + nk[:, None] * xbar) / (anchor + nk)[:, None]
        covs = (
            psi0 + scatter + shrink[:, None, None] * pull[:, :, None] * pull[:, None]
        ) / (anchor + nk + 4)[:, None, None]
        if abs(obj - prev) <= reltol * abs(obj):
            return weights, means, covs
        prev = obj
    raise AssertionError("plain EM did not converge")


def extrapolated_weights(theta0, theta1, theta2):
    # the weights of the SQUAREM point from two EM maps, before any check
    x0, x1, x2 = (readout._pack(*theta) for theta in (theta0, theta1, theta2))
    r, v = x1 - x0, x2 - 2.0 * x1 + x0
    alpha = min(-1.0, -np.linalg.norm(r) / np.linalg.norm(v))
    return (x0 - 2.0 * alpha * r + alpha**2 * v)[: theta0[0].size]


class TestFitGmm:
    def test_anchored_fit_recovers_mixture(self):
        model = default_model()
        p = np.array([0.6, 0.25, 0.1, 0.05])
        shots = synthesize_shots(p, model, 20_000, seed=5)
        fit = fit_gmm(shots, init=model, seed=5)
        assert fit.converged
        assert isinstance(fit, ReadoutModel)
        assert fit.labels == STATE_LABELS
        assert np.abs(fit.weights - p).max() < 0.02
        assert np.abs(fit.means - model.means).max() < 0.1
        # component j is nearest calibration blob j
        dist = np.linalg.norm(fit.means[:, None] - model.means[None], axis=2)
        assert dist.argmin(axis=1).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("init", [default_model()], ids=["anchored"])
    def test_estimate_from_fit_is_in_label_order(self, init):
        p = [0.6, 0.25, 0.1, 0.05]
        shots = synthesize_shots(p, default_model(), 10_000, seed=3)
        fit = fit_gmm(shots, init=init, seed=3)
        assert estimate_populations(shots, fit).labels == ("g", "e", "f", "h")

    def test_objective_never_decreases(self, monkeypatch):
        steps = []
        squarem_step = readout._squarem_step

        def spy(*args):
            steps.append((args, squarem_step(*args)))
            return steps[-1][1]

        monkeypatch.setattr(readout, "_squarem_step", spy)
        model = default_model()
        mixed, empty = [0.5, 0.3, 0.15, 0.05], [0.75, 0.25, 0.0, 0.0]
        for p in [mixed, empty]:
            steps.clear()
            shots = synthesize_shots(p, model, 15_000, seed=6)
            fit = fit_gmm(shots, init=model)
            h = fit.loglik_history
            assert np.all(np.diff(h) >= -1e-10 * np.abs(h[:-1]))
        # in the last, empty-component fit the weights of the empty
        # components head for zero and the extrapolation overshoots them:
        # the fit must fall back
        left = [
            result is None
            for args, result in steps
            if (extrapolated_weights(*args[:3]) <= 0.0).any()
        ]
        assert left and all(left)

    @pytest.mark.parametrize("init", [default_model()], ids=["anchored"])
    @pytest.mark.parametrize("max_iter", [7, 8, readout.EM_MAX_ITER])
    def test_n_iter_counts_recorded_e_steps(self, monkeypatch, init, max_iter):
        e_steps = []
        e_step = readout._e_step

        def spy(*args):
            e_steps.append(1)
            return e_step(*args)

        monkeypatch.setattr(readout, "EM_MAX_ITER", max_iter)
        monkeypatch.setattr(readout, "_e_step", spy)
        p = [0.6, 0.25, 0.1, 0.05]
        shots = synthesize_shots(p, default_model(), 10_000, seed=12)
        fit = fit_gmm(shots, init=init, seed=12)
        assert fit.n_iter == len(fit.loglik_history) <= len(e_steps) <= max_iter
        if max_iter < 10:
            assert not fit.converged and len(e_steps) == max_iter

    @pytest.mark.parametrize(
        "p",
        [[0.829, 0.134, 0.030, 0.007], [0.40, 0.31, 0.19, 0.10]],
        ids=["idle", "heated"],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_anchored_objective_near_plain_em_reference(self, p, seed):
        """SQUAREM stops no further below the optimum than plain EM does."""
        model = default_model()
        shots = synthesize_shots(p, model, 10_000, seed=seed)
        reference = anchored_objective(shots, model, *plain_em(shots, model, 1e-13))
        plain = anchored_objective(
            shots, model, *plain_em(shots, model, readout.EM_RELTOL)
        )
        fit = fit_gmm(shots, init=model, seed=seed)
        fitted = anchored_objective(
            shots, model, fit.weights, fit.means, fit.covariances
        )
        assert fit.loglik_history[-1] == pytest.approx(fitted, rel=1e-12)
        assert 0.0 < reference - plain
        assert reference - fitted <= reference - plain

    def test_single_collapse_raises_naming_component(self):
        """A component calibrated as a point-like blob on a few repeated
        shots collapses at the first M step, prior and all, and the fit
        stops there, naming it."""
        model = default_model()
        means, covs = model.means.copy(), model.covariances.copy()
        means[3], covs[3] = (9.0, 9.0), 1e-6 * np.eye(2)
        init = ReadoutModel(means=means, covariances=covs)
        good = synthesize_shots([0.4, 0.3, 0.2, 0.1], model, 15_000, seed=3)
        shots = np.vstack([good, np.tile([[9.0, 9.0]], (3, 1))])
        with pytest.raises(
            CovarianceCollapseError,
            match=r"component\(s\) 3 \(h\) collapsed after E step 1:",
        ):
            fit_gmm(shots, init=init)

    def test_zero_spread_shots_fail_by_name(self):
        shots = np.tile([[0.5, 0.5]], (100, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="zero spread"):
                fit_gmm(shots, init=default_model())

    def test_draws_no_random_numbers(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("fit_gmm drew random numbers")

        shots = synthesize_shots([0.6, 0.25, 0.1, 0.05], default_model(), 2_000)
        monkeypatch.setattr(readout, "named_rng", no_draws)
        first = fit_gmm(shots, init=default_model(), seed=1)
        again = fit_gmm(shots, init=default_model(), seed=2)
        assert again.means.tobytes() == first.means.tobytes()

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
            fit_gmm(shots, init=model)

    @pytest.mark.parametrize("init", [default_model()], ids=["anchored"])
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

    def test_repeated_point_cluster_is_absorbed(self):
        """A 5 000-shot spike at one point far from every blob collapses
        no component: the prior keeps each covariance above
        psi0 / (ANCHOR_SHOTS + n + 4), and the fit converges with one
        component on the spike."""
        model = default_model()
        good = synthesize_shots([0.4, 0.3, 0.2, 0.1], model, 15_000, seed=3)
        shots = np.vstack([good, np.tile([[9.0, 9.0]], (5_000, 1))])
        fit = fit_gmm(shots, init=model)
        assert fit.converged
        psi0 = (ANCHOR_SHOTS + 4) * model.covariances
        floor = psi0 / (ANCHOR_SHOTS + len(shots) + 4)
        assert (np.linalg.eigvalsh(fit.covariances - floor) > 0).all()
        on_spike = np.linalg.norm(fit.means - [9.0, 9.0], axis=1).argmin()
        assert fit.weights[on_spike] > 0.24


def test_erf_is_math_erf_elementwise():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 4, 50)) * 10.0 ** rng.uniform(-12, 1, (3, 4, 50))
    x[0, 0, :3] = [0.0, -0.0, 40.0]
    got = readout._erf(x)
    assert got.shape == x.shape and got.dtype == float
    assert got.tolist() == [
        [[math.erf(v) for v in row] for row in plane] for plane in x.tolist()
    ]


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
            fit_gmm(shots, init=default_model())

    def test_overlapping_geometry_is_singular(self):
        means = np.tile([[0.0, 0.0]], (4, 1))
        covs = np.repeat(np.eye(2)[None], 4, axis=0)
        model = ReadoutModel(means=means, covariances=covs)
        shots = synthesize_shots([0.25] * 4, model, 1_000, seed=14)
        with pytest.raises(SingularCorrectionError):
            estimate_populations(shots, model, seed=14)
        counts = count_within_sigma(shots, model)
        with pytest.raises(SingularCorrectionError, match="condition number"):
            correct_counts(np.stack([counts, counts]), 1_000, model)


def count_table(model, n_shots):
    """Shot sets of a few population rows, and their count table."""
    rows = [[0.83, 0.14, 0.025, 0.005], [0.4, 0.3, 0.2, 0.1], [0.0, 0.0, 1.0, 0.0]]
    sets = [synthesize_shots(p, model, n_shots, seed=20 + i) for i, p in enumerate(rows)]
    return sets, np.array([count_within_sigma(shots, model) for shots in sets])


class TestCorrectCounts:
    @pytest.mark.parametrize(
        "model", [default_model(), anisotropic_model()], ids=["default", "anisotropic"]
    )
    def test_table_equals_single_rows(self, model):
        sets, table = count_table(model, 3_000)
        est = correct_counts(table, 3_000, model)
        assert est.populations.shape == table.shape
        assert est.raw_counts.tobytes() == table.tobytes()
        for i, shots in enumerate(sets):
            row = correct_counts(table[i], 3_000, model)
            single = estimate_populations(shots, model)
            for one in (row, single):
                assert est.populations[i].tobytes() == one.populations.tobytes()
                assert est.raw_counts[i].tobytes() == one.raw_counts.tobytes()
                assert est.correction.tobytes() == one.correction.tobytes()
                assert est.condition_number == one.condition_number
                assert est.labels == one.labels

    def test_zero_sum_row_is_singular(self):
        model = default_model()
        zero = np.zeros(4)
        with pytest.raises(SingularCorrectionError, match="sum to zero"):
            correct_counts(zero, 100, model)
        _, table = count_table(model, 2_000)
        table[1] = zero
        with pytest.raises(SingularCorrectionError, match=r"row\(s\) \[1\]"):
            correct_counts(table, 2_000, model)

    @pytest.mark.parametrize(
        "counts, n_shots",
        [
            (np.ones(3), 10),
            (np.ones((2, 3)), 10),
            (np.ones((2, 2, 4)), 10),
            (np.empty((0, 4)), 10),
            ([1.0, -1.0, 1.0, 1.0], 10),
            ([1.0, np.nan, 1.0, 1.0], 10),
            (np.ones(4), 0),
            (np.ones(4), np.nan),
        ],
        ids=[
            "wrong-k", "wrong-k-table", "three-axes", "no-rows", "negative",
            "nan", "zero-shots", "nan-shots",
        ],
    )
    def test_rejects_malformed_counts(self, counts, n_shots):
        with pytest.raises(ValueError):
            correct_counts(counts, n_shots, default_model())

    def test_rejects_counts_above_shot_number(self):
        model = default_model()
        with pytest.raises(ValueError, match="count 100 of g exceeds n_shots = 10"):
            correct_counts([100, 1, 1, 1], 10, model)
        table = np.ones((3, 4))
        table[2, 1] = 11
        with pytest.raises(ValueError, match="count 11 of e in row 2 exceeds"):
            correct_counts(table, 10, model)
        assert correct_counts([10, 1, 1, 1], 10, model).populations.shape == (4,)
