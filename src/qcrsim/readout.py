"""Single-shot IQ readout: synthesis, mixture fitting, population recovery.

A measurement record is a cloud of IQ-plane points, one 2D Gaussian blob
per ladder state.  This module draws synthetic records from a known
blob geometry, fits a Gaussian mixture to records by expectation
maximization, and converts within-1-sigma counts into corrected state
populations via a confusion matrix computed by deterministic quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._checks import integer, positive
from .seeding import named_rng

STATE_LABELS = ("g", "e", "f", "h")
EM_MAX_ITER = 500
EM_RELTOL = 1e-8
ANCHOR_SHOTS = 200.0  # calibration-prior strength of fit_gmm, in shots
COLLAPSE_DET_FLOOR = 1e-12
COND_LIMIT = 1e8
QUADRATURE_TOL = 1e-13
QUADRATURE_MAX_ANGLES = 2**16
TOUCH_RTOL = 1e-12  # 1-sigma ellipses this close to touching count as touching


class CovarianceCollapseError(RuntimeError):
    """A mixture component's covariance collapsed onto too few points."""


class SingularCorrectionError(RuntimeError):
    """Confusion matrix too ill-conditioned to invert (overlapping blobs)."""


@dataclass(frozen=True)
class ReadoutModel:
    """Per-state blob geometry: means (k,2), covariances (k,2,2), labels."""

    means: np.ndarray
    covariances: np.ndarray
    labels: tuple[str, ...] = STATE_LABELS

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        covs = np.asarray(self.covariances, dtype=float)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        k = means.shape[0]
        if means.shape != (k, 2) or covs.shape != (k, 2, 2):
            raise ValueError("means must be (k,2) and covariances (k,2,2)")
        if len(self.labels) != k:
            raise ValueError(f"{k} components but {len(self.labels)} labels")
        for mean, cov in zip(means, covs):
            _check_component(mean, cov)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def default_model(
    separation: float = 3.0, sigma: float = 1.0, h_scale: float = 2.0
) -> ReadoutModel:
    """Benchmark blob geometry.

    Four means on a circle at 90 degree spacing with adjacent means
    ``separation`` sigma apart, isotropic covariance sigma^2, and the
    h-state cloud broadened by ``h_scale``.
    """
    positive("separation", separation)
    positive("sigma", sigma)
    positive("h_scale", h_scale)
    radius = separation * sigma / math.sqrt(2.0)
    angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
    means = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    covs = np.repeat(np.eye(2)[None] * sigma**2, 4, axis=0)
    covs[3] *= h_scale
    return ReadoutModel(means=means, covariances=covs)


def _as_populations(populations, k: int, table: bool = False) -> np.ndarray:
    # populations as floats: k finite non-negative values with a finite
    # positive sum, or with ``table`` also an (m, k) table of such rows
    p = np.asarray(populations, dtype=float)
    if p.shape != (k,) and not (table and p.ndim == 2 and p.shape[1] == k and p.size):
        shapes = f"({k},) or (m, {k})" if table else f"({k},)"
        raise ValueError(f"populations must have shape {shapes}, got {p.shape}")
    if not np.isfinite(p).all() or p.min() < 0:
        raise ValueError(f"populations {p.tolist()} must be finite and non-negative")
    with np.errstate(over="ignore"):
        total = p.sum(axis=-1)
    if not ((0 < total) & (total < math.inf)).all():
        raise ValueError(f"populations {p.tolist()} must have a finite positive sum")
    return p


def synthesize_shots(
    populations,
    model: ReadoutModel,
    n_shots: int,
    seed: int = 0,
    return_states: bool = False,
):
    """Draw n_shots IQ points from the mixture defined by ``populations``.

    States are sampled first (one categorical draw per shot), then each
    point from its blob's Gaussian, all from the named sub-stream
    ("shots", seed).  Returns an (n,2) array, plus the state index per
    shot when ``return_states``.

    Raises ValueError, before any draw, unless ``populations`` holds one
    finite non-negative value per component with a finite positive sum
    and ``n_shots`` is a positive integer (bool excluded).
    """
    p = _as_populations(populations, model.n_components)
    integer("n_shots", n_shots, 1)

    rng = named_rng(seed, "shots")
    states = rng.choice(model.n_components, size=n_shots, p=p / p.sum())
    z = rng.standard_normal((n_shots, 2))
    # shot = mean + L z with L = chol(cov) lower-triangular, from 1-D takes
    # of the per-component entries, each coordinate summed as in the
    # matrix product L[s] @ z so it rounds the same.  Written over z.
    chol = np.linalg.cholesky(model.covariances)
    i = chol[:, 0, 0].take(states) * z[:, 0] + model.means[:, 0].take(states)
    q = chol[:, 1, 0].take(states) * z[:, 0]
    q += chol[:, 1, 1].take(states) * z[:, 1]
    q += model.means[:, 1].take(states)
    z[:, 0], z[:, 1] = i, q
    if return_states:
        return z, states
    return z


def fraction_within_sigma(m: float = 1.0) -> float:
    """Probability mass of a 2D Gaussian within Mahalanobis radius m.

    Closed form 1 - exp(-m^2/2); the 1-sigma ellipse captures 39.34%.
    Raises ValueError unless m >= 0 (so NaN too).
    """
    if not m >= 0:
        raise ValueError(f"radius must be non-negative, got {m}")
    return 1.0 - math.exp(-0.5 * m * m)


def _inv(cov, det):
    # explicit 2x2 inverse over the last two axes: adjugate / determinant,
    # with ``det`` from the caller, who knows whether ``cov`` is symmetric
    adj = np.stack(
        [cov[..., 1, 1], -cov[..., 0, 1], -cov[..., 1, 0], cov[..., 0, 0]], axis=-1
    )
    return adj.reshape(cov.shape) / det[..., None, None]


def mahalanobis_sq(points, mean, cov) -> np.ndarray:
    """Squared Mahalanobis distance of each point to (mean, cov).

    Raises ValueError unless ``points`` is a finite (n, 2) array with
    n >= 1, ``mean`` has shape (2,) and ``cov`` is a finite 2x2 symmetric
    positive-definite matrix.
    """
    points = _as_shots(points, "points")
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    _check_component(mean, cov)
    return _quad_form(points, mean, cov)


def _check_component(mean, cov):
    if mean.shape != (2,):
        raise ValueError(f"mean must be (2,), got {mean.shape}")
    if not np.isfinite(mean).all():
        raise ValueError(f"mean {mean.tolist()} must be finite")
    if (
        cov.shape != (2, 2)
        or not np.isfinite(cov).all()
        or abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (abs(cov[0, 0]) + abs(cov[1, 1]))
        or cov[0, 0] <= 0
        or _exact_det(cov) <= 0
    ):
        raise ValueError(
            f"cov {cov.tolist()} is not a 2x2 symmetric positive-definite matrix"
        )


def _split(x):
    # Veltkamp: x = hi + lo with halves of 26 bits, whose products are exact
    c = 134217729.0 * x  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exact_det(cov):
    # a c - b^2 of the symmetric part [[a, b], [b, c]] of each 2x2 cov over
    # the last two axes, rounded once: each product is exact as p + err
    # (Dekker, Numer. Math. 18, 224-242, 1971), and ac - bb is exact where
    # it cancels
    a, c = cov[..., 0, 0], cov[..., 1, 1]
    b = 0.5 * (cov[..., 0, 1] + cov[..., 1, 0])
    (ah, al), (bh, bl), (ch, cl) = _split(a), _split(b), _split(c)
    ac, bb = a * c, b * b
    ac_err = ((ah * ch - ac) + ah * cl + al * ch) + al * cl
    bb_err = ((bh * bh - bb) + 2.0 * bh * bl) + bl * bl
    return (ac - bb) + (ac_err - bb_err)


def _quad_form(points, means, covs, det=None) -> np.ndarray:
    # Squared Mahalanobis distances of the (n, 2) points to one component,
    # shape (n,), or to a stack of k components, shape (k, n), in the
    # whitened form (det dx^2 + (a dy - b dx)^2) / (a det) of cov = [[a, b],
    # [b, c]]: two non-negative terms, with det = _exact_det(covs) (passed
    # in by a caller that needs it too) exact but for one rounding, so the
    # relative error is about eps sqrt(cond), 1e-13 at cond 1e6 (the
    # expanded form of the explicit inverse loses eps cond).
    # Built in place in three arrays: with more (k, n) temporaries the
    # memory freed at the end of one call goes back to the system and is
    # faulted in again by the next, which cost more than the arithmetic
    # (glibc malloc, n = 10 000 shots).
    if det is None:
        det = _exact_det(covs)
    a = covs[..., 0, 0]
    b = 0.5 * (covs[..., 0, 1] + covs[..., 1, 0])
    dx = points[:, 0] - means[..., 0, None]
    dy = points[:, 1] - means[..., 1, None]
    q = dx * dx
    q *= det[..., None]
    dy *= a[..., None]
    dx *= b[..., None]
    dy -= dx
    dy *= dy
    q += dy
    q *= (1.0 / (a * det))[..., None]
    return q


@dataclass(frozen=True, kw_only=True)
class GmmModel(ReadoutModel):
    """Gaussian mixture fitted by EM: a ReadoutModel, component j on
    calibration blob j, with the mixture weights and the fit's
    diagnostics.

    loglik_history holds the EM objective -- the data log likelihood
    plus the calibration-prior log density -- of every parameter set the
    fit accepted, one E step each, ending with that of the returned
    parameters.  The objective never decreases, and the tests hold it to
    that.  ``n_iter`` is len(loglik_history), at most EM_MAX_ITER; an
    extrapolation the fit rejects costs one more E step, counted against
    EM_MAX_ITER but not recorded.  ``loglik`` is the plain data log
    likelihood of the returned parameters.
    """

    weights: np.ndarray
    loglik: float
    converged: bool
    n_iter: int
    loglik_history: np.ndarray = field(repr=False)


def _as_shots(shots, name: str = "shots") -> np.ndarray:
    shots = np.asarray(shots, dtype=float)
    if shots.ndim != 2 or shots.shape[1] != 2 or shots.shape[0] < 1:
        raise ValueError(f"{name} must be (n, 2) with n >= 1, got {shots.shape}")
    if not np.isfinite(shots).all():
        raise ValueError(f"{name} of shape {shots.shape} contain non-finite values")
    return shots


def _log_gaussian(shots, means, covs):
    # log N(x | mean, cov) of each shot for one component, shape (n,), or
    # for a stack of k components, shape (k, n)
    det = _exact_det(covs)
    out = _quad_form(shots, means, covs, det)
    out *= -0.5
    out += (-math.log(2.0 * math.pi) - 0.5 * np.log(det))[..., None]
    return out


def _e_step(shots, weights, means, covs):
    # Responsibilities (k, n) and the log mixture density of each shot,
    # log sum_j w_j N(x | mean_j, cov_j), by a max-shifted log-sum-exp,
    # in place in the one (k, n) array.
    joint = _log_gaussian(shots, means, covs)
    joint += np.log(weights)[:, None]
    top = joint.max(axis=0)
    joint -= top
    np.exp(joint, out=joint)
    total = joint.sum(axis=0)
    joint /= total
    return joint, top + np.log(total)


def _pack(weights, means, covs) -> np.ndarray:
    # the free parameters as one vector: weights, means, and the xx, xy
    # and yy entries of each symmetric covariance
    return np.concatenate(
        [weights, means.ravel(), covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]]
    )


def _squarem_step(theta0, theta1, theta2, det_floor):
    # SQUAREM extrapolation (Varadhan & Roland, Scand. J. Statist. 35, 335,
    # 2008) from two EM maps theta0 -> theta1 -> theta2: with r = theta1 -
    # theta0 and v = theta2 - theta1 - r, the point theta0 - 2 a r + a^2 v
    # at a = -|r|/|v| <= -1.  None when that is theta2 itself (a = -1) or
    # leaves the parameter space: a weight not positive, or a covariance
    # not positive-definite above the collapse floor.
    x0, x1, x2 = (_pack(*theta) for theta in (theta0, theta1, theta2))
    r = x1 - x0
    v = x2 - x1 - r
    norm_r, norm_v = float(np.linalg.norm(r)), float(np.linalg.norm(v))
    if norm_v == 0.0 or norm_r <= norm_v:
        return None
    alpha = -norm_r / norm_v
    x = x0 - 2.0 * alpha * r + alpha**2 * v
    k = theta0[0].size
    weights, means = x[:k], x[k : 3 * k].reshape(k, 2)
    xx, xy, yy = x[3 * k :].reshape(3, k)
    covs = np.stack([xx, xy, xy, yy], axis=-1).reshape(k, 2, 2)
    if not (
        np.isfinite(x).all()
        and (weights > 0).all()
        and (xx > 0).all()
        and (_exact_det(covs) > det_floor).all()
    ):
        return None
    return weights / weights.sum(), means, covs


def _log_anchor_prior(means, covs, m0, psi0):
    # Normal-inverse-Wishart log density, ANCHOR_SHOTS strong for both the
    # means and the covariances, up to parameter-independent constants:
    # the quantity EM-MAP is guaranteed to ascend is the data log
    # likelihood plus this.
    d = means.shape[1]
    det = _exact_det(covs)
    inv = _inv(covs, det)
    diff = means - m0
    return float(
        np.sum(
            -0.5 * (ANCHOR_SHOTS + d + 2) * np.log(det)
            - 0.5 * np.einsum("jab,jba->j", psi0, inv)
            - 0.5 * ANCHOR_SHOTS * np.einsum("ja,jab,jb->j", diff, inv, diff)
        )
    )


def fit_gmm(shots, init: ReadoutModel, seed: int = 0) -> GmmModel:
    """MAP expectation-maximization fit of a Gaussian mixture to IQ shots,
    anchored at the calibration blob geometry ``init``.

    One component per calibration blob, started there with equal
    weights.  A conjugate Normal-inverse-Wishart prior of ANCHOR_SHOTS
    (200) effective shots, centred on blob j's mean and with blob j's
    covariance as its no-data mode, holds component j near blob j.
    Without it, a component holding a few dozen shots next to a
    thousandfold-larger cloud is free to wander off and model the big
    cloud's tails instead; it also keeps the seed-to-seed wobble of the
    1-sigma ellipses from inflating the variance of the population
    estimator downstream.  Component j is therefore blob j: the fit
    comes back in label order (labels ``init.labels``).

    EM is accelerated by SQUAREM (Varadhan & Roland, Scand. J. Statist.
    35, 335-353, 2008): every two EM steps the fit extrapolates along
    the path they took, and keeps the extrapolation only when its
    weights are positive, its covariances positive-definite above the
    collapse floor and its objective at least that of the first EM
    step; else it keeps the second EM step, so the objective never
    decreases.  Iterates until one such cycle changes the objective by
    at most EM_RELTOL (1e-8) relative, or for EM_MAX_ITER (500) E steps.

    The fit draws no random numbers: ``seed`` is accepted for existing
    callers and ignored.

    Raises ValueError on malformed shots, fewer than 10 per component,
    or shots that all sit at one point (zero spread), and
    CovarianceCollapseError, naming the component(s), when an M step
    leaves a covariance determinant below 1e-12 of the squared data
    scale.
    """
    shots = _as_shots(shots)
    n = shots.shape[0]
    k = init.n_components
    d = 2
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} shots to fit {k} components")
    if (shots == shots[0]).all():
        raise ValueError(
            f"all {n} shots sit at {shots[0].tolist()}: zero spread, nothing to fit"
        )
    # psi0 scaled so the no-data mode of the covariance is exactly the
    # calibration covariance
    m0, psi0 = init.means, (ANCHOR_SHOTS + d + 2) * init.covariances

    data_scale = float(np.var(shots, axis=0).sum())
    det_floor = COLLAPSE_DET_FLOOR * data_scale**2

    # One E step per pass.  A SQUAREM cycle maps theta0 -> theta1 ->
    # theta2 by EM and closes at the extrapolation from the three, or at
    # theta2; ``fallback`` holds theta2 while the extrapolation is
    # evaluated, and ``closes`` marks the candidate that ends the cycle.
    theta0 = None
    candidate = (np.full(k, 1.0 / k), init.means, init.covariances)
    fallback, closes = None, False
    history = []
    converged = False
    for _ in range(EM_MAX_ITER):
        resp, log_mix = _e_step(shots, *candidate)
        obj = float(log_mix.sum()) + _log_anchor_prior(*candidate[1:], m0, psi0)
        if fallback is not None:
            if obj < history[-1]:  # the extrapolation lost ground: take theta2
                candidate, fallback = fallback, None
                continue
            fallback = None

        # EM ascent guarantee
        if history and obj < history[-1] - 1e-10 * abs(history[-1]):
            raise RuntimeError(
                f"EM objective decreased at E step {len(history) + 1}: "
                f"{history[-1]} -> {obj}"
            )
        # history ends with the objectives of theta0 and theta1
        converged = closes and abs(obj - history[-2]) <= EM_RELTOL * abs(obj)
        history.append(obj)
        theta, loglik = candidate, float(log_mix.sum())
        if converged:
            break

        # M step, into new arrays: theta0 and theta stay for the extrapolation
        nk = resp.sum(axis=1)
        weights = nk / n
        xbar = (resp @ shots) / nk[:, None]
        # scatter about each mean from its xx, xy and yy sums in three (k, n)
        # arrays, a quarter of the time of one einsum over (k, n, 2)
        dx = shots[:, 0] - xbar[:, :1]
        dy = shots[:, 1] - xbar[:, 1:]
        rd = resp * dx
        xx, xy = np.einsum("jn,jn->j", rd, dx), np.einsum("jn,jn->j", rd, dy)
        yy = np.einsum("jn,jn->j", np.multiply(resp, dy, out=rd), dy)
        scatter = np.stack([xx, xy, xy, yy], axis=-1).reshape(k, d, d)
        pull = xbar - m0
        shrink = ANCHOR_SHOTS * nk / (ANCHOR_SHOTS + nk)
        means = (ANCHOR_SHOTS * m0 + nk[:, None] * xbar) / (ANCHOR_SHOTS + nk)[:, None]
        outer = shrink[:, None, None] * (pull[:, :, None] * pull[:, None])
        covs = (psi0 + scatter + outer) / (ANCHOR_SHOTS + nk + d + 2)[:, None, None]

        # a NaN determinant, from a component that owns no shot, counts too
        collapsed = np.flatnonzero(~(_exact_det(covs) >= det_floor))
        if collapsed.size:
            names = ", ".join(f"{j} ({init.labels[j]})" for j in collapsed)
            raise CovarianceCollapseError(
                f"component(s) {names} collapsed after E step {len(history)}: "
                f"covariance det < {det_floor:.3e}"
            )
        candidate, closes = (weights, means, covs), theta0 is not None
        if theta0 is None:
            theta0 = theta
        else:
            step = _squarem_step(theta0, theta, candidate, det_floor)
            if step is not None:
                candidate, fallback = step, candidate
            theta0 = None

    weights, means, covs = theta
    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        labels=init.labels,
        loglik=loglik,
        converged=converged,
        n_iter=len(history),
        loglik_history=np.array(history),
    )


@dataclass(frozen=True)
class PopulationEstimate:
    """Corrected populations with their raw ellipse counts: one (k,) row
    each, or an (m, k) table of rows sharing one correction."""

    populations: np.ndarray
    raw_counts: np.ndarray
    correction: np.ndarray  # (k, k) confusion matrix, see correction_matrix
    labels: tuple[str, ...]
    condition_number: float


def _erf(x) -> np.ndarray:
    # math.erf elementwise
    values = map(math.erf, x.ravel().tolist())
    return np.fromiter(values, float, x.size).reshape(x.shape)


def _ray_mean(n, m, prec, offset=0.0) -> np.ndarray:
    # Mean over the n equispaced angles 2 pi (l + offset) / n of
    #   R = int_0^1 r exp(-(r u - m)^T prec (r u - m) / 2) dr,  u = (cos, sin),
    # for every (i, j).  With a = u.prec.u, b = u.prec.m, c = m.prec.m the
    # exponent is (a r^2 - 2 b r + c) / 2; completing the square in r
    # splits R into an exp term and an erf term.
    theta = 2.0 * math.pi * (np.arange(n) + offset) / n
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    a = np.einsum("na,ijab,nb->ijn", u, prec, u)
    b = np.einsum("na,ijab,ijb->ijn", u, prec, m)
    c = np.einsum("ija,ijab,ijb->ij", m, prec, m)[..., None]
    q = np.sqrt(2.0 * a)
    r = (np.exp(-0.5 * c) - np.exp(-0.5 * (a - 2.0 * b + c))) / a + (
        b / a * math.sqrt(math.pi) / q
        * np.exp(0.5 * (b * b / a - c))
        * (_erf((a - b) / q) + _erf(b / q))
    )
    return r.mean(axis=-1)


def correction_matrix(model) -> np.ndarray:
    """Confusion matrix M_ij by deterministic quadrature.

    M_ij is the probability that a draw from blob j falls inside the
    1-sigma ellipse of blob i.  Whitening by blob i's Cholesky factor maps
    that ellipse to the unit disk; in polar coordinates the radial
    integral of blob j's Gaussian is closed form, and the periodic
    angular integral uses the trapezoid rule, doubling the angles from 64
    until two estimates agree to QUADRATURE_TOL.  Draws no random numbers.
    Raises ValueError when QUADRATURE_MAX_ANGLES angles do not resolve the
    geometry: two blobs whose covariances have eigenvalue ratio 1e7,
    crossed at 90 degrees, still resolve; ratio 1e8 does not.
    """
    means, covs = np.asarray(model.means), np.asarray(model.covariances)
    chol = np.linalg.cholesky(covs)
    inv = _inv(chol, chol[:, 0, 0] * chol[:, 1, 1])
    # blob j in blob i's whitened frame: N(m[i, j], s[i, j])
    m = np.einsum("iab,ijb->ija", inv, means[None] - means[:, None])
    s = inv[:, None] @ covs[None] @ np.swapaxes(inv, 1, 2)[:, None]
    det = _exact_det(s)
    prec = _inv(s, det)
    scale = 1.0 / np.sqrt(det)

    # the 2n-angle trapezoid sum reuses the n-angle one: it is the mean
    # of that and the midpoint sum at the n angles offset by half a step
    estimate, n = scale * _ray_mean(64, m, prec), 64
    while 2 * n <= QUADRATURE_MAX_ANGLES:
        refined = 0.5 * (estimate + scale * _ray_mean(n, m, prec, 0.5))
        if np.abs(refined - estimate).max() <= QUADRATURE_TOL:
            return refined
        estimate, n = refined, 2 * n
    raise ValueError(
        f"confusion matrix not resolved by {QUADRATURE_MAX_ANGLES} angles: "
        "blob covariances too anisotropic"
    )


def _check_disjoint(model) -> None:
    # ValueError naming every pair of components whose 1-sigma ellipses
    # overlap.  For blobs (mean_i, A) and (mean_j, B) and r = mean_j -
    # mean_i, the contact function (Perram & Wertheim, J. Comput. Phys.
    # 58, 409, 1985)
    #   F(l) = l (1 - l) g(l),  g = r^T Q^-1 r,  Q = A + l D,  D = B - A,
    # is concave on [0, 1], and the ellipses overlap exactly when its
    # maximum is below 1.  The maximum is the root of the secular equation
    # F'(l) = 0, found by Newton steps kept inside a bisection bracket,
    # with g' = -w^T D w and g'' = 2 (D w)^T Q^-1 (D w) for w = Q^-1 r.
    # Every F evaluated is a lower bound of the maximum.  A maximum within
    # TOUCH_RTOL of 1 is a touch, which rounding cannot tell from one;
    # touching ellipses share no area, so they count as disjoint.
    i, j = np.triu_indices(model.n_components, 1)
    a, r = model.covariances[i], model.means[j] - model.means[i]
    d = model.covariances[j] - a
    lo, hi, lam = np.zeros(i.size), np.ones(i.size), np.full(i.size, 0.5)
    for _ in range(100):
        q = a + lam[:, None, None] * d
        q_inv = _inv(q, _exact_det(q))
        w = np.einsum("pab,pb->pa", q_inv, r)
        dw = np.einsum("pab,pb->pa", d, w)
        g, g1 = np.einsum("pa,pa->p", r, w), -np.einsum("pa,pa->p", w, dw)
        g2 = 2.0 * np.einsum("pa,pab,pb->p", dw, q_inv, dw)
        contact = lam * (1.0 - lam) * g
        slope = (1.0 - 2.0 * lam) * g + lam * (1.0 - lam) * g1
        curv = -2.0 * g + 2.0 * (1.0 - 2.0 * lam) * g1 + lam * (1.0 - lam) * g2
        lo, hi = np.where(slope > 0, lam, lo), np.where(slope < 0, lam, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = lam - slope / curv
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        if (np.abs(step - lam) <= 1e-12).all():
            break
        lam = step
    overlap = np.flatnonzero(contact < 1.0 - TOUCH_RTOL)
    if overlap.size:
        pairs = ", ".join(
            f"{model.labels[i[n]]}/{model.labels[j[n]]}" for n in overlap
        )
        raise ValueError(
            f"1-sigma ellipses overlap ({pairs}): a shot can land in two, so "
            "within-sigma counts are not multinomial"
        )


def count_within_sigma(shots, model) -> np.ndarray:
    """Number of shots inside each component's 1-sigma ellipse, shape (k,).

    A shot may land in several ellipses or none.  When the ellipses are
    pairwise disjoint, the counts of n shots of populations p are
    Multinomial(n, [M p, 1 - sum M p]) for the confusion matrix M, and
    ``sample_estimate`` draws them from that law without shots.  Raises
    ValueError unless ``shots`` is a finite (n, 2) array with n >= 1 and
    every component of ``model`` is a valid blob.
    """
    shots = _as_shots(shots)
    means = np.asarray(model.means)
    covs = np.asarray(model.covariances)
    # one component at a time: a (k, n) pass holds k times the memory
    counts = np.empty(means.shape[0])
    for i, (mean, cov) in enumerate(zip(means, covs)):
        _check_component(mean, cov)
        counts[i] = np.count_nonzero(_quad_form(shots, mean, cov) <= 1.0)
    return counts


def correct_counts(counts, n_shots, model) -> PopulationEstimate:
    """Confusion-corrected populations from within-1-sigma counts.

    ``counts`` is one (k,) row of ``count_within_sigma`` or an (m, k)
    table of them, each row counted from ``n_shots`` shots.  Builds the
    confusion matrix M of
    ``correction_matrix`` once, solves M p = counts/n row by row, clips
    negatives and renormalizes each row; the estimate has the shape of
    ``counts``.

    Raises ValueError on malformed counts, on an ``n_shots`` that is not
    a positive integer (bool excluded), naming any count above
    ``n_shots`` (and its row, for a table), and
    SingularCorrectionError when cond(M) > 1e8, which is what heavily
    overlapping blob geometries produce, or when a row's corrected
    populations sum to zero.
    """
    counts = np.asarray(counts, dtype=float)
    k = np.asarray(model.means).shape[0]
    if counts.ndim not in (1, 2) or counts.shape[-1] != k or counts.size == 0:
        raise ValueError(f"counts must be (k,) or (m, k) with k = {k}, got {counts.shape}")
    if not np.isfinite(counts).all() or counts.min() < 0:
        raise ValueError(f"counts {counts.tolist()} must be finite and non-negative")
    integer("n_shots", n_shots, 1)
    if counts.max() > n_shots:
        first = np.argwhere(counts > n_shots)[0]
        where = f" in row {first[0]}" if counts.ndim == 2 else ""
        raise ValueError(
            f"count {counts[tuple(first)]:g} of {model.labels[first[-1]]}{where}"
            f" exceeds n_shots = {n_shots}"
        )

    return _correct(counts, n_shots, model, correction_matrix(model))


def _correct(counts, n_shots, model, m) -> PopulationEstimate:
    # the populations of validated counts under the confusion matrix m
    cond = float(np.linalg.cond(m))
    if cond > COND_LIMIT:
        raise SingularCorrectionError(
            f"confusion matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )

    # one right-hand side per solve, as for a single row
    p = np.linalg.solve(m, (counts / n_shots)[..., None])[..., 0]
    p = np.clip(p, 0.0, None)
    total = p.sum(axis=-1, keepdims=True)
    if (total <= 0).any():
        rows = np.flatnonzero(total <= 0).tolist()
        where = "" if counts.ndim == 1 else f" in row(s) {rows}"
        raise SingularCorrectionError(f"corrected populations sum to zero{where}")
    return PopulationEstimate(
        populations=p / total,
        raw_counts=counts,
        correction=m,
        labels=tuple(model.labels),
        condition_number=cond,
    )


def sample_estimate(
    populations, model, n_shots: int, seed: int = 0
) -> PopulationEstimate:
    """Corrected populations from within-1-sigma counts drawn from their
    exact law: ``correct_counts`` of what ``count_within_sigma`` would
    count in ``synthesize_shots(populations, model, n_shots)``, with no
    shot drawn.

    ``populations`` is one (k,) row or an (m, k) table.  With pairwise
    disjoint 1-sigma ellipses a shot lands in at most one, so row i's
    counts are Multinomial(n_shots, [q, 1 - sum q]) with q = M p_i /
    sum(p_i), M the confusion matrix of ``correction_matrix``, built
    once.  Row i is drawn from the named sub-stream ("counts", i) of
    ``seed``, so a row drawn alone equals the same row in a table, and
    corrected as ``correct_counts`` corrects it.

    Raises ValueError, before any draw, on the arguments
    ``synthesize_shots`` rejects (a table row by row) and when two
    components' 1-sigma ellipses overlap, naming the pairs, and
    SingularCorrectionError as ``correct_counts`` does.
    """
    p = _as_populations(populations, model.n_components, table=True)
    integer("n_shots", n_shots, 1)
    _check_disjoint(model)
    m = correction_matrix(model)
    rows = np.atleast_2d(p)
    counts = np.empty_like(rows)
    for i, row in enumerate(rows):
        q = m @ (row / row.sum())
        pvals = np.append(q, max(0.0, 1.0 - q.sum()))
        counts[i] = named_rng(seed, "counts", i).multinomial(n_shots, pvals)[:-1]
    return _correct(counts.reshape(p.shape), n_shots, model, m)


def estimate_populations(shots, model, seed: int = 0) -> PopulationEstimate:
    """Populations from within-1-sigma counts, confusion-corrected:
    ``correct_counts(count_within_sigma(shots, model), n, model)``.

    The estimate is deterministic: ``seed`` is accepted for existing
    callers and ignored.  Raises ValueError unless ``shots`` is a finite
    (n, 2) array with n >= 1, and SingularCorrectionError when cond(M) >
    1e8, which is what heavily overlapping blob geometries produce.
    """
    counts = count_within_sigma(shots, model)
    return correct_counts(counts, np.shape(shots)[0], model)
