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
from scipy.optimize import linear_sum_assignment
from scipy.special import erf

from .seeding import named_rng

STATE_LABELS = ("g", "e", "f", "h")
EM_MAX_ITER = 500
EM_RELTOL = 1e-8
COLLAPSE_DET_FLOOR = 1e-12
COND_LIMIT = 1e8
QUADRATURE_TOL = 1e-13
QUADRATURE_MAX_ANGLES = 2**16


class CovarianceCollapseError(RuntimeError):
    """A mixture component collapsed twice onto too few points."""


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
        for j, c in enumerate(covs):
            if np.abs(c - c.T).max() > 1e-12 or np.linalg.eigvalsh(c).min() <= 0:
                raise ValueError(f"covariance {j} is not symmetric positive definite")

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
    if separation <= 0 or sigma <= 0 or h_scale <= 0:
        raise ValueError("separation, sigma and h_scale must be positive")
    radius = separation * sigma / math.sqrt(2.0)
    angles = np.deg2rad([0.0, 90.0, 180.0, 270.0])
    means = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    covs = np.repeat(np.eye(2)[None] * sigma**2, 4, axis=0)
    covs[3] *= h_scale
    return ReadoutModel(means=means, covariances=covs)


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
    """
    p = np.asarray(populations, dtype=float)
    if p.shape != (model.n_components,):
        raise ValueError(f"populations must have shape ({model.n_components},)")
    if p.min() < 0 or p.sum() <= 0:
        raise ValueError("populations must be non-negative with positive sum")
    if n_shots < 1:
        raise ValueError(f"n_shots must be positive, got {n_shots}")
    p = p / p.sum()

    rng = named_rng(seed, "shots")
    states = rng.choice(model.n_components, size=n_shots, p=p)
    z = rng.standard_normal((n_shots, 2))
    chol = np.linalg.cholesky(model.covariances)  # (k,2,2)
    shots = model.means[states] + np.einsum("nij,nj->ni", chol[states], z)
    if return_states:
        return shots, states
    return shots


def fraction_within_sigma(m: float = 1.0) -> float:
    """Probability mass of a 2D Gaussian within Mahalanobis radius m.

    Closed form 1 - exp(-m^2/2); the 1-sigma ellipse captures 39.34%.
    """
    if m < 0:
        raise ValueError(f"radius must be non-negative, got {m}")
    return 1.0 - math.exp(-0.5 * m * m)


def _det(cov):
    # explicit determinant over the last two (2x2) axes
    return cov[..., 0, 0] * cov[..., 1, 1] - cov[..., 0, 1] * cov[..., 1, 0]


def _inv(cov):
    # explicit 2x2 inverse over the last two axes: adjugate / determinant
    adj = np.stack(
        [cov[..., 1, 1], -cov[..., 0, 1], -cov[..., 1, 0], cov[..., 0, 0]], axis=-1
    )
    return adj.reshape(cov.shape) / _det(cov)[..., None, None]


def mahalanobis_sq(points, mean, cov) -> np.ndarray:
    """Squared Mahalanobis distance of each point to (mean, cov).

    Raises ValueError unless ``points`` is (n, 2), ``mean`` has shape (2,)
    and ``cov`` is a finite 2x2 symmetric positive-definite matrix.
    """
    points = np.asarray(points, dtype=float)
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2 or mean.shape != (2,):
        raise ValueError(
            f"points must be (n, 2) and mean (2,), got {points.shape} and {mean.shape}"
        )
    if (
        cov.shape != (2, 2)
        or not np.isfinite(cov).all()
        or abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (abs(cov[0, 0]) + abs(cov[1, 1]))
        or cov[0, 0] <= 0
        or _det(cov) <= 0
    ):
        raise ValueError(
            f"cov {cov.tolist()} is not a 2x2 symmetric positive-definite matrix"
        )
    inv = _inv(cov)
    dx = points[:, 0] - mean[0]
    dy = points[:, 1] - mean[1]
    return (
        inv[0, 0] * dx * dx + (inv[0, 1] + inv[1, 0]) * dx * dy + inv[1, 1] * dy * dy
    )


@dataclass
class GmmModel:
    """Gaussian mixture fitted by EM.

    loglik_history holds the EM objective after every iteration -- the
    data log likelihood, plus the calibration-prior log density when the
    fit is anchored.  EM guarantees the objective never decreases, and
    the tests hold it to that.  ``loglik`` is always the plain data log
    likelihood of the returned parameters.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    labels: tuple[str, ...]
    loglik: float
    converged: bool
    n_iter: int
    loglik_history: np.ndarray = field(repr=False, default=None)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def as_readout_model(self) -> ReadoutModel:
        return ReadoutModel(
            means=self.means.copy(),
            covariances=self.covariances.copy(),
            labels=self.labels,
        )


def _as_shots(shots) -> np.ndarray:
    shots = np.asarray(shots, dtype=float)
    if shots.ndim != 2 or shots.shape[1] != 2 or shots.shape[0] < 1:
        raise ValueError(f"shots must be (n, 2) with n >= 1, got {shots.shape}")
    if not np.isfinite(shots).all():
        raise ValueError(f"shots of shape {shots.shape} contain non-finite values")
    return shots


def _log_gaussian(shots, mean, cov):
    maha = mahalanobis_sq(shots, mean, cov)
    return -math.log(2.0 * math.pi) - 0.5 * math.log(_det(cov)) - 0.5 * maha


def _e_step(shots, weights, means, covs):
    # Responsibilities (k, n) and the log mixture density of each shot,
    # log sum_j w_j N(x | mean_j, cov_j), by a max-shifted log-sum-exp.
    log_joint = np.stack(
        [
            math.log(w) + _log_gaussian(shots, m, c)
            for w, m, c in zip(weights, means, covs)
        ]
    )
    top = log_joint.max(axis=0)
    joint = np.exp(log_joint - top)
    total = joint.sum(axis=0)
    return joint / total, top + np.log(total)


def _kmeanspp_init(shots, k, rng):
    # D^2-weighted center choice, then one nearest-center partition for
    # the starting covariances.
    n = shots.shape[0]
    centers = [shots[rng.integers(n)]]
    for _ in range(k - 1):
        d2 = np.min(
            [np.sum((shots - c) ** 2, axis=1) for c in centers], axis=0
        )
        total = d2.sum()
        probs = d2 / total if total > 0 else np.full(n, 1.0 / n)
        centers.append(shots[rng.choice(n, p=probs)])
    means = np.array(centers)
    assign = np.argmin(
        ((shots[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
    )
    global_cov = np.cov(shots.T) + 1e-6 * np.eye(2)
    covs = np.empty((k, 2, 2))
    weights = np.empty(k)
    for j in range(k):
        pts = shots[assign == j]
        weights[j] = max(pts.shape[0], 1) / n
        covs[j] = np.cov(pts.T) if pts.shape[0] > 2 else global_cov
        if _det(covs[j]) <= 0:
            covs[j] = global_cov
    return weights / weights.sum(), means, covs


def _log_anchor_prior(means, covs, m0, psi0, kappa0, nu0):
    # Normal-inverse-Wishart log density up to parameter-independent
    # constants: the quantity EM-MAP is guaranteed to ascend is the data
    # log likelihood plus this.
    d = means.shape[1]
    inv = _inv(covs)
    diff = means - m0
    return float(
        np.sum(
            -0.5 * (nu0 + d + 2) * np.log(_det(covs))
            - 0.5 * np.einsum("jab,jba->j", psi0, inv)
            - 0.5 * kappa0 * np.einsum("ja,jab,jb->j", diff, inv, diff)
        )
    )


def fit_gmm(
    shots,
    n_components: int = 4,
    init: ReadoutModel | None = None,
    seed: int = 0,
    anchor: float | None = None,
) -> GmmModel:
    """Expectation-maximization fit of a Gaussian mixture to IQ shots.

    Initialized from calibration blob geometry when ``init`` is given
    (component labels are then matched back to the calibration labels by
    nearest means), else by seeded k-means++ (components labelled by
    decreasing weight).  Iterates until the relative change of the
    objective drops below 1e-8 or 500 iterations.  A component whose
    covariance determinant falls below 1e-12 of the data scale is
    re-seeded once; a second collapse raises CovarianceCollapseError.

    Parameters
    ----------
    anchor : float, optional
        Strength, in effective shots, of a conjugate
        Normal-inverse-Wishart prior holding each component's mean and
        covariance near the calibration geometry (MAP EM).  Defaults to
        200 when ``init`` is given and 0 (plain maximum likelihood)
        otherwise.  Without it, a component holding a few dozen shots
        next to a thousandfold-larger cloud is free to wander off and
        model the big cloud's tails instead; anchoring also keeps the
        seed-to-seed wobble of the 1-sigma ellipses from inflating the
        variance of the population estimator downstream.
    """
    shots = _as_shots(shots)
    n = shots.shape[0]
    k = n_components
    d = 2
    if n < 10 * k:
        raise ValueError(f"need at least {10 * k} shots to fit {k} components")

    rng = named_rng(seed, "gmm-init")
    if init is not None:
        if init.n_components != k:
            raise ValueError("init model component count mismatch")
        weights = np.full(k, 1.0 / k)
        means = init.means.copy()
        covs = init.covariances.copy()
    else:
        weights, means, covs = _kmeanspp_init(shots, k, rng)

    if anchor is None:
        anchor = 200.0 if init is not None else 0.0
    if anchor < 0:
        raise ValueError(f"anchor must be non-negative, got {anchor}")
    if anchor > 0 and init is None:
        raise ValueError("anchor requires an init model to anchor to")
    anchored = anchor > 0
    if anchored:
        kappa0 = nu0 = float(anchor)
        m0 = init.means.copy()
        # scaled so the no-data mode of the covariance is exactly the
        # calibration covariance
        psi0 = (nu0 + d + 2) * init.covariances.copy()

    data_scale = float(np.var(shots, axis=0).sum())
    det_floor = COLLAPSE_DET_FLOOR * data_scale**2
    reseeded = np.zeros(k, dtype=bool)

    history = []
    prev_obj = -math.inf
    converged = False
    just_reseeded = False
    it = 0
    for it in range(1, EM_MAX_ITER + 1):
        resp, log_mix = _e_step(shots, weights, means, covs)
        obj = float(log_mix.sum())
        if anchored:
            obj += _log_anchor_prior(means, covs, m0, psi0, kappa0, nu0)

        # EM ascent guarantee; a reseed restarts the sequence
        if (
            history
            and not just_reseeded
            and obj < history[-1] - 1e-10 * abs(history[-1])
        ):
            raise RuntimeError(
                f"EM objective decreased at iteration {it}: "
                f"{history[-1]} -> {obj}"
            )
        history.append(obj)
        just_reseeded = False

        # M step
        nk = resp.sum(axis=1)
        weights = nk / n
        xbar = (resp @ shots) / nk[:, None]
        if anchored:
            means = (kappa0 * m0 + nk[:, None] * xbar) / (kappa0 + nk)[:, None]
            for j in range(k):
                diff = shots - xbar[j]
                s_j = (resp[j][:, None] * diff).T @ diff
                pull = xbar[j] - m0[j]
                shrink = kappa0 * nk[j] / (kappa0 + nk[j])
                covs[j] = (psi0[j] + s_j + shrink * np.outer(pull, pull)) / (
                    nu0 + nk[j] + d + 2
                )
        else:
            means = xbar
            for j in range(k):
                diff = shots - means[j]
                covs[j] = (resp[j][:, None] * diff).T @ diff / nk[j]

        collapsed = [j for j in range(k) if _det(covs[j]) < det_floor]
        for j in collapsed:
            if reseeded[j]:
                raise CovarianceCollapseError(
                    f"component {j} collapsed twice (det < {det_floor:.3e})"
                )
            reseeded[j] = True
            means[j] = shots[rng.integers(n)]
            covs[j] = np.cov(shots.T) + 1e-6 * np.eye(2)
            weights[j] = 1.0 / k
            weights = weights / weights.sum()
            prev_obj = -math.inf  # restart the convergence window
            just_reseeded = True

        if not collapsed:
            if abs(obj - prev_obj) <= EM_RELTOL * abs(obj):
                converged = True
                break
            prev_obj = obj

    if init is not None:
        # match fitted components back to the calibration labels
        dist = np.linalg.norm(means[:, None, :] - init.means[None], axis=2)
        rows, cols = linear_sum_assignment(dist)
        labels = tuple(init.labels[c] for c in cols[np.argsort(rows)])
    else:
        order = np.argsort(-weights)
        rank = np.empty(k, dtype=int)
        rank[order] = np.arange(k)
        labels = tuple(STATE_LABELS[r] if k == 4 else str(r) for r in rank)

    return GmmModel(
        weights=weights,
        means=means,
        covariances=covs,
        labels=labels,
        loglik=float(_e_step(shots, weights, means, covs)[1].sum()),
        converged=converged,
        n_iter=it,
        loglik_history=np.array(history),
    )


@dataclass(frozen=True)
class PopulationEstimate:
    """Corrected populations with their raw ellipse counts."""

    populations: np.ndarray
    raw_counts: np.ndarray
    correction: np.ndarray  # (k, k) confusion matrix, see correction_matrix
    labels: tuple[str, ...]
    condition_number: float


def _ray_mean(n, m, prec) -> np.ndarray:
    # Trapezoid rule on n equispaced angles for the angular mean of
    #   R = int_0^1 r exp(-(r u - m)^T prec (r u - m) / 2) dr,  u = (cos, sin),
    # for every (i, j).  With a = u.prec.u, b = u.prec.m, c = m.prec.m the
    # exponent is (a r^2 - 2 b r + c) / 2; completing the square in r
    # splits R into an exp term and an erf term.
    theta = 2.0 * math.pi * np.arange(n) / n
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    a = np.einsum("na,ijab,nb->ijn", u, prec, u)
    b = np.einsum("na,ijab,ijb->ijn", u, prec, m)
    c = np.einsum("ija,ijab,ijb->ij", m, prec, m)[..., None]
    q = np.sqrt(2.0 * a)
    r = (np.exp(-0.5 * c) - np.exp(-0.5 * (a - 2.0 * b + c))) / a + (
        b / a * math.sqrt(math.pi) / q
        * np.exp(0.5 * (b * b / a - c))
        * (erf((a - b) / q) + erf(b / q))
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
    inv = np.linalg.inv(np.linalg.cholesky(covs))
    # blob j in blob i's whitened frame: N(m[i, j], s[i, j])
    m = np.einsum("iab,ijb->ija", inv, means[None] - means[:, None])
    s = inv[:, None] @ covs[None] @ np.swapaxes(inv, 1, 2)[:, None]
    prec = np.linalg.inv(s)
    scale = 1.0 / np.sqrt(np.linalg.det(s))

    previous, n = np.inf, 64
    while n <= QUADRATURE_MAX_ANGLES:
        estimate = scale * _ray_mean(n, m, prec)
        if np.abs(estimate - previous).max() <= QUADRATURE_TOL:
            return estimate
        previous, n = estimate, 2 * n
    raise ValueError(
        f"confusion matrix not resolved by {QUADRATURE_MAX_ANGLES} angles: "
        "blob covariances too anisotropic"
    )


def estimate_populations(shots, model, seed: int = 0) -> PopulationEstimate:
    """Populations from within-1-sigma counts, confusion-corrected.

    Counts how many shots fall inside each component's 1-sigma ellipse
    (a shot may land in several or none), solves M p = counts/n with the
    confusion matrix of ``correction_matrix``, clips negatives and
    renormalizes.  The estimate is deterministic: ``seed`` is accepted
    for existing callers and ignored.

    Raises ValueError unless ``shots`` is a finite (n, 2) array with
    n >= 1, and SingularCorrectionError when cond(M) > 1e8, which is what
    heavily overlapping blob geometries produce.
    """
    shots = _as_shots(shots)
    means = np.asarray(model.means)
    covs = np.asarray(model.covariances)
    k = means.shape[0]

    counts = np.array(
        [
            int(np.sum(mahalanobis_sq(shots, means[i], covs[i]) <= 1.0))
            for i in range(k)
        ],
        dtype=float,
    )

    m = correction_matrix(model)
    cond = float(np.linalg.cond(m))
    if cond > COND_LIMIT:
        raise SingularCorrectionError(
            f"confusion matrix condition number {cond:.3e} exceeds {COND_LIMIT:.0e}"
        )

    p = np.linalg.solve(m, counts / shots.shape[0])
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total <= 0:
        raise SingularCorrectionError("corrected populations sum to zero")
    labels = tuple(getattr(model, "labels", tuple(str(i) for i in range(k))))
    return PopulationEstimate(
        populations=p / total,
        raw_counts=counts,
        correction=m,
        labels=labels,
        condition_number=cond,
    )
