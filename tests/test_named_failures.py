"""Public entry points reject bad arguments up front, with a ValueError
that names the argument, before any propagation and without a numpy
warning on the way."""

import math
import re
import warnings

import numpy as np
import pytest

import qcrsim
from qcrsim import calibrate, dynamics

NAN, INF = math.nan, math.inf


def _evolve(**kwargs):
    rho0 = qcrsim.DensityMatrix.gibbs(0.05, qcrsim.TransmonSpec())
    qcrsim.evolve(
        rho0,
        qcrsim.SystemSpec(),
        qcrsim.JunctionSpec(),
        qcrsim.CouplingSpec(),
        qcrsim.BiasPulse(),
        **kwargs,
    )


def _evolve_constant(dt, t_end):
    system = qcrsim.SystemSpec()
    h = np.diag(qcrsim.transmon_energies(system.transmon))
    rates = qcrsim.transition_rates(
        system, qcrsim.JunctionSpec(), qcrsim.CouplingSpec(), 0.0
    )
    rho0 = qcrsim.DensityMatrix.gibbs(0.05, system.transmon)
    qcrsim.evolve_constant(rho0, h, rates, dt=dt, t_end=t_end)


def _propagate(sample_every):
    system = qcrsim.SystemSpec()
    h = np.diag(qcrsim.transmon_energies(system.transmon))
    rates = qcrsim.transition_rates(
        system, qcrsim.JunctionSpec(), qcrsim.CouplingSpec(), 0.0
    )
    generator = qcrsim.lindblad_generator(h, rates)
    rho0 = qcrsim.DensityMatrix.gibbs(0.05, system.transmon)
    dynamics.propagate(rho0, h, generator[None], [0] * 5, 0.1, sample_every)


def _two_states(n, m):
    return (
        qcrsim.DensityMatrix.gibbs(0.05, qcrsim.TransmonSpec(n_levels=n)),
        qcrsim.DensityMatrix.gibbs(0.05, qcrsim.TransmonSpec(n_levels=m)),
    )


VOLTS, TEMPS = [0.4, 0.6, 0.8, 1.0], [0.10, 0.12, 0.14, 0.16]
MEANS = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, NAN]]

CASES = {
    "evolve-dt-nan": (
        lambda: _evolve(dt=NAN),
        "dt must be positive and finite, got nan",
    ),
    "evolve-dt-inf": (
        lambda: _evolve(dt=INF),
        "dt must be positive and finite, got inf",
    ),
    "evolve-dt-zero": (
        lambda: _evolve(dt=0.0),
        "dt must be positive and finite, got 0.0",
    ),
    "evolve-t_end-nan": (
        lambda: _evolve(dt=0.1, t_end=NAN),
        "t_end must be positive and finite, got nan",
    ),
    "evolve-t_end-inf": (
        lambda: _evolve(dt=0.1, t_end=INF),
        "t_end must be positive and finite, got inf",
    ),
    "evolve-t_end-negative": (
        lambda: _evolve(dt=0.1, t_end=-1.0),
        "t_end must be positive and finite, got -1.0",
    ),
    "evolve_constant-dt-nan": (
        lambda: _evolve_constant(NAN, 10.0),
        "dt must be positive and finite, got nan",
    ),
    "evolve_constant-dt-zero": (
        lambda: _evolve_constant(0.0, 10.0),
        "dt must be positive and finite, got 0.0",
    ),
    "evolve_constant-dt-negative": (
        lambda: _evolve_constant(-1.0, 10.0),
        "dt must be positive and finite, got -1.0",
    ),
    "evolve_constant-t_end-inf": (
        lambda: _evolve_constant(0.1, INF),
        "t_end must be positive and finite, got inf",
    ),
    "trace_distance-dims": (
        lambda: qcrsim.trace_distance(*_two_states(6, 2)),
        "states of dimension 6 and 2 differ",
    ),
    "fidelity-dims": (
        lambda: qcrsim.fidelity(*_two_states(2, 6)),
        "states of dimension 2 and 6 differ",
    ),
    "heating_slope-temps-nan": (
        lambda: qcrsim.heating_slope(VOLTS, [0.10, NAN, 0.14, 0.16], v_min=0.2),
        "temps must be finite, got nan",
    ),
    "heating_slope-temps-inf": (
        lambda: qcrsim.heating_slope(VOLTS, [0.10, 0.12, INF, 0.16], v_min=0.2),
        "temps must be finite, got inf",
    ),
    "heating_slope-voltages-nan": (
        lambda: qcrsim.heating_slope([0.4, 0.6, NAN, 1.0], TEMPS, v_min=0.2),
        "voltages must be finite, got nan",
    ),
    "heating_slope-voltages-inf": (
        lambda: qcrsim.heating_slope([0.4, 0.6, 0.8, INF], TEMPS, v_min=0.2),
        "voltages must be finite, got inf",
    ),
    "calibrate_kappa_eff-target-nan": (
        lambda: qcrsim.calibrate_kappa_eff(target=NAN),
        "target nan K must be finite",
    ),
    "calibrate_kappa_eff-target-inf": (
        lambda: qcrsim.calibrate_kappa_eff(target=INF),
        "target inf K must be finite",
    ),
    "calibrate_kappa_eff-hi-inf": (
        lambda: qcrsim.calibrate_kappa_eff(hi=INF),
        "need 0 < lo < hi < inf, got [0.01, inf]",
    ),
    "DensityMatrix-nan": (
        lambda: qcrsim.DensityMatrix(np.diag([NAN, 1.0, 0.0, 0.0, 0.0, 0.0])),
        "entry [0, 0] = (nan+0j) is not finite",
    ),
    "DensityMatrix-inf": (
        lambda: qcrsim.DensityMatrix(np.diag([1.0, 0.0, INF, 0.0])),
        "entry [2, 2] = (inf+0j) is not finite",
    ),
    "ReadoutModel-mean-nan": (
        lambda: qcrsim.ReadoutModel(means=MEANS, covariances=[np.eye(2)] * 4),
        "mean [0.0, nan] must be finite",
    ),
    "default_model-separation-nan": (
        lambda: qcrsim.default_model(separation=NAN),
        "separation must be positive and finite, got nan",
    ),
    "default_model-sigma-inf": (
        lambda: qcrsim.default_model(sigma=INF),
        "sigma must be positive and finite, got inf",
    ),
    "default_model-h_scale-nan": (
        lambda: qcrsim.default_model(h_scale=NAN),
        "h_scale must be positive and finite, got nan",
    ),
    "TransmonSpec-n_levels-float": (
        lambda: qcrsim.TransmonSpec(n_levels=2.5),
        "n_levels must be an integer >= 2, got 2.5",
    ),
    "gibbs_populations-truncation-float": (
        lambda: qcrsim.gibbs_populations(0.1, qcrsim.TransmonSpec(), truncation=2.5),
        "truncation must be an integer in [2, 6], got 2.5",
    ),
    "normalize_leading-k-float": (
        lambda: qcrsim.normalize_leading([0.5, 0.3, 0.2], k=2.5),
        "k must be an integer in [1, 3], got 2.5",
    ),
    "OttoSpec-n_cycles-float": (
        lambda: qcrsim.OttoSpec(n_cycles=2.5),
        "n_cycles must be an integer >= 1, got 2.5",
    ),
    "evolve-sample_every-float": (
        lambda: _evolve(dt=0.1, sample_every=2.5),
        "sample_every must be an integer >= 1, got 2.5",
    ),
    "propagate-sample_every-float": (
        lambda: _propagate(2.5),
        "sample_every must be an integer >= 1, got 2.5",
    ),
    "correct_counts-n_shots-bool": (
        lambda: qcrsim.correct_counts([1, 0, 0, 0], True, qcrsim.default_model()),
        "n_shots must be an integer, got True",
    ),
    "correct_counts-n_shots-float": (
        lambda: qcrsim.correct_counts([1, 0, 0, 0], 2.5, qcrsim.default_model()),
        "n_shots must be an integer, got 2.5",
    ),
    "sample_estimate-n_shots-bool": (
        lambda: qcrsim.sample_estimate([1, 0, 0, 0], qcrsim.default_model(), True),
        "n_shots must be an integer, got True",
    ),
    "mahalanobis_sq-points-nan": (
        lambda: qcrsim.mahalanobis_sq([[0.0, NAN]], [0.0, 0.0], np.eye(2)),
        "points of shape (1, 2) contain non-finite values",
    ),
    "mahalanobis_sq-points-inf": (
        lambda: qcrsim.mahalanobis_sq([[0.0, 0.0], [INF, 1.0]], [0.0, 0.0], np.eye(2)),
        "points of shape (2, 2) contain non-finite values",
    ),
    "two_level_relaxation-rates-zero": (
        lambda: qcrsim.two_level_relaxation(0.5, 0.0, 0.0, 1.0),
        "gamma_down + gamma_up must be positive, got 0 and 0",
    ),
    "two_level_relaxation-gamma_down-negative": (
        lambda: qcrsim.two_level_relaxation(0.5, -1.0, 0.01, 1.0),
        "gamma_down must be non-negative and finite, got -1.0",
    ),
    "two_level_relaxation-gamma_up-nan": (
        lambda: qcrsim.two_level_relaxation(0.5, 0.03, NAN, 1.0),
        "gamma_up must be non-negative and finite, got nan",
    ),
    "two_level_relaxation-p_e0-nan": (
        lambda: qcrsim.two_level_relaxation(NAN, 0.03, 0.01, 1.0),
        "p_e0 must be in [0, 1], got nan",
    ),
    "two_level_relaxation-t-nan": (
        lambda: qcrsim.two_level_relaxation(0.5, 0.03, 0.01, [0.0, NAN]),
        "time t must be finite, got nan",
    ),
}


@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_bad_argument_fails_by_name(monkeypatch, call, message):
    def ran(*args, **kwargs):
        raise AssertionError("propagated before rejecting the argument")

    monkeypatch.setattr(dynamics, "_propagate_stretches", ran)
    monkeypatch.setattr(calibrate, "evolve", ran)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
