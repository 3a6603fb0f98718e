import math

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from qcrsim.system import (
    DISPERSIVE_RATIO_MAX,
    MAX_LEVELS,
    ResonatorSpec,
    TransmonSpec,
    transition_frequencies,
    transmon_energies,
)


def test_ladder_energies_default():
    # n*omega_ge + (alpha/2) n (n-1) at the design point
    expected = [0.0, 4.09, 7.907, 11.451, 14.722, 17.72]
    assert_allclose(transmon_energies(TransmonSpec()), expected, atol=1e-12)


def test_transition_frequencies_are_energy_differences(transmon):
    e = transmon_energies(transmon)
    f = transition_frequencies(transmon)
    assert f.shape == (transmon.n_levels - 1,)
    assert_allclose(f, np.diff(e), atol=1e-14)
    # each step drops by |alpha|
    assert_allclose(np.diff(f), transmon.alpha, atol=1e-14)


class TestSpecValidation:
    def test_transmon_rejects_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TransmonSpec(alpha=0.1)

    def test_transmon_rejects_single_level(self):
        with pytest.raises(ValueError, match="n_levels"):
            TransmonSpec(n_levels=1)

    def test_resonator_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            ResonatorSpec(omega=4.67, g=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega_ge", "alpha"])
    def test_transmon_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            TransmonSpec(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["omega", "g"])
    def test_resonator_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ResonatorSpec(**{name: value})

    def test_dispersive_ratio_at_design_point(self, system):
        # reset resonator sits closest to the qubit; still dispersive
        ratio = system.reset_resonator.dispersive_ratio(system.transmon.omega_ge)
        assert 0.09 < ratio < DISPERSIVE_RATIO_MAX

    def test_validate_rejects_non_dispersive_coupling(self, system):
        near = replace(system.reset_resonator, omega=4.2)
        with pytest.raises(ValueError, match="dispersive"):
            replace(system, reset_resonator=near).validate()

    def test_dispersive_at_every_transition(self, system):
        # dispersive at g-e, but degenerate with the 1-2 transition
        near = ResonatorSpec(omega=3.817, g=0.01)
        assert near.dispersive_ratio(system.transmon.omega_ge) < 0.04
        with pytest.raises(ValueError, match="reset_resonator .* 1-2 transition"):
            replace(system, reset_resonator=near).validate()
        exact = replace(near, omega=float(transition_frequencies(system.transmon)[1]))
        with pytest.raises(ValueError, match="reset_resonator .* inf"):
            replace(system, reset_resonator=exact).validate()

    def test_validate_rejects_nonpositive_top_transition(self, system):
        # omega_ge + 15 alpha = -0.005 GHz
        deep = replace(system, transmon=TransmonSpec(n_levels=17))
        with pytest.raises(ValueError, match="top ladder transition"):
            deep.validate()

    def test_validate_rejects_oversized_ladder(self, system):
        big = replace(system, transmon=TransmonSpec(alpha=-1e-3, n_levels=257))
        with pytest.raises(ValueError, match=f"exceeds cap {MAX_LEVELS}"):
            big.validate()
        # the cap is checked before anything the size of the ladder is built
        huge = replace(system, transmon=TransmonSpec(alpha=-1e-9, n_levels=10**9))
        with pytest.raises(ValueError, match="exceeds cap"):
            huge.validate()

    def test_dim_cap_boundary_accepted(self, system):
        assert MAX_LEVELS == 256
        edge = TransmonSpec(alpha=-1e-3, n_levels=MAX_LEVELS)
        replace(system, transmon=edge).validate()
