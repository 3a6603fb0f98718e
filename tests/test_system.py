import math

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from qcrsim.system import (
    DISPERSIVE_RATIO_MAX,
    MAX_HILBERT_DIM,
    DimensionError,
    ResonatorSpec,
    SystemSpec,
    TransmonSpec,
    build_hamiltonian,
    destroy,
    diagonalize,
    dispersive_shift,
    ladder_elements,
    readout_pull,
    total_excitation_number,
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


def test_destroy_matrix_elements():
    a = destroy(4)
    assert a.shape == (4, 4)
    assert_allclose(np.diag(a, k=1), np.sqrt([1.0, 2.0, 3.0]))
    assert np.count_nonzero(a - np.diag(np.diag(a, 1), 1)) == 0
    assert_allclose(ladder_elements(4), np.sqrt([1.0, 2.0, 3.0]))


class TestSpecValidation:
    def test_transmon_rejects_positive_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            TransmonSpec(alpha=0.1)

    def test_transmon_rejects_single_level(self):
        with pytest.raises(ValueError, match="n_levels"):
            TransmonSpec(n_levels=1)

    def test_resonator_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            ResonatorSpec(omega=4.67, g=0.0, n_levels=4)

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

    def test_validate_rejects_oversized_hilbert_space(self, system):
        big = replace(system, transmon=TransmonSpec(n_levels=300))
        assert big.hilbert_dim > MAX_HILBERT_DIM
        with pytest.raises(DimensionError):
            big.validate()

    def test_dim_cap_boundary_accepted(self, system):
        edge = replace(system, transmon=TransmonSpec(n_levels=256))
        assert edge.hilbert_dim == MAX_HILBERT_DIM
        edge.validate()


def test_hamiltonian_shape_and_hermiticity(system):
    h = build_hamiltonian(system)
    assert h.shape == (96, 96)
    assert_allclose(h, h.conj().T, atol=1e-14)


def test_hamiltonian_conserves_total_excitation(system):
    # the rotating-wave coupling commutes with the excitation number
    h = build_hamiltonian(system)
    n = total_excitation_number(system)
    comm = h @ n - n @ h
    assert np.abs(comm).max() < 1e-12


def test_hamiltonian_diagonal_is_bare_energy(system):
    h = build_hamiltonian(system)
    nt, n1, n2 = system.dims
    et = transmon_energies(system.transmon)
    idx = 0
    bare = np.empty(nt * n1 * n2)
    for i in range(nt):
        for j in range(n1):
            for k in range(n2):
                bare[idx] = (
                    et[i]
                    + j * system.reset_resonator.omega
                    + k * system.readout_resonator.omega
                )
                idx += 1
    assert_allclose(np.diag(h).real, bare, atol=1e-12)


class TestSpectrum:
    def test_ground_state_is_zero(self, system):
        spec = diagonalize(system)
        assert spec.energies[0] == pytest.approx(0.0, abs=1e-12)

    def test_labels_are_a_bijection(self, system):
        spec = diagonalize(system)
        labels = {tuple(row) for row in spec.bare_indices}
        assert len(labels) == system.hilbert_dim

    def test_energy_of_round_trip(self, system):
        spec = diagonalize(system)
        # dressed g-e splitting stays within a linewidth of the bare one
        e_ge = spec.energy_of(1, 0, 0) - spec.energy_of(0, 0, 0)
        assert e_ge == pytest.approx(system.transmon.omega_ge, abs=0.01)

    def test_dominant_overlap_is_large(self, system):
        spec = diagonalize(system)
        assert spec.overlaps.min() > 0.8


def test_dispersive_shift_value(system):
    g = system.readout_resonator.g
    alpha = system.transmon.alpha
    delta = system.transmon.omega_ge - system.readout_resonator.omega
    expected = g**2 * alpha / (delta * (delta + alpha))
    chi = dispersive_shift(system)
    assert chi == pytest.approx(expected, rel=1e-12)
    assert chi == pytest.approx(-1.1148e-4, rel=1e-3)  # GHz, about -111 kHz


def test_readout_pull_matches_perturbation_theory(system):
    """Exact two-resonator pull vs 2*chi from second-order theory."""
    pull = readout_pull(system)
    assert pull == pytest.approx(2.0 * dispersive_shift(system), rel=0.10)


def test_readout_pull_error_is_quartic_in_coupling(system):
    # halving both couplings should shrink the residual ~16x
    def residual(s):
        return abs(readout_pull(s) - 2.0 * dispersive_shift(s))

    halved = replace(
        system,
        reset_resonator=replace(
            system.reset_resonator, g=system.reset_resonator.g / 2
        ),
        readout_resonator=replace(
            system.readout_resonator, g=system.readout_resonator.g / 2
        ),
    )
    ratio = residual(system) / residual(halved)
    assert 10.0 < ratio < 24.0
