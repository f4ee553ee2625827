"""Relaxation/dephasing channel against the master-equation oracle."""

import numpy as np
import pytest

from oracles import (dephased_fourier_prob, is_density_matrix,
                     lindblad_oracle, phase_evolution)
from quditmag.core import balanced_state, fourier_gate
from quditmag.decoherence import (DecoherenceParams, decohere_channel,
                                  likelihood_grid)

T_C = 5e-6


def random_density_matrix(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure_density(rng, omega=0.0, t=0.0):
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    psi = phase_evolution(omega, t, 3) @ psi
    return np.outer(psi, psi.conj())


def test_rate_tie_constructor():
    params = DecoherenceParams.from_coherence_time(T_C)
    assert params.gamma_10 == pytest.approx(1.0 / T_C)
    assert params.gamma_phi == pytest.approx(1.0 / T_C)
    assert params.gamma_21 == pytest.approx(np.sqrt(2) / T_C)


def test_negative_rates_rejected():
    with pytest.raises(ValueError):
        DecoherenceParams(gamma_10=-1.0)
    with pytest.raises(ValueError):
        DecoherenceParams.from_coherence_time(0.0)
    # a negative delay reaches the channel's rejection through the kernel
    with pytest.raises(ValueError, match="delay time must be non-negative"):
        likelihood_grid(balanced_state(3), -1e-9, fourier_gate(3), [0.0],
                        DecoherenceParams.none())


def test_channel_identity_at_zero_time():
    rng = np.random.default_rng(0)
    params = DecoherenceParams.from_coherence_time(T_C)
    rho = random_density_matrix(rng)
    assert np.allclose(decohere_channel(rho, 0.0, params), rho, atol=1e-14)


def test_channel_full_relaxation_endpoint():
    rng = np.random.default_rng(1)
    params = DecoherenceParams.from_coherence_time(T_C)
    rho = decohere_channel(random_density_matrix(rng), 1e6 * T_C, params)
    ground = np.zeros((3, 3), dtype=complex)
    ground[0, 0] = 1.0
    assert np.allclose(rho, ground, atol=1e-8)


def test_channel_is_trace_preserving_and_positive():
    """CPTP sanity: the output stays a valid density matrix."""
    rng = np.random.default_rng(2)
    params = DecoherenceParams.from_coherence_time(T_C)
    for _ in range(500):
        t = rng.uniform(0.0, 5.0 * T_C)
        rho = decohere_channel(random_density_matrix(rng), t, params)
        assert is_density_matrix(rho)


def test_degenerate_rate_limit_continuous():
    """The cascade term is continuous across gamma_21 -> gamma_10."""
    rng = np.random.default_rng(3)
    rho = random_density_matrix(rng)
    g = 1.0 / T_C
    t = 0.7 * T_C
    exact = decohere_channel(rho, t, DecoherenceParams(g, g, 0.0))
    near = decohere_channel(rho, t, DecoherenceParams(g, g * (1 + 1e-11), 0.0))
    assert np.allclose(exact, near, atol=1e-9)


def test_channel_matches_lindblad_oracle():
    rng = np.random.default_rng(4)
    params = DecoherenceParams.from_coherence_time(T_C)
    for _ in range(10):
        omega = rng.uniform(-5e5, 5e5)
        t = rng.uniform(0.1 * T_C, 2.0 * T_C)
        rho0 = random_pure_density(rng)
        # unitary phases applied analytically, then the static channel
        phases = phase_evolution(omega, t, 3)
        pi = phases @ rho0 @ phases.conj().T
        closed = decohere_channel(pi, t, params)
        oracle = lindblad_oracle(rho0, t, params, omega=omega, n_steps=3000)
        assert np.max(np.abs(closed - oracle)) < 1e-6


def test_oracle_trace_conservation():
    rng = np.random.default_rng(5)
    params = DecoherenceParams.from_coherence_time(T_C)
    rho = lindblad_oracle(random_pure_density(rng), 1.3 * T_C, params,
                          omega=2e5, n_steps=2000)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_oracle_unitary_limit():
    """With zero rates the oracle reduces to pure phase evolution."""
    rng = np.random.default_rng(6)
    omega, t = 3e5, 2e-6
    rho0 = random_pure_density(rng)
    oracle = lindblad_oracle(rho0, t, DecoherenceParams.none(), omega=omega,
                             n_steps=4000)
    phases = phase_evolution(omega, t, 3)
    assert np.allclose(oracle, phases @ rho0 @ phases.conj().T, atol=1e-9)


def test_oracle_rejects_invalid_input():
    with pytest.raises(ValueError):
        lindblad_oracle(np.eye(3), 1.0, DecoherenceParams.none())  # trace 3
    with pytest.raises(ValueError):
        lindblad_oracle(np.eye(3) / 3.0, -1.0, DecoherenceParams.none())


def test_outcome_probabilities_zero_delay():
    probs = likelihood_grid(balanced_state(3), 0.0, fourier_gate(3), [1e6],
                            DecoherenceParams.from_coherence_time(T_C))[0]
    assert np.allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)


def test_outcome_probabilities_coherent_closed_form():
    """Zero rates: three-term cosine expansion with unit envelopes."""
    omega, t = 4.2e5, 1.7e-6
    probs = likelihood_grid(balanced_state(3), t, fourier_gate(3), [omega],
                            DecoherenceParams.none())[0]
    for xi in range(3):
        expected = (1.0 / 3.0
                    + (4.0 / 9.0) * np.cos(omega * t + 2.0 * np.pi * xi / 3.0)
                    + (2.0 / 9.0) * np.cos(2.0 * omega * t - 2.0 * np.pi * xi / 3.0))
        assert probs[xi] == pytest.approx(expected, abs=1e-9)


def test_outcome_probabilities_fully_dephased():
    probs = likelihood_grid(balanced_state(3), 50.0 * T_C, fourier_gate(3),
                            [1e5], DecoherenceParams.from_coherence_time(T_C))[0]
    assert np.allclose(probs, 1.0 / 3.0, atol=1e-6)


def test_likelihood_grid_rows_normalized():
    rng = np.random.default_rng(7)
    omegas = rng.uniform(-5e7, 5e7, size=64)
    lik = likelihood_grid(balanced_state(3), 3e-8, fourier_gate(3), omegas,
                          DecoherenceParams.from_coherence_time(T_C))
    assert lik.shape == (64, 3)
    assert np.allclose(lik.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(lik >= 0.0)


def test_dephased_closed_form_reference_points():
    params = DecoherenceParams.from_coherence_time(T_C)
    assert dephased_fourier_prob(0, 1e5, 0.0, params) == pytest.approx(1.0, abs=1e-12)
    omega = 2.0 * np.pi / 1e-6
    assert dephased_fourier_prob(0, omega, 1e-6, DecoherenceParams.none()) == \
        pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        dephased_fourier_prob(3, 1e5, 1e-6, params)


def test_dephased_closed_form_matches_channel():
    rng = np.random.default_rng(8)
    for _ in range(100):
        params = DecoherenceParams(*rng.uniform(0.0, 2e5, size=3))
        omega = rng.uniform(-1e7, 1e7)
        t = rng.uniform(0.0, 5e-6)
        probs = likelihood_grid(balanced_state(3), t, fourier_gate(3),
                                [omega], params)[0]
        for xi in range(3):
            assert dephased_fourier_prob(xi, omega, t, params) == \
                pytest.approx(probs[xi], abs=1e-9)
