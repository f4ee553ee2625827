"""Qudit states, gates and pulse unitaries."""

import numpy as np
import pytest

from oracles import is_unitary, phase_evolution
from quditmag.core import (balanced_state, fourier_gate, pulse_unitary,
                           spin_xy_projection, xy_state)


def test_fourier_gate_matches_printed_matrix():
    f = fourier_gate(3)
    expected = np.array([[1, 1, 1],
                         [1, np.exp(-2j * np.pi / 3), np.exp(-4j * np.pi / 3)],
                         [1, np.exp(-4j * np.pi / 3), np.exp(-8j * np.pi / 3)]],
                        dtype=complex) / np.sqrt(3)
    assert np.allclose(f, expected, atol=1e-14)


def test_fourier_gate_collapses_balanced_state():
    out = fourier_gate(3) @ balanced_state(3)
    assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fourier_gate_unitary(d):
    f = fourier_gate(d)
    assert np.allclose(f @ f.conj().T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_fourier_gate_resolves_harmonics(d):
    """The r-th harmonic state maps onto basis vector |r> exactly."""
    for r in range(d):
        psi = np.exp(2j * np.pi * np.arange(d) * r / d) / np.sqrt(d)
        probs = np.abs(fourier_gate(d) @ psi) ** 2
        assert probs[r] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [1, 0, -2])
def test_fourier_gate_rejects_small_dimension(d):
    with pytest.raises(ValueError):
        fourier_gate(d)


def test_phase_evolution_identity_cases():
    assert np.allclose(phase_evolution(0.0, 1.0, 3), np.eye(3), atol=1e-14)
    full_period = phase_evolution(2.0 * np.pi, 1.0, 3)
    assert np.allclose(np.abs(np.diag(full_period)), 1.0, atol=1e-14)
    assert np.allclose(full_period, np.eye(3), atol=1e-12)


def test_phase_evolution_rejects_negative_time():
    with pytest.raises(ValueError):
        phase_evolution(1.0, -1.0, 3)


def test_third_period_phase_gives_deterministic_outcome():
    """omega*t = 2pi/3 rotates the balanced state onto a single harmonic."""
    psi = phase_evolution(2.0 * np.pi / 3.0, 1.0, 3) @ balanced_state(3)
    probs = np.abs(fourier_gate(3) @ psi) ** 2
    assert np.max(probs) == pytest.approx(1.0, abs=1e-12)
    assert np.argmax(probs) in (1, 2)


def test_pulse_unitary_diagonal_case():
    phi = 0.731
    u = pulse_unitary(phi / 2.0, 0.0, 0.0)
    assert np.allclose(u, np.diag([1.0, np.exp(-1j * phi), 1.0]), atol=1e-12)


def test_pulse_unitary_two_level_rotation():
    u = pulse_unitary(0.0, np.pi / 2.0, 0.0)
    assert np.allclose(u[:, 0], [0.0, -1.0j, 0.0], atol=1e-12)


def test_pulse_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for s in rng.uniform(-np.pi, np.pi, size=(50, 3)):
        u = pulse_unitary(*s)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        assert is_unitary(u)


def test_pulse_unitary_reaches_uniform_populations():
    """Frozen parameter set whose prep has exactly balanced populations."""
    params = (-0.100999837927, -1.056124837045, 1.437683249585)
    psi = pulse_unitary(*params)[:, 0]
    assert np.allclose(np.abs(psi) ** 2, 1.0 / 3.0, atol=1e-9)


def test_xy_state_amplitudes():
    assert np.allclose(xy_state(0.0, 0.0), np.array([1.0, np.sqrt(2), 1.0]) / 2.0,
                       atol=1e-14)
    flipped = xy_state(np.pi, 0.0)
    assert np.allclose(flipped, -np.array([1.0, np.sqrt(2), 1.0]) / 2.0,
                       atol=1e-12)
    # global phase leaves outcome probabilities unchanged
    base = np.abs(fourier_gate(3) @ xy_state(0.0, 0.0)) ** 2
    assert np.allclose(np.abs(fourier_gate(3) @ flipped) ** 2, base, atol=1e-12)


def test_global_phase_invariance():
    rng = np.random.default_rng(4)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi /= np.linalg.norm(psi)
    probs = np.abs(fourier_gate(3) @ psi) ** 2
    for theta in rng.uniform(0, 2 * np.pi, size=10):
        rotated = np.exp(1j * theta) * psi
        assert np.allclose(np.abs(fourier_gate(3) @ rotated) ** 2, probs,
                           atol=1e-12)


def test_xy_states_have_unit_spin_projection():
    rng = np.random.default_rng(7)
    for alpha, beta in rng.uniform(-np.pi, np.pi, size=(100, 2)):
        assert spin_xy_projection(xy_state(alpha, beta)) == \
            pytest.approx(1.0, abs=1e-12)


def test_spin_projection_reference_values():
    assert spin_xy_projection(balanced_state(3)) == \
        pytest.approx(2.0 * np.sqrt(2) / 3.0, abs=1e-12)
    assert spin_xy_projection(np.array([1.0, 0.0, 0.0])) == \
        pytest.approx(0.0, abs=1e-12)


def test_spin_projection_bounded():
    rng = np.random.default_rng(11)
    for _ in range(200):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        j = spin_xy_projection(psi)
        assert 0.0 <= j <= 1.0 + 1e-12
