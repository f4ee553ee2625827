"""Qutrit/qudit linear algebra: states, gates, and spin diagnostics.

States are plain complex numpy vectors of length d, unitaries are (d, d)
complex arrays.  Everything here is a pure function; nothing mutates its
arguments.
"""

from __future__ import annotations

import numpy as np

# Spin-1 operators in the computational basis (hbar = 1).
J_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
J_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)


def balanced_state(d: int = 3) -> np.ndarray:
    """Equal-amplitude superposition (1, ..., 1)/sqrt(d)."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def fourier_gate(d: int) -> np.ndarray:
    """Discrete Fourier readout gate, entries F[k, n] = exp(-2*pi*i*n*k/d)/sqrt(d)."""
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    k = np.arange(d)
    return np.exp(-2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def pulse_hamiltonian(eps: float, delta1: float, delta2: float) -> np.ndarray:
    """Effective Hamiltonian of the two-tone rectangular rf-pulse."""
    return np.array([[0.0, delta1, 0.0],
                     [delta1, 2.0 * eps, delta2],
                     [0.0, delta2, 0.0]])


def pulse_unitary(eps: float, delta1: float, delta2: float) -> np.ndarray:
    """exp(-i H) for the pulse Hamiltonian.

    H is real symmetric, so the exponential is computed exactly through its
    eigendecomposition (no series truncation).
    """
    if not (np.isfinite(eps) and np.isfinite(delta1) and np.isfinite(delta2)):
        raise ValueError("pulse parameters must be finite")
    h = pulse_hamiltonian(eps, delta1, delta2)
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals)) @ evecs.conj().T


def xy_state(alpha: float, beta: float) -> np.ndarray:
    """Qutrit state (e^{i a}/2) (e^{i b}, sqrt(2), e^{-i b}) with maximal
    transverse spin modulus."""
    return 0.5 * np.exp(1j * alpha) * np.array(
        [np.exp(1j * beta), np.sqrt(2), np.exp(-1j * beta)], dtype=complex)


def spin_xy_projection(state) -> float:
    """Transverse spin modulus hypot(<J_X>, <J_Y>) of a qutrit state (spin-1
    representation); xy-plane states reach 1."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (3,):
        raise ValueError(f"transverse spin projection is defined for d = 3 only, "
                         f"got shape {state.shape}")
    jx = float(np.real(state.conj() @ (J_X @ state)))
    jy = float(np.real(state.conj() @ (J_Y @ state)))
    return float(np.hypot(jx, jy))
