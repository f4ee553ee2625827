"""Qutrit/qudit linear algebra: states, gates, and spin diagnostics.

States are plain complex numpy vectors of length d, unitaries are (d, d)
complex arrays.  Everything here is a pure function; nothing mutates its
arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

UNITARITY_TOL = 1e-12

# Spin-1 operators in the computational basis (hbar = 1).
J_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
J_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)


@dataclass(frozen=True)
class PulseParams:
    """Six pulse controls: preparation (eps_p, delta1_p, delta2_p) and
    readout (eps_r, delta1_r, delta2_r), all in radians."""

    eps_p: float
    delta1_p: float
    delta2_p: float
    eps_r: float
    delta1_r: float
    delta2_r: float

    def as_array(self) -> np.ndarray:
        return np.array([self.eps_p, self.delta1_p, self.delta2_p,
                         self.eps_r, self.delta1_r, self.delta2_r])

    @staticmethod
    def from_array(s) -> "PulseParams":
        return PulseParams(*(float(x) for x in s))


@dataclass(frozen=True)
class SpinProjection:
    """Transverse spin expectations and their modulus."""

    jx: float
    jy: float

    @property
    def j_xy(self) -> float:
        return float(np.hypot(self.jx, self.jy))


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


def phase_evolution(omega: float, t: float, d: int = 3) -> np.ndarray:
    """Free evolution under the field: diag(1, e^{-i w t}, ..., e^{-i(d-1) w t}).

    The k-th level accumulates phase k*omega*t (global phase dropped); the
    overall sign convention is fixed here and used consistently everywhere.
    Outcome probabilities only ever depend on the convention through a
    relabeling of the measurement outcomes.
    """
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    return np.diag(np.exp(-1j * omega * t * np.arange(d)))


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


def spin_xy_projection(state) -> SpinProjection:
    """Expectation values of J_X, J_Y for a qutrit state (spin-1 representation)."""
    state = np.asarray(state, dtype=complex)
    if state.shape != (3,):
        raise ValueError(f"transverse spin projection is defined for d = 3 only, "
                         f"got shape {state.shape}")
    jx = float(np.real(state.conj() @ (J_X @ state)))
    jy = float(np.real(state.conj() @ (J_Y @ state)))
    return SpinProjection(jx=jx, jy=jy)


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    u = np.asarray(u)
    d = u.shape[0]
    return bool(np.all(np.abs(u @ u.conj().T - np.eye(d)) < tol))
