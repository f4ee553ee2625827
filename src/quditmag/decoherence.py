"""Qutrit evolution under the field with relaxation and dephasing.

``decohere_channel`` is a closed-form map applied to the unitarily evolved
density matrix: a two-level cascade on the populations plus exponential
damping of each coherence.  ``likelihood_grid`` pushes a prep state through
the field phases, this channel and the readout to the outcome
probabilities on a whole field grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_DEGENERATE_RATE_RTOL = 1e-9


@dataclass(frozen=True)
class DecoherenceParams:
    """Downward relaxation rates and pure dephasing rate, all in 1/s."""

    gamma_10: float = 0.0
    gamma_21: float = 0.0
    gamma_phi: float = 0.0

    def __post_init__(self):
        if self.gamma_10 < 0 or self.gamma_21 < 0 or self.gamma_phi < 0:
            raise ValueError("decoherence rates must be non-negative")

    @staticmethod
    def from_coherence_time(coherence_time: float) -> "DecoherenceParams":
        """Rate tie used throughout: Gamma_10 = Gamma_phi = 1/T_c and
        Gamma_21 = sqrt(2)/T_c."""
        if coherence_time <= 0:
            raise ValueError("coherence time must be positive")
        g = 1.0 / coherence_time
        return DecoherenceParams(gamma_10=g, gamma_21=np.sqrt(2) * g, gamma_phi=g)

    @staticmethod
    def none() -> "DecoherenceParams":
        return DecoherenceParams()

    @property
    def is_coherent(self) -> bool:
        return self.gamma_10 == 0 and self.gamma_21 == 0 and self.gamma_phi == 0


def _cascade_feed(gamma_10: float, gamma_21: float, t):
    """Population transferred from level 2 into level 1 after time t.

    Standard solution of d(rho_11)/dt = -G10 rho_11 + G21 rho_22 with
    rho_22 = pi_22 exp(-G21 t); the degenerate-rate case G21 -> G10 is the
    analytic limit G10 * t * exp(-G10 t).
    """
    scale = max(gamma_10, gamma_21)
    if scale == 0.0:
        return np.zeros_like(np.asarray(t, dtype=float))
    if abs(gamma_21 - gamma_10) <= _DEGENERATE_RATE_RTOL * scale:
        return gamma_10 * t * np.exp(-gamma_10 * t)
    return gamma_21 / (gamma_21 - gamma_10) * (np.exp(-gamma_10 * t) - np.exp(-gamma_21 * t))


def decohere_channel(pi, t: float, params: DecoherenceParams):
    """Apply the closed-form relaxation/dephasing map to a density matrix.

    ``pi`` is the qutrit state after unitary-only evolution for time ``t``
    (field phases already applied); broadcasting over leading axes is
    supported, so ``pi`` may be shaped (..., 3, 3).
    """
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    pi = np.asarray(pi, dtype=complex)
    g10, g21, gphi = params.gamma_10, params.gamma_21, params.gamma_phi

    e10 = np.exp(-g10 * t)
    e21 = np.exp(-g21 * t)
    e01c = np.exp(-(g10 + gphi) * t / 2.0)
    e02c = np.exp(-(g21 + 4.0 * gphi) * t / 2.0)
    e12c = np.exp(-(g21 + g10 + gphi) * t / 2.0)

    rho = np.empty_like(pi)
    rho[..., 2, 2] = pi[..., 2, 2] * e21
    rho[..., 1, 1] = pi[..., 1, 1] * e10 + pi[..., 2, 2] * _cascade_feed(g10, g21, t)
    rho[..., 0, 0] = 1.0 - rho[..., 1, 1] - rho[..., 2, 2]
    rho[..., 0, 1] = pi[..., 0, 1] * e01c
    rho[..., 1, 0] = pi[..., 1, 0] * e01c
    rho[..., 0, 2] = pi[..., 0, 2] * e02c
    rho[..., 2, 0] = pi[..., 2, 0] * e02c
    rho[..., 1, 2] = pi[..., 1, 2] * e12c
    rho[..., 2, 1] = pi[..., 2, 1] * e12c
    return rho


def likelihood_grid(prep, t: float, readout, omegas, params: DecoherenceParams):
    """Outcome probabilities P(xi | omega) for every omega in ``omegas``.

    Returns an array of shape (len(omegas), 3): prep state -> field phases
    -> decoherence channel -> readout conjugation -> diagonal.  During the
    delay the field evolves level k by e^{-i k omega t} (global phase
    dropped); the opposite sign would only relabel the outcomes.
    """
    prep = np.asarray(prep, dtype=complex)
    readout = np.asarray(readout, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))

    phases = np.exp(-1j * np.outer(omegas, np.arange(3)) * t)   # (m, 3)
    psi = phases * prep                                          # (m, 3)
    pi = psi[:, :, None] * psi[:, None, :].conj()                # (m, 3, 3)
    rho = decohere_channel(pi, t, params)
    probs = np.einsum("xp,mpq,xq->mx", readout, rho, readout.conj(),
                      optimize=True)
    return np.clip(probs.real, 0.0, 1.0)
