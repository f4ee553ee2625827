"""Qutrit evolution under the field with relaxation and dephasing.

Two independent routes compute the same physics:

* ``decohere_channel`` -- closed-form map applied to the unitarily evolved
  density matrix: a two-level cascade on the populations plus exponential
  damping of each coherence.
* ``lindblad_oracle`` -- fixed-step 4th-order integration of the Lindblad
  master equation.  It is deliberately built from the master equation alone
  and serves as the ground truth the closed form is checked against.

Dephasing generator calibration: the coherence envelopes required are
exp(-Gamma_phi t / 2) on the single-quantum coherences (01, 12) and
exp(-2 Gamma_phi t) on the double-quantum coherence (02).  A Lindblad
dissipator D[L] with L = diag(0, 1, 2) damps rho_pq at rate
(gamma/2) (p - q)^2, i.e. gamma/2 on single-quantum and 2*gamma on
double-quantum entries.  Choosing gamma = Gamma_phi therefore reproduces
both envelopes exactly; this is the generator the oracle integrates.
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


def is_density_matrix(rho, tol: float = 1e-10) -> bool:
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        return False
    if not np.all(np.abs(rho - rho.conj().T) < 1e-12):
        return False
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def _cascade_feed(gamma_10: float, gamma_21: float, t):
    """Population transferred from level 2 into level 1 after time t.

    Standard solution of d(rho_11)/dt = -G10 rho_11 + G21 rho_22 with
    rho_22 = pi_22 exp(-G21 t); the degenerate-rate case G21 -> G10 is the
    analytic limit G10 * t * exp(-G10 t).
    """
    scale = max(gamma_10, gamma_21)
    if scale == 0.0:
        return np.zeros_like(np.asarray(t, dtype=float))
    if abs(gamma_21 - gamma_10) < _DEGENERATE_RATE_RTOL * scale:
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


def lindblad_oracle(initial, t: float, params: DecoherenceParams,
                    omega: float = 0.0, n_steps: int = 2000):
    """Integrate the master equation with a fixed-step RK4 scheme.

    d rho/dt = -i [H, rho] + G10 D[|0><1|] + G21 D[|1><2|] + Gphi D[diag(0,1,2)]
    with H = diag(0, omega, 2*omega).  Oracle for ``decohere_channel``.
    """
    initial = np.asarray(initial, dtype=complex)
    if not is_density_matrix(initial):
        raise ValueError("initial state is not a valid density matrix")
    if t < 0:
        raise ValueError(f"integration time must be non-negative, got {t}")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")

    h = np.diag(np.array([0.0, omega, 2.0 * omega], dtype=complex))
    sigma_01 = np.zeros((3, 3), dtype=complex)
    sigma_01[0, 1] = 1.0
    sigma_12 = np.zeros((3, 3), dtype=complex)
    sigma_12[1, 2] = 1.0
    dephase = np.diag(np.array([0.0, 1.0, 2.0], dtype=complex))
    jump_ops = [sigma_01, sigma_12, dephase]
    rates = [params.gamma_10, params.gamma_21, params.gamma_phi]

    # Generator on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho).
    eye = np.eye(3)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l, gamma in zip(jump_ops, rates):
        ldl = l.conj().T @ l
        gen += gamma * (np.kron(l, l.conj())
                        - 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T)))

    # One RK4 step of the linear ODE is exactly this degree-4 polynomial.
    a = gen * (t / n_steps)
    a2 = a @ a
    step = np.eye(9) + a + a2 / 2.0 + a2 @ a / 6.0 + a2 @ a2 / 24.0
    rho = np.linalg.matrix_power(step, n_steps) @ initial.reshape(9)
    return rho.reshape(3, 3)


def likelihood_grid(prep, t: float, readout, omegas, params: DecoherenceParams):
    """Outcome probabilities P(xi | omega) for every omega in ``omegas``.

    Returns an array of shape (len(omegas), 3): prep state -> field phases
    -> decoherence channel -> readout conjugation -> diagonal.
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


def outcome_probabilities(prep, t: float, readout, omega: float,
                          params: DecoherenceParams) -> np.ndarray:
    """Length-3 outcome probability vector for a single field value."""
    return likelihood_grid(prep, t, readout, np.array([omega]), params)[0]


def dephased_fourier_prob(xi: int, omega: float, t: float,
                          params: DecoherenceParams) -> float:
    """Closed-form first-step probability: balanced preparation, F_3 readout.

    With the phase convention of ``phase_evolution`` (levels accumulate
    -k*omega*t) the three-term cosine expansion reads

        P = 1/3 + (2/9) cos(w t + 2pi xi/3) [E01 + E12]
              + (2/9) cos(2 w t - 2pi xi/3) E02

    which is the same expression as under the opposite phase convention with
    the outcome label mirrored, xi -> (-xi) mod 3.  E01, E02, E12 are the
    coherence envelopes of ``decohere_channel``.
    """
    if xi not in (0, 1, 2):
        raise ValueError(f"outcome must be 0, 1 or 2, got {xi}")
    g10, g21, gphi = params.gamma_10, params.gamma_21, params.gamma_phi
    e01 = np.exp(-(g10 + gphi) * t / 2.0)
    e02 = np.exp(-(g21 + 4.0 * gphi) * t / 2.0)
    e12 = np.exp(-(g21 + g10 + gphi) * t / 2.0)
    return float(1.0 / 3.0
                 + (2.0 / 9.0) * np.cos(omega * t + 2.0 * np.pi * xi / 3.0) * (e01 + e12)
                 + (2.0 / 9.0) * np.cos(2.0 * omega * t - 2.0 * np.pi * xi / 3.0) * e02)
