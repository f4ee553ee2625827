"""Qutrit evolution under the field with relaxation and dephasing.

``decohere_channel`` is a closed-form map applied to the unitarily evolved
density matrix: a two-level cascade on the populations plus exponential
damping of each coherence.  ``likelihood_grid`` pushes a prep state through
the field phases, this channel and the readout to the outcome
probabilities on a whole field grid of m points, in this order:

1. the phases e^{-ik omega t} for k = 1, 2 from ``np.cos`` and ``np.sin``
   of (omega k) t, then psi_k = prep_k times them (the k = 0 phase is 1);
2. rho_t[omega, q, p] = psi_p conj(psi_q), the density matrix transposed,
   as one broadcast product of psi^T and conj(psi)^T, omega-fastest as psi;
3. ``decohere_channel`` on rho_t (the map commutes with the transpose);
4. amp = rho_t copied to (3m, 3) @ R^T, then P[x, omega] =
   conj(R)[x, None, :] @ amp viewed as [x, q, omega]: the two matmuls that
   ``np.einsum("xp,mpq,xq->mx", R, rho, conj(R), optimize=True)`` runs,
   without its path search and its transposing copy of rho;
5. the real part clipped to [0, 1] by ``ndarray.clip`` (the ufunc that
   ``np.clip`` reaches through a wrapper costing about 2 us a call),
   returned as the (m, 3) transpose of that (3, m) array, so
   Fortran-ordered.

psi is dropped once rho_t exists and rho_t once its (3m, 3) copy exists, so
at most two (m, 3, 3) complex arrays (1.2 MB each at m = 8192) are alive
at once: the channel's input and output, then the copy and amp.

The result equals the earlier einsum kernel (``tests/oracles.py``) byte for
byte, strides included, under numpy 2.4 with OpenBLAS 0.3.31; a property
test holds it to that.  Exactness is the contract because the benchmark's
lama-trace references compare a posterior mean that is rounding noise at
atol 1e-12, so reordering any rounding here (operand order included: a
complex product with FMA is not symmetric in its operands) changes a
recorded output.  A kernel with other arithmetic, such as the harmonic
form, needs that check scaled to the grid first (ROADMAP item 2).

``likelihood_grid`` keeps its last call in two halves, field (the bits of
t and the grid array itself, with step 1's phases) and pulse (prep,
readout and rates, with the table).  Only a read-only grid that owns its
data, such as ``FieldGrid.points``, matches, as the same object.  A call
matching the field half reuses the phases; one matching both gets that
call's very table, so every table is read-only; any other call drops the
stored arrays it does not reuse before it makes its temporaries.  Pulse
searches hit the field half.  Ensembles step a block of experiments in
lockstep, so they hit both halves at every lama, kitaev and classical
step after a block's first experiment, and at Fourier steps where the
outcome histories agree.  Every PER step still makes one kernel call (the
benchmark counts them), a reused half gives the bytes a recomputation
would, and the memo holds about 0.46 MB at m = 8192 besides the grid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Relative rate gap below which the cascade feed is taken in its exprel form:
# the difference of two exponentials loses about eps * scale / gap there.
# The rate tie of from_coherence_time (gap 0.29) stays outside.
_NEAR_DEGENERATE_RTOL = 0.1

# (grid, field key, phases, pulse key, table) of the last likelihood_grid
# call; see the module docstring.
_last_call = (None,) * 5


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


def _cascade_feed(gamma_10: float, gamma_21: float, t):
    """Population transferred from level 2 into level 1 after time t.

    Standard solution of d(rho_11)/dt = -G10 rho_11 + G21 rho_22 with
    rho_22 = pi_22 exp(-G21 t): G21 / (G21 - G10) (e^{-G10 t} - e^{-G21 t}).
    For nearly equal rates that difference cancels, so it is taken as
    G21 t e^{-G t} exprel(x), G the smaller rate and x = -|G21 - G10| t <= 0;
    equal rates give exactly G10 t e^{-G10 t}.  exprel is scipy.special's
    form and guard with libm's expm1: 1 if |x| < eps, else expm1(x) / x.
    """
    scale = max(gamma_10, gamma_21)
    gap = gamma_21 - gamma_10
    if abs(gap) <= _NEAR_DEGENERATE_RTOL * scale:
        low = min(gamma_10, gamma_21)
        x = -abs(gap) * t
        exprel = 1.0 if abs(x) < math.ulp(1.0) else math.expm1(x) / x
        return gamma_21 * t * np.exp(-low * t) * exprel
    return gamma_21 / gap * (np.exp(-gamma_10 * t) - np.exp(-gamma_21 * t))


def decohere_channel(pi, t: float, params: DecoherenceParams):
    """Apply the closed-form relaxation/dephasing map to a density matrix.

    ``pi`` is the qutrit state after unitary-only evolution for time ``t``
    (field phases already applied); broadcasting over leading axes is
    supported, so ``pi`` may be shaped (..., 3, 3).  Every entry is scaled
    by its envelope (a population by its own decay), level 1 then gains
    the cascade feed from level 2 and rho_00 takes up the trace.  The
    envelope matrix is symmetric, so the map commutes with transposing the
    last two axes.
    """
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    pi = np.asarray(pi, dtype=complex)
    g10, g21, gphi = params.gamma_10, params.gamma_21, params.gamma_phi

    e01 = np.exp(-(g10 + gphi) * t / 2.0)
    e02 = np.exp(-(g21 + 4.0 * gphi) * t / 2.0)
    e12 = np.exp(-(g21 + g10 + gphi) * t / 2.0)
    envelope = np.array([[1.0, e01, e02],
                         [e01, np.exp(-g10 * t), e12],
                         [e02, e12, np.exp(-g21 * t)]])

    rho = pi * envelope
    rho[..., 1, 1] += pi[..., 2, 2] * _cascade_feed(g10, g21, t)
    rho[..., 0, 0] = 1.0 - rho[..., 1, 1] - rho[..., 2, 2]
    return rho


def likelihood_grid(prep, t: float, readout, omegas, params: DecoherenceParams):
    """Outcome probabilities P(xi | omega) for every omega in ``omegas``, as
    a read-only, Fortran-ordered array of shape (len(omegas), 3).

    During the delay the field evolves level k by e^{-i k omega t} (global
    phase dropped); the opposite sign would only relabel the outcomes.  The
    steps, why each operand order is fixed, and the memo are in the module
    docstring.  A negative ``t`` raises ValueError from ``decohere_channel``.
    """
    global _last_call
    prep = np.asarray(prep, dtype=complex)
    readout = np.asarray(readout, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    # Bit-exact: struct bytes tell -0.0 from 0.0, and the scalar types are
    # in the keys because a float32 t or rate rounds differently.  The grid
    # is the array object itself, kept only if its bytes cannot change.
    g10, g21, gphi = params.gamma_10, params.gamma_21, params.gamma_phi
    flags = omegas.flags
    grid = omegas if flags.owndata and not flags.writeable else None
    field_key = (type(t), struct.pack("d", t))
    pulse_key = (type(g10), type(g21), type(gphi),
                 struct.pack("3d", g10, g21, gphi), prep.shape, prep.tobytes(),
                 readout.shape, readout.tobytes())
    m = omegas.shape[0]
    last_grid, last_field, phases, last_pulse, table = _last_call
    field_hit = (grid is not None and grid is last_grid
                 and last_field == field_key)
    if field_hit and last_pulse == pulse_key:
        return table
    # the last call's arrays go before this call's temporaries come
    _last_call, table = (None,) * 5, None
    if not field_hit:
        phases = np.empty((2, m), dtype=complex)
        for k, phase in zip((1, 2), phases):     # phase = e^{-ik omega t}
            angle = (omegas * k) * t
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            np.negative(phase.imag, out=phase.imag)

    psi = np.empty((3, m), dtype=complex)        # psi[k] = prep_k e^{-ik omega t}
    psi[0] = prep[0]
    for k in (1, 2):
        # not in place: numpy rounds an in-place product of one element apart
        np.multiply(phases[k - 1], prep[k], out=psi[k])

    rho_t = psi.T[:, None, :] * psi.conj().T[:, :, None]  # [omega, q, p]: rho_pq
    del psi
    rho_t = decohere_channel(rho_t, t, params)
    amp = rho_t.reshape(3 * m, 3)                # a copy: rho_t is not C-ordered
    del rho_t
    amp = amp @ readout.T                        # (R rho)_xq at [omega, q, x]
    probs = readout.conj()[:, None, :] @ amp.reshape(m, 3, 3).transpose(2, 1, 0)
    table = probs.reshape(3, m).T.real.clip(0.0, 1.0)
    table.flags.writeable = False
    _last_call = (grid, field_key, phases, pulse_key, table)
    return table
