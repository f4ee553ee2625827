"""Reference implementations the tests check the package against.

Each oracle reaches its answer by a different route than the package code
it checks: the master equation instead of the closed-form channel, the
three-term cosine expansion instead of the density-matrix kernel, the
entropy-difference gain instead of the mutual-information form.  The
einsum kernel, the entry-by-entry channel, SciPy's detrended peak finder,
the SciPy-driven pulse search and the serial ensemble are the earlier
package bodies, which the package must still equal bit for bit.  None of
these run in any workload, so they live here and not in ``quditmag``.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.optimize import minimize
from scipy.signal import find_peaks
from scipy.special import entr as scipy_entr, exprel

from quditmag.bayes import LN2, FieldDistribution, entropy, expected_gain
from quditmag.core import pulse_unitary
from quditmag.decoherence import DecoherenceParams, likelihood_grid
from quditmag.harness import (PEAK_PROMINENCE_BITS, EnsembleConfig, GainCurve,
                              ScalingEstimate, sliding_alpha)
from quditmag.optimizer import SEARCH_BOX, OptimizationResult
from quditmag.protocols import run_protocol

UNITARITY_TOL = 1e-12


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    u = np.asarray(u)
    d = u.shape[0]
    return bool(np.all(np.abs(u @ u.conj().T - np.eye(d)) < tol))


def phase_evolution(omega: float, t: float, d: int = 3) -> np.ndarray:
    """Free evolution under the field: diag(1, e^{-i w t}, ..., e^{-i(d-1) w t}).

    The k-th level accumulates phase k*omega*t (global phase dropped), the
    sign convention of ``likelihood_grid``.  Outcome probabilities only ever
    depend on the convention through a relabeling of the measurement
    outcomes.
    """
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    if d < 2:
        raise ValueError(f"qudit dimension must be >= 2, got {d}")
    return np.diag(np.exp(-1j * omega * t * np.arange(d)))


def is_density_matrix(rho, tol: float = 1e-10) -> bool:
    rho = np.asarray(rho)
    if rho.shape != (3, 3):
        return False
    if not np.all(np.abs(rho - rho.conj().T) < 1e-12):
        return False
    if abs(np.trace(rho).real - 1.0) > 1e-12:
        return False
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def lindblad_oracle(initial, t: float, params: DecoherenceParams,
                    omega: float = 0.0, n_steps: int = 2000):
    """Integrate the master equation with a fixed-step RK4 scheme.

    d rho/dt = -i [H, rho] + G10 D[|0><1|] + G21 D[|1><2|] + Gphi D[diag(0,1,2)]
    with H = diag(0, omega, 2*omega).  Oracle for ``decohere_channel``; it is
    deliberately built from the master equation alone.

    Dephasing generator calibration: the coherence envelopes required are
    exp(-Gamma_phi t / 2) on the single-quantum coherences (01, 12) and
    exp(-2 Gamma_phi t) on the double-quantum coherence (02).  A Lindblad
    dissipator D[L] with L = diag(0, 1, 2) damps rho_pq at rate
    (gamma/2) (p - q)^2, i.e. gamma/2 on single-quantum and 2*gamma on
    double-quantum entries.  Choosing gamma = Gamma_phi therefore reproduces
    both envelopes exactly.
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


def entrywise_decohere_channel(pi, t: float, params: DecoherenceParams):
    """``decohere_channel`` written out entry by entry, with its own cascade
    feed; reference for the envelope-matrix form."""
    if t < 0:
        raise ValueError(f"delay time must be non-negative, got {t}")
    pi = np.asarray(pi, dtype=complex)
    g10, g21, gphi = params.gamma_10, params.gamma_21, params.gamma_phi

    e10 = np.exp(-g10 * t)
    e21 = np.exp(-g21 * t)
    e01c = np.exp(-(g10 + gphi) * t / 2.0)
    e02c = np.exp(-(g21 + 4.0 * gphi) * t / 2.0)
    e12c = np.exp(-(g21 + g10 + gphi) * t / 2.0)
    scale = max(g10, g21)
    if scale == 0.0:
        feed = np.zeros_like(np.asarray(t, dtype=float))
    elif abs(g21 - g10) <= 0.1 * scale:
        feed = (g21 * t * np.exp(-min(g10, g21) * t)
                * exprel(-abs(g21 - g10) * t))
    else:
        feed = g21 / (g21 - g10) * (np.exp(-g10 * t) - np.exp(-g21 * t))

    rho = np.empty_like(pi)
    rho[..., 2, 2] = pi[..., 2, 2] * e21
    rho[..., 1, 1] = pi[..., 1, 1] * e10 + pi[..., 2, 2] * feed
    rho[..., 0, 0] = 1.0 - rho[..., 1, 1] - rho[..., 2, 2]
    rho[..., 0, 1] = pi[..., 0, 1] * e01c
    rho[..., 1, 0] = pi[..., 1, 0] * e01c
    rho[..., 0, 2] = pi[..., 0, 2] * e02c
    rho[..., 2, 0] = pi[..., 2, 0] * e02c
    rho[..., 1, 2] = pi[..., 1, 2] * e12c
    rho[..., 2, 1] = pi[..., 2, 1] * e12c
    return rho


def einsum_likelihood_grid(prep, t: float, readout, omegas,
                           params: DecoherenceParams):
    """``likelihood_grid`` as one einsum over the field-evolved density
    matrices, with ``np.exp`` phases on all three levels; reference for the
    package kernel, which must return the same bytes and strides."""
    prep = np.asarray(prep, dtype=complex)
    readout = np.asarray(readout, dtype=complex)
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))

    phases = np.exp(-1j * np.outer(omegas, np.arange(3)) * t)   # (m, 3)
    psi = phases * prep                                          # (m, 3)
    pi = psi[:, :, None] * psi[:, None, :].conj()                # (m, 3, 3)
    rho = entrywise_decohere_channel(pi, t, params)
    probs = np.einsum("xp,mpq,xq->mx", readout, rho, readout.conj(),
                      optimize=True)
    return np.clip(probs.real, 0.0, 1.0)


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


def differential_entropy(dist: FieldDistribution) -> float:
    """Discretization-corrected entropy, entropy + ln(grid spacing)."""
    return entropy(dist) + np.log(dist.grid.spacing)


def entropy_difference_gain(dist: FieldDistribution, t: float, prep, readout,
                            params: DecoherenceParams) -> float:
    """Expected information gain (bits) as the prior entropy minus the
    outcome-averaged posterior entropy; outcomes of zero marginal
    probability are skipped.  Reference for ``bayes.expected_gain``."""
    lik = likelihood_grid(prep, t, readout, dist.grid.points, params)
    joint = dist.weights[:, None] * lik
    marginals = joint.sum(axis=0)
    s_expected = 0.0
    for xi in range(3):
        if marginals[xi] <= 0.0:
            continue
        post = joint[:, xi] / marginals[xi]
        nz = post[post > 0.0]
        s_expected += marginals[xi] * float(-(nz * np.log(nz)).sum())
    return (entropy(dist) - s_expected) / LN2


def scipy_expected_gain(dist: FieldDistribution, t: float, prep, readout,
                        params: DecoherenceParams) -> float:
    """``bayes.expected_gain`` with ``scipy.special.entr`` for -p ln p, the
    earlier package body."""
    lik = likelihood_grid(prep, t, readout, dist.grid.points, params)
    h_outcome = scipy_entr(dist.weights @ lik).sum()
    h_outcome_given_field = dist.weights @ scipy_entr(lik).sum(axis=1)
    return (h_outcome - h_outcome_given_field) / LN2


def kitaev_max_steps(t1: float, t_ceiling: float) -> int:
    """Number of Kitaev steps with delay at most t_ceiling."""
    if t_ceiling < t1:
        return 0
    return int(np.floor(np.log(t_ceiling / t1) / np.log(3.0))) + 1


def max_sliding_alpha(curve: GainCurve, center_range: tuple[float, float]
                      ) -> ScalingEstimate:
    """The steepest of the sliding scaling fits centered in center_range."""
    estimates = sliding_alpha(curve, center_range)
    if not estimates:
        raise ValueError("no valid scaling windows in the requested range")
    return max(estimates, key=lambda e: e.alpha)


def serial_run_ensemble(config: EnsembleConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and stderr of ``run_ensemble``, one experiment after another:
    each a ``run_protocol`` of its own, its gains summed cumulatively."""
    prior = config.prior.build()
    gains = np.empty((config.n_experiments, config.protocol.n_steps))
    for k in range(config.n_experiments):
        traj = run_protocol(config.protocol, prior, rng_seed=config.seed + k)
        gains[k] = np.cumsum([s.gain_bits for s in traj.steps])
    mean = gains.mean(axis=0)
    if config.n_experiments > 1:
        stderr = gains.std(axis=0, ddof=1) / np.sqrt(config.n_experiments)
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr


def scipy_detrended_peaks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``harness._detrended_peaks`` as SciPy's moving average and prominence
    peak finder; the package must return the same residual bytes and peak
    indices."""
    size = max(len(y) // 10, 5)
    resid = y - uniform_filter1d(y, size=size, mode="nearest")
    return resid, find_peaks(resid, prominence=PEAK_PROMINENCE_BITS)[0]


def scipy_nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float):
    """``optimizer._nelder_mead`` as SciPy's bounded Nelder-Mead on the search
    box: (x, f(x), evaluations)."""
    res = minimize(f, x0, method="Nelder-Mead", bounds=[SEARCH_BOX] * len(x0),
                   options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
    return res.x, res.fun, res.nfev


def scipy_optimize_step_params(dist: FieldDistribution, t: float,
                               decoherence: DecoherenceParams,
                               budget: int = 400, rng_seed: int = 0,
                               n_starts: int = 8,
                               fix_readout=None) -> OptimizationResult:
    """``optimizer.optimize_step_params`` with SciPy's ``minimize`` for each
    start and the polish, the earlier package body; it counts evaluations
    in the objective, where the package adds up the searches' counts."""
    ndim = 3 if fix_readout is not None else 6
    rng = np.random.default_rng(rng_seed)
    starts = rng.uniform(SEARCH_BOX[0], SEARCH_BOX[1], size=(n_starts, ndim))
    n_evals = 0
    exhausted = False

    def pulses(s) -> tuple:
        readout = fix_readout if fix_readout is not None \
            else pulse_unitary(*s[3:])
        return pulse_unitary(*s[:3])[:, 0], readout

    def objective(s) -> float:
        nonlocal n_evals
        n_evals += 1
        return -expected_gain(dist, t, *pulses(s), decoherence)

    best_s = None
    best_val = np.inf
    start_gains = np.empty(n_starts)
    for idx in range(n_starts):
        x, fun, nfev = scipy_nelder_mead(objective, starts[idx], budget,
                                         1e-8, 1e-12)
        start_gains[idx] = -fun
        if nfev >= budget:
            exhausted = True
        if fun < best_val:
            best_val = fun
            best_s = x
    x, fun, _ = scipy_nelder_mead(objective, best_s, budget, 1e-10, 1e-13)
    if fun < best_val:
        best_val = fun
        best_s = x

    best_prep, best_readout = pulses(best_s)
    if fix_readout is not None:
        best_s = np.concatenate([best_s, np.zeros(3)])
    return OptimizationResult(best_params=best_s,
                              best_gain=float(-best_val),
                              n_evaluations=n_evals, starts=n_starts,
                              budget_exhausted=exhausted,
                              start_gains=start_gains, best_prep=best_prep,
                              best_readout=best_readout)
