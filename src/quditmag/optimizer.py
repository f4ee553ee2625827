"""Derivative-free search for the pulse parameters maximizing expected gain.

The objective is the expected information gain of a single prospective step
with preparation exp(-i H(eps_p, d1_p, d2_p))|0> and readout
exp(-i H(eps_r, d1_r, d2_r)); the search is a multi-start Nelder-Mead over
the box [-pi, pi]^6 (pulse phases are periodic, so the box loses nothing).
Ties between equal optima are broken by start order.  The Nelder-Mead is
numpy code that takes SciPy's bounded, non-adaptive steps and returns its
bits, so no run loads SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bayes import FieldDistribution, expected_gain
from .core import pulse_unitary
from .decoherence import DecoherenceParams

SEARCH_BOX = (-np.pi, np.pi)


class _Spent(Exception):
    """The Nelder-Mead evaluation cap is reached."""


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float):
    """Minimize f over the search box from x0: (x, f(x), evaluations).

    SciPy's bounded, non-adaptive Nelder-Mead step for step: its initial
    simplex, its reflection into the box, its argsort tie order and its stop
    at the cap, even inside the initial simplex or a shrink.  The
    coefficients are exact in binary, so every point has SciPy's bits.
    """
    lo, hi = SEARCH_BOX
    n = len(x0)
    sim = np.tile(np.clip(x0, lo, hi), (n + 1, 1))
    np.fill_diagonal(sim[1:], np.where(sim[0] != 0, 1.05 * sim[0], 0.00025))
    sim = np.clip(np.where(sim > hi, 2 * hi - sim, sim), lo, hi)
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return f(x)

    def step():
        xbar = np.add.reduce(sim[:-1], 0) / n
        fxr = call(xr := np.clip(2 * xbar - sim[-1], lo, hi))
        if fxr < fsim[0]:
            fxe = call(xe := np.clip(3 * xbar - 2 * sim[-1], lo, hi))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            inside = not fxr < fsim[-1]
            xc = 0.5 * xbar + 0.5 * sim[-1] if inside \
                else 1.5 * xbar - 0.5 * sim[-1]
            fxc = call(xc := np.clip(xc, lo, hi))
            if (fxc < fsim[-1]) if inside else (fxc <= fxr):
                sim[-1], fsim[-1] = xc, fxc
                return
            for j in range(1, n + 1):
                sim[j] = np.clip(sim[0] + 0.5 * (sim[j] - sim[0]), lo, hi)
                fsim[j] = call(sim[j])

    def settle(stage):
        nonlocal sim, fsim
        try:
            stage()
        except _Spent:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    def simplex():
        for j in range(n + 1):
            fsim[j] = call(sim[j])

    settle(simplex)
    settle(lambda: None)  # SciPy sorts the initial simplex twice
    while nfev < maxfev:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        settle(step)
    return sim[0], np.min(fsim), nfev


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    # (eps_p, delta1_p, delta2_p, eps_r, delta1_r, delta2_r) in radians
    best_params: np.ndarray
    best_gain: float             # bits
    n_evaluations: int
    starts: int
    budget_exhausted: bool
    start_gains: np.ndarray = field(repr=False)
    # the state and readout best_gain was scored with
    best_prep: np.ndarray = field(repr=False)
    best_readout: np.ndarray = field(repr=False)


def optimize_step_params(dist: FieldDistribution, t: float,
                         decoherence: DecoherenceParams,
                         budget: int = 400, rng_seed: int = 0,
                         n_starts: int = 8,
                         fix_readout=None) -> OptimizationResult:
    """Multi-start Nelder-Mead maximization of the expected gain.

    ``budget`` caps objective evaluations per start (>= 100 for meaningful
    results).  With ``fix_readout`` set (e.g. to F_3), only the three
    preparation parameters are searched and the result holds ``fix_readout``
    with zeros as readout parameters.  Deterministic given rng_seed.
    """
    if n_starts < 1:
        raise ValueError("need at least one start")
    if budget < 1:
        raise ValueError("evaluation budget must be positive")

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
        return -expected_gain(dist, t, *pulses(s), decoherence)

    best_s = None
    best_val = np.inf
    start_gains = np.empty(n_starts)
    for idx in range(n_starts):
        x, val, nfev = _nelder_mead(objective, starts[idx], budget,
                                    1e-8, 1e-12)
        start_gains[idx] = -val
        n_evals += nfev
        if nfev >= budget:
            exhausted = True
        if val < best_val:
            best_val = val
            best_s = x
    # polish the winner once more from its own optimum
    x, val, nfev = _nelder_mead(objective, best_s, budget, 1e-10, 1e-13)
    n_evals += nfev
    if val < best_val:
        best_val = val
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
