"""Derivative-free search for the pulse parameters maximizing expected gain.

The objective is the expected information gain of a single prospective step
with preparation exp(-i H(eps_p, d1_p, d2_p))|0> and readout
exp(-i H(eps_r, d1_r, d2_r)); the search is a multi-start Nelder-Mead over
the box [-pi, pi]^6 (pulse phases are periodic, so the box loses nothing).
Ties between equal optima are broken by start order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .bayes import FieldDistribution, expected_gain
from .core import pulse_unitary
from .decoherence import DecoherenceParams

SEARCH_BOX = (-np.pi, np.pi)


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    # (eps_p, delta1_p, delta2_p, eps_r, delta1_r, delta2_r) in radians
    best_params: np.ndarray
    best_gain: float             # bits
    n_evaluations: int
    starts: int
    budget_exhausted: bool
    start_gains: np.ndarray = field(repr=False)

    @property
    def best_prep(self) -> np.ndarray:
        return _prep_from(self.best_params)

    @property
    def best_readout(self) -> np.ndarray:
        return pulse_unitary(*self.best_params[3:])


def _prep_from(s) -> np.ndarray:
    return pulse_unitary(s[0], s[1], s[2])[:, 0]


def optimize_step_params(dist: FieldDistribution, t: float,
                         decoherence: DecoherenceParams,
                         budget: int = 400, rng_seed: int = 0,
                         n_starts: int = 8,
                         fix_readout=None) -> OptimizationResult:
    """Multi-start Nelder-Mead maximization of the expected gain.

    ``budget`` caps objective evaluations per start (>= 100 for meaningful
    results).  With ``fix_readout`` set (e.g. to F_3), only the three
    preparation parameters are searched and the readout parameters in the
    result are zeros.  Deterministic given rng_seed.
    """
    if n_starts < 1:
        raise ValueError("need at least one start")
    if budget < 1:
        raise ValueError("evaluation budget must be positive")

    ndim = 3 if fix_readout is not None else 6
    rng = np.random.default_rng(rng_seed)
    starts = rng.uniform(SEARCH_BOX[0], SEARCH_BOX[1], size=(n_starts, ndim))
    bounds = [SEARCH_BOX] * ndim
    n_evals = 0
    exhausted = False

    def objective(s) -> float:
        nonlocal n_evals
        n_evals += 1
        prep = _prep_from(s[:3])
        readout = fix_readout if fix_readout is not None \
            else pulse_unitary(s[3], s[4], s[5])
        return -expected_gain(dist, t, prep, readout, decoherence)

    best_s = None
    best_val = np.inf
    start_gains = np.empty(n_starts)
    for idx in range(n_starts):
        res = minimize(objective, starts[idx], method="Nelder-Mead",
                       bounds=bounds,
                       options={"maxfev": budget, "xatol": 1e-8, "fatol": 1e-12})
        start_gains[idx] = -res.fun
        if res.nfev >= budget:
            exhausted = True
        if res.fun < best_val:
            best_val = res.fun
            best_s = res.x
    # polish the winner once more from its own optimum
    res = minimize(objective, best_s, method="Nelder-Mead", bounds=bounds,
                   options={"maxfev": budget, "xatol": 1e-10, "fatol": 1e-13})
    if res.fun < best_val:
        best_val = res.fun
        best_s = res.x

    if fix_readout is not None:
        best_s = np.concatenate([best_s, np.zeros(3)])
    return OptimizationResult(best_params=best_s,
                              best_gain=float(-best_val),
                              n_evaluations=n_evals, starts=n_starts,
                              budget_exhausted=exhausted,
                              start_gains=start_gains)
