"""Measurement scheduling protocols and full trajectory execution.

Five procedures share the same Preparation-Exposure-Readout step structure
and differ only in their delay-time schedule and preparation rule:

* ``lama``             -- linearly increasing delays, fixed XY-plane prep.
* ``classical``        -- constant delay, fixed XY-plane prep.
* ``kitaev``           -- geometrically increasing delays, balanced prep.
* ``fourier``          -- geometrically decreasing delays, outcome-dependent
                          phase feedback on a balanced-amplitude prep.
* ``fourier_modified`` -- Fourier schedule with the feedback applied to the
                          XY-amplitude prep.

All schedules are outcome-independent in their delay times, so trajectories
from different runs align on a common phase-accumulation axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import (FieldDistribution, ImpossibleOutcomeError, LN2,
                    bayes_update, entropy, T_SATURATION)
from .core import balanced_state, fourier_gate, xy_state
from .decoherence import DecoherenceParams, likelihood_grid


@dataclass(frozen=True)
class ProtocolConfig:
    kind: str
    t1: float
    n_steps: int
    dt: float = 0.0              # LAMA only: per-step delay increment
    decoherence: DecoherenceParams = DecoherenceParams.none()

    def __post_init__(self):
        if self.kind not in PROTOCOL_KINDS:
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.t1 <= 0:
            raise ValueError("t1 must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if not np.all(schedule_delays(self) > 0):
            raise ValueError("every delay must be positive")


@dataclass(frozen=True)
class StepRecord:
    delay: float
    outcome: int
    gain_bits: float             # entropy drop of this step's update


@dataclass(frozen=True, eq=False)
class ProtocolTrajectory:
    steps: list[StepRecord]          # in the order taken; see run_protocol
    posterior: FieldDistribution     # the last experiment's final one


def fourier_feedback_phase(previous_outcomes) -> float:
    """Phase alpha_i = -(2 pi / 3) sum_j xi_{i-j} / 3^j accumulated from the
    outcome history (most recent outcome weighted strongest)."""
    alpha = 0.0
    for j, xi in enumerate(reversed(list(previous_outcomes)), start=1):
        alpha -= (2.0 * np.pi / 3.0) * xi / 3.0 ** j
    return alpha


def _feedback_phases(previous_outcomes) -> np.ndarray:
    return np.exp(1j * fourier_feedback_phase(previous_outcomes) * np.arange(3))


def _fourier_delay(config: ProtocolConfig, i: int) -> float:
    return config.t1 / 3.0 ** (i - 1)


# XY-plane amplitudes (1/2, 1/sqrt 2, 1/2) of the modified Fourier prep.
_MODIFIED_AMPS = np.array([0.5, 1.0 / np.sqrt(2), 0.5])

# The readout of every step of every protocol, shared, hence read-only.
READOUT = fourier_gate(3)
READOUT.flags.writeable = False

# kind -> (delay rule (config, i) -> t_i, prep rule (outcomes) -> prep).
# Only the two Fourier prep rules read the outcome history.
_STEP_RULES = {
    "lama": (lambda c, i: c.t1 + (i - 1) * c.dt,
             lambda h: xy_state(0.0, 0.0)),
    "classical": (lambda c, i: c.t1, lambda h: xy_state(0.0, 0.0)),
    "kitaev": (lambda c, i: c.t1 * 3.0 ** (i - 1),
               lambda h: balanced_state(3)),
    "fourier": (_fourier_delay,
                lambda h: _feedback_phases(h) / np.sqrt(3)),
    "fourier_modified": (_fourier_delay,
                         lambda h: _MODIFIED_AMPS * _feedback_phases(h)),
}
PROTOCOL_KINDS = tuple(_STEP_RULES)


def step_prep(kind: str, previous_outcomes) -> np.ndarray:
    """Prep state of the step that follows the given outcome history."""
    return _STEP_RULES[kind][1](previous_outcomes)


def schedule_delays(config: ProtocolConfig) -> np.ndarray:
    """Delay times of all steps (deterministic for every protocol kind)."""
    delay_rule = _STEP_RULES[config.kind][0]
    return np.array([delay_rule(config, i)
                     for i in range(1, config.n_steps + 1)])


def fourier_max_steps(t1: float) -> int:
    """Fourier steps with delay still above the T_SATURATION pulse floor."""
    n = int(np.floor(np.log(t1 / T_SATURATION) / np.log(3.0))) + 1
    return max(n, 0)


def _sample_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def protocol_steps(config: ProtocolConfig, prior: FieldDistribution,
                   rng_seed: int, true_omega: float | None = None,
                   forced_outcomes=None):
    """Execute a trajectory of PER steps against the Bayes engine, yielding
    ``(StepRecord, posterior)`` for each step as it is taken.

    Outcome source, first that applies:

    * ``forced_outcomes`` -- replay the given outcome list;
    * ``true_omega``      -- sample from P(xi | true_omega, t);
    * otherwise           -- sample from the outcome marginal under the
      current posterior (the simulation prescription of all ensemble runs).

    Deterministic given its arguments.  The generator holds one posterior
    at a time, so a caller that keeps none holds no more than two.  It
    checks its arguments when the first step is drawn.
    """
    if forced_outcomes is not None:
        if len(forced_outcomes) < config.n_steps:
            raise ValueError("forced outcome list shorter than n_steps")
        if any(xi not in (0, 1, 2) for xi in forced_outcomes):
            raise ValueError("forced outcomes must be 0, 1 or 2")

    rng = np.random.default_rng(rng_seed)
    dist = prior
    s_before = entropy(dist)
    outcomes: list[int] = []
    for i, delay in enumerate(schedule_delays(config), start=1):
        prep = step_prep(config.kind, outcomes)
        lik = likelihood_grid(prep, delay, READOUT, dist.grid.points,
                              config.decoherence)
        if forced_outcomes is not None:
            xi = int(forced_outcomes[i - 1])
        elif true_omega is not None:
            xi = _sample_outcome(
                likelihood_grid(prep, delay, READOUT, [true_omega],
                                config.decoherence)[0], rng)
        else:
            xi = _sample_outcome(dist.weights @ lik, rng)
        try:
            dist = bayes_update(dist, lik[:, xi])
        except ImpossibleOutcomeError as err:
            raise ImpossibleOutcomeError(f"step {i}: {err}") from err
        outcomes.append(xi)
        s_after = entropy(dist)
        del lik     # a suspended generator keeps no table
        yield (StepRecord(delay=delay, outcome=xi,
                          gain_bits=(s_before - s_after) / LN2), dist)
        s_before = s_after


def run_protocol(config: ProtocolConfig, prior: FieldDistribution,
                 rng_seed: int, true_omega: float | None = None,
                 forced_outcomes=None,
                 n_experiments: int = 1) -> ProtocolTrajectory:
    """Run experiments seeded ``rng_seed``, ``rng_seed + 1``, ... as
    ``protocol_steps`` in lockstep: each takes step i before any takes
    step i + 1, so the kernel memo serves a step's table to every
    experiment with that step's prep.  ``steps`` holds the records in the
    order taken (experiment k's are ``steps[k::n_experiments]``) and
    ``posterior`` is the last experiment's final one (the prior for zero
    steps)."""
    runs = [protocol_steps(config, prior, rng_seed + k, true_omega,
                           forced_outcomes) for k in range(n_experiments)]
    steps, posterior = [], prior
    for taken in zip(*runs):
        for step, posterior in taken:
            steps.append(step)
        del taken   # else the next step would start beside these posteriors
    return ProtocolTrajectory(steps=steps, posterior=posterior)
