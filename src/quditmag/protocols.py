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

from dataclasses import dataclass, field

import numpy as np

from .bayes import (FieldDistribution, ImpossibleOutcomeError, LN2,
                    bayes_update, entropy, T_SATURATION)
from .core import balanced_state, fourier_gate, xy_state
from .decoherence import DecoherenceParams, likelihood_grid, outcome_probabilities


@dataclass(frozen=True)
class StepPlan:
    """One planned PER step: delay time, prep state, readout unitary."""

    delay: float
    prep: np.ndarray = field(repr=False)
    readout: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not self.delay > 0:
            raise ValueError("delay must be positive")


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


@dataclass(frozen=True)
class StepRecord:
    plan: StepPlan
    outcome: int
    posterior: FieldDistribution
    gain_bits: float             # entropy drop of this step's update


@dataclass(frozen=True)
class ProtocolTrajectory:
    steps: list[StepRecord]

    @property
    def phase_accumulation_time(self) -> float:
        return sum(s.plan.delay for s in self.steps)

    def cumulative_times(self) -> np.ndarray:
        return np.cumsum([s.plan.delay for s in self.steps])

    def cumulative_gain_bits(self) -> np.ndarray:
        return np.cumsum([s.gain_bits for s in self.steps])

    def outcomes(self) -> list[int]:
        return [s.outcome for s in self.steps]


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

# kind -> (delay rule (config, i) -> t_i, prep rule (config, outcomes) -> prep).
# The readout is always F_3.  Only the two Fourier prep rules read the
# outcome history.
_STEP_RULES = {
    "lama": (lambda c, i: c.t1 + (i - 1) * c.dt,
             lambda c, h: xy_state(0.0, 0.0)),
    "classical": (lambda c, i: c.t1, lambda c, h: xy_state(0.0, 0.0)),
    "kitaev": (lambda c, i: c.t1 * 3.0 ** (i - 1),
               lambda c, h: balanced_state(3)),
    "fourier": (_fourier_delay,
                lambda c, h: _feedback_phases(h) / np.sqrt(3)),
    "fourier_modified": (_fourier_delay,
                         lambda c, h: _MODIFIED_AMPS * _feedback_phases(h)),
}
PROTOCOL_KINDS = tuple(_STEP_RULES)


def plan_step(i: int, config: ProtocolConfig, previous_outcomes) -> StepPlan:
    """Plan step i (1-based) from the first i - 1 outcomes."""
    if i < 1:
        raise ValueError("step index starts at 1")
    if len(previous_outcomes) < i - 1:
        raise ValueError("outcome history shorter than step index")
    delay_rule, prep_rule = _STEP_RULES[config.kind]
    return StepPlan(delay=delay_rule(config, i),
                    prep=prep_rule(config, previous_outcomes[:i - 1]),
                    readout=fourier_gate(3))


def schedule_delays(config: ProtocolConfig) -> np.ndarray:
    """Delay times of all steps (deterministic for every protocol kind)."""
    delay_rule = _STEP_RULES[config.kind][0]
    return np.array([delay_rule(config, i)
                     for i in range(1, config.n_steps + 1)])


def fourier_max_steps(t1: float, t_floor: float = T_SATURATION) -> int:
    """Number of Fourier steps with delay still above the pulse-limited floor."""
    n = int(np.floor(np.log(t1 / t_floor) / np.log(3.0))) + 1
    return max(n, 0)


def kitaev_max_steps(t1: float, t_ceiling: float) -> int:
    """Number of Kitaev steps with delay at most t_ceiling."""
    if t_ceiling < t1:
        return 0
    return int(np.floor(np.log(t_ceiling / t1) / np.log(3.0))) + 1


def _sample_outcome(probs: np.ndarray, rng: np.random.Generator) -> int:
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, rng.random(), side="right"))


def run_protocol(config: ProtocolConfig, prior: FieldDistribution,
                 rng_seed: int, true_omega: float | None = None,
                 forced_outcomes=None) -> ProtocolTrajectory:
    """Execute a full trajectory of PER steps against the Bayes engine.

    Outcome source, first that applies:

    * ``forced_outcomes`` -- replay the given outcome list;
    * ``true_omega``      -- sample from P(xi | true_omega, t);
    * otherwise           -- sample from the outcome marginal under the
      current posterior (the simulation prescription of all ensemble runs).

    Deterministic given its arguments.
    """
    if forced_outcomes is not None and len(forced_outcomes) < config.n_steps:
        raise ValueError("forced outcome list shorter than n_steps")

    rng = np.random.default_rng(rng_seed)
    dist = prior
    s_before = entropy(dist)
    steps: list[StepRecord] = []
    outcomes: list[int] = []
    for i in range(1, config.n_steps + 1):
        plan = plan_step(i, config, outcomes)
        lik = likelihood_grid(plan.prep, plan.delay, plan.readout,
                              dist.grid.points, config.decoherence)
        if forced_outcomes is not None:
            xi = int(forced_outcomes[i - 1])
        elif true_omega is not None:
            xi = _sample_outcome(
                outcome_probabilities(plan.prep, plan.delay, plan.readout,
                                      true_omega, config.decoherence), rng)
        else:
            xi = _sample_outcome(dist.weights @ lik, rng)
        try:
            dist = bayes_update(dist, lik[:, xi])
        except ImpossibleOutcomeError as err:
            raise ImpossibleOutcomeError(f"step {i}: {err}") from err
        s_after = entropy(dist)
        steps.append(StepRecord(plan=plan, outcome=xi, posterior=dist,
                                gain_bits=(s_before - s_after) / LN2))
        outcomes.append(xi)
        s_before = s_after
    return ProtocolTrajectory(steps=steps)
