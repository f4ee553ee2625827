"""Step schedulers, feedback rules and full trajectory execution."""

from dataclasses import replace

import numpy as np
import pytest

from quditmag.bayes import (FieldDistribution, FieldGrid,
                            ImpossibleOutcomeError, PriorSpec, SIGMA_DEFAULT,
                            entropy, uniform_prior)
from quditmag.core import balanced_state, fourier_gate, xy_state
from quditmag.decoherence import DecoherenceParams
from quditmag.optimizer import optimize_step_params
from oracles import kitaev_max_steps
from quditmag.protocols import (PROTOCOL_KINDS, READOUT, ProtocolConfig,
                                fourier_feedback_phase, fourier_max_steps,
                                protocol_steps, run_protocol, schedule_delays,
                                step_prep)


@pytest.fixture(scope="module")
def prior():
    return PriorSpec(0.0, SIGMA_DEFAULT, 12.0, 1024).build()


def test_schedules_match_their_rules():
    t1, dt = 15e-9, 40e-9
    lama = schedule_delays(ProtocolConfig("lama", t1=t1, dt=dt, n_steps=6))
    assert np.allclose(lama, t1 + dt * np.arange(6))
    classical = schedule_delays(ProtocolConfig("classical", t1=t1, n_steps=6))
    assert np.allclose(classical, t1)
    kitaev = schedule_delays(ProtocolConfig("kitaev", t1=t1, n_steps=5))
    assert np.allclose(kitaev, t1 * 3.0 ** np.arange(5))
    fourier = schedule_delays(ProtocolConfig("fourier", t1=2.4e-6, n_steps=5))
    assert np.allclose(fourier, 2.4e-6 / 3.0 ** np.arange(5))


def test_schedule_monotonicity():
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=20)
    delays = schedule_delays(config)
    assert np.all(np.diff(delays) > 0)
    assert np.all(delays > 0)


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ProtocolConfig("unknown", t1=1e-8, n_steps=3)
    with pytest.raises(ValueError):
        ProtocolConfig("lama", t1=0.0, n_steps=3)
    # a schedule with a non-positive delay fails when the config is built
    with pytest.raises(ValueError, match="delay"):
        ProtocolConfig("lama", t1=15e-9, dt=-10e-9, n_steps=5)


def test_feedback_phase_weights_recent_outcomes_strongest():
    outcomes = [2, 1]
    expected = -(2.0 * np.pi / 3.0) * (1.0 / 3.0 + 2.0 / 9.0)
    assert fourier_feedback_phase(outcomes) == pytest.approx(expected, abs=1e-12)
    assert fourier_feedback_phase([]) == 0.0


def test_prep_states_per_protocol():
    lama = step_prep("lama", [0, 2])
    assert np.allclose(lama, xy_state(0.0, 0.0), atol=1e-12)
    kitaev = step_prep("kitaev", [1])
    assert np.allclose(kitaev, balanced_state(3), atol=1e-12)
    fourier = step_prep("fourier", [1])
    assert np.allclose(np.abs(fourier), 1.0 / np.sqrt(3), atol=1e-12)
    modified = step_prep("fourier_modified", [1])
    assert np.allclose(np.abs(modified),
                       [0.5, 1.0 / np.sqrt(2), 0.5], atol=1e-12)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_step_rules_closed_forms(kind):
    """Step 4 after outcomes (2, 0, 1): closed-form delay, prep and F_3
    readout; the Fourier preps carry amps * exp(i alpha k)."""
    t1, dt = 15e-9, 40e-9
    config = ProtocolConfig(kind, t1=t1, dt=dt, n_steps=4)
    history = [2, 0, 1]
    alpha = -(2.0 * np.pi / 3.0) * (1.0 / 3.0 + 0.0 / 9.0 + 2.0 / 27.0)
    assert fourier_feedback_phase(history) == pytest.approx(alpha, abs=1e-15)
    feedback = np.exp(1j * alpha * np.arange(3))
    delay, prep = {
        "lama": (t1 + 3.0 * dt, xy_state(0.0, 0.0)),
        "classical": (t1, xy_state(0.0, 0.0)),
        "kitaev": (27.0 * t1, balanced_state(3)),
        "fourier": (t1 / 27.0, feedback / np.sqrt(3.0)),
        "fourier_modified": (t1 / 27.0,
                             np.array([0.5, 1.0 / np.sqrt(2.0), 0.5]) * feedback),
    }[kind]
    assert schedule_delays(config)[3] == pytest.approx(delay, rel=1e-15)
    np.testing.assert_allclose(step_prep(kind, history), prep,
                               rtol=0, atol=1e-15)
    np.testing.assert_array_equal(READOUT, fourier_gate(3))
    assert not READOUT.flags.writeable


def test_lama_prep_outcome_independent(prior):
    """The scheduled prep and delay never depend on the outcome history
    (bitwise)."""
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=6)
    histories = ([0, 0, 0, 0, 0, 0], [2, 1, 0, 2, 1, 0])
    a, b = (run_protocol(config, prior, rng_seed=0, forced_outcomes=h)
            for h in histories)
    for i, (step_a, step_b) in enumerate(zip(a.steps, b.steps)):
        assert np.array_equal(step_prep("lama", histories[0][:i]),
                              step_prep("lama", histories[1][:i]))
        assert step_a.delay == step_b.delay


def test_array_holding_records_support_eq_and_hash(prior):
    """Records that hold arrays compare and hash by identity instead of
    raising on their array fields."""
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=2)
    a = run_protocol(config, prior, rng_seed=0)
    b = run_protocol(config, prior, rng_seed=0)
    search = [optimize_step_params(prior, 15e-9, DecoherenceParams.none(),
                                   budget=5, n_starts=1) for _ in range(2)]
    pairs = [(a, b), (prior, a.posterior), tuple(search)]
    for x, y in pairs:
        assert x == x and x != y
        assert len({x, y}) == 2


def test_step_count_helpers():
    assert fourier_max_steps(2.4e-6) == 5
    assert fourier_max_steps(1e-9) == 0
    assert kitaev_max_steps(15e-9, 50e-6) == 8
    assert kitaev_max_steps(1e-6, 1e-7) == 0


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_trajectory_determinism(kind, prior):
    t1 = 2.4e-6 if kind.startswith("fourier") else 15e-9
    config = ProtocolConfig(kind, t1=t1, dt=40e-9, n_steps=5,
                            decoherence=DecoherenceParams.from_coherence_time(5e-6))
    a = list(protocol_steps(config, prior, rng_seed=42))
    b = list(protocol_steps(config, prior, rng_seed=42))
    assert len(a) == len(b) == 5
    for (step_a, posterior_a), (step_b, posterior_b) in zip(a, b):
        assert step_a == step_b          # delay, outcome and gain_bits
        assert np.array_equal(posterior_a.weights, posterior_b.weights)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_run_protocol_collects_protocol_steps(kind, prior):
    """run_protocol keeps protocol_steps' records and, bit for bit, its last
    posterior; with no steps, the posterior is the prior."""
    t1 = 2.4e-6 if kind.startswith("fourier") else 15e-9
    config = ProtocolConfig(kind, t1=t1, dt=40e-9, n_steps=5,
                            decoherence=DecoherenceParams.from_coherence_time(5e-6))
    streamed = list(protocol_steps(config, prior, rng_seed=7))
    traj = run_protocol(config, prior, rng_seed=7)
    assert traj.steps == [step for step, _ in streamed]
    assert traj.posterior.weights.tobytes() == streamed[-1][1].weights.tobytes()
    empty = run_protocol(replace(config, n_steps=0), prior, rng_seed=7)
    assert empty.steps == [] and empty.posterior is prior


def test_gain_telescoping(prior):
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=10)
    traj = run_protocol(config, prior, rng_seed=3)
    total = traj.cumulative_gain_bits()[-1]
    direct = (entropy(prior) - entropy(traj.posterior)) / np.log(2)
    assert total == pytest.approx(direct, abs=1e-9)


def test_fixed_field_mode_runs_every_step(prior):
    config = ProtocolConfig("classical", t1=15e-9, n_steps=3)
    traj = run_protocol(config, prior, rng_seed=0, true_omega=1e7)
    assert len(traj.steps) == 3


def test_forced_outcomes_replayed(prior):
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=4)
    traj = run_protocol(config, prior, rng_seed=0,
                        forced_outcomes=[1, 2, 0, 1])
    assert [s.outcome for s in traj.steps] == [1, 2, 0, 1]
    with pytest.raises(ValueError):
        run_protocol(config, prior, rng_seed=0, forced_outcomes=[1])
    # an outcome outside {0, 1, 2} is rejected before the first step
    for bad in ([-1, 0, 0, 0], [3, 0, 0, 0], np.array([0, 1, 2, -1])):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            run_protocol(config, prior, rng_seed=0, forced_outcomes=bad)


def test_impossible_forced_outcome_names_its_step():
    """A forced outcome with zero probability under the posterior raises
    with the number of the step it was forced at."""
    config = ProtocolConfig("kitaev", t1=15e-9, n_steps=1)
    # all mass at omega = 0, where the kernel gives P(1 | omega) = 0
    point = FieldDistribution(FieldGrid(0.0, 1.0, 2), np.array([1.0, 0.0]))
    with pytest.raises(ImpossibleOutcomeError, match="step 1"):
        run_protocol(config, point, rng_seed=0, forced_outcomes=[1])


def test_phase_accumulation_time(prior):
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=5)
    traj = run_protocol(config, prior, rng_seed=0)
    times = np.cumsum([s.delay for s in traj.steps])
    assert times[-1] == pytest.approx(
        np.sum(15e-9 + 40e-9 * np.arange(5)), rel=1e-12)
    assert np.all(np.diff(times) > 0)


def test_fourier_ternary_recovery_single_field():
    """A three-trit field on the matched uniform grid collapses to certainty
    in three steps with probability-1 outcomes."""
    omega_0 = 1e7
    t1 = 2.0 * np.pi * 3.0 / omega_0
    grid = FieldGrid(0.0, 26.0 * omega_0 / 9.0, 27)
    prior = uniform_prior(grid)
    true_omega = grid.points[14]
    config = ProtocolConfig("fourier", t1=t1, n_steps=3)
    traj = run_protocol(config, prior, rng_seed=0, true_omega=true_omega)
    final = traj.posterior
    assert final.weights.max() > 1.0 - 1e-9
    assert grid.points[np.argmax(final.weights)] == pytest.approx(true_omega)
