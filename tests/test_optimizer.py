"""Pulse-parameter search for the expected-gain objective."""

import numpy as np
import pytest

from quditmag.bayes import (PriorSpec, SIGMA_DEFAULT, T_SATURATION,
                            expected_gain)
from quditmag.core import fourier_gate, spin_xy_projection, xy_state
from quditmag.decoherence import DecoherenceParams
from quditmag.harness import first_step_gain_curve
from quditmag.optimizer import optimize_step_params

NO_DECAY = DecoherenceParams.none()


@pytest.fixture(scope="module")
def prior():
    return PriorSpec(0.0, SIGMA_DEFAULT, 12.0, 2048).build()


def test_rejects_degenerate_budget(prior):
    with pytest.raises(ValueError):
        optimize_step_params(prior, T_SATURATION, NO_DECAY, budget=0)
    with pytest.raises(ValueError):
        optimize_step_params(prior, T_SATURATION, NO_DECAY, n_starts=0)


def test_reproducible_given_seed(prior):
    kwargs = dict(budget=150, rng_seed=3, n_starts=3,
                  fix_readout=fourier_gate(3))
    a = optimize_step_params(prior, T_SATURATION, NO_DECAY, **kwargs)
    b = optimize_step_params(prior, T_SATURATION, NO_DECAY, **kwargs)
    assert np.array_equal(a.best_params, b.best_params)
    assert a.best_gain == b.best_gain


def test_plateau_optimum_is_xy_like(prior):
    """At plateau times the best prep is spin-projection-maximal and the
    gain reaches the xy-state plateau."""
    result = optimize_step_params(prior, 5.0 * T_SATURATION, NO_DECAY,
                                  budget=600, rng_seed=1, n_starts=8,
                                  fix_readout=fourier_gate(3))
    assert result.best_gain >= 0.88 - 0.01
    assert spin_xy_projection(result.best_prep) >= 0.99


def test_result_beats_every_start(prior):
    result = optimize_step_params(prior, 5.0 * T_SATURATION, NO_DECAY,
                                  budget=200, rng_seed=5, n_starts=6,
                                  fix_readout=fourier_gate(3))
    assert result.best_gain >= np.max(result.start_gains) - 1e-12
    assert result.starts == 6
    # the reported optimum re-evaluates to the reported gain
    rescored = expected_gain(prior, 5.0 * T_SATURATION, result.best_prep,
                             fourier_gate(3), NO_DECAY)
    assert rescored == pytest.approx(result.best_gain, abs=1e-12)


def test_plateau_universality(prior):
    """Every xy-plane state reaches the same plateau gain."""
    rng = np.random.default_rng(2)
    gains = [expected_gain(prior, 5.0 * T_SATURATION, xy_state(a, b),
                           fourier_gate(3), NO_DECAY)
             for a, b in rng.uniform(-np.pi, np.pi, size=(10, 2))]
    assert max(gains) - min(gains) < 0.005


def test_gain_landscape_saturates(prior):
    t_values = np.array([0.0, T_SATURATION, 5.0 * T_SATURATION])
    gains = first_step_gain_curve(prior, t_values, xy_state(0.0, 0.0),
                                  NO_DECAY)
    assert gains.shape == (3,)
    assert abs(gains[0]) < 1e-9
    assert gains[2] == pytest.approx(2.0 * (1.0 / np.log(2) - 1.0), abs=0.01)
    assert gains[1] < gains[2]
