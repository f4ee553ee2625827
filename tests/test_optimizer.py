"""Pulse-parameter search for the expected-gain objective."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import scipy_nelder_mead, scipy_optimize_step_params
from quditmag import optimizer
from quditmag.bayes import (PriorSpec, SIGMA_DEFAULT, T_SATURATION,
                            expected_gain)
from quditmag.core import fourier_gate, spin_xy_projection, xy_state
from quditmag.decoherence import DecoherenceParams
from quditmag.harness import first_step_gain_curve
from quditmag.optimizer import _nelder_mead, optimize_step_params

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


@pytest.mark.parametrize("fix_readout", [fourier_gate(3), None],
                         ids=["fixed", "free"])
def test_result_pulses_rescore_to_best_gain(prior, fix_readout):
    """best_prep and best_readout are the pulses best_gain was scored with,
    a fixed readout included."""
    t = T_SATURATION
    result = optimize_step_params(prior, t, NO_DECAY, budget=150, rng_seed=4,
                                  n_starts=2, fix_readout=fix_readout)
    rescored = expected_gain(prior, t, result.best_prep, result.best_readout,
                             NO_DECAY)
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


@st.composite
def searches(draw):
    """(x0, budget, objective seed, constant) of one box search in 3 or 6
    dimensions.  x0 mixes free coordinates with zeros (the simplex's zdelt
    step), values within 5 % of +pi (a vertex above the box, reflected in)
    and the corners +-pi.  Budgets run from 1 to n + 1 (the cap inside the
    initial simplex) up to 300."""
    n = draw(st.sampled_from([3, 6]))
    coordinate = st.one_of(st.floats(-np.pi, np.pi), st.just(0.0),
                           st.floats(np.pi / 1.05, np.pi),
                           st.sampled_from([np.pi, -np.pi]))
    x0 = np.array(draw(st.lists(coordinate, min_size=n, max_size=n)))
    budget = draw(st.one_of(st.integers(1, n + 1), st.integers(n + 2, 300)))
    return x0, budget, draw(st.integers(0, 2**32 - 1)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(searches())
# a constant objective shrinks at every step; the cap stops its first shrink
# after 2 of its 3 evaluations, and after 4 of 6
@example((np.array([0.3, 0.0, -1.0]), 4 + 2 + 2, 0, True))
@example((np.array([np.pi, -np.pi, 3.0, 0.0, 1.0, -2.0]), 7 + 2 + 4, 1, True))
def test_nelder_mead_equals_scipy(search):
    """The numpy Nelder-Mead returns SciPy's point bytes, value and number of
    evaluations on smooth periodic objectives and on a constant one, whose
    ties exercise the argsort order and whose steps all end in shrinks."""
    x0, budget, seed, constant = search
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, len(x0)))
    c = rng.normal(size=(len(x0), len(x0)))

    def f(x):
        if constant:
            return 0.5
        return float(a @ np.cos(x + b) + np.sin(x) @ c @ np.cos(x))

    got = _nelder_mead(f, x0.copy(), budget, 1e-8, 1e-12)
    want = scipy_nelder_mead(f, x0.copy(), budget, 1e-8, 1e-12)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:] == want[1:]


@pytest.mark.parametrize("coherence_time, constant",
                         [(np.inf, False), (0.5e-6, False), (np.inf, True)],
                         ids=["inf", "5e-07", "constant"])
@pytest.mark.parametrize("fix_readout", [fourier_gate(3), None],
                         ids=["fixed", "free"])
def test_search_equals_the_scipy_oracle(fix_readout, coherence_time,
                                        constant, monkeypatch):
    """optimize_step_params returns the bytes of its earlier SciPy-driven
    body: the point, both pulses, every start's gain and the counts.  Under
    a constant gain every start ties, and the first start must win."""
    if constant:
        for target in ("quditmag.optimizer", "oracles"):
            monkeypatch.setattr(f"{target}.expected_gain", lambda *_: 0.25)
    prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, 256).build()
    params = DecoherenceParams.from_coherence_time(coherence_time)
    kwargs = dict(budget=200, rng_seed=6, n_starts=3, fix_readout=fix_readout)
    got = optimize_step_params(prior, T_SATURATION, params, **kwargs)
    want = scipy_optimize_step_params(prior, T_SATURATION, params, **kwargs)
    for name in ("best_params", "best_prep", "best_readout", "start_gains"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert (got.best_gain, got.n_evaluations, got.budget_exhausted) == \
        (want.best_gain, want.n_evaluations, want.budget_exhausted)


def test_evaluations_count_expected_gain_calls(prior, monkeypatch):
    """n_evaluations is the number of expected_gain calls, the identity the
    benchmark checks, and stays within budget x (n_starts + 1)."""
    calls = []

    def counted(*args):
        calls.append(None)
        return expected_gain(*args)

    monkeypatch.setattr(optimizer, "expected_gain", counted)
    result = optimize_step_params(prior, T_SATURATION, NO_DECAY, budget=60,
                                  rng_seed=2, n_starts=2)
    assert len(calls) == result.n_evaluations <= 60 * (2 + 1)
