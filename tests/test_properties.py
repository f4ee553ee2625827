"""Physical invariants checked on generated inputs."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from quditmag.bayes import FieldGrid, SIGMA_DEFAULT, bayes_update, gaussian_prior
from quditmag.core import pulse_unitary
from quditmag.decoherence import DecoherenceParams, likelihood_grid

angles = st.floats(-np.pi, np.pi)
rates = st.floats(0.0, 3e5)
delays = st.floats(0.0, 5e-6)


@st.composite
def preps(draw):
    """Normalised qutrit state with random amplitudes and phases."""
    amps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                  max_size=3)))
    assume(amps.sum() > 1e-3)
    phases = np.array(draw(st.lists(angles, min_size=3, max_size=3)))
    psi = amps * np.exp(1j * phases)
    return psi / np.linalg.norm(psi)


@st.composite
def measurements(draw):
    """(prep, readout, delay, decoherence) of one PER step."""
    readout = pulse_unitary(draw(angles), draw(angles), draw(angles))
    params = DecoherenceParams(draw(rates), draw(rates), draw(rates))
    return draw(preps()), readout, draw(delays), params


def _omegas(m):
    return FieldGrid.centered(SIGMA_DEFAULT, 12.0, m).points


@settings(max_examples=50, deadline=None)
@given(measurements(), st.integers(2, 512))
def test_likelihood_is_a_probability_vector(measurement, m):
    prep, readout, t, params = measurement
    probs = likelihood_grid(prep, t, readout, _omegas(m), params)
    assert probs.shape == (m, 3)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(measurements(), measurements(), st.integers(0, 2), st.integers(0, 2),
       st.integers(2, 512))
def test_bayes_updates_commute(first, second, xi_a, xi_b, m):
    prior = gaussian_prior(FieldGrid.centered(SIGMA_DEFAULT, 12.0, m))

    def likelihood(measurement, xi):
        prep, readout, t, params = measurement
        return likelihood_grid(prep, t, readout, prior.grid.points,
                               params)[:, xi]

    lik_a, lik_b = likelihood(first, xi_a), likelihood(second, xi_b)
    assume((prior.weights * lik_a * lik_b).sum() > 1e-100)
    ab = bayes_update(bayes_update(prior, lik_a), lik_b)
    ba = bayes_update(bayes_update(prior, lik_b), lik_a)
    np.testing.assert_allclose(ab.weights, ba.weights, rtol=0, atol=1e-12)
