"""Grid-based field estimation: priors, updates, entropies, expected gain."""

import numpy as np
import pytest

from oracles import differential_entropy
from quditmag.bayes import (FieldDistribution, FieldGrid,
                            ImpossibleOutcomeError, PriorSpec, SIGMA_DEFAULT,
                            T_SATURATION, bayes_update, entropy,
                            expected_gain, posterior_stats, uniform_prior)
from quditmag.core import balanced_state, fourier_gate, xy_state
from quditmag.decoherence import DecoherenceParams

NO_DECAY = DecoherenceParams.none()


@pytest.fixture(scope="module")
def acceptance_prior():
    return PriorSpec(0.0, SIGMA_DEFAULT, 12.0, 8192).build()


def test_grid_construction():
    grid = FieldGrid(-1.0, 1.0, 5)
    assert np.allclose(grid.points, [-1.0, -0.5, 0.0, 0.5, 1.0])
    # built once per grid, read-only, with np.linspace's bytes
    points = grid.points
    assert grid.points is points and not points.flags.writeable
    assert points.tobytes() == np.linspace(-1.0, 1.0, 5).tobytes()
    with pytest.raises(ValueError):
        points[0] = 0.0
    assert grid.spacing == pytest.approx(0.5)
    with pytest.raises(ValueError):
        FieldGrid(1.0, -1.0, 5)
    with pytest.raises(ValueError):
        FieldGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="prior width"):
        PriorSpec(sigma=0.0).build()


def test_gaussian_prior_symmetric(acceptance_prior):
    w = acceptance_prior.weights
    assert np.allclose(w, w[::-1], atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    mean, _ = posterior_stats(acceptance_prior)
    assert abs(mean) < acceptance_prior.grid.spacing


def test_gaussian_prior_differential_entropy():
    prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, 100_000).build()
    analytic = 0.5 * np.log(2.0 * np.pi * np.e * SIGMA_DEFAULT ** 2)
    assert differential_entropy(prior) == pytest.approx(analytic, abs=1e-3)


def test_entropy_reference_values():
    grid = FieldGrid(0.0, 1.0, 64)
    assert entropy(uniform_prior(grid)) == pytest.approx(np.log(64), abs=1e-12)
    delta = np.zeros(64)
    delta[10] = 1.0
    assert entropy(FieldDistribution(grid, delta)) == pytest.approx(0.0, abs=1e-12)


def test_bayes_update_uninformative_likelihood(acceptance_prior):
    post = bayes_update(acceptance_prior, np.full(8192, 0.37))
    assert np.allclose(post.weights, acceptance_prior.weights, atol=1e-12)


def test_bayes_update_indicator_likelihood(acceptance_prior):
    lik = np.zeros(8192)
    lik[123] = 1.0
    post = bayes_update(acceptance_prior, lik)
    assert post.weights[123] == pytest.approx(1.0, abs=1e-12)
    assert entropy(post) == pytest.approx(0.0, abs=1e-12)


def test_bayes_update_conjugate_gaussian_product():
    sigma1, sigma2 = 1.0, 0.6
    prior = PriorSpec(0.0, sigma1, 16.0, 16384).build()  # grid [-8, 8]
    grid = prior.grid
    lik = np.exp(-grid.points ** 2 / (2.0 * sigma2 ** 2))
    post = bayes_update(prior, lik)
    _, std = posterior_stats(post)
    expected = (sigma1 ** -2 + sigma2 ** -2) ** -0.5
    assert std == pytest.approx(expected, abs=2.0 * grid.spacing)


def test_bayes_update_normalization_and_positivity(acceptance_prior):
    rng = np.random.default_rng(0)
    dist = acceptance_prior
    for _ in range(20):
        lik = rng.uniform(0.0, 1.0, size=8192)
        dist = bayes_update(dist, lik)
        assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist.weights >= 0.0)


def test_bayes_update_zero_mass_raises(acceptance_prior):
    with pytest.raises(ImpossibleOutcomeError):
        bayes_update(acceptance_prior, np.zeros(8192))


def test_expected_gain_zero_delay(acceptance_prior):
    for prep in (balanced_state(3), xy_state(0.0, 0.0)):
        gain = expected_gain(acceptance_prior, 0.0, prep, fourier_gate(3),
                             NO_DECAY)
        assert abs(gain) < 1e-9


def test_plateau_gains(acceptance_prior):
    t = 5.0 * T_SATURATION
    balanced = expected_gain(acceptance_prior, t, balanced_state(3),
                             fourier_gate(3), NO_DECAY)
    xy = expected_gain(acceptance_prior, t, xy_state(0.0, 0.0),
                       fourier_gate(3), NO_DECAY)
    assert balanced == pytest.approx((5.0 / 3.0 - np.log(3)) / np.log(2), abs=0.01)
    assert xy == pytest.approx(2.0 * (1.0 / np.log(2) - 1.0), abs=0.01)


def test_expected_gain_grid_refinement_stable():
    """Doubling the grid from 8192 to 16384 moves the gain by < 1e-3 bits."""
    for t in (T_SATURATION, 5.0 * T_SATURATION):
        gains = []
        for m in (8192, 16384):
            prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, m).build()
            gains.append(expected_gain(prior, t, xy_state(0.0, 0.0),
                                       fourier_gate(3), NO_DECAY))
        assert abs(gains[1] - gains[0]) < 1e-3


def test_expected_gain_periodic_relabeling_invariance():
    """On an exactly period-compatible grid, cyclically shifting the prior
    by one likelihood period leaves the expected gain unchanged."""
    t = 1e-8
    period = 2.0 * np.pi / t
    m = 900
    grid = FieldGrid(0.0, 3.0 * period * (m - 1) / m, m)  # 3 exact periods
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.1, 1.0, size=m)
    dist = FieldDistribution(grid, weights)
    shifted = FieldDistribution(grid, np.roll(weights, m // 3))
    g1 = expected_gain(dist, t, balanced_state(3), fourier_gate(3), NO_DECAY)
    g2 = expected_gain(shifted, t, balanced_state(3), fourier_gate(3), NO_DECAY)
    assert g1 == pytest.approx(g2, abs=1e-9)


def test_posterior_stats_reference_cases():
    grid = FieldGrid(-2.0, 2.0, 401)
    delta = np.zeros(401)
    delta[300] = 1.0
    mean, std = posterior_stats(FieldDistribution(grid, delta))
    assert mean == pytest.approx(grid.points[300], abs=1e-12)
    assert std == pytest.approx(0.0, abs=1e-9)

    bimodal = np.zeros(401)
    bimodal[100] = bimodal[300] = 0.5
    mean, std = posterior_stats(FieldDistribution(grid, bimodal))
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert std == pytest.approx(abs(grid.points[300]), abs=1e-9)
