"""Grid-based Bayesian inference over the reduced field omega.

The continuous field is modelled on an evenly spaced grid; entropies are
computed in nats from the discrete weights (the ln(spacing) differential
correction cancels in every information-gain difference and is only added
when reporting absolute entropies).  Gains are reported in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decoherence import DecoherenceParams, likelihood_grid

LN2 = np.log(2.0)

# Defaults used throughout the analysis scripts and tests: prior width
# sigma = 2*pi / 90 ns, saturation time of the first-step gain ~ 15 ns.
SIGMA_DEFAULT = 2.0 * np.pi / 90e-9
T_SATURATION = 15e-9


class ImpossibleOutcomeError(RuntimeError):
    """Raised when an observed outcome has zero probability under the model."""


@dataclass(frozen=True)
class FieldGrid:
    """Evenly spaced grid of m field values spanning [omega_min, omega_max]
    inclusive."""

    omega_min: float
    omega_max: float
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.omega_max > self.omega_min:
            raise ValueError("omega_max must exceed omega_min")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.m)

    @property
    def spacing(self) -> float:
        return (self.omega_max - self.omega_min) / (self.m - 1)

    @staticmethod
    def centered(sigma: float, span_sigmas: float = 12.0, m: int = 8192,
                 center: float = 0.0) -> "FieldGrid":
        half = span_sigmas * sigma / 2.0
        return FieldGrid(center - half, center + half, m)


@dataclass(frozen=True)
class FieldDistribution:
    """Normalized probability weights over a FieldGrid."""

    grid: FieldGrid
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.grid.m,):
            raise ValueError("weight vector does not match grid size")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("weights must have positive finite total mass")
        object.__setattr__(self, "weights", w / total)


def gaussian_prior(grid: FieldGrid, mean: float = 0.0,
                   sigma: float = SIGMA_DEFAULT) -> FieldDistribution:
    if sigma <= 0:
        raise ValueError("prior width must be positive")
    z = (grid.points - mean) / sigma
    return FieldDistribution(grid, np.exp(-0.5 * z * z))


def uniform_prior(grid: FieldGrid) -> FieldDistribution:
    return FieldDistribution(grid, np.ones(grid.m))


@dataclass(frozen=True)
class PriorSpec:
    """Gaussian prior of width sigma about mean on a grid of m points
    spanning span_sigmas widths."""

    mean: float = 0.0
    sigma: float = SIGMA_DEFAULT
    span_sigmas: float = 12.0
    m: int = 8192

    def build(self) -> FieldDistribution:
        grid = FieldGrid.centered(self.sigma, self.span_sigmas, self.m,
                                  center=self.mean)
        return gaussian_prior(grid, self.mean, self.sigma)


def bayes_update(dist: FieldDistribution, likelihood) -> FieldDistribution:
    """Posterior ~ prior * likelihood; raises ImpossibleOutcomeError when the
    product has zero mass (never silently renormalized)."""
    likelihood = np.asarray(likelihood, dtype=float)
    post = dist.weights * likelihood
    if post.sum() <= 0.0:
        raise ImpossibleOutcomeError(
            "outcome has zero posterior probability under the model")
    return FieldDistribution(dist.grid, post)


def _neg_xlogx_sum(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def entropy(dist: FieldDistribution) -> float:
    """Discrete Shannon entropy -sum p ln p in nats."""
    return _neg_xlogx_sum(dist.weights)


def differential_entropy(dist: FieldDistribution) -> float:
    """Discretization-corrected entropy, entropy + ln(grid spacing); used
    for reporting only."""
    return entropy(dist) + np.log(dist.grid.spacing)


def expected_gain(dist: FieldDistribution, t: float, prep, readout,
                  params: DecoherenceParams) -> float:
    """Expected information gain (bits) of a prospective measurement.

    Averages the posterior entropy over the three outcomes weighted by their
    marginal probabilities under the current distribution; summation order
    is fixed, so the result is deterministic.
    """
    lik = likelihood_grid(prep, t, readout, dist.grid.points, params)  # (m, 3)
    joint = dist.weights[:, None] * lik
    marginals = joint.sum(axis=0)
    s_now = entropy(dist)
    s_expected = 0.0
    for xi in range(3):
        if marginals[xi] <= 0.0:
            continue
        post = joint[:, xi] / marginals[xi]
        s_expected += marginals[xi] * _neg_xlogx_sum(post)
    return (s_now - s_expected) / LN2


def posterior_stats(dist: FieldDistribution) -> tuple[float, float]:
    """Grid-weighted mean and standard deviation of the field."""
    pts = dist.grid.points
    mean = float(dist.weights @ pts)
    var = float(dist.weights @ (pts - mean) ** 2)
    return mean, float(np.sqrt(max(var, 0.0)))
