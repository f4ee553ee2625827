"""Grid-based Bayesian inference over the reduced field omega.

The continuous field is modelled on an evenly spaced grid; entropies are
computed in nats from the discrete weights (the ln(spacing) differential
correction cancels in every information-gain difference).  Gains are
reported in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import entr

from .decoherence import DecoherenceParams, likelihood_grid

LN2 = np.log(2.0)

# Defaults of the prior, the config schema and the tests: prior width
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
        if not 0.0 < self.omega_max - self.omega_min < np.inf:
            raise ValueError("grid span must be finite and positive")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.omega_min, self.omega_max, self.m)

    @property
    def spacing(self) -> float:
        return (self.omega_max - self.omega_min) / (self.m - 1)

    @staticmethod
    def centered(sigma: float, span_sigmas: float, m: int,
                 center: float = 0.0) -> "FieldGrid":
        half = span_sigmas * sigma / 2.0
        return FieldGrid(center - half, center + half, m)


@dataclass(frozen=True, eq=False)
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
        if self.sigma <= 0:
            raise ValueError("prior width must be positive")
        grid = FieldGrid.centered(self.sigma, self.span_sigmas, self.m,
                                  center=self.mean)
        z = (grid.points - self.mean) / self.sigma
        return FieldDistribution(grid, np.exp(-0.5 * z * z))


def bayes_update(dist: FieldDistribution, likelihood) -> FieldDistribution:
    """Posterior ~ prior * likelihood; raises ImpossibleOutcomeError when the
    product has zero mass (never silently renormalized)."""
    likelihood = np.asarray(likelihood, dtype=float)
    post = dist.weights * likelihood
    if post.sum() <= 0.0:
        raise ImpossibleOutcomeError(
            "outcome has zero posterior probability under the model")
    return FieldDistribution(dist.grid, post)


def entropy(dist: FieldDistribution) -> float:
    """Discrete Shannon entropy -sum p ln p in nats."""
    nz = dist.weights[dist.weights > 0.0]
    return float(-(nz * np.log(nz)).sum())


def expected_gain(dist: FieldDistribution, t: float, prep, readout,
                  params: DecoherenceParams) -> float:
    """Expected information gain (bits) of a prospective measurement.

    The mutual information between field and outcome,
    H(sum_w p(w) P(.|w)) - sum_w p(w) H(P(.|w)), with 0 ln 0 = 0: the
    entropy of the outcome marginal minus the prior-averaged entropy of
    each grid point's outcome distribution (Lindley, Ann. Math. Stat. 27,
    986, 1956).  It equals the expected drop from prior to posterior
    entropy.  Summation order is fixed, so the result is deterministic.
    """
    lik = likelihood_grid(prep, t, readout, dist.grid.points, params)  # (m, 3)
    h_outcome = entr(dist.weights @ lik).sum()
    h_outcome_given_field = dist.weights @ entr(lik).sum(axis=1)
    return (h_outcome - h_outcome_given_field) / LN2


def posterior_stats(dist: FieldDistribution) -> tuple[float, float]:
    """Grid-weighted mean and standard deviation of the field."""
    pts = dist.grid.points
    mean = float(dist.weights @ pts)
    var = float(dist.weights @ (pts - mean) ** 2)
    return mean, float(np.sqrt(max(var, 0.0)))
