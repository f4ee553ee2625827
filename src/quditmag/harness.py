"""Monte Carlo ensembles, scaling-exponent extraction, and oscillation studies."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bayes import (FieldDistribution, FieldGrid, LN2, PriorSpec, SIGMA_DEFAULT,
                    expected_gain, uniform_prior)
from .core import balanced_state
from .decoherence import DecoherenceParams
from .protocols import READOUT, ProtocolConfig, run_protocol, schedule_delays

SLIDING_WINDOW_DECADES = 0.5     # width of each sliding scaling fit in log10 t
PEAK_PROMINENCE_BITS = 1e-3      # smallest detrended gain peak that counts


@dataclass(frozen=True)
class EnsembleConfig:
    protocol: ProtocolConfig
    n_experiments: int
    prior: PriorSpec = PriorSpec()
    seed: int = 0

    def __post_init__(self):
        if self.n_experiments < 1:
            raise ValueError("need at least one experiment")


@dataclass(frozen=True, eq=False)
class GainCurve:
    """Per-step ensemble statistics of the cumulative information gain."""

    t_phi: np.ndarray = field(repr=False)        # seconds, strictly increasing
    mean_gain_bits: np.ndarray = field(repr=False)
    stderr: np.ndarray = field(repr=False)

    def __post_init__(self):
        if np.any(np.diff(self.t_phi) <= 0):
            raise ValueError("t_phi must be strictly increasing")


@dataclass(frozen=True)
class ScalingEstimate:
    alpha: float
    window: tuple[float, float]


@dataclass(frozen=True, eq=False)
class OscillationResult:
    variant: float
    t: np.ndarray = field(repr=False)
    gain_bits: np.ndarray = field(repr=False)
    period: float | None     # None when too few peaks clear the prominence floor


def run_ensemble(config: EnsembleConfig) -> GainCurve:
    """Average cumulative gains of n independent trajectories.

    Per-experiment seed is config.seed + experiment index; all five
    protocols have outcome-independent delay schedules, so curves align per
    step index with no interpolation.
    """
    prior = config.prior.build()
    t_phi = np.cumsum(schedule_delays(config.protocol))
    gains = np.empty((config.n_experiments, config.protocol.n_steps))
    for k in range(config.n_experiments):
        gains[k] = run_protocol(config.protocol, prior,
                                rng_seed=config.seed + k).cumulative_gain_bits()
    mean = gains.mean(axis=0)
    if config.n_experiments > 1:
        stderr = gains.std(axis=0, ddof=1) / np.sqrt(config.n_experiments)
    else:
        stderr = np.zeros_like(mean)
    return GainCurve(t_phi=t_phi, mean_gain_bits=mean, stderr=stderr)


def scaling_exponent(curve: GainCurve, window: tuple[float, float]) -> ScalingEstimate:
    """Least-squares slope of the mean gain (nats) against ln(t_phi).

    With total gain I ~ -ln(field uncertainty) + const, a power-law
    uncertainty t_phi^(-alpha) appears as slope alpha in this plot.
    """
    t_lo, t_hi = window
    mask = (curve.t_phi >= t_lo) & (curve.t_phi <= t_hi)
    if mask.sum() < 4:
        raise ValueError("scaling window must contain at least 4 points")
    x = np.log(curve.t_phi[mask])
    y = curve.mean_gain_bits[mask] * LN2
    coeffs = np.polyfit(x, y, 1)
    return ScalingEstimate(alpha=float(coeffs[0]), window=(t_lo, t_hi))


def sliding_alpha(curve: GainCurve, center_range: tuple[float, float]
                  ) -> list[ScalingEstimate]:
    """Scaling fits over half-decade windows centered at each curve point
    inside center_range."""
    half = 10.0 ** (SLIDING_WINDOW_DECADES / 2.0)
    estimates = []
    for c in curve.t_phi:
        if not (center_range[0] <= c <= center_range[1]):
            continue
        window = (c / half, c * half)
        mask = (curve.t_phi >= window[0]) & (curve.t_phi <= window[1])
        if mask.sum() < 4:
            continue
        estimates.append(scaling_exponent(curve, window))
    return estimates


def first_step_gain_curve(prior: FieldDistribution, t_values,
                          prep=None,
                          params: DecoherenceParams = DecoherenceParams.none()
                          ) -> np.ndarray:
    """Expected first-step gain (bits) for each delay time (F_3 readout)."""
    if prep is None:
        prep = balanced_state(3)
    return np.array([expected_gain(prior, t, prep, READOUT, params)
                     for t in t_values])


def _detrended_peaks(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y minus its slow saturation baseline, and that residual's peaks.

    Bit for bit SciPy's ``uniform_filter1d(y, size, mode="nearest")``, each
    window summed in sequence and then divided by size, and ``find_peaks(
    resid, prominence=PEAK_PROMINENCE_BITS)``: a peak is an interior run of
    equal values above both neighbouring runs, at the run's midpoint, whose
    prominence (its height over the higher of the lowest points on either
    side before a higher value) is >= the floor.
    """
    n, size = len(y), max(len(y) // 10, 5)
    edge = np.r_[np.repeat(y[:1], size // 2), y,
                 np.repeat(y[-1:], size - size // 2 - 1)]
    sums = np.cumsum(np.r_[0.0, edge[:size], edge[size:] - edge[:n - 1]])
    resid = y - sums[size:] / size
    # where each run of equal values starts; an empty curve has none
    starts = np.flatnonzero(np.r_[n > 0, resid[1:] != resid[:-1]])
    v = resid[starts]
    top = np.flatnonzero((v[:-2] < v[1:-1]) & (v[2:] < v[1:-1])) + 1

    def prominence(p):
        higher = np.flatnonzero(~(resid <= resid[p]))
        j = np.searchsorted(higher, p)
        return resid[p] - max(resid[np.r_[-1, higher][j] + 1:p + 1].min(),
                              resid[p:np.r_[higher, n][j]].min())
    peaks = (starts[top] + np.r_[starts[1:], n][top] - 1) // 2
    return resid, np.array([p for p in peaks if prominence(p)
                            >= PEAK_PROMINENCE_BITS], dtype=np.intp)


def estimate_period(t: np.ndarray, gain: np.ndarray) -> float | None:
    """Dominant oscillation period from the spacing of detrended peaks.

    Returns None when fewer than two peaks exceed the prominence floor
    (oscillation reported as absent).
    """
    _, peaks = _detrended_peaks(gain)
    return float(np.median(np.diff(t[peaks]))) if len(peaks) > 1 else None


def estimate_revival_time(t: np.ndarray, gain: np.ndarray,
                          t_min: float) -> float | None:
    """Location of the highest detrended late-time peak (grid revival)."""
    resid, peaks = _detrended_peaks(gain)
    keep = peaks[t[peaks] >= t_min]
    return float(t[keep[np.argmax(resid[keep])]]) if len(keep) else None


def oscillation_study(kind: str, variants, sigma: float = SIGMA_DEFAULT,
                      n_t: int = 1500, m: int = 4096) -> list[OscillationResult]:
    """First-step expected-gain oscillations (balanced prep, F_3 readout).

    * ``edge``: uniform priors of width Omega (variants, rad/s); the sharp
      support edges modulate the plateau with period ~ 1/Omega.
    * ``center``: Gaussian priors of width sigma displaced to omega_center
      (variants, rad/s); oscillations of period ~ 1/|omega_center| ride on
      the rising part of the curve.
    * ``discreteness``: Gaussian prior sampled on a coarse grid of M points
      (variants); the spacing produces a gain revival near t ~ 2 pi /
      spacing, reported as the period.
    """
    if kind not in ("edge", "center", "discreteness"):
        raise ValueError(f"unknown oscillation study kind {kind!r}")
    results = []
    for variant in variants:
        period_of = estimate_period
        if kind == "edge":
            omega_width = float(variant)
            prior = uniform_prior(
                FieldGrid(-omega_width / 2.0, omega_width / 2.0, m))
            # cover >= 8 oscillation periods past the saturation knee
            t_max = 60.0 * np.pi / omega_width
        elif kind == "center":
            prior = PriorSpec(float(variant), sigma, m=m).build()
            t_max = 24.0 * np.pi / abs(float(variant))
        else:
            prior = PriorSpec(0.0, sigma, m=int(variant)).build()
            revival = 2.0 * np.pi / prior.grid.spacing
            t_max = 1.5 * revival
            period_of = partial(estimate_revival_time, t_min=0.3 * revival)
        t_values = np.linspace(1e-12, t_max, n_t)
        gain = first_step_gain_curve(prior, t_values)
        results.append(OscillationResult(variant=float(variant), t=t_values,
                                         gain_bits=gain,
                                         period=period_of(t_values, gain)))
    return results
