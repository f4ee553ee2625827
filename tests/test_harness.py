"""Ensembles, scaling-exponent fits and oscillation studies."""

import numpy as np
import pytest

from quditmag import protocols
from quditmag.bayes import SIGMA_DEFAULT
from quditmag.decoherence import DecoherenceParams
from quditmag.harness import (EnsembleConfig, GainCurve, PriorSpec,
                              estimate_period, first_step_gain_curve,
                              max_sliding_alpha, oscillation_study,
                              run_ensemble, scaling_exponent, sliding_alpha)
from quditmag.protocols import (PROTOCOL_KINDS, ProtocolConfig,
                                fourier_max_steps, run_protocol)

SMALL_PRIOR = PriorSpec(m=1024)


def small_config(n_experiments=10, n_steps=12, seed=0):
    protocol = ProtocolConfig("classical", t1=15e-9, n_steps=n_steps,
                              decoherence=DecoherenceParams.from_coherence_time(5e-6))
    return EnsembleConfig(protocol=protocol, n_experiments=n_experiments,
                          prior=SMALL_PRIOR, seed=seed)


def test_gain_curve_validation():
    with pytest.raises(ValueError):
        GainCurve(t_phi=np.array([1.0, 1.0, 2.0]),
                  mean_gain_bits=np.zeros(3), stderr=np.zeros(3))


def test_ensemble_determinism():
    a = run_ensemble(small_config())
    b = run_ensemble(small_config())
    assert np.array_equal(a.mean_gain_bits, b.mean_gain_bits)
    assert np.array_equal(a.stderr, b.stderr)
    assert np.array_equal(a.t_phi, b.t_phi)


def test_single_experiment_equals_trajectory():
    config = small_config(n_experiments=1, seed=7)
    curve = run_ensemble(config)
    traj = run_protocol(config.protocol, SMALL_PRIOR.build(), rng_seed=7)
    assert np.allclose(curve.mean_gain_bits, traj.cumulative_gain_bits(),
                       atol=1e-12)
    assert np.all(curve.stderr == 0.0)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_every_step_calls_the_kernel(monkeypatch, kind):
    """One ``likelihood_grid`` call per PER step of every experiment, at
    that step's delay: the count the benchmark's ensemble identity pins.
    The kernel may reuse a table, but no step may skip the call."""
    calls = []
    kernel = protocols.likelihood_grid

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(protocols, "likelihood_grid", counted)
    if kind.startswith("fourier"):
        t1, n_steps = 2.4e-6, fourier_max_steps(2.4e-6)
    else:
        t1, n_steps = 15e-9, 6
    protocol = ProtocolConfig(kind, t1=t1, n_steps=n_steps, dt=40e-9,
                              decoherence=DecoherenceParams.from_coherence_time(5e-6))
    run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=3,
                                prior=PriorSpec(m=256)))
    assert calls == list(protocols.schedule_delays(protocol)) * 3


def test_stderr_shrinks_with_ensemble_size():
    small = run_ensemble(small_config(n_experiments=40))
    large = run_ensemble(small_config(n_experiments=160))
    ratio = small.stderr[-1] / large.stderr[-1]
    assert ratio == pytest.approx(2.0, rel=0.3)


def test_mean_curve_nondecreasing():
    curve = run_ensemble(small_config(n_experiments=30, n_steps=20))
    assert np.all(np.diff(curve.mean_gain_bits) > -1e-9)


def test_gain_at_interpolates():
    curve = GainCurve(t_phi=np.array([1.0, 2.0, 3.0]),
                      mean_gain_bits=np.array([0.0, 1.0, 2.0]),
                      stderr=np.zeros(3))
    assert curve.gain_at(1.5) == pytest.approx(0.5)


def test_scaling_exponent_exact_log_curve():
    """gain = ln(t/t0) in nats has slope exactly one."""
    t = np.geomspace(1e-8, 1e-5, 60)
    curve = GainCurve(t_phi=t, mean_gain_bits=np.log(t / 1e-8) / np.log(2),
                      stderr=np.zeros_like(t))
    fit = scaling_exponent(curve, (t[0], t[-1]))
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        scaling_exponent(curve, (1e-3, 1e-2))


def test_sliding_alpha_windows_are_half_decade():
    t = np.geomspace(1e-8, 1e-5, 60)
    curve = GainCurve(t_phi=t, mean_gain_bits=np.log(t / 1e-8) / np.log(2),
                      stderr=np.zeros_like(t))
    fits = sliding_alpha(curve, (1e-7, 1e-6))
    assert fits
    for fit in fits:
        assert fit.window[1] / fit.window[0] == pytest.approx(10 ** 0.5, rel=1e-9)
        assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    best = max_sliding_alpha(curve, (1e-7, 1e-6))
    assert best.alpha == pytest.approx(1.0, abs=1e-9)


def test_estimate_period_flat_curve_is_none():
    t = np.linspace(0.0, 1.0, 500)
    assert estimate_period(t, np.full(500, 0.5)) is None


def test_first_step_curve_monotone_rise():
    prior = SMALL_PRIOR.build()
    t_values = np.linspace(0.0, 75e-9, 20)
    gains = first_step_gain_curve(prior, t_values)
    assert abs(gains[0]) < 1e-9
    assert gains[-1] == pytest.approx(0.8195, abs=0.01)


def test_oscillation_study_rejects_unknown_kind():
    with pytest.raises(ValueError):
        oscillation_study("ripple", [1.0])


def test_edge_oscillation_period_tracks_width():
    results = oscillation_study("edge", [SIGMA_DEFAULT / 2.0, SIGMA_DEFAULT],
                                n_t=700, m=1024)
    periods = [r.period for r in results]
    assert all(p is not None for p in periods)
    assert periods[0] / periods[1] == pytest.approx(2.0, rel=0.2)
