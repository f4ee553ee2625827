"""Ensembles, scaling-exponent fits and oscillation studies."""

from pathlib import Path

import numpy as np
import pytest

from quditmag import decoherence, protocols
from quditmag.bayes import SIGMA_DEFAULT
from quditmag.config import load_config
from quditmag.decoherence import DecoherenceParams
from oracles import (max_sliding_alpha, scipy_detrended_peaks,
                     serial_run_ensemble)
from quditmag.harness import (BLOCK_ROWS, EnsembleConfig, GainCurve, PriorSpec,
                              _detrended_peaks, estimate_period,
                              estimate_revival_time, first_step_gain_curve,
                              oscillation_study, run_ensemble,
                              scaling_exponent, sliding_alpha)
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
    assert np.allclose(curve.mean_gain_bits,
                       np.cumsum([s.gain_bits for s in traj.steps]),
                       atol=1e-12)
    assert np.all(curve.stderr == 0.0)


def kind_protocol(kind):
    """A short decohering run of each kind; Fourier to its step floor."""
    if kind.startswith("fourier"):
        t1, n_steps = 2.4e-6, fourier_max_steps(2.4e-6)
    else:
        t1, n_steps = 15e-9, 6
    decay = DecoherenceParams.from_coherence_time(5e-6)
    return ProtocolConfig(kind, t1=t1, n_steps=n_steps, dt=40e-9,
                          decoherence=decay)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_every_step_calls_the_kernel(monkeypatch, kind):
    """One ``likelihood_grid`` call per PER step of every experiment, at
    that step's delay, in lockstep order (every experiment takes step i
    before any takes step i + 1): the count the benchmark's ensemble
    identity pins.  The kernel may reuse a table, but no step may skip the
    call."""
    calls = []
    kernel = protocols.likelihood_grid

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(protocols, "likelihood_grid", counted)
    protocol = kind_protocol(kind)
    run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=3,
                                prior=PriorSpec(m=256)))
    delays = protocols.schedule_delays(protocol)
    assert calls == [d for d in delays for _ in range(3)]


@pytest.mark.parametrize("n_experiments", [3, BLOCK_ROWS + 3])
@pytest.mark.parametrize("kind", ["lama", "classical", "kitaev"])
def test_lockstep_blocks_share_one_table_per_step(monkeypatch, kind,
                                                  n_experiments):
    """The schedules whose prep ignores the outcomes compute one table per
    step per block, the classical one a single table per ensemble; an
    experiment run after another would recompute each lama and kitaev
    table once per experiment."""
    calls = []
    channel = decoherence.decohere_channel

    def counted(*args):
        calls.append(args[1])
        return channel(*args)

    monkeypatch.setattr(decoherence, "decohere_channel", counted)
    protocol = kind_protocol(kind)
    run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=n_experiments,
                                prior=PriorSpec(m=256)))
    blocks = -(-n_experiments // BLOCK_ROWS)
    delays = list(protocols.schedule_delays(protocol))
    assert calls == (delays[:1] if kind == "classical" else delays * blocks)


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
def test_blocks_equal_the_serial_oracle_exactly(kind):
    """Lockstep blocks give the bytes of one experiment after another, mean
    and stderr, across a block boundary."""
    config = EnsembleConfig(protocol=kind_protocol(kind),
                            n_experiments=BLOCK_ROWS + 3,
                            prior=SMALL_PRIOR, seed=5)
    curve = run_ensemble(config)
    mean, stderr = serial_run_ensemble(config)
    assert curve.mean_gain_bits.tobytes() == mean.tobytes()
    assert curve.stderr.tobytes() == stderr.tobytes()


def test_stderr_shrinks_with_ensemble_size():
    small = run_ensemble(small_config(n_experiments=40))
    large = run_ensemble(small_config(n_experiments=160))
    ratio = small.stderr[-1] / large.stderr[-1]
    assert ratio == pytest.approx(2.0, rel=0.3)


def test_mean_curve_nondecreasing():
    curve = run_ensemble(small_config(n_experiments=30, n_steps=20))
    assert np.all(np.diff(curve.mean_gain_bits) > -1e-9)


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


@pytest.mark.parametrize("gain", [[], [0.3], [0.0, 0.8], [1.0, 0.0, 1.0, 1.0]],
                         ids=["empty", "one-sample", "two-samples",
                              "end-plateau"])
def test_tiny_curves_have_no_period(gain):
    """Curves of 0, 1 and 2 samples, and one whose residual's maximum is a
    plateau ending at the last sample (and the lone first sample), have
    no interior peak."""
    gain = np.array(gain)
    t = np.arange(len(gain)) * 1e-9
    assert estimate_period(t, gain) is None
    assert estimate_revival_time(t, gain, t_min=0.0) is None


def assert_peaks_match_the_oracle(y):
    resid, peaks = _detrended_peaks(y)
    oracle_resid, oracle_peaks = scipy_detrended_peaks(y)
    assert resid.tobytes() == oracle_resid.tobytes(), len(y)
    assert peaks.dtype == oracle_peaks.dtype
    assert np.array_equal(peaks, oracle_peaks), (peaks, oracle_peaks)


def test_detrended_peaks_equal_the_scipy_oracle_exactly():
    """Random walks plus sinusoids, quantised staircases whose constant
    head or tail is a plateau touching an end, and n = 0..4, where the
    window is wider than the curve."""
    rng = np.random.default_rng(20)
    for n in (0, 1, 2, 3, 4):
        for _ in range(25):
            assert_peaks_match_the_oracle(
                np.round(rng.normal(size=n), int(rng.integers(0, 3))))
    for _ in range(150):
        n = int(rng.integers(5, 2001))
        assert_peaks_match_the_oracle(
            1e-2 * np.cumsum(rng.normal(size=n))
            + rng.uniform(0.0, 0.1) * np.sin(rng.uniform(0.01, 1.0) * np.arange(n)))
        steps = 1e-3 * np.round(2.0 * rng.normal(size=n))
        steps[:rng.integers(0, n)] = 0.0
        steps[n - rng.integers(0, n):] = 0.0
        assert_peaks_match_the_oracle(np.cumsum(steps))
        assert_peaks_match_the_oracle(np.cumsum(np.abs(steps)))


@pytest.mark.parametrize("kind", ["edge", "center", "discreteness"])
def test_demo_gain_curves_peak_as_the_scipy_oracle(kind):
    demo = Path(__file__).resolve().parent.parent / "demos"
    config = load_config(str(demo / f"oscillations_{kind}.ini"), "oscillations")
    section = config["oscillations"]
    variants = section["variants_points" if kind == "discreteness"
                       else "variants_rad_per_s"]
    for result in oscillation_study(kind, variants,
                                    sigma=config["prior"]["sigma_rad_per_s"],
                                    n_t=section["n_t"],
                                    m=section["grid_points"]):
        assert_peaks_match_the_oracle(result.gain_bits)


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
