"""End-to-end acceptance suite: twelve numbered criteria.

Each test evaluates one quantitative claim at its stated tolerance and
records a single pass/fail line through the ``criterion`` fixture (echoed in
the terminal summary).  Expensive ensembles are shared via module-scope
fixtures.  Criterion 10's sub-saturation half is expected to fail: at
t = T_s a non-Fourier readout measurably beats the Fourier gate (see the
detail line and test_optimal_readout_is_fourier_only_at_plateau below).
"""

from dataclasses import replace

import numpy as np
import pytest

import quditmag as qm
from oracles import (dephased_fourier_prob, is_density_matrix,
                     lindblad_oracle, max_sliding_alpha, phase_evolution)
from quditmag.bayes import expected_gain
from quditmag.decoherence import likelihood_grid
from quditmag.harness import (EnsembleConfig, PriorSpec, oscillation_study,
                              run_ensemble, scaling_exponent)
from quditmag.optimizer import optimize_step_params
from quditmag.protocols import (READOUT, ProtocolConfig, run_protocol,
                                schedule_delays, step_prep)

T_S = qm.T_SATURATION
T_C = 5e-6
F3 = qm.fourier_gate(3)
NO_DECAY = qm.DecoherenceParams.none()
LN3 = np.log(3.0)
TRIT = LN3 / np.log(2.0)  # bits per trit


@pytest.fixture(scope="module")
def prior_8192():
    return PriorSpec(m=8192).build()


@pytest.fixture(scope="module")
def lama_curve():
    """Shared 200-experiment LAMA ensemble (criteria 8 and 9)."""
    protocol = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=50,
                              decoherence=qm.DecoherenceParams.from_coherence_time(T_C))
    return run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=200,
                                       prior=PriorSpec(m=8192), seed=21))


def test_criterion_1_plateau_values(criterion, prior_8192):
    t = 5.0 * T_S
    balanced = expected_gain(prior_8192, t, qm.balanced_state(3), F3, NO_DECAY)
    xy = expected_gain(prior_8192, t, qm.xy_state(0.0, 0.0), F3, NO_DECAY)
    # closed forms: (5/3 - ln 3) / ln 2 and 2 (1/ln 2 - 1)
    balanced_target = (5.0 / 3.0 - np.log(3.0)) / np.log(2.0)
    xy_target = 2.0 * (1.0 / np.log(2.0) - 1.0)
    ok = (abs(balanced - balanced_target) <= 1e-4
          and abs(xy - xy_target) <= 1e-4)
    criterion(1, "first-step plateau gains at t = 5 T_s", ok,
              f"balanced {balanced:.4f} vs {balanced_target:.4f}, "
              f"xy {xy:.4f} vs {xy_target:.4f}")


def test_criterion_2_zero_delay_null(criterion, prior_8192):
    gains = [expected_gain(prior_8192, 0.0, prep, F3, NO_DECAY)
             for prep in (qm.balanced_state(3), qm.xy_state(0.0, 0.0))]
    ok = all(abs(g) <= 1e-9 for g in gains)
    criterion(2, "zero-delay expected gain vanishes", ok,
              f"|gain| <= {max(abs(g) for g in gains):.2e}")


def test_criterion_3_channel_matches_oracle(criterion):
    rng = np.random.default_rng(0)
    params = qm.DecoherenceParams.from_coherence_time(T_C)
    worst = 0.0
    for _ in range(100):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        t = rng.uniform(0.0, 5.0 * T_C)
        omega = rng.uniform(-2e5, 2e5)
        phases = phase_evolution(omega, t, 3)
        closed = qm.decohere_channel(phases @ rho0 @ phases.conj().T, t, params)
        oracle = lindblad_oracle(rho0, t, params, omega=omega, n_steps=2500)
        worst = max(worst, float(np.max(np.abs(closed - oracle))))
    criterion(3, "closed-form channel vs master-equation oracle (100 cases)",
              worst < 1e-6, f"max elementwise error {worst:.2e}")


def test_criterion_4_dephased_closed_form(criterion):
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        params = qm.DecoherenceParams(*rng.uniform(0.0, 3e5, size=3))
        omega = rng.uniform(-2e7, 2e7)
        t = rng.uniform(0.0, 5e-6)
        probs = likelihood_grid(qm.balanced_state(3), t, F3, [omega],
                                params)[0]
        for xi in range(3):
            err = abs(dephased_fourier_prob(xi, omega, t, params) - probs[xi])
            worst = max(worst, err)
    criterion(4, "dephased first-step probability closed form (1000 cases)",
              worst < 1e-9, f"max error {worst:.2e}")


def test_criterion_5_ternary_recovery(criterion):
    omega_0 = 1e7
    grid = qm.FieldGrid(0.0, 26.0 * omega_0 / 9.0, 27)
    prior = qm.uniform_prior(grid)
    config = ProtocolConfig("fourier", t1=2.0 * np.pi * 3.0 / omega_0,
                            n_steps=3)
    min_peak = 1.0
    all_exact = True
    for idx in range(27):
        traj = run_protocol(config, prior, rng_seed=idx,
                            true_omega=grid.points[idx])
        final = traj.posterior
        min_peak = min(min_peak, float(final.weights.max()))
        if np.argmax(final.weights) != idx:
            all_exact = False
    ok = all_exact and min_peak > 1.0 - 1e-9
    criterion(5, "all 27 three-trit fields recovered in 3 steps", ok,
              f"min max-posterior weight {min_peak:.12f}")


def _fourier_step_gain(t1, step_index, m=16384, seed=0):
    """Expected gain of the given step of the geometric-schedule protocol."""
    prior = PriorSpec(m=m).build()
    config = ProtocolConfig("fourier", t1=t1, n_steps=step_index - 1)
    traj = run_protocol(config, prior, rng_seed=seed)
    dist = traj.posterior
    delay = schedule_delays(replace(config, n_steps=step_index))[-1]
    prep = step_prep("fourier", [s.outcome for s in traj.steps])
    return expected_gain(dist, delay, prep, READOUT, NO_DECAY)


def test_criterion_6_fourier_seventh_step_asymptote(criterion):
    """Expected red: with t1 = 2.4 us the posterior comb under the Gaussian
    prior envelope has only ~3^5.2 teeth, so near-trit steps run out after
    ~5 steps and the 7th-step gain collapses.  The 1-trit asymptote is real
    but needs a longer first delay; see the reference test below."""
    gain_trits = _fourier_step_gain(2.4e-6, 7) / TRIT
    criterion(6, "7th-step gain of the geometric schedule at t1 = 2.4 us",
              gain_trits >= 0.95,
              f"measured {gain_trits:.4f} trit vs required 0.95; "
              f"the schedule supports only ~5 near-trit steps at this t1")


def test_fourier_trit_asymptote_reference():
    """The near-1-trit per-step asymptote is reproduced once the first delay
    is long enough for seven geometric refinements."""
    gain_trits = _fourier_step_gain(64.8e-6, 7) / TRIT
    assert gain_trits >= 0.95


def test_criterion_7_classical_shot_noise(criterion):
    protocol = ProtocolConfig("classical", t1=15e-9, n_steps=50,
                              decoherence=qm.DecoherenceParams.from_coherence_time(T_C))
    curve = run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=200,
                                        prior=PriorSpec(m=8192), seed=11))
    fit = scaling_exponent(curve, (75e-9, 750e-9))
    ok = abs(fit.alpha - 0.5) <= 0.1
    criterion(7, "classical ensemble scaling exponent over one decade", ok,
              f"alpha {fit.alpha:.3f} vs 0.5 +/- 0.1")


def test_criterion_8_lama_near_heisenberg(criterion, lama_curve):
    best = max_sliding_alpha(lama_curve, (0.5 * T_C, 2.0 * T_C))
    criterion(8, "linear-schedule sliding-window alpha near T_c",
              best.alpha >= 0.8,
              f"max alpha {best.alpha:.3f} in window "
              f"[{best.window[0] * 1e6:.2f}, {best.window[1] * 1e6:.2f}] us")


def test_criterion_9_lama_beats_geometric(criterion, lama_curve):
    protocol = ProtocolConfig("kitaev", t1=15e-9, n_steps=8,
                              decoherence=qm.DecoherenceParams.from_coherence_time(T_C))
    kitaev = run_ensemble(EnsembleConfig(protocol=protocol, n_experiments=200,
                                         prior=PriorSpec(m=8192), seed=31))
    t_match = kitaev.t_phi[-1]  # ~10 T_c
    lama_gain = float(np.interp(t_match, lama_curve.t_phi,
                                lama_curve.mean_gain_bits))
    kitaev_gain = float(kitaev.mean_gain_bits[-1])
    ratio = lama_gain / kitaev_gain
    criterion(9, "linear schedule beats geometric by >= 20% at ~10 T_c",
              ratio >= 1.2,
              f"gains {lama_gain:.2f} vs {kitaev_gain:.2f} bits "
              f"at t_phi {t_match * 1e6:.1f} us, ratio {ratio:.2f}")


def _readout_searches(prior, t):
    """Criterion 10's two searches at delay t: Fourier readout, free readout."""
    fixed = optimize_step_params(prior, t, NO_DECAY, budget=600, rng_seed=1,
                                 n_starts=10, fix_readout=F3)
    full = optimize_step_params(prior, t, NO_DECAY, budget=3000, rng_seed=5,
                                n_starts=24)
    return fixed, full


@pytest.fixture(scope="module")
def search_prior():
    return PriorSpec(m=4096).build()


@pytest.fixture(scope="module")
def plateau_searches(search_prior):
    """The 5 T_s searches, shared by criterion 10 and its plateau companion."""
    return _readout_searches(search_prior, 5.0 * T_S)


def test_criterion_10_optimizer_fourier_readout(criterion, prior_8192,
                                                search_prior, plateau_searches):
    """Expected red at t = T_s: the free-readout optimum measurably exceeds
    the Fourier-readout optimum below saturation (the advantage is grid- and
    start-independent; it vanishes on the plateau, where the two agree to
    machine precision)."""
    details = []
    ok = True
    for t, label, (fixed, full) in (
            (T_S, "T_s", _readout_searches(search_prior, T_S)),
            (5.0 * T_S, "5 T_s", plateau_searches)):
        # optimize on the fast grid, re-score on the acceptance grid
        fixed_gain = expected_gain(prior_8192, t, fixed.best_prep, F3, NO_DECAY)
        full_gain = expected_gain(prior_8192, t, full.best_prep,
                                  full.best_readout, NO_DECAY)
        j_xy = qm.spin_xy_projection(fixed.best_prep)
        here = j_xy >= 0.99 and abs(full_gain - fixed_gain) <= 1e-3
        ok = ok and here
        details.append(f"{label}: j_xy {j_xy:.4f}, fixed {fixed_gain:.4f} vs "
                       f"free {full_gain:.4f} bits")
    criterion(10, "spin-projection-maximal prep and Fourier-optimal readout",
              ok, "; ".join(details))


def test_optimal_readout_is_fourier_only_at_plateau(plateau_searches):
    """Companion to criterion 10: on the plateau the free-readout search
    reproduces the Fourier-readout optimum to machine precision."""
    fixed, full = plateau_searches
    assert abs(full.best_gain - fixed.best_gain) <= 1e-3


def test_criterion_11_oscillation_scalings(criterion):
    sigma = qm.SIGMA_DEFAULT
    edge = oscillation_study("edge", [sigma, 2.0 * sigma])
    edge_ratio = edge[0].period / edge[1].period
    center = oscillation_study("center", [6.0 * sigma, 12.0 * sigma])
    center_ratio = center[0].period / center[1].period
    disc = oscillation_study("discreteness", [64, 128])
    disc_ratio = disc[1].period / disc[0].period
    ok = all(abs(r - 2.0) <= 0.4 for r in (edge_ratio, center_ratio,
                                           disc_ratio))
    criterion(11, "inverse proportionality of all three oscillation periods",
              ok, f"ratios edge {edge_ratio:.2f}, center {center_ratio:.2f}, "
                  f"grid-revival {disc_ratio:.2f} (target 2.0 +/- 0.4)")


def test_criterion_12_property_suites(criterion, prior_8192):
    rng = np.random.default_rng(2)
    checks = {}

    unitary_err = max(
        float(np.max(np.abs(u @ u.conj().T - np.eye(3))))
        for u in (qm.pulse_unitary(*s)
                  for s in rng.uniform(-np.pi, np.pi, size=(50, 3))))
    checks["unitarity"] = unitary_err < 1e-12

    params = qm.DecoherenceParams.from_coherence_time(T_C)
    cptp_ok = True
    for _ in range(200):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = qm.decohere_channel(rho, rng.uniform(0.0, 5.0 * T_C), params)
        cptp_ok = cptp_ok and is_density_matrix(out)
    checks["cptp"] = cptp_ok

    dist = prior_8192
    norm_ok = True
    for _ in range(5):
        lik = likelihood_grid(qm.xy_state(0.0, 0.0), 30e-9, F3,
                              dist.grid.points, NO_DECAY)
        dist = qm.bayes_update(dist, lik[:, 1])
        norm_ok = norm_ok and abs(dist.weights.sum() - 1.0) < 1e-12
    checks["bayes_normalization"] = norm_ok

    traj = run_protocol(ProtocolConfig("lama", t1=15e-9, dt=40e-9,
                                       n_steps=10), prior_8192, rng_seed=4)
    telescoped = (qm.entropy(prior_8192)
                  - qm.entropy(traj.posterior)) / np.log(2)
    checks["gain_telescoping"] = abs(
        np.cumsum([s.gain_bits for s in traj.steps])[-1] - telescoped) < 1e-9

    gains = [expected_gain(PriorSpec(m=m).build(), 5.0 * T_S,
                           qm.xy_state(0.0, 0.0), F3, NO_DECAY)
             for m in (8192, 16384)]
    checks["grid_refinement"] = abs(gains[1] - gains[0]) < 1e-3

    cfg = EnsembleConfig(
        protocol=ProtocolConfig("classical", t1=15e-9, n_steps=8),
        n_experiments=10, prior=PriorSpec(m=1024), seed=9)
    a, b = run_ensemble(cfg), run_ensemble(cfg)
    checks["ensemble_determinism"] = bool(
        np.array_equal(a.mean_gain_bits, b.mean_gain_bits))

    failed = [name for name, passed in checks.items() if not passed]
    criterion(12, "property suites (unitarity, CPTP, Bayes, grids, ensembles)",
              not failed, "all passed" if not failed else
              "failed: " + ", ".join(failed))
