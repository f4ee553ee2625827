"""Qutrit magnetometry simulator.

Grid-based Bayesian estimation of a reduced magnetic field measured with a
three-level sensor through Preparation-Exposure-Readout cycles, with a
relaxation/dephasing model, five measurement scheduling protocols, pulse
parameter optimization, and Monte Carlo ensemble studies.
"""

__version__ = "0.1.0"

from .bayes import (FieldDistribution, FieldGrid, ImpossibleOutcomeError,
                    PriorSpec, SIGMA_DEFAULT, T_SATURATION, bayes_update,
                    differential_entropy, entropy, expected_gain,
                    gaussian_prior, posterior_stats, uniform_prior)
from .config import (ConfigError, decoherence_from, load_config, prior_from)
from .core import (PulseParams, SpinProjection, balanced_state, fourier_gate,
                   phase_evolution, pulse_unitary, spin_xy_projection,
                   xy_state)
from .decoherence import (DecoherenceParams, decohere_channel,
                          dephased_fourier_prob, is_density_matrix,
                          likelihood_grid, lindblad_oracle,
                          outcome_probabilities)
from .harness import (EnsembleConfig, GainCurve, OscillationResult,
                      ScalingEstimate, first_step_gain_curve,
                      max_sliding_alpha, oscillation_study, run_ensemble,
                      scaling_exponent, sliding_alpha)
from .optimizer import OptimizationResult, optimize_step_params
from .protocols import (ProtocolConfig, ProtocolTrajectory, StepPlan,
                        StepRecord, fourier_max_steps, kitaev_max_steps,
                        run_protocol, schedule_delays)
