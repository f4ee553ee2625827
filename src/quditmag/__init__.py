"""Qutrit magnetometry simulator.

Grid-based Bayesian estimation of a reduced magnetic field measured with a
three-level sensor through Preparation-Exposure-Readout cycles, with a
relaxation/dephasing model, five measurement scheduling protocols, pulse
parameter optimization, and Monte Carlo ensemble studies.
"""

__version__ = "0.1.0"

from .bayes import (FieldDistribution, FieldGrid, ImpossibleOutcomeError,
                    PriorSpec, SIGMA_DEFAULT, T_SATURATION, bayes_update,
                    entropy, expected_gain, posterior_stats,
                    uniform_prior)
from .config import (ConfigError, decoherence_from, load_config, prior_from,
                     protocol_from)
from .core import (balanced_state, fourier_gate, pulse_unitary,
                   spin_xy_projection, xy_state)
from .decoherence import DecoherenceParams, decohere_channel, likelihood_grid
from .harness import (EnsembleConfig, GainCurve, OscillationResult,
                      ScalingEstimate, first_step_gain_curve,
                      oscillation_study, run_ensemble, scaling_exponent,
                      sliding_alpha)
from .optimizer import OptimizationResult, optimize_step_params
from .protocols import (READOUT, ProtocolConfig, ProtocolTrajectory,
                        StepRecord, fourier_max_steps, protocol_steps,
                        run_protocol, schedule_delays, step_prep)
