"""Searching the pulse parameters of a single measurement step.

Maximizes the expected information gain over the six pulse parameters
(three for the preparation pulse, three for the readout pulse) and compares
against the restricted search with the readout fixed to the ternary Fourier
gate.  On the saturation plateau the two searches agree to machine
precision and the optimal preparation is an xy-plane spin state
(j_xy ~ 1).  Below saturation the free readout genuinely beats the Fourier
gate by a few hundredths of a bit -- the Fourier readout is only optimal
once the accumulated phases wrap the full prior.
"""

from quditmag import DecoherenceParams, T_SATURATION, fourier_gate, \
    spin_xy_projection
from quditmag.harness import PriorSpec
from quditmag.optimizer import optimize_step_params


def main():
    prior = PriorSpec(m=2048).build()
    no_decay = DecoherenceParams.none()
    for t, label in ((T_SATURATION, "t = T_s (sub-saturation)"),
                     (5.0 * T_SATURATION, "t = 5 T_s (plateau)")):
        fixed = optimize_step_params(prior, t, no_decay, budget=500,
                                     rng_seed=1, n_starts=8,
                                     fix_readout=fourier_gate(3))
        free = optimize_step_params(prior, t, no_decay, budget=1500,
                                    rng_seed=5, n_starts=16)
        print(label)
        print(f"  Fourier readout: gain {fixed.best_gain:.4f} bits, "
              f"prep j_xy = {spin_xy_projection(fixed.best_prep):.4f}")
        print(f"  free readout:    gain {free.best_gain:.4f} bits, "
              f"prep j_xy = {spin_xy_projection(free.best_prep):.4f}")
        print(f"  free-readout advantage: "
              f"{free.best_gain - fixed.best_gain:+.4f} bits\n")


if __name__ == "__main__":
    main()
