"""Step-by-step posterior evolution under the linear delay schedule.

Replays two fixed outcome sets through six steps of the linearly increasing
schedule and prints the posterior mean, width and per-step gain.  The
all-zero outcome set keeps the posterior centered and narrows it steadily;
a mixed outcome set walks the mean around while still shrinking the width.
"""

import numpy as np

from quditmag.bayes import posterior_stats
from quditmag.harness import PriorSpec
from quditmag.protocols import ProtocolConfig, run_protocol


def replay(outcomes):
    prior = PriorSpec(m=4096).build()
    config = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=len(outcomes))
    traj = run_protocol(config, prior, rng_seed=0,
                        forced_outcomes=list(outcomes))
    _, prior_std = posterior_stats(prior)
    print(f"outcomes {outcomes}: prior std {prior_std:.3e} rad/s")
    print(f"{'step':>4} {'xi':>3} {'delay [ns]':>10} {'gain [bits]':>11} "
          f"{'mean [rad/s]':>13} {'std [rad/s]':>12}")
    for i, step in enumerate(traj.steps, start=1):
        mean, std = posterior_stats(step.posterior)
        print(f"{i:4d} {step.outcome:3d} {step.plan.delay * 1e9:10.1f} "
              f"{step.gain_bits:11.3f} {mean:13.3e} {std:12.3e}")
    total = traj.cumulative_gain_bits()[-1]
    print(f"total gain {total:.3f} bits "
          f"over t_phi = {traj.phase_accumulation_time * 1e9:.0f} ns\n")


def main():
    replay((0, 0, 0, 0, 0, 0))
    replay((1, 2, 0, 0, 1, 2))


if __name__ == "__main__":
    main()
