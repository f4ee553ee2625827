"""Memory regressions: the traced peak of an ensemble and of one kernel call.

tracemalloc counts what numpy allocates for its arrays, so these peaks
resolve a few hundred kB, where a process's peak RSS does not.
"""

import tracemalloc
from dataclasses import replace

from quditmag.bayes import PriorSpec
from quditmag.core import xy_state
from quditmag.decoherence import DecoherenceParams, likelihood_grid
from quditmag.harness import BLOCK_ROWS, EnsembleConfig, run_ensemble
from quditmag.protocols import READOUT, ProtocolConfig

M = 8192
DECAY = DecoherenceParams.from_coherence_time(5e-6)
LAMA = ProtocolConfig("lama", t1=15e-9, dt=40e-9, n_steps=50,
                      decoherence=DECAY)


def traced_peak_mb(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_ensemble_keeps_no_step_posteriors():
    """A 50-step posterior is 64 kB at m = 8192.  An ensemble that kept each
    trajectory's posteriors, and the last trajectory while the next runs,
    would peak near 11.5 MB here; streaming them keeps it near 3.4 MB."""
    config = EnsembleConfig(protocol=LAMA, n_experiments=4,
                            prior=PriorSpec(m=M))
    run_ensemble(replace(config, n_experiments=1))  # first-use imports
    peak = traced_peak_mb(run_ensemble, config)
    assert peak < 5.0, f"ensemble peaked at {peak:.2f} MB"


def test_ensemble_memory_stays_at_one_block():
    """run_ensemble holds one lockstep block at a time: four blocks peak no
    higher than one plus 0.5 MB, which covers the larger gains array and
    its statistics (about 0.2 MB here).  Running all 64 experiments as one
    block would hold 48 more 64 kB posteriors, 3 MB."""
    config = EnsembleConfig(protocol=LAMA, n_experiments=BLOCK_ROWS,
                            prior=PriorSpec(m=M))
    run_ensemble(replace(config, n_experiments=1))  # first-use imports
    one = traced_peak_mb(run_ensemble, config)
    four = traced_peak_mb(run_ensemble,
                          replace(config, n_experiments=4 * BLOCK_ROWS))
    assert four <= one + 0.5, f"4 blocks {four:.2f} MB, 1 block {one:.2f} MB"


def test_kernel_keeps_two_grid_temporaries():
    """One (m, 3, 3) complex array is 1.2 MB at m = 8192.  With at most two
    alive at once a kernel call at a new delay peaks near 3.0 MB; a third
    one alive takes it past 4 MB."""
    omegas = PriorSpec(m=M).build().grid.points
    likelihood_grid(xy_state(0.0, 0.0), 15e-9, READOUT, omegas, DECAY)
    peak = traced_peak_mb(likelihood_grid, xy_state(0.0, 0.0), 55e-9,
                          READOUT, omegas, DECAY)
    assert peak < 3.5, f"kernel call peaked at {peak:.2f} MB"
