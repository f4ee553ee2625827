"""Physical invariants checked on generated inputs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import (einsum_likelihood_grid, entropy_difference_gain,
                     entrywise_decohere_channel, scipy_entr,
                     scipy_expected_gain)
from quditmag import decoherence
from quditmag.bayes import (FieldGrid, PriorSpec, SIGMA_DEFAULT, _entr,
                            bayes_update, expected_gain)
from quditmag.core import balanced_state, fourier_gate, pulse_unitary, xy_state
from quditmag.decoherence import (DecoherenceParams, decohere_channel,
                                  likelihood_grid)

angles = st.floats(-np.pi, np.pi)
rates = st.floats(0.0, 3e5)
delays = st.floats(0.0, 5e-6)


@st.composite
def preps(draw):
    """Normalised qutrit state with random amplitudes and phases."""
    amps = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                  max_size=3)))
    assume(amps.sum() > 1e-3)
    phases = np.array(draw(st.lists(angles, min_size=3, max_size=3)))
    psi = amps * np.exp(1j * phases)
    return psi / np.linalg.norm(psi)


@st.composite
def measurements(draw):
    """(prep, readout, delay, decoherence) of one PER step."""
    readout = pulse_unitary(draw(angles), draw(angles), draw(angles))
    params = DecoherenceParams(draw(rates), draw(rates), draw(rates))
    return draw(preps()), readout, draw(delays), params


def _omegas(m):
    return FieldGrid.centered(SIGMA_DEFAULT, 12.0, m).points


@settings(max_examples=50, deadline=None)
@given(measurements(), st.integers(2, 512))
def test_likelihood_is_a_probability_vector(measurement, m):
    prep, readout, t, params = measurement
    probs = likelihood_grid(prep, t, readout, _omegas(m), params)
    assert probs.shape == (m, 3)
    assert np.all((probs >= 0.0) & (probs <= 1.0))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(measurements(), measurements(), st.integers(0, 2), st.integers(0, 2),
       st.integers(2, 512))
def test_bayes_updates_commute(first, second, xi_a, xi_b, m):
    prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, m).build()

    def likelihood(measurement, xi):
        prep, readout, t, params = measurement
        return likelihood_grid(prep, t, readout, prior.grid.points,
                               params)[:, xi]

    lik_a, lik_b = likelihood(first, xi_a), likelihood(second, xi_b)
    assume((prior.weights * lik_a * lik_b).sum() > 1e-100)
    ab = bayes_update(bayes_update(prior, lik_a), lik_b)
    ba = bayes_update(bayes_update(prior, lik_b), lik_a)
    np.testing.assert_allclose(ab.weights, ba.weights, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(measurements(), st.integers(2, 512))
# balanced prep and F_3 at t = 0: outcome 0 is certain, so two marginals
# are exactly zero, the outcomes the entropy-difference form skips
@example((balanced_state(3), fourier_gate(3), 0.0, DecoherenceParams()), 64)
def test_expected_gain_is_the_entropy_difference(measurement, m):
    """The mutual-information gain equals the expected drop from prior to
    posterior entropy, computed outcome by outcome."""
    prep, readout, t, params = measurement
    prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, m).build()
    gain = expected_gain(prior, t, prep, readout, params)
    reference = entropy_difference_gain(prior, t, prep, readout, params)
    assert abs(gain - reference) <= 1e-12


def test_entr_is_within_2_ulp_of_scipy():
    """The numpy -p ln p against SciPy's entr on [0, 1], the ends, the
    smallest subnormal and NaN: +0.0 at 0, NaN for NaN, else 2 ulp."""
    rng = np.random.default_rng(21)
    p = np.concatenate([rng.random(200_000), rng.random(1000) ** 40,
                        [0.0, 1.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0**-53]])
    got, want = _entr(p), scipy_entr(p)
    assert np.all(np.abs(got.view(np.int64) - want.view(np.int64)) <= 2)
    assert not np.signbit(got).any()
    zero, nan = _entr(np.array([0.0, np.nan]))
    assert zero == 0.0 and not np.signbit(zero) and np.isnan(nan)


@pytest.mark.parametrize("coherence_time", [np.inf, 5e-6, 0.5e-6])
def test_expected_gain_equals_the_scipy_oracle(coherence_time):
    """The gain with the numpy entr against the SciPy form, over random
    pulse preps and readouts, delays and grid sizes, and the t = 0 case
    whose outcome marginal holds exact zeros."""
    rng = np.random.default_rng(21)
    params = (DecoherenceParams() if np.isinf(coherence_time) else
              DecoherenceParams.from_coherence_time(coherence_time))
    cases = [(64, balanced_state(3), fourier_gate(3), 0.0)]
    for _ in range(30):
        psi = rng.random(3) * np.exp(1j * rng.uniform(-np.pi, np.pi, 3))
        cases.append((int(rng.integers(2, 8193)), psi / np.linalg.norm(psi),
                      pulse_unitary(*rng.uniform(-np.pi, np.pi, 3)),
                      rng.uniform(0.0, 5e-6)))
    for m, prep, readout, t in cases:
        prior = PriorSpec(0.0, SIGMA_DEFAULT, 12.0, m).build()
        gain = expected_gain(prior, t, prep, readout, params)
        reference = scipy_expected_gain(prior, t, prep, readout, params)
        assert abs(gain - reference) <= 1e-15, (m, t)


@st.composite
def channel_rates(draw):
    """Decoherence rates, with gamma_21 == gamma_10 (the degenerate cascade)
    drawn as often as distinct rates."""
    gamma_10 = draw(rates)
    gamma_21 = gamma_10 if draw(st.booleans()) else draw(rates)
    return DecoherenceParams(gamma_10, gamma_21, draw(rates))


@settings(max_examples=300, deadline=None)
@given(channel_rates(), delays)
# equal rates so small that the degenerate-rate tolerance underflows to 0
@example(DecoherenceParams(5e-324, 5e-324, 0.0), 0.0)
# a relative rate gap of 1e-5: the difference of exponentials in the
# cascade feed cancelled to a Choi eigenvalue of -4.6e-12
@example(DecoherenceParams(1.0, 0.99999, 0.0), 5.424091389358289e-08)
def test_channel_is_cptp(params, t):
    """Choi matrix of ``decohere_channel``: Hermitian, positive semidefinite
    and with the identity as its partial trace over the output.  The channel
    sets rho_00 = 1 - rho_11 - rho_22, so it is affine on trace-one inputs;
    the linear map on an off-diagonal E_ij is Phi(E_00 + E_ij) - Phi(E_00)."""
    basis = np.eye(3)

    def unit(i, j):
        return np.outer(basis[i], basis[j])

    def linear(i, j):
        if i == j:
            return decohere_channel(unit(i, i), t, params)
        return (decohere_channel(unit(0, 0) + unit(i, j), t, params)
                - decohere_channel(unit(0, 0), t, params))

    blocks = np.array([[linear(i, j) for j in range(3)] for i in range(3)])
    choi = blocks.transpose(0, 2, 1, 3).reshape(9, 9)
    np.testing.assert_allclose(choi, choi.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(choi).min() >= -1e-12
    np.testing.assert_allclose(np.einsum("ijaa->ij", blocks), basis,
                               rtol=0, atol=1e-12)


def _same_bytes(a, b):
    """Equal shape, strides and bytes; the bytes also tell -0.0 from 0.0,
    which ``np.array_equal`` does not."""
    return (a.shape == b.shape and a.strides == b.strides
            and np.array_equal(a, b) and a.tobytes() == b.tobytes())


@settings(max_examples=100, deadline=None)
@given(measurements(), st.integers(1, 512))
# lama-trace's first step (15 ns, T_c = 5 us) on the default 8192-point grid
@example((xy_state(0.0, 0.0), fourier_gate(3), 15e-9,
          DecoherenceParams.from_coherence_time(5e-6)), 8192)
# equal relaxation rates, the degenerate cascade feed
@example((balanced_state(3), fourier_gate(3), 1e-6,
          DecoherenceParams(2e5, 2e5, 1e5)), 64)
# one field value: numpy runs an in-place product of one element through
# another loop, which rounds differently
@example((xy_state(0.3, -1.2), pulse_unitary(0.4, 1.1, -0.7), 1e-6,
          DecoherenceParams(1e5, 3e4, 2e5)), 1)
def test_kernel_equals_the_einsum_oracle_exactly(measurement, m):
    """``likelihood_grid`` returns the einsum oracle's bytes and strides.

    Exact, not within a tolerance: every CLI artifact is compared byte for
    byte, and lama-trace's posterior mean at its first steps is rounding
    noise (about 5e-10 rad/s on a +-4.2e8 rad/s grid) that the benchmark's
    references pin at atol 1e-12.  A kernel that changes one rounding moves
    recorded outputs; that is a different change, with its own record of
    the files it moves."""
    prep, readout, t, params = measurement
    # the default prior grid; its lower end alone when m = 1.  Read-only and
    # owning its data, as FieldGrid.points is, so the memo may keep it
    omegas = np.linspace(-6.0 * SIGMA_DEFAULT, 6.0 * SIGMA_DEFAULT, m).copy()
    omegas.flags.writeable = False
    table = likelihood_grid(prep, t, readout, omegas, params)
    assert _same_bytes(table,
                       einsum_likelihood_grid(prep, t, readout, omegas, params))

    # the same arguments again, prep and readout in new arrays, the same
    # grid object: the stored table, read-only
    again = likelihood_grid(prep.copy(), t, readout.copy(), omegas, params)
    assert again is table and not again.flags.writeable
    with pytest.raises(ValueError):
        again[0, 0] = 0.5

    # the grid's bytes in a writeable copy or in a view, whose bytes could
    # change under the memo: never the stored table, but its bytes
    for grid in (omegas.copy(), omegas[:]):
        for _ in range(2):
            other = likelihood_grid(prep, t, readout, grid, params)
            assert other is not table and _same_bytes(other, table)

    # one argument one ulp away: a new table, the oracle's for the new call
    def ulp(a, index):
        """Copy of ``a`` with one float64 (of a complex entry, its real or
        imaginary part) one ulp up."""
        a = a.copy()
        parts = a.view(float)
        parts[index] = np.nextafter(parts[index], np.inf)
        return a

    up = float(np.nextafter(params.gamma_phi, np.inf))
    for changed in ((prep, float(np.nextafter(t, np.inf)), readout, omegas,
                     params),
                    (ulp(prep, 2), t, readout, omegas, params),
                    (prep, t, ulp(readout, (2, 2)), omegas, params),
                    (prep, t, readout, ulp(omegas, m // 2), params),
                    (prep, t, readout, omegas, replace(params, gamma_phi=up))):
        base = likelihood_grid(prep, t, readout, omegas, params)
        table = likelihood_grid(*changed)
        assert table is not base
        assert _same_bytes(table, einsum_likelihood_grid(*changed))

    # on one (t, grid): a new prep, then readout, then rate reuse the stored
    # field phases; back at the first arguments the rebuilt table has the
    # first table's bytes and is then the stored one; a new t rebuilds them
    first = likelihood_grid(prep, t, readout, omegas, params)
    phases = decoherence._last_call[2]
    pulses = ((xy_state(0.3, -1.2), readout, params),
              (xy_state(0.3, -1.2), fourier_gate(3), params),
              (xy_state(0.3, -1.2), fourier_gate(3),
               replace(params, gamma_10=params.gamma_10 + 1e4)),
              (prep, readout, params))
    for pulse_prep, pulse_readout, pulse_params in pulses:
        args = (pulse_prep, t, pulse_readout, omegas, pulse_params)
        table = likelihood_grid(*args)
        assert decoherence._last_call[2] is phases
        assert _same_bytes(table, einsum_likelihood_grid(*args))
    assert table is not first and _same_bytes(table, first)
    assert likelihood_grid(prep, t, readout, omegas, params) is table
    later = float(np.nextafter(t, np.inf))
    table = likelihood_grid(prep, later, readout, omegas, params)
    assert decoherence._last_call[2] is not phases
    assert _same_bytes(table, einsum_likelihood_grid(prep, later, readout,
                                                     omegas, params))


@settings(max_examples=300, deadline=None)
@given(channel_rates(), delays, preps(), angles, angles, angles)
@example(DecoherenceParams(2e5, 2e5, 1e5), 1e-6, balanced_state(3),
         0.0, 0.0, 0.0)
# the cascade feed's exprel(x), x = -|G21 - G10| t: equal rates above give
# x = -0.0; then x = +0.0 (t = -0.0), a subnormal x, |x| just inside and at
# eps = 2**-52 (the guard is |x| < eps), and x about -1e-15
@example(DecoherenceParams(2e5, 2e5 * (1 + 2**-40), 1e5), -0.0,
         balanced_state(3), 0.0, 0.0, 0.0)
@example(DecoherenceParams(1e-310, 1.05e-310, 0.0), 1.0, balanced_state(3),
         0.0, 0.0, 0.0)
@example(DecoherenceParams(1.0, 1 + 2**-52, 0.5), 1 - 2**-53,
         balanced_state(3), 0.0, 0.0, 0.0)
@example(DecoherenceParams(1.0, 1 + 2**-52, 0.5), 1.0, balanced_state(3),
         0.0, 0.0, 0.0)
@example(DecoherenceParams(1.0, 1 + 5 * 2**-52, 0.5), 0.9,
         balanced_state(3), 0.0, 0.0, 0.0)
def test_channel_equals_the_entrywise_oracle_exactly(params, t, prep, eps,
                                                     delta1, delta2):
    """``decohere_channel`` returns the entry-by-entry oracle's bytes, for
    the reason given in the kernel test above."""
    pure = np.outer(prep, prep.conj())
    # one matrix and a batch; the map is checked on a unitary too
    for pi in (pure, np.stack([pure, pulse_unitary(eps, delta1, delta2)])):
        assert _same_bytes(decohere_channel(pi, t, params),
                           entrywise_decohere_channel(pi, t, params))
