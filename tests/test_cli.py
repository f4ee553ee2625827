"""Command-line front end: config validation, artifacts, determinism."""

import json
import os

import numpy as np
import pytest

from quditmag.cli import main
from quditmag.config import ConfigError, load_config

GAIN_CURVE_INI = """
[gain-curve]
prep = {prep}
t_max_ns = 75
n_t = {n_t}

[prior]
grid_points = 2048
"""

TRACE_INI = """
[lama-trace]
outcomes = {outcomes}

[prior]
grid_points = 2048
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle]
    return header, rows


def test_gain_curve_plateaus(tmp_path):
    for prep, plateau in (("xy", 0.885), ("balanced", 0.817)):
        cfg = write(tmp_path, f"{prep}.ini",
                    GAIN_CURVE_INI.format(prep=prep, n_t=40))
        out = str(tmp_path / prep)
        assert main(["gain-curve", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "gain_curve.csv"))
        assert header == ["t_ns", "gain_bits"]
        assert float(rows[-1][1]) == pytest.approx(plateau, abs=0.01)
        manifest = json.load(open(os.path.join(out, "gain_curve.json")))
        assert manifest["summary"]["plateau_gain_bits"] == \
            pytest.approx(plateau, abs=0.01)
        assert manifest["config"]["prior"]["grid_points"] == 2048


def test_empty_sweep_yields_header_only_csv(tmp_path):
    cfg = write(tmp_path, "empty.ini", GAIN_CURVE_INI.format(prep="xy", n_t=0))
    out = str(tmp_path / "empty")
    assert main(["gain-curve", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "gain_curve.csv"))
    assert header == ["t_ns", "gain_bits"]
    assert rows == []


def test_outputs_byte_identical_across_reruns(tmp_path):
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=25))
    outs = [str(tmp_path / f"run{i}") for i in (1, 2)]
    for out in outs:
        assert main(["gain-curve", "--config", cfg, "--out", out,
                     "--seed", "5"]) == 0
    for name in ("gain_curve.csv", "gain_curve.json"):
        first = open(os.path.join(outs[0], name), "rb").read()
        second = open(os.path.join(outs[1], name), "rb").read()
        assert first == second


def test_csv_cells_use_fixed_notation(tmp_path):
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=10))
    out = str(tmp_path / "fmt")
    assert main(["gain-curve", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "gain_curve.csv")) as handle:
        body = handle.read()
    assert "e" not in body.lower().replace("t_ns,gain_bits", "")
    assert body.endswith("\n")


@pytest.mark.parametrize("command, text, extra, offender", [
    pytest.param("gain-curve", "[gain-curve]\nprepp = xy\n", [], "prepp",
                 id="unknown-key"),
    pytest.param("compare", "[compare]\nprotocols = fourier\n"
                 "[fourier]\nt1_us = 0.01\n[prior]\ngrid_points = 1024\n",
                 [], "t1_us", id="fourier-t1-below-floor"),
    pytest.param("compare", "[compare]\nprotocols = fourier\n"
                 "[fourier]\nt1_us = 0.01\nn_steps = 2\n"
                 "[prior]\ngrid_points = 1024\n",
                 [], "t1_us", id="fourier-t1-below-floor-explicit-steps"),
    pytest.param("gain-curve", "[gain-curve]\nt_min_ns = 90\n"
                 "t_max_ns = 30\nn_t = 3\n[prior]\ngrid_points = 64\n",
                 [], "t_min_ns", id="t-min-above-t-max"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\nsigma_rad_per_s = inf\n", [], "sigma_rad_per_s",
                 id="infinite-sigma"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\ngrid_points = 1\n", [], "grid_points",
                 id="one-grid-point"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\ngrid_points = 64\n", ["--seed", "-1"], "--seed",
                 id="negative-seed"),
])
def test_malformed_config_exits_2_without_files(tmp_path, capsys, command,
                                                text, extra, offender):
    cfg = write(tmp_path, "bad.ini", text)
    out = str(tmp_path / "bad_out")
    assert main([command, "--config", cfg, "--out", out, *extra]) == 2
    assert offender in capsys.readouterr().err
    assert not os.path.exists(out)


def test_unknown_section_rejected(tmp_path):
    cfg = write(tmp_path, "bad.ini", "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(cfg, "gain-curve")


def test_missing_required_key_rejected(tmp_path):
    cfg = write(tmp_path, "trace.ini", "[lama-trace]\nt1_ns = 15\n")
    with pytest.raises(ConfigError, match="outcomes"):
        load_config(cfg, "lama-trace")


def test_defaults_fully_materialized(tmp_path):
    cfg = write(tmp_path, "min.ini", "[gain-curve]\n")
    resolved = load_config(cfg, "gain-curve")
    assert resolved["gain-curve"]["prep"] == "xy"
    assert resolved["prior"]["grid_points"] == 8192
    assert resolved["run"]["seed"] == 0
    assert np.isinf(resolved["decoherence"]["coherence_time_us"])


def test_trace_all_zero_outcomes_narrows_posterior(tmp_path):
    cfg = write(tmp_path, "t.ini",
                TRACE_INI.format(outcomes="0, 0, 0, 0, 0, 0"))
    out = str(tmp_path / "trace0")
    assert main(["lama-trace", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "lama_trace_gains.csv"))
    stds = [float(r[4]) for r in rows]
    assert all(b < a for a, b in zip(stds, stds[1:]))


def test_trace_all_one_outcomes_shift_mean_monotonically(tmp_path):
    cfg = write(tmp_path, "t.ini",
                TRACE_INI.format(outcomes="1, 1, 1, 1, 1, 1"))
    out = str(tmp_path / "trace1")
    assert main(["lama-trace", "--config", cfg, "--out", out]) == 0
    _, rows = read_csv(os.path.join(out, "lama_trace_gains.csv"))
    means = np.array([float(r[3]) for r in rows])
    # one-sided drift: every posterior mean sits on the same side of the
    # prior mean and the displacement grows overall
    assert np.all(means < 0) or np.all(means > 0)
    assert abs(means[-1]) > abs(means[0])


def test_trace_zero_steps_echoes_prior(tmp_path):
    cfg = write(tmp_path, "t.ini", TRACE_INI.format(outcomes=""))
    out = str(tmp_path / "trace_empty")
    assert main(["lama-trace", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "lama_trace_posteriors.csv"))
    assert header == ["omega_rad_per_s", "prior"]
    assert len(rows) == 2048
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)


def test_flux_axis_is_display_only(tmp_path):
    cfg = write(tmp_path, "t.ini", TRACE_INI.format(outcomes="0, 0"))
    plain_out, flux_out = str(tmp_path / "plain"), str(tmp_path / "flux")
    assert main(["lama-trace", "--config", cfg, "--out", plain_out]) == 0
    assert main(["lama-trace", "--config", cfg, "--out", flux_out,
                 "--flux-axis"]) == 0
    ph, prows = read_csv(os.path.join(plain_out, "lama_trace_posteriors.csv"))
    fh, frows = read_csv(os.path.join(flux_out, "lama_trace_posteriors.csv"))
    assert ph[0] == "omega_rad_per_s" and fh[0] == "flux"
    assert float(frows[0][0]) == pytest.approx(float(prows[0][0]) / 1.0e5)
    # weights are untouched by the axis transform
    assert prows[0][1:] == frows[0][1:]


def test_compare_outputs_per_protocol(tmp_path):
    cfg = write(tmp_path, "cmp.ini", """
[compare]
protocols = classical, kitaev
n_steps = 8
n_experiments = 5

[kitaev]
n_steps = 4

[prior]
grid_points = 1024

[decoherence]
coherence_time_us = 5
""")
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "compare_classical.csv"))
    assert header == ["step", "t_phi_us", "mean_gain_bits", "stderr"]
    assert len(rows) == 8
    _, kitaev_rows = read_csv(os.path.join(out, "compare_kitaev.csv"))
    assert len(kitaev_rows) == 4
    manifest = json.load(open(os.path.join(out, "compare.json")))
    assert set(manifest["summary"]["protocols"]) == {"classical", "kitaev"}


def test_compare_all_kinds_follow_their_schedules(tmp_path):
    """Every kind's section keys reach its schedule; n_steps comes from the
    kind's section, from [compare], or (Fourier, 0) from the 15 ns floor."""
    cfg = write(tmp_path, "cmp.ini", """
[compare]
protocols = lama, classical, kitaev, fourier, fourier_modified
n_steps = 4
n_experiments = 2

[lama]
t1_ns = 20
dt_ns = 10

[kitaev]
n_steps = 3

[fourier]
t1_us = 1.2
n_steps = 2

[fourier_modified]
t1_us = 0.5

[prior]
grid_points = 1024
""")
    out = str(tmp_path / "cmp_all")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    delays_ns = {
        "lama": [20, 30, 40, 50],
        "classical": [15, 15, 15, 15],
        "kitaev": [15, 45, 135],
        "fourier": [1200, 400],
        # 0.5 us / 3^(i-1) while above 15 ns: 4 steps
        "fourier_modified": [500, 500 / 3, 500 / 9, 500 / 27],
    }
    for kind, delays in delays_ns.items():
        _, rows = read_csv(os.path.join(out, f"compare_{kind}.csv"))
        assert [int(r[0]) for r in rows] == list(range(1, len(delays) + 1))
        t_phi_us = [float(r[1]) for r in rows]
        assert t_phi_us == pytest.approx(np.cumsum(delays) * 1e-3, rel=1e-11)


def test_oscillations_edge_period_ratio(tmp_path):
    cfg = write(tmp_path, "osc.ini", """
[oscillations]
kind = edge
variants_rad_per_s = 3.49e7, 6.98e7
n_t = 600
grid_points = 1024
""")
    out = str(tmp_path / "osc")
    assert main(["oscillations", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "oscillations.json")))
    periods = [p["period_ns"] for p in manifest["summary"]["periods"]]
    assert periods[0] / periods[1] == pytest.approx(2.0, rel=0.2)


def test_oscillations_missing_variants_is_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "osc.ini", "[oscillations]\nkind = edge\n")
    out = str(tmp_path / "osc_bad")
    assert main(["oscillations", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_optimize_reports_xy_like_prep(tmp_path):
    cfg = write(tmp_path, "opt.ini", """
[optimize]
t_ns = 75
budget = 400
n_starts = 6
readout = fourier

[prior]
grid_points = 1024
""")
    out = str(tmp_path / "opt")
    assert main(["optimize", "--config", cfg, "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "optimize.json")))
    result = manifest["summary"]["results"][0]
    assert result["j_xy"] >= 0.99
    assert result["best_gain_bits"] == pytest.approx(0.885, abs=0.01)
