"""Command-line front end: config validation, artifacts, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from quditmag.cli import FLUX_SCALE, main
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
    # the coherent plateaus' closed forms
    for prep, plateau in (("xy", 2 * (1 / np.log(2) - 1)),
                          ("balanced", (5 / 3 - np.log(3)) / np.log(2))):
        cfg = write(tmp_path, f"{prep}.ini",
                    GAIN_CURVE_INI.format(prep=prep, n_t=40))
        out = str(tmp_path / prep)
        assert main(["gain-curve", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "gain_curve.csv"))
        assert header == ["t_ns", "gain_bits"]
        assert float(rows[-1][1]) == pytest.approx(plateau, abs=1e-4)
        manifest = json.load(open(os.path.join(out, "gain_curve.json")))
        assert manifest["summary"]["plateau_gain_bits"] == \
            pytest.approx(plateau, abs=1e-4)
        assert manifest["config"]["prior"]["grid_points"] == 2048


def test_empty_sweep_yields_header_only_csv(tmp_path):
    cfg = write(tmp_path, "empty.ini", GAIN_CURVE_INI.format(prep="xy", n_t=0))
    out = str(tmp_path / "empty")
    assert main(["gain-curve", "--config", cfg, "--out", out]) == 0
    header, rows = read_csv(os.path.join(out, "gain_curve.csv"))
    assert header == ["t_ns", "gain_bits"]
    assert rows == []


RERUN_CONFIGS = {
    "gain-curve": GAIN_CURVE_INI.format(prep="xy", n_t=25),
    "compare": "[compare]\nn_steps = 10\nn_experiments = 5\n"
               "[prior]\ngrid_points = 1024\n",
    "lama-trace": TRACE_INI.format(outcomes="0, 1, 2, 1\naxis = flux"),
    "oscillations": "[oscillations]\nkind = edge\nvariants_rad_per_s = 1e8\n"
                    "n_t = 200\ngrid_points = 256\n",
    "optimize": "[optimize]\nt_ns = 15\nbudget = 50\nn_starts = 2\n"
                "[prior]\ngrid_points = 1024\n",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _ini_from(config):
    """INI text setting every key of a manifest's config: floats through
    repr, lists comma-joined, strings ("inf" included) as written."""
    def value(v):
        if isinstance(v, list):
            return ", ".join(map(value, v))
        return v if isinstance(v, str) else repr(v)
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value(v)}\n"
                                              for key, v in keys.items())
                   for section, keys in config.items())


@pytest.mark.parametrize("command", list(RERUN_CONFIGS))
def test_outputs_byte_identical_across_reruns(tmp_path, command):
    """A rerun from the first run's manifest config alone writes the same
    files byte for byte, and the manifest is strict JSON (the default
    infinite coherence time included) whose only copy of each setting is
    its config."""
    cfg = write(tmp_path, "rerun.ini",
                RERUN_CONFIGS[command] + "[run]\nseed = 5\n")
    outs = [tmp_path / f"run{i}" for i in (1, 2)]
    manifest_name = command.replace("-", "_") + ".json"
    assert main([command, "--config", cfg, "--out", str(outs[0])]) == 0
    manifest = json.loads((outs[0] / manifest_name).read_text(),
                          parse_constant=_reject_constant)
    cfg = write(tmp_path, "manifest.ini", _ini_from(manifest["config"]))
    assert main([command, "--config", cfg, "--out", str(outs[1])]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    for out in outs:  # each run writes exactly the manifest's outputs
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(manifest["outputs"])
    assert sorted(manifest) == ["command", "config", "outputs", "summary",
                                "version"]
    assert manifest["config"]["run"]["seed"] == 5
    assert manifest["config"]["decoherence"]["coherence_time_us"] == "inf"


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
    pytest.param("compare", "[compare]\nprotocols = fourier\n"
                 "[fourier]\nt1_us = 0.05\nn_steps = 5\n"
                 "[prior]\ngrid_points = 1024\n",
                 [], "n_steps", id="fourier-n-steps-above-floor"),
    pytest.param("gain-curve", "[gain-curve]\nt_min_ns = 90\n"
                 "t_max_ns = 30\nn_t = 3\n[prior]\ngrid_points = 64\n",
                 [], "t_min_ns", id="t-min-above-t-max"),
    pytest.param("compare", "[compare]\nprotocols = classical, classical\n"
                 "n_steps = 2\nn_experiments = 1\n[prior]\ngrid_points = 64\n",
                 [], "protocols", id="repeated-protocol"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\nsigma_rad_per_s = inf\n", [], "sigma_rad_per_s",
                 id="infinite-sigma"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\ngrid_points = 1\n", [], "grid_points",
                 id="one-grid-point"),
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n"
                 "[prior]\ngrid_points = 64\n[run]\nseed = -1\n", [], "'seed'",
                 id="negative-seed"),
    pytest.param("gain-curve", "[gain-curve]\nprep = diagonal\n", [],
                 "'prep'", id="unknown-prep"),
    # configparser's own errors span several lines
    pytest.param("gain-curve", "[gain-curve]\nn_t 5\n", [], "n_t 5",
                 id="line-without-equals"),
    pytest.param("gain-curve", "n_t = 5\n", [], "no section headers",
                 id="no-section-header"),
    # configparser would fold [DEFAULT]'s keys into every section
    pytest.param("gain-curve", "[DEFAULT]\ngrid_points = 16\nn_t = 3\n", [],
                 "[DEFAULT]", id="default-section-alone"),
    pytest.param("gain-curve", "[DEFAULT]\ngrid_points = 16\n"
                 "[gain-curve]\nn_t = 3\n", [], "[DEFAULT]",
                 id="default-section-beside-gain-curve"),
    # each passes the schema's > 0 check and underflows to 0 s
    pytest.param("gain-curve", "[gain-curve]\nn_t = 5\n[prior]\n"
                 "grid_points = 64\n[decoherence]\ncoherence_time_us = 1e-320\n",
                 [], "coherence_time_us", id="coherence-time-underflow"),
    pytest.param("lama-trace", "[lama-trace]\noutcomes = 0\nt1_ns = 1e-320\n"
                 "[prior]\ngrid_points = 64\n", [], "t1_ns",
                 id="trace-t1-underflow"),
    pytest.param("compare", "[compare]\nprotocols = classical\n"
                 "n_steps = 2\nn_experiments = 1\n[classical]\n"
                 "t1_ns = 1e-320\n[prior]\ngrid_points = 64\n", [], "t1_ns",
                 id="classical-t1-underflow"),
    pytest.param("optimize", "[optimize]\nt_ns = 1e-320\nbudget = 5\n"
                 "n_starts = 1\n[prior]\ngrid_points = 64\n", [], "t_ns",
                 id="optimize-t-underflow"),
    # a key the run would not read, echoed in the manifest as a setting
    pytest.param("oscillations", "[oscillations]\nkind = edge\n"
                 "variants_rad_per_s = 1e8\nvariants_points = 64, 128\n"
                 "n_t = 50\ngrid_points = 256\n", [], "'variants_points'",
                 id="edge-with-variants-points"),
    pytest.param("oscillations", "[oscillations]\nkind = discreteness\n"
                 "variants_points = 64\nvariants_rad_per_s = 1e8\n"
                 "n_t = 50\n", [], "'variants_rad_per_s'",
                 id="discreteness-with-variants-rad-per-s"),
    pytest.param("oscillations", "[oscillations]\nkind = discreteness\n"
                 "variants_points = 64\nn_t = 50\ngrid_points = 2048\n", [],
                 "'grid_points'", id="discreteness-with-grid-points"),
    pytest.param("gain-curve", "[gain-curve]\nprep = balanced\n"
                 "alpha_rad = 1.3\nbeta_rad = -0.4\nn_t = 3\n"
                 "[prior]\ngrid_points = 64\n", [], "'alpha_rad'",
                 id="balanced-with-angles"),
    # the delay rule's 3.0 ** (i - 1) overflows from i = 648 on
    pytest.param("compare", "[compare]\nprotocols = kitaev\n"
                 "[kitaev]\nn_steps = 700\n", [],
                 "'n_steps' in section [kitaev]", id="kitaev-delay-overflow"),
])
def test_malformed_config_exits_2_without_files(tmp_path, capsys, command,
                                                text, extra, offender):
    cfg = write(tmp_path, "bad.ini", text)
    out = str(tmp_path / "bad_out")
    assert main([command, "--config", cfg, "--out", out, *extra]) == 2
    err = capsys.readouterr().err
    assert offender in err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("content", [b"[gain-curve]\nprep = \xff\n", None],
                         ids=["not-utf8", "missing"])
def test_unreadable_config_exits_2_without_files(tmp_path, capsys, content):
    """A config file that cannot be opened or decoded as UTF-8 is a config
    error naming the file."""
    cfg = tmp_path / "bad.ini"
    if content is not None:
        cfg.write_bytes(content)
    out = str(tmp_path / "bad_out")
    assert main(["gain-curve", "--config", str(cfg), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config file {cfg}: ")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


def test_uncreatable_out_exits_2_without_files(tmp_path, capsys):
    """An --out the system cannot create (a name over the file-name limit)
    is a config error: one stderr line, nothing written, not even the new
    directory levels above the name or those a '..' climbs out of."""
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=3))
    before = sorted(os.listdir(tmp_path))
    for out in ("o" * 300, os.path.join("new", "o" * 300),
                os.path.join("new", "..", "o" * 300)):
        assert main(["gain-curve", "--config", cfg, "--out",
                     str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "File name too long" in err
        assert sorted(os.listdir(tmp_path)) == before


def test_directory_in_place_of_an_output_exits_2_without_files(tmp_path,
                                                                capsys):
    """An output file name taken by a directory is a config error found
    before the first write: one stderr line, no other file written."""
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=3))
    blocked = tmp_path / "out" / "gain_curve.json"
    blocked.mkdir(parents=True)
    before = sorted(str(p) for p in tmp_path.rglob("*"))
    assert main(["gain-curve", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2
    assert sorted(str(p) for p in tmp_path.rglob("*")) == before
    assert capsys.readouterr().err == \
        f"config error: --out: {str(blocked)!r} is a directory\n"


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_memory_and_overflow_errors_exit_1_without_files(tmp_path, capsys,
                                                         monkeypatch, error):
    """A MemoryError or OverflowError raised while computing is a model
    error: exit 1, one stderr line, nothing written."""
    def fail(*args, **kwargs):
        raise error("no room for the gain curve")
    monkeypatch.setattr("quditmag.cli.first_step_gain_curve", fail)
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=3))
    out = str(tmp_path / "out")
    assert main(["gain-curve", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == \
        "model error: no room for the gain curve\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, text", [
    # the last delays overflow omega * t in the kernel
    pytest.param("compare", "[compare]\nprotocols = kitaev\n"
                 "n_experiments = 1\n[kitaev]\nn_steps = 647\n[prior]\n"
                 "grid_points = 16\n", id="kitaev-phase-overflow"),
    # span_sigmas * sigma overflows to an infinite grid span
    pytest.param("gain-curve", "[gain-curve]\nn_t = 3\n[prior]\n"
                 "grid_points = 16\nsigma_rad_per_s = 1e308\n",
                 id="infinite-grid-span"),
])
def test_numeric_faults_exit_1_without_files(tmp_path, capsys, command,
                                              text):
    """A floating-point overflow, division by zero or NaN while computing
    is a model error: exit 1, one stderr line, nothing written."""
    cfg = write(tmp_path, "bad.ini", text)
    out = str(tmp_path / "bad_out")
    assert main([command, "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_compare_checks_every_kind_before_computing(tmp_path, capsys,
                                                    monkeypatch):
    """A bad kind listed after a good one is a config error raised before
    the first ensemble runs."""
    def no_ensemble(config):
        raise AssertionError("an ensemble ran before every kind was checked")
    monkeypatch.setattr("quditmag.cli.run_ensemble", no_ensemble)
    cfg = write(tmp_path, "bad.ini", "[compare]\nprotocols = lama, fourier\n"
                "[fourier]\nt1_us = 0.01\n[prior]\ngrid_points = 1024\n")
    out = str(tmp_path / "bad_out")
    assert main(["compare", "--config", cfg, "--out", out]) == 2
    assert "t1_us" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("out", ["taken", os.path.join("taken", "sub")])
def test_out_under_a_file_exits_2_before_computing(tmp_path, capsys, out):
    """An --out that is, or lies under, an existing file is a config error
    raised before any computation; nothing is written."""
    cfg = write(tmp_path, "gc.ini", GAIN_CURVE_INI.format(prep="xy", n_t=3))
    taken = write(tmp_path, "taken", "keep me\n")
    before = sorted(os.listdir(tmp_path))
    assert main(["gain-curve", "--config", cfg, "--out",
                 str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ") and err.count("\n") == 1
    assert open(taken).read() == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command, section, key, raw, expected", [
    ("gain-curve", "prior", "grid_points", "2", 2),
    ("gain-curve", "prior", "grid_points", "1", None),
    ("gain-curve", "gain-curve", "t_min_ns", "0", 0.0),
    ("lama-trace", "lama-trace", "t1_ns", "0", None),
    ("lama-trace", "lama-trace", "dt_ns", "-1", None),
    ("compare", "fourier", "n_steps", "0", 0),
    ("compare", "kitaev", "n_steps", "0", None),
    ("gain-curve", "gain-curve", "n_t", "1.5", None),
    ("gain-curve", "decoherence", "coherence_time_us", "inf", float("inf")),
    ("gain-curve", "decoherence", "coherence_time_us", "nan", None),
    ("lama-trace", "lama-trace", "outcomes", "0, 3", None),
    ("gain-curve", "prior", "mean_rad_per_s", "-inf", None),
])
def test_schema_bounds(tmp_path, command, section, key, raw, expected):
    """Each key's bounds in the schema: the edge value that parses keeps
    its type, the one that does not is a ConfigError naming the key."""
    text = f"[{section}]\n{key} = {raw}\n"
    if section == "lama-trace" and key != "outcomes":
        text += "outcomes = 0\n"
    cfg = write(tmp_path, "bounds.ini", text)
    if expected is None:
        with pytest.raises(ConfigError, match=f"'{key}'"):
            load_config(cfg, command)
    else:
        value = load_config(cfg, command)[section][key]
        assert value == expected and type(value) is type(expected)


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
    """[lama-trace] axis = flux changes only the posteriors CSV's first
    column, divided by FLUX_SCALE, and its header cell; the --flux-axis
    flag it replaces is a usage error on every subcommand."""
    outs = {}
    for axis in ("omega_rad_per_s", "flux"):
        cfg = write(tmp_path, f"{axis}.ini",
                    TRACE_INI.format(outcomes=f"0, 0\naxis = {axis}"))
        outs[axis] = tmp_path / axis
        assert main(["lama-trace", "--config", cfg, "--out",
                     str(outs[axis])]) == 0
    plain, flux = (read_csv(outs[axis] / "lama_trace_posteriors.csv")
                   for axis in outs)
    assert plain[0] == ["omega_rad_per_s", "prior", "step_1", "step_2"]
    assert flux[0] == ["flux"] + plain[0][1:]
    assert len(flux[1]) == len(plain[1]) == 2048
    for prow, frow in zip(plain[1], flux[1]):
        assert float(frow[0]) == pytest.approx(float(prow[0]) / FLUX_SCALE,
                                               rel=1e-11)
        assert frow[1:] == prow[1:]
    gains = [(outs[axis] / "lama_trace_gains.csv").read_bytes()
             for axis in outs]
    assert gains[0] == gains[1]
    manifests = [json.loads((outs[axis] / "lama_trace.json").read_text())
                 for axis in outs]
    assert [m["config"]["lama-trace"].pop("axis") for m in manifests] == \
        list(outs)
    assert manifests[0] == manifests[1]
    for command in RERUN_CONFIGS:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--config", cfg, "--flux-axis"])
        assert exit_info.value.code == 2


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


def test_oscillations_with_one_delay_has_no_period(tmp_path):
    """A one-sample gain curve (a window wider than the curve) has no peak."""
    cfg = write(tmp_path, "osc.ini", "[oscillations]\nkind = edge\n"
                "variants_rad_per_s = 1e8\nn_t = 1\ngrid_points = 256\n")
    out = str(tmp_path / "osc")
    assert main(["oscillations", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "oscillations.json")) as handle:
        text = handle.read()
    assert '"period_ns": null' in text
    assert json.loads(text)["summary"]["periods"] == [
        {"variant": 1e8, "period_ns": None}]


@pytest.mark.parametrize("kind, key", [
    pytest.param("edge", "variants_rad_per_s", id="edge"),
    pytest.param("center", "variants_rad_per_s", id="center"),
    pytest.param("discreteness", "variants_points", id="discreteness"),
])
def test_oscillations_missing_variants_is_config_error(tmp_path, capsys,
                                                       kind, key):
    cfg = write(tmp_path, "osc.ini", f"[oscillations]\nkind = {kind}\n")
    out = str(tmp_path / "osc_bad")
    assert main(["oscillations", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"config error: key '{key}' in section [oscillations]: "
        f"required for the {kind} study\n")
    assert not os.path.exists(out)


IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]

import quditmag, quditmag.cli
assert not scipy_modules(), f"loaded at import: {scipy_modules()}"
commands = ("lama-trace", "compare", "gain-curve", "oscillations", "optimize")
for command, config in zip(commands, sys.argv[2:7]):
    code = quditmag.cli.main([command, "--config", config,
                              "--out", sys.argv[7] + command])
    assert code == 0, f"{command} exited {code}"
    assert not scipy_modules(), f"{command} loaded {scipy_modules()}"
"""


def test_no_command_loads_scipy(tmp_path):
    """A fresh process that imports the package and its CLI loads numpy and
    no SciPy module.  A coherent lama-trace (T_c = inf, so the cascade feed
    takes its exprel branch), a small compare, a small gain-curve, an
    oscillations run and a tiny optimize, each inside the CLI's
    np.errstate(raise) block, load none either."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    configs = [
        write(tmp_path, "trace.ini", "[lama-trace]\noutcomes = 0, 1, 2\n"
              "[prior]\ngrid_points = 256\n"),
        write(tmp_path, "compare.ini", "[compare]\nprotocols = lama, kitaev\n"
              "n_steps = 4\nn_experiments = 2\n[prior]\ngrid_points = 256\n"),
        write(tmp_path, "gain.ini", "[gain-curve]\nn_t = 5\n"
              "[prior]\ngrid_points = 256\n"),
        write(tmp_path, "osc.ini", "[oscillations]\nkind = edge\n"
              "variants_rad_per_s = 1e8\nn_t = 50\ngrid_points = 256\n"),
        write(tmp_path, "optimize.ini", "[optimize]\nt_ns = 15\nbudget = 5\n"
              "n_starts = 1\n[prior]\ngrid_points = 64\n"),
    ]
    child = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", IMPORT_PROBE,
         os.path.abspath(src), *configs, str(tmp_path / "out_")],
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


ENTRY_PROBE = """
import ctypes, runpy, sys
sys.path.insert(0, sys.argv[1])
calls = []

class LibC:
    def mallopt(self, param, value):
        calls.append((param, value))
        return 1

ctypes.CDLL = lambda name: LibC()
argv = ["lama-trace", "--config", sys.argv[2], "--out", sys.argv[3]]
sys.argv = ["quditmag", *argv]
try:
    runpy.run_module("quditmag.cli", run_name="__main__")
except SystemExit as stop:
    assert stop.code == 0, f"exit code {stop.code}"
assert calls == [(-1, 2**30), (-3, 2**25)], calls
calls.clear()
import quditmag.cli
assert quditmag.cli.main(argv) == 0
assert calls == [], calls
"""


def test_process_entry_alone_sets_the_allocator(tmp_path):
    """``python -m quditmag.cli`` and the ``quditmag`` console script run
    ``entry``, which sets glibc's trim threshold to 1 GiB and its mmap
    threshold to 32 MiB before ``main``; ``main`` itself, which library
    callers run in their own process, calls no ``mallopt``."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml")) as handle:
        assert 'quditmag = "quditmag.cli:entry"' in handle.read()
    cfg = write(tmp_path, "trace.ini", TRACE_INI.format(outcomes="0, 1"))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", ENTRY_PROBE,
         os.path.abspath(os.path.join(root, "src")), cfg,
         str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


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
