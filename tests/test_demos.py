"""The demo configs in demos/: every one passes the schema of the subcommand
its file name starts with, and the fast ones (compare, gain-curve,
lama-trace, oscillations) run end to end through the CLI and reproduce the
figures each study shows; the slow ones (optimize) are only loaded."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from quditmag.cli import main
from quditmag.config import load_config

DEMOS = Path(__file__).resolve().parent.parent / "demos"
CONFIGS = sorted(DEMOS.glob("*.ini"))
FAST_COMMANDS = ("compare", "gain-curve", "lama-trace", "oscillations")


def command_of(path):
    """Subcommand a demo config runs: demos/gain-curve_xy.ini -> gain-curve."""
    return path.stem.split("_")[0]


def plateau(out, summary):
    """Gain at the sweep's last delay, 90 ns."""
    rows = np.loadtxt(out / "gain_curve.csv", delimiter=",", skiprows=1)
    assert rows.shape == (61, 2) and rows[-1, 0] == 90.0
    return summary["plateau_gain_bits"]


def total_gain(out, summary):
    """Summed per-step gains over the six steps, t_phi = 690 ns."""
    rows = np.loadtxt(out / "lama_trace_gains.csv", delimiter=",",
                      skiprows=1)
    # 15 + 55 + 95 + 135 + 175 + 215 ns of linear-schedule delays
    assert rows.shape[0] == 6 and abs(rows[-1, 1] - 0.69) < 1e-12
    return rows[:, 2].sum()


def period_ratio(out, summary):
    """First variant's fitted period over the last one's."""
    periods = [p["period_ns"] for p in summary["periods"]]
    assert None not in periods
    return periods[0] / periods[-1]


def lama_sliding_alpha(out, summary):
    """Largest lama sliding alpha whose window is centred (geometrically)
    in 0.5-2 T_c, 2.5-10 us."""
    estimates = summary["protocols"]["lama"]["alpha_estimates"]
    return max(e["alpha"] for e in estimates
               if 2.5 <= math.sqrt(e["window_lo_us"] * e["window_hi_us"]) <= 10)


def lama_over_kitaev(out, summary):
    """lama's mean gain, interpolated at kitaev's last t_phi (49.2 us), over
    kitaev's gain there."""
    lama, kitaev = (np.loadtxt(out / f"compare_{kind}.csv", delimiter=",",
                               skiprows=1) for kind in ("lama", "kitaev"))
    t_match = kitaev[-1, 1]
    assert abs(t_match - 49.2) < 1e-9
    return np.interp(t_match, lama[:, 1], lama[:, 2]) / kitaev[-1, 2]


# demo -> ((figure, value, tolerance), ...): half a unit in the last printed
# digit for the demo's printouts, 1e-4 against the coherent plateaus'
# closed forms
FIGURES = {
    "compare": ((lama_sliding_alpha, 0.904, 5e-4),
                (lama_over_kitaev, 2.73, 5e-3)),
    "gain-curve_balanced": ((plateau, (5 / 3 - math.log(3)) / math.log(2),
                             1e-4),),
    "gain-curve_xy": ((plateau, 2 * (1 / math.log(2) - 1), 1e-4),),
    "gain-curve_balanced_tc100ns": ((plateau, 0.0627, 5e-5),),
    "gain-curve_xy_tc100ns": ((plateau, 0.0706, 5e-5),),
    "lama-trace_zeros": ((total_gain, 4.700, 5e-4),),
    "lama-trace_mixed": ((total_gain, 3.213, 5e-4),),
    "oscillations_edge": ((period_ratio, 2.000, 5e-4),),
    "oscillations_center": ((period_ratio, 1.920, 5e-4),),
    "oscillations_discreteness": ((period_ratio, 0.496, 5e-4),),
}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_demo_config_loads(path):
    load_config(str(path), command_of(path))


def test_every_fast_demo_has_a_figure():
    fast = {p.stem for p in CONFIGS if command_of(p) in FAST_COMMANDS}
    assert fast == set(FIGURES)


@pytest.mark.parametrize("name", list(FIGURES))
def test_fast_demo_reproduces_its_figure(tmp_path, name):
    command = command_of(DEMOS / name)
    assert main([command, "--config", str(DEMOS / f"{name}.ini"),
                 "--out", str(tmp_path)]) == 0
    manifest = json.loads(
        (tmp_path / (command.replace("-", "_") + ".json")).read_text())
    for figure, value, tolerance in FIGURES[name]:
        assert abs(figure(tmp_path, manifest["summary"]) - value) < tolerance
