"""Smoke tests of the scripts in demos/: the fast ones run end to end, the
slow ones (ensembles, pulse searches) are only loaded."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# a line each fast demo prints once it has run through
FAST_DEMO_OUTPUT = {
    "first_step_gain_curves": "plateau targets: balanced",
    # 15 + 55 + 95 + 135 + 175 + 215 ns of linear-schedule delays
    "lama_trace": "over t_phi = 690 ns",
    "oscillations": "discreteness study (grid points):",
}


@pytest.mark.parametrize("name", list(FAST_DEMO_OUTPUT))
def test_fast_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert FAST_DEMO_OUTPUT[name] in capsys.readouterr().out


@pytest.mark.parametrize("name", ["protocol_comparison", "pulse_optimization"])
def test_slow_demo_imports(name):
    namespace = runpy.run_path(str(DEMOS / f"{name}.py"))
    assert callable(namespace["main"])
