"""The three benchmark workloads: inputs, operations and output checks.

Each workload owns ``MEMBERS`` input sets generated from fixed per-member
seeds; a run with seed s performs round r on member (s + r) % MEMBERS.  Every
member's outputs were recorded once (``run.py --record-references``), so
each operation's outputs are checked against a reference for exactly its
inputs.  The package is reached only through module attributes of its
public functions, so the tracer's wrappers see every call.

Operations of one round are the workload's ``kinds``.  ``run_op`` is the
only timed call; ``extract`` turns its result into plain numbers (calling
nothing in the package) and ``check`` compares them with the reference.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from quditmag import bayes, cli, config, core, decoherence, harness
from quditmag import optimizer, protocols

MEMBERS = 8

# Curves and gains are compared with an absolute tolerance in bits; CSV
# numbers (12 significant digits) with a relative one.
GAIN_ATOL_BITS = 1e-9
SEARCH_ATOL_BITS = 1e-6
REEVAL_ATOL_BITS = 1e-12
CSV_RTOL = 1e-9
CSV_ATOL = 1e-12


class CheckError(AssertionError):
    """An output disagrees with its reference or with an invariant."""


def _member_seed(tag: int, member: int) -> int:
    return int(np.random.default_rng([tag, member]).integers(2**31))


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _close(name, got, want, rtol, atol) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    _require(got.shape == want.shape,
             f"{name}: shape {got.shape} != reference {want.shape}")
    _require(np.allclose(got, want, rtol=rtol, atol=atol),
             f"{name}: max deviation {np.max(np.abs(got - want)):.3g} "
             f"from reference exceeds rtol={rtol}, atol={atol}")


def _grid_resolves(name: str, delays, spacing: float) -> None:
    """The top likelihood harmonic is 2*omega*t; a delay is resolved on the
    grid only while 2 * t * d_omega < pi."""
    worst = 2.0 * max(delays) * spacing
    if not worst < math.pi:
        raise ValueError(f"{name}: delay {max(delays):.4g} s breaks "
                         f"2*t*d_omega < pi on this grid ({worst:.3f})")


class Ensemble:
    """Monte Carlo ensembles of the five schedules at m = 8192, 5 us
    coherence time, Gaussian prior; 16 experiments each."""

    name = "ensemble"
    rate_name = "steps_per_s"
    kinds = ("lama", "classical", "kitaev", "fourier", "fourier_modified")
    n_experiments = 16

    def __init__(self, workdir: Path):
        dec = decoherence.DecoherenceParams.from_coherence_time(5e-6)
        t1_fourier = 2.4e-6
        n_fourier = protocols.fourier_max_steps(t1_fourier)
        self.protocols = {
            "lama": protocols.ProtocolConfig(
                "lama", t1=15e-9, dt=40e-9, n_steps=50, decoherence=dec),
            "classical": protocols.ProtocolConfig(
                "classical", t1=15e-9, n_steps=50, decoherence=dec),
            # step 8 (32.8 us) would break 2*t*d_omega < pi at m = 8192
            "kitaev": protocols.ProtocolConfig(
                "kitaev", t1=15e-9, n_steps=7, decoherence=dec),
            "fourier": protocols.ProtocolConfig(
                "fourier", t1=t1_fourier, n_steps=n_fourier, decoherence=dec),
            "fourier_modified": protocols.ProtocolConfig(
                "fourier_modified", t1=t1_fourier, n_steps=n_fourier,
                decoherence=dec),
        }
        self.prior = harness.PriorSpec(m=8192)
        spacing = self.prior.build().grid.spacing
        # Delay schedules written out here, independently of the package.
        self.t_phi = {}
        for kind, p in self.protocols.items():
            steps = range(1, p.n_steps + 1)
            if kind == "lama":
                delays = [p.t1 + (i - 1) * p.dt for i in steps]
            elif kind == "classical":
                delays = [p.t1 for _ in steps]
            elif kind == "kitaev":
                delays = [p.t1 * 3.0 ** (i - 1) for i in steps]
            else:
                delays = [p.t1 / 3.0 ** (i - 1) for i in steps]
            _grid_resolves(f"ensemble {kind}", delays, spacing)
            self.t_phi[kind] = np.cumsum(delays)
        self.configs = {
            (member, kind): harness.EnsembleConfig(
                protocol=p, n_experiments=self.n_experiments, prior=self.prior,
                seed=_member_seed(1, member))
            for member in range(MEMBERS) for kind, p in self.protocols.items()}

    def warm_up(self) -> None:
        p = self.protocols["lama"]
        one_step = protocols.ProtocolConfig(
            "lama", t1=p.t1, dt=p.dt, n_steps=1, decoherence=p.decoherence)
        protocols.run_protocol(one_step, self.prior.build(), rng_seed=0)

    def run_op(self, member: int, kind: str):
        return harness.run_ensemble(self.configs[member, kind])

    def units(self, kind: str, result) -> int:
        return self.protocols[kind].n_steps * self.n_experiments

    def extract(self, member, kind, result, counters) -> dict:
        return {"t_phi": result.t_phi.tolist(),
                "mean_gain_bits": result.mean_gain_bits.tolist(),
                "stderr": result.stderr.tolist()}

    def check(self, member, kind, values, reference, result) -> None:
        _require(np.array_equal(values["t_phi"], self.t_phi[kind]),
                 f"{kind}: t_phi differs from the delay schedule")
        for key in ("mean_gain_bits", "stderr"):
            _close(f"{kind} {key}", values[key], reference[key],
                   0.0, GAIN_ATOL_BITS)


class Optimize:
    """Multi-start Nelder-Mead pulse searches at m = 8192, budget 600 per
    start, two starts plus the polish, no decoherence."""

    name = "optimize"
    rate_name = "evals_per_s"
    kinds = ("t15_fourier", "t15_free", "t75_fourier", "t75_free")
    delays = {"t15": 15e-9, "t75": 75e-9}
    budget = 600
    n_starts = 2

    def __init__(self, workdir: Path):
        self.prior = harness.PriorSpec(m=8192).build()
        self.decoherence = decoherence.DecoherenceParams.none()
        self.f3 = core.fourier_gate(3)
        _grid_resolves("optimize", list(self.delays.values()),
                       self.prior.grid.spacing)

    def warm_up(self) -> None:
        prep = core.pulse_unitary(0.1, 0.2, 0.3)[:, 0]
        bayes.expected_gain(self.prior, 15e-9, prep, self.f3, self.decoherence)

    def _search(self, kind: str):
        """Delay and fixed readout (None: searched) of a search kind."""
        delay, readout = kind.split("_")
        return self.delays[delay], self.f3 if readout == "fourier" else None

    def run_op(self, member: int, kind: str):
        t, fix_readout = self._search(kind)
        return optimizer.optimize_step_params(
            self.prior, t, self.decoherence, budget=self.budget,
            rng_seed=_member_seed(2, member), n_starts=self.n_starts,
            fix_readout=fix_readout)

    def units(self, kind: str, result) -> int:
        return result.n_evaluations

    def extract(self, member, kind, result, counters) -> dict:
        return {"best_gain_bits": result.best_gain}

    def check(self, member, kind, values, reference, result) -> None:
        gain = values["best_gain_bits"]
        _require(0.0 <= gain <= math.log2(3.0),
                 f"{kind}: best gain {gain} outside [0, log2 3]")
        t, fix_readout = self._search(kind)
        readout = result.best_readout if fix_readout is None else fix_readout
        again = bayes.expected_gain(self.prior, t, result.best_prep, readout,
                                    self.decoherence)
        _close(f"{kind} re-evaluated gain", gain, again, 0.0, REEVAL_ATOL_BITS)
        _close(f"{kind} best gain", gain, reference["best_gain_bits"],
               0.0, SEARCH_ATOL_BITS)


def _read_csv(path: Path) -> tuple[list[str], np.ndarray, int]:
    text = path.read_text()
    header, *rows = text.splitlines()
    table = np.array([[float(c) for c in row.split(",")] for row in rows])
    return header.split(","), table, table.size


class Cli:
    """In-process ``quditmag.cli.main`` on configs written from the seed:
    gain-curve (150 delays, m = 8192), oscillations (edge, 1e8 rad/s,
    n_t = 1500, 512 points) and lama-trace (10 outcomes, m = 8192)."""

    name = "cli"
    rate_name = "commands_per_s"
    kinds = ("gain-curve", "oscillations", "lama-trace")

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.config_paths = {}
        self._ops = 0
        for member in range(MEMBERS):
            rng = np.random.default_rng([3, member])
            alpha, beta = rng.uniform(-math.pi, math.pi, size=2).tolist()
            outcomes = ", ".join(str(x) for x in rng.integers(0, 3, size=10))
            shared = ("[run]\nseed = {seed}\n\n[prior]\ngrid_points = 8192\n\n"
                      "[decoherence]\ncoherence_time_us = 5\n").format(
                          seed=_member_seed(3, member))
            texts = {
                "gain-curve": (f"[gain-curve]\nprep = xy\nalpha_rad = {alpha!r}\n"
                               f"beta_rad = {beta!r}\nt_max_ns = 75\nn_t = 150\n\n"
                               + shared),
                "oscillations": ("[oscillations]\nkind = edge\n"
                                 "variants_rad_per_s = 1e8\nn_t = 1500\n"
                                 "grid_points = 512\n\n" + shared),
                "lama-trace": (f"[lama-trace]\nt1_ns = 15\ndt_ns = 40\n"
                               f"outcomes = {outcomes}\n\n" + shared),
            }
            for kind, text in texts.items():
                path = workdir / f"member{member}-{kind}.ini"
                path.write_text(text)
                self.config_paths[member, kind] = path
        # Delays each command schedules on its grid.
        sigma = bayes.SIGMA_DEFAULT
        spacing_8192 = bayes.FieldGrid.centered(sigma, 12.0, 8192).spacing
        _grid_resolves("cli gain-curve", [75e-9], spacing_8192)
        _grid_resolves("cli lama-trace", [15e-9 + 9 * 40e-9], spacing_8192)
        _grid_resolves("cli oscillations", [60.0 * math.pi / 1e8],
                       1e8 / (512 - 1))

    def warm_up(self) -> None:
        for (_, kind), path in self.config_paths.items():
            config.load_config(str(path), kind)

    def run_op(self, member: int, kind: str):
        self._ops += 1
        out = self.workdir / f"out{self._ops}"
        out.mkdir()
        code = cli.main([kind, "--config", str(self.config_paths[member, kind]),
                         "--out", str(out)])
        return code, out

    def units(self, kind: str, result) -> int:
        return 1

    def extract(self, member, kind, result, counters) -> dict:
        code, out = result
        values = {"exit_code": code}
        if code != 0:
            return values
        files = sorted(out.iterdir())
        counters["cli.bytes_written"] += sum(f.stat().st_size for f in files)
        tables = {}
        for f in files:
            if f.suffix == ".csv":
                header, tables[f.stem], cells = _read_csv(f)
                counters["cli.csv_cells"] += cells + len(header)
            else:
                manifest = json.loads(f.read_text())
        if kind == "gain-curve":
            values["gain_bits"] = tables["gain_curve"][:, 1].tolist()
            values["plateau_gain_bits"] = manifest["summary"]["plateau_gain_bits"]
        elif kind == "oscillations":
            values["gain_bits"] = tables["oscillations"][:, 2].tolist()
            values["period_ns"] = manifest["summary"]["periods"][0]["period_ns"]
        else:
            post = tables["lama_trace_posteriors"]
            weights = post[:, 1:]
            values["axis_ends"] = [post[0, 0], post[-1, 0]]
            values["column_sum"] = weights.sum(axis=0).tolist()
            values["column_max"] = weights.max(axis=0).tolist()
            values["column_mean_row"] = (
                np.arange(len(weights)) @ weights / weights.sum(axis=0)).tolist()
            values["gains"] = tables["lama_trace_gains"].ravel().tolist()
            values["outcomes"] = [s["outcome"] for s in manifest["summary"]["steps"]]
        return values

    def check(self, member, kind, values, reference, result) -> None:
        _require(values["exit_code"] == 0,
                 f"{kind}: exit code {values['exit_code']}")
        for key, want in reference.items():
            got = values[key]
            if want is None or key in ("exit_code", "outcomes"):
                _require(got == want, f"{kind} {key}: {got} != reference {want}")
            else:
                _close(f"{kind} {key}", got, want, CSV_RTOL, CSV_ATOL)

    def rerun_identical(self, member: int, first: Path, kind: str) -> None:
        """Run a config again and require byte-identical output files."""
        code, again = self.run_op(member, kind)
        _require(code == 0, f"{kind}: rerun exit code {code}")
        names = sorted(p.name for p in first.iterdir())
        _require(names == sorted(p.name for p in again.iterdir()),
                 f"{kind}: rerun wrote different files")
        for name in names:
            _require((first / name).read_bytes() == (again / name).read_bytes(),
                     f"{kind}: rerun changed {name}")


WORKLOADS = {w.name: w for w in (Ensemble, Optimize, Cli)}

