"""Command-line front end: config-driven runs with bit-exact artifacts.

Each subcommand reads a strict INI config, the one record of every run
setting, runs its study and writes CSV data files plus a JSON manifest.  The
manifest records the fully resolved config (``[run] seed`` the only seed)
and the version, so the manifest alone reproduces the run byte-for-byte.
Every artifact is rendered before the first file is opened, so nothing is
written until the whole computation and its formatting have succeeded.

Exit codes, each error on one stderr line: 0 success, 1 runtime model
error, 2 config error (an unreadable config file or --out included).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bayes import ImpossibleOutcomeError, posterior_stats
from .config import (COMMAND_SCHEMAS, ConfigError, decoherence_from,
                     load_config, prior_from, protocol_from, si_seconds)
from .core import balanced_state, spin_xy_projection, xy_state
from .harness import (EnsembleConfig, first_step_gain_curve,
                      oscillation_study, run_ensemble, sliding_alpha)
from .optimizer import optimize_step_params
from .protocols import (READOUT, ProtocolConfig, protocol_steps,
                        schedule_delays)

# Display-only conversion factor between the reduced field (rad/s) and the
# flux axis used for presentation; enabled with [lama-trace] axis = flux.
FLUX_SCALE = 1.0e5


def _fmt(value) -> str:
    """Fixed-notation CSV cell with 12 significant digits."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return np.format_float_positional(float(value), precision=12,
                                      unique=False, fractional=False)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)] + [",".join(_fmt(cell) for cell in row)
                                  for row in rows]
    return "\n".join(lines) + "\n"


def cmd_gain_curve(config: dict):
    """First-step expected-gain sweep over the delay time."""
    section = config["gain-curve"]
    if section["t_min_ns"] > section["t_max_ns"]:
        raise ConfigError(f"key 't_min_ns' in section [gain-curve]: "
                          f"{section['t_min_ns']:g} ns exceeds t_max_ns = "
                          f"{section['t_max_ns']:g} ns")
    for key in ("alpha_rad", "beta_rad"):
        if section["prep"] == "balanced" and section[key]:
            raise ConfigError(f"key '{key}' in section [gain-curve]: "
                              "not read with prep = balanced")
    prior = prior_from(config).build()
    decoherence = decoherence_from(config)
    if section["prep"] == "balanced":
        prep = balanced_state(3)
    else:
        prep = xy_state(section["alpha_rad"], section["beta_rad"])
    t_values = np.linspace(si_seconds(config, "gain-curve", "t_min_ns"),
                           si_seconds(config, "gain-curve", "t_max_ns"),
                           section["n_t"])
    gains = first_step_gain_curve(prior, t_values, prep=prep,
                                  params=decoherence)
    rows = [(t * 1e9, g) for t, g in zip(t_values, gains)]
    plateau = float(gains[-1]) if len(gains) else None
    csv_files = [("gain_curve.csv", ("t_ns", "gain_bits"), rows)]
    return csv_files, {"plateau_gain_bits": plateau}


def cmd_compare(config: dict):
    """Ensemble gain curves for several protocols plus scaling fits."""
    section = config["compare"]
    prior_spec = prior_from(config)
    csv_files = []
    summary = {}
    # every kind's config is checked before the first ensemble runs
    protocols = {k: protocol_from(config, k) for k in section["protocols"]}
    for kind, protocol in protocols.items():
        curve = run_ensemble(EnsembleConfig(protocol=protocol,
                                            n_experiments=section["n_experiments"],
                                            prior=prior_spec,
                                            seed=config["run"]["seed"]))
        rows = [(i + 1, t * 1e6, g, e) for i, (t, g, e)
                in enumerate(zip(curve.t_phi, curve.mean_gain_bits,
                                 curve.stderr))]
        csv_files.append((f"compare_{kind}.csv",
                          ("step", "t_phi_us", "mean_gain_bits", "stderr"),
                          rows))
        fits = sliding_alpha(curve, (curve.t_phi[0], curve.t_phi[-1]))
        summary[kind] = {
            "alpha_estimates": [{"window_lo_us": f.window[0] * 1e6,
                                 "window_hi_us": f.window[1] * 1e6,
                                 "alpha": f.alpha} for f in fits],
            "alpha_max": max((f.alpha for f in fits), default=None),
            "final_gain_bits": float(curve.mean_gain_bits[-1]),
        }
    return csv_files, {"protocols": summary}


def cmd_lama_trace(config: dict):
    """Replay a fixed outcome list and dump the per-step posteriors."""
    section = config["lama-trace"]
    prior = prior_from(config).build()
    decoherence = decoherence_from(config)
    outcomes = section["outcomes"]
    protocol = ProtocolConfig("lama", t1=si_seconds(config, "lama-trace", "t1_ns"),
                              dt=si_seconds(config, "lama-trace", "dt_ns"),
                              n_steps=len(outcomes), decoherence=decoherence)
    trajectory = protocol_steps(protocol, prior, rng_seed=config["run"]["seed"],
                                forced_outcomes=list(outcomes))
    t_phis = np.cumsum(schedule_delays(protocol))

    axis = section["axis"]
    points = prior.grid.points / FLUX_SCALE if axis == "flux" else prior.grid.points
    columns = [points, prior.weights]
    gain_rows = []
    stats = []
    for i, ((step, posterior), t_phi) in enumerate(zip(trajectory, t_phis),
                                                   start=1):
        columns.append(posterior.weights)
        mean, std = posterior_stats(posterior)
        gain_rows.append((i, float(t_phi) * 1e6, step.gain_bits, mean, std))
        stats.append({"step": i, "outcome": step.outcome,
                      "posterior_mean_rad_per_s": mean,
                      "posterior_std_rad_per_s": std})
    header = ([axis, "prior"]
              + [f"step_{i}" for i in range(1, len(outcomes) + 1)])
    posterior_rows = zip(*columns)       # rendered row by row, not stored
    csv_files = [
        ("lama_trace_posteriors.csv", header, posterior_rows),
        ("lama_trace_gains.csv",
         ("step", "t_phi_us", "gain_bits", "posterior_mean_rad_per_s",
          "posterior_std_rad_per_s"), gain_rows),
    ]
    return csv_files, {"steps": stats}


def cmd_oscillations(config: dict):
    """Expected-gain oscillation study with fitted periods."""
    section = config["oscillations"]
    kind = section["kind"]
    key, unread = "variants_rad_per_s", "variants_points"
    if kind == "discreteness":
        key, unread = unread, key
    if not section[key]:
        raise ConfigError(f"key '{key}' in section [oscillations]: "
                          f"required for the {kind} study")
    default_m = COMMAND_SCHEMAS["oscillations"]["oscillations"]["grid_points"][1]
    if kind == "discreteness" and section["grid_points"] != default_m:
        unread = "grid_points"                   # each variant is its own grid
    if section[unread]:
        raise ConfigError(f"key '{unread}' in section [oscillations]: "
                          f"not read by the {kind} study")
    results = oscillation_study(kind, section[key],
                                sigma=config["prior"]["sigma_rad_per_s"],
                                n_t=section["n_t"], m=section["grid_points"])
    rows = [(r.variant, t * 1e9, g)
            for r in results for t, g in zip(r.t, r.gain_bits)]
    periods = [{"variant": r.variant,
                "period_ns": None if r.period is None else r.period * 1e9}
               for r in results]
    csv_files = [("oscillations.csv", ("variant", "t_ns", "gain_bits"), rows)]
    return csv_files, {"kind": kind, "periods": periods}


def cmd_optimize(config: dict):
    """Pulse-parameter search at each requested delay time."""
    section = config["optimize"]
    prior = prior_from(config).build()
    decoherence = decoherence_from(config)
    fix_readout = READOUT if section["readout"] == "fourier" else None
    rows = []
    details = []
    for t in si_seconds(config, "optimize", "t_ns"):
        result = optimize_step_params(prior, t, decoherence,
                                      budget=section["budget"],
                                      rng_seed=config["run"]["seed"],
                                      n_starts=section["n_starts"],
                                      fix_readout=fix_readout)
        j_xy = spin_xy_projection(result.best_prep)
        rows.append((t * 1e9, result.best_gain, j_xy, *result.best_params))
        details.append({"t_ns": t * 1e9, "best_gain_bits": result.best_gain,
                        "j_xy": j_xy, "best_params": list(result.best_params),
                        "n_evaluations": result.n_evaluations})
    header = ("t_ns", "best_gain_bits", "j_xy", "eps_p", "delta1_p",
              "delta2_p", "eps_r", "delta1_r", "delta2_r")
    return [("optimize.csv", header, rows)], {"results": details}


_COMMANDS = {
    "gain-curve": cmd_gain_curve,
    "compare": cmd_compare,
    "lama-trace": cmd_lama_trace,
    "oscillations": cmd_oscillations,
    "optimize": cmd_optimize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditmag",
        description="Qutrit magnetometry simulation engine")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        cmd = sub.add_parser(name, help=handler.__doc__)
        cmd.add_argument("--config", required=True, help="INI config file")
        cmd.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        existing = out = os.path.realpath(args.out)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"--out: {existing!r} is not a directory")
        config = load_config(args.config, args.command)
        # overflow, x/0 and NaN are model errors; tails underflow legitimately
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            csv_files, summary = _COMMANDS[args.command](config)
        files = {n: _csv_text(h, rows) for n, h, rows in csv_files}
        manifest_name = args.command.replace("-", "_") + ".json"
        # Strict RFC 8259 JSON.  The one non-finite value that parses, +inf,
        # goes in as "inf", as in the INI.
        files[manifest_name] = json.dumps({
            "command": args.command,
            "version": __version__,
            "config": {section: {key: "inf" if value == math.inf else value
                                 for key, value in keys.items()}
                       for section, keys in config.items()},
            "outputs": [*files, manifest_name],
            "summary": summary,
        }, indent=2, sort_keys=True, allow_nan=False) + "\n"
        paths = [os.path.join(out, name) for name in files]
        for path in filter(os.path.isdir, paths):
            raise ConfigError(f"--out: {path!r} is a directory")
        try:
            os.makedirs(out, exist_ok=True)
        except OSError:
            made = out
            while made != existing:  # remove the levels makedirs created
                if os.path.isdir(made):
                    os.rmdir(made)
                made = os.path.dirname(made)
            raise
        for path, text in zip(paths, files.values()):  # the manifest last
            with open(path, "w", newline="\n") as handle:
                handle.write(text)
    except (ConfigError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ImpossibleOutcomeError, ValueError, MemoryError,
            ArithmeticError) as err:
        print(f"model error: {err}", file=sys.stderr)
        return 1
    return 0


def entry():
    """``quditmag`` and ``python -m quditmag.cli``: ``main`` on perfbench's
    glibc allocator settings (README); ``main`` alone leaves them as found."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(-1, 2**30)     # M_TRIM_THRESHOLD
        mallopt(-3, 2**25)     # M_MMAP_THRESHOLD
    except (AttributeError, OSError, TypeError):     # no glibc mallopt
        pass
    sys.exit(main())


if __name__ == "__main__":
    entry()
