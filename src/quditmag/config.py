"""Strict, schema-driven run configuration.

Run settings live in a line-oriented INI file (``key = value`` under
``[section]`` headers).  Every physical quantity carries an explicit unit
suffix in its key name (``_ns``, ``_us``, ``_rad``, ``_rad_per_s``) and is
converted to SI on load.  Parsing is strict: an unknown section, an unknown
key, an unparsable value or a missing required key raises ``ConfigError``
with a diagnostic naming the offender.  ``load_config`` returns a nested
dict with every default materialized, so the resolved config serialized
into a run manifest is sufficient to reproduce the run.
"""

from __future__ import annotations

import configparser
import math

from .bayes import SIGMA_DEFAULT, PriorSpec
from .decoherence import DecoherenceParams

REQUIRED = object()

_UNIT_FACTORS = {"_ns": 1e-9, "_us": 1e-6}


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}")
    if math.isnan(value):
        raise ConfigError("NaN is not a valid value")
    return value


def _float(raw: str) -> float:
    value = _number(raw)
    if math.isinf(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _positive_float(raw: str) -> float:
    value = _float(raw)
    if not value > 0:
        raise ConfigError(f"expected a positive number, got {raw!r}")
    return value


def _positive_float_or_inf(raw: str) -> float:
    value = _number(raw)
    if not value > 0:
        raise ConfigError(f"expected a positive number, got {raw!r}")
    return value


def _nonneg_float(raw: str) -> float:
    value = _float(raw)
    if value < 0:
        raise ConfigError(f"expected a non-negative number, got {raw!r}")
    return value


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}")


def _positive_int(raw: str) -> int:
    value = _int(raw)
    if value < 1:
        raise ConfigError(f"expected a positive integer, got {raw!r}")
    return value


def _nonneg_int(raw: str) -> int:
    value = _int(raw)
    if value < 0:
        raise ConfigError(f"expected a non-negative integer, got {raw!r}")
    return value


def _grid_size(raw: str) -> int:
    value = _int(raw)
    if value < 2:
        raise ConfigError(f"expected a grid size of at least 2, got {raw!r}")
    return value


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw
    return parse


def _list_of(item_parser):
    def parse(raw: str) -> tuple:
        items = [piece.strip() for piece in raw.split(",") if piece.strip()]
        return tuple(item_parser(piece) for piece in items)
    return parse


def _outcome_list(raw: str) -> tuple:
    outcomes = _list_of(_int)(raw)
    for xi in outcomes:
        if xi not in (0, 1, 2):
            raise ConfigError(f"outcomes must be trits (0, 1 or 2), got {xi}")
    return outcomes


# Sections shared by every command.
_SHARED_SCHEMA = {
    "run": {
        "seed": (_nonneg_int, 0),
    },
    "prior": {
        "mean_rad_per_s": (_float, 0.0),
        "sigma_rad_per_s": (_positive_float, SIGMA_DEFAULT),
        "span_sigmas": (_positive_float, 12.0),
        "grid_points": (_grid_size, 8192),
    },
    "decoherence": {
        # inf means a fully coherent sensor (no relaxation or dephasing)
        "coherence_time_us": (_positive_float_or_inf, math.inf),
    },
}

_PROTOCOL_SCHEMA = {
    "lama": {"t1_ns": (_positive_float, 15.0), "dt_ns": (_nonneg_float, 40.0)},
    "classical": {"t1_ns": (_positive_float, 15.0)},
    "kitaev": {"t1_ns": (_positive_float, 15.0), "n_steps": (_positive_int, 8)},
    "fourier": {"t1_us": (_positive_float, 2.4), "n_steps": (_nonneg_int, 0)},
    "fourier_modified": {"t1_us": (_positive_float, 2.4), "n_steps": (_nonneg_int, 0)},
}

COMMAND_SCHEMAS = {
    "gain-curve": {
        "gain-curve": {
            "prep": (_choice("balanced", "xy"), "xy"),
            "alpha_rad": (_float, 0.0),
            "beta_rad": (_float, 0.0),
            "t_min_ns": (_nonneg_float, 0.0),
            "t_max_ns": (_positive_float, 75.0),
            "n_t": (_nonneg_int, 150),
        },
    },
    "compare": {
        "compare": {
            "protocols": (_list_of(_choice(*_PROTOCOL_SCHEMA)),
                          ("lama", "classical", "kitaev")),
            "n_steps": (_positive_int, 50),
            "n_experiments": (_positive_int, 200),
        },
        **_PROTOCOL_SCHEMA,
    },
    "lama-trace": {
        "lama-trace": {
            "t1_ns": (_positive_float, 15.0),
            "dt_ns": (_nonneg_float, 40.0),
            "outcomes": (_outcome_list, REQUIRED),
        },
    },
    "oscillations": {
        "oscillations": {
            "kind": (_choice("edge", "center", "discreteness"), REQUIRED),
            "variants_rad_per_s": (_list_of(_positive_float), ()),
            "variants_points": (_list_of(_grid_size), ()),
            "n_t": (_positive_int, 1500),
            "grid_points": (_grid_size, 4096),
        },
    },
    "optimize": {
        "optimize": {
            "t_ns": (_list_of(_positive_float), (15.0, 75.0)),
            "budget": (_positive_int, 600),
            "n_starts": (_positive_int, 10),
            "readout": (_choice("fourier", "free"), "free"),
        },
    },
}


def schema_for(command: str) -> dict:
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    return {**_SHARED_SCHEMA, **COMMAND_SCHEMAS[command]}


def _to_si(key: str, value):
    """Convert a unit-suffixed scalar or tuple to SI (seconds stay seconds,
    rad and rad/s are already SI)."""
    for suffix, factor in _UNIT_FACTORS.items():
        if key.endswith(suffix):
            if isinstance(value, tuple):
                return tuple(v * factor for v in value)
            return value * factor
    return value


def load_config(path: str, command: str) -> dict:
    """Parse and fully validate a config file for one command.

    Returns {section: {key: value}} with every schema default filled in;
    values keep their config units (the manifest echoes this dict verbatim).
    """
    schema = schema_for(command)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}")
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path}: {err}")

    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown section [{section}] for command {command}")
        for key in parser[section]:
            if key not in schema[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")

    resolved: dict = {}
    for section, keys in schema.items():
        resolved[section] = {}
        for key, (parse, default) in keys.items():
            if parser.has_option(section, key):
                try:
                    value = parse(parser.get(section, key))
                except ConfigError as err:
                    raise ConfigError(f"key '{key}' in section [{section}]: {err}")
            elif default is REQUIRED:
                raise ConfigError(f"missing required key '{key}' in section [{section}]")
            else:
                value = default
            resolved[section][key] = value
    return resolved


def prior_from(config: dict) -> PriorSpec:
    """Gaussian prior specification from the [prior] section."""
    spec = config["prior"]
    return PriorSpec(mean=spec["mean_rad_per_s"], sigma=spec["sigma_rad_per_s"],
                     span_sigmas=spec["span_sigmas"], m=spec["grid_points"])


def decoherence_from(config: dict) -> DecoherenceParams:
    """Rates from the [decoherence] section (inf coherence time = no decay)."""
    t_c = config["decoherence"]["coherence_time_us"]
    if math.isinf(t_c):
        return DecoherenceParams.none()
    return DecoherenceParams.from_coherence_time(t_c * 1e-6)


def si_seconds(config: dict, section: str, key: str) -> float:
    """Value of a unit-suffixed time key converted to seconds."""
    return _to_si(key, config[section][key])
