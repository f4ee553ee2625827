"""Strict, schema-driven run configuration.

Run settings live in a line-oriented INI file (``key = value`` under
``[section]`` headers).  Every physical quantity carries an explicit unit
suffix in its key name (``_ns``, ``_us``, ``_rad``, ``_rad_per_s``).
Parsing is strict: an unknown section, an unknown key, an unparsable or
out-of-bounds value or a missing required key raises ``ConfigError`` with a
diagnostic naming the offender.  ``load_config`` returns a nested dict with
every default materialized, so the resolved config serialized into a run
manifest is sufficient to reproduce the run.  ``prior_from``,
``decoherence_from`` and ``protocol_from`` build model objects from it in SI.
"""

from __future__ import annotations

import configparser
import math

from .bayes import T_SATURATION, PriorSpec
from .decoherence import DecoherenceParams
from .protocols import ProtocolConfig, fourier_max_steps

REQUIRED = object()

_UNIT_FACTORS = {"_ns": 1e-9, "_us": 1e-6}


class ConfigError(Exception):
    """Invalid or malformed run configuration."""


def _number(kind=float, low=-math.inf, high=math.inf, *, above=-math.inf,
            inf=False):
    """Parser for one ``kind`` (float or int) with low <= value <= high and
    value > above.  NaN never parses; +-inf only where ``inf`` is set."""
    noun = "an integer" if kind is int else "a number"

    def parse(raw: str):
        try:
            value = kind(raw)
        except ValueError:
            raise ConfigError(f"expected {noun}, got {raw!r}")
        if value != value:            # math.isnan overflows on huge ints
            raise ConfigError("NaN is not a valid value")
        if abs(value) == math.inf and not inf:
            raise ConfigError(f"expected a finite number, got {raw!r}")
        if not value > above:
            raise ConfigError(f"expected {noun} above {above:g}, got {raw!r}")
        if not low <= value <= high:
            raise ConfigError(f"expected {noun} in [{low:g}, {high:g}], "
                              f"got {raw!r}")
        return value
    return parse


def _choice(*options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return raw
    return parse


def _list_of(item_parser, distinct=False):
    def parse(raw: str) -> tuple:
        items = [piece.strip() for piece in raw.split(",") if piece.strip()]
        values = tuple(item_parser(piece) for piece in items)
        if distinct and len(set(values)) < len(values):
            raise ConfigError(f"expected distinct entries, got {raw!r}")
        return values
    return parse


# Sections shared by every command.
_SHARED_SCHEMA = {
    "run": {
        "seed": (_number(int, 0), 0),
    },
    "prior": {
        "mean_rad_per_s": (_number(), PriorSpec().mean),
        "sigma_rad_per_s": (_number(above=0), PriorSpec().sigma),
        "span_sigmas": (_number(above=0), PriorSpec().span_sigmas),
        "grid_points": (_number(int, 2), PriorSpec().m),
    },
    "decoherence": {
        # inf means a fully coherent sensor (no relaxation or dephasing)
        "coherence_time_us": (_number(above=0, inf=True), math.inf),
    },
}

_PROTOCOL_SCHEMA = {
    "lama": {"t1_ns": (_number(above=0), 15.0), "dt_ns": (_number(low=0), 40.0)},
    "classical": {"t1_ns": (_number(above=0), 15.0)},
    "kitaev": {"t1_ns": (_number(above=0), 15.0), "n_steps": (_number(int, 1), 8)},
    "fourier": {"t1_us": (_number(above=0), 2.4), "n_steps": (_number(int, 0), 0)},
    "fourier_modified": {"t1_us": (_number(above=0), 2.4),
                         "n_steps": (_number(int, 0), 0)},
}

COMMAND_SCHEMAS = {
    "gain-curve": {
        "gain-curve": {
            "prep": (_choice("balanced", "xy"), "xy"),
            "alpha_rad": (_number(), 0.0),
            "beta_rad": (_number(), 0.0),
            "t_min_ns": (_number(low=0), 0.0),
            "t_max_ns": (_number(above=0), 75.0),
            "n_t": (_number(int, 0), 150),
        },
    },
    "compare": {
        "compare": {
            # one compare_<kind>.csv per entry
            "protocols": (_list_of(_choice(*_PROTOCOL_SCHEMA), distinct=True),
                          ("lama", "classical", "kitaev")),
            "n_steps": (_number(int, 1), 50),
            "n_experiments": (_number(int, 1), 200),
        },
        **_PROTOCOL_SCHEMA,
    },
    "lama-trace": {
        "lama-trace": {
            "t1_ns": (_number(above=0), 15.0),
            "dt_ns": (_number(low=0), 40.0),
            "outcomes": (_list_of(_number(int, 0, 2)), REQUIRED),
        },
    },
    "oscillations": {
        "oscillations": {
            "kind": (_choice("edge", "center", "discreteness"), REQUIRED),
            "variants_rad_per_s": (_list_of(_number(above=0)), ()),
            "variants_points": (_list_of(_number(int, 2)), ()),
            "n_t": (_number(int, 1), 1500),
            "grid_points": (_number(int, 2), 4096),
        },
    },
    "optimize": {
        "optimize": {
            "t_ns": (_list_of(_number(above=0)), (15.0, 75.0)),
            "budget": (_number(int, 1), 600),
            "n_starts": (_number(int, 1), 10),
            "readout": (_choice("fourier", "free"), "free"),
        },
    },
}


def schema_for(command: str) -> dict:
    if command not in COMMAND_SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    return {**_SHARED_SCHEMA, **COMMAND_SCHEMAS[command]}


def _to_si(key: str, value) -> tuple:
    """(key minus its time-unit suffix, value in seconds) for a scalar or
    tuple; other keys keep their value (rad and rad/s are already SI).  A
    nonzero time that underflows to 0 s is a ConfigError."""
    for suffix, factor in _UNIT_FACTORS.items():
        if key.endswith(suffix):
            for v in value if isinstance(value, tuple) else (value,):
                if v != 0 and v * factor == 0:
                    raise ConfigError(f"key '{key}': {v:g} {suffix[1:]} "
                                      "underflows to 0 s")
            if isinstance(value, tuple):
                return key.removesuffix(suffix), tuple(v * factor for v in value)
            return key.removesuffix(suffix), value * factor
    return key, value


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
    return DecoherenceParams.from_coherence_time(
        si_seconds(config, "decoherence", "coherence_time_us"))


def si_seconds(config: dict, section: str, key: str) -> float:
    """Value of a unit-suffixed time key converted to seconds."""
    return _to_si(key, config[section][key])[1]


def protocol_from(config: dict, kind: str) -> ProtocolConfig:
    """Protocol of one ``compare`` kind: each key of the kind's section, minus
    its unit suffix, names a ProtocolConfig field; n_steps falls back to
    [compare].  A Fourier kind's n_steps = 0 means every step above the
    pulse floor, and no step may fall below it."""
    fields = dict(_to_si(key, value) for key, value in config[kind].items())
    fields.setdefault("n_steps", config["compare"]["n_steps"])
    if kind.startswith("fourier"):
        max_steps = fourier_max_steps(fields["t1"])
        fields["n_steps"] = fields["n_steps"] or max_steps
        if not 1 <= fields["n_steps"] <= max_steps:
            raise ConfigError(
                f"keys 't1_us' and 'n_steps' in section [{kind}]: only "
                f"{max_steps} steps from t1_us = {config[kind]['t1_us']:g} us "
                f"stay above the {T_SATURATION * 1e9:g} ns floor, n_steps = "
                f"{config[kind]['n_steps']} (0 for all of them)")
    return ProtocolConfig(kind, decoherence=decoherence_from(config), **fields)
