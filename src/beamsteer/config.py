"""Sectioned key-value experiment configuration.

The format is flat INI text with the sections and keys of ``SCHEMA``,
numbers written as decimal reals and lists comma-separated.  A key left out
takes the default of the field it sets; ``[impulses]`` may be left out whole.
Any other section or key is rejected.
"""

from __future__ import annotations

import configparser
import io

from .dynamics import ImpulseSchedule, NonlinearityCatalog, SimConfig
from .errors import ConfigError, InvalidArgumentError
from .harness import ExperimentSpec


def _floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse number list {text!r}") from exc


# section -> key -> (object, field, parser): the one home of every key; "config" is the
# SimConfig, "catalog" and "impulses" its parts and "spec" the ExperimentSpec
SCHEMA = {
    "simulation": {
        "modes": ("config", "n_modes", int),
        "length": ("config", "length", float),
        "grid_points": ("config", "grid_points", int),
        "beta": ("config", "beta", float),
        "tau": ("config", "tau", float),
        "delay": ("config", "delay", float),
        "step": ("config", "step", float),
        "history": ("spec", "history_kind", str),
        "history_amplitude": ("spec", "history_amplitude", float),
        "history_mode": ("spec", "history_mode", int),
    },
    "catalog": {
        "f": ("catalog", "f_kind", str),
        "f_a": ("catalog", "f_a", float),
        "f_b": ("catalog", "f_b", float),
        "g": ("catalog", "g_kind", str),
        "kernel": ("catalog", "kernel_kind", str),
        "kappa": ("catalog", "kappa", float),
        "gamma": ("catalog", "gamma", float),
    },
    "impulses": {
        "times": ("impulses", "times", _floats),
        "gains": ("impulses", "gains", _floats),
    },
    "sweep": {
        "deltas": ("spec", "deltas", _floats),
        "alphas": ("spec", "alphas", _floats),
        "epsilon": ("spec", "epsilon", float),
        "target": ("spec", "target_kind", str),
        "target_mode": ("spec", "target_mode", int),
        "target_scale": ("spec", "target_scale", float),
        "seed": ("spec", "seed", int),
        "out": ("spec", "out_path", str),
    },
}


DEFAULT_CONFIG = """\
[simulation]
modes = 8
length = 3.5
grid_points = 128
beta = 2.0
tau = 1.0
delay = 0.3
step = 0.0016666666666666668
history = single_mode
history_amplitude = 0.1
history_mode = 1

[catalog]
f = linear_growth
f_a = 0.5
f_b = 0.0
g = rational
kernel = exponential
kappa = 0.5
gamma = 1.0

[impulses]
times = 0.4, 0.7
gains = 0.05, 0.05

[sweep]
deltas = 0.2, 0.1, 0.05
alphas = 0.1, 0.01, 0.001, 0.0001, 0.00001
epsilon = 0.01
target = single_mode
target_mode = 1
target_scale = 0.3
seed = 20240811
out = pullback.csv
"""


def _parser_for(text: str) -> configparser.ConfigParser:
    # no section header can hold a newline, so [DEFAULT] is a plain, unknown section;
    # values are read as written, with no % interpolation
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), default_section="\n", interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # its message may run over several lines
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"malformed configuration: {message}") from exc
    return parser


def parse_experiment(text: str, seed_override: int | None = None) -> ExperimentSpec:
    """Build an experiment spec from configuration text."""
    parser = _parser_for(text)
    for name in parser.sections():
        if name not in SCHEMA:
            raise ConfigError(f"unknown configuration section [{name}]")
        unknown = sorted(set(parser[name]) - set(SCHEMA[name]))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section [{name}]")
    for name in SCHEMA:
        if name != "impulses" and not parser.has_section(name):
            raise ConfigError(f"missing configuration section {name!r}")

    # only the keys the file sets: every other field keeps its dataclass default
    fields = {"config": {}, "catalog": {}, "impulses": {}, "spec": {}}
    try:
        for name in parser.sections():
            for key, value in parser[name].items():
                target, field, parse = SCHEMA[name][key]
                fields[target][field] = parse(value)
        if seed_override is not None:
            fields["spec"]["seed"] = seed_override
        catalog = NonlinearityCatalog(**fields["catalog"])
        impulses = ImpulseSchedule(**fields["impulses"])
        config = SimConfig(catalog=catalog, impulses=impulses, **fields["config"])
        return ExperimentSpec(config=config, **fields["spec"])
    except ConfigError:
        raise
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(f"invalid numeric value: {exc}") from exc


def load_experiment(path: str | None = None, seed_override: int | None = None) -> ExperimentSpec:
    """Load an experiment spec from a file, or the built-in default."""
    if path is None:
        return parse_experiment(DEFAULT_CONFIG, seed_override)
    try:
        with io.open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"could not read configuration {path}: {exc}") from exc
    return parse_experiment(text, seed_override)
