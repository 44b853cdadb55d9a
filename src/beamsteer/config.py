"""Sectioned key-value experiment configuration.

The format is flat INI text with four sections, numbers written as decimal
reals and lists comma-separated:

    [simulation]   modes, length, grid_points, beta, tau, delay, step,
                   history, history_amplitude, history_mode
    [catalog]      f, f_a, f_b, g, kernel, kappa, gamma
    [impulses]     times, gains
    [sweep]        deltas, alphas, epsilon, target, target_mode,
                   target_scale, seed, out

Any other section or key is rejected.
"""

from __future__ import annotations

import configparser
import io

from .dynamics import ImpulseSchedule, NonlinearityCatalog, SimConfig
from .errors import ConfigError, InvalidArgumentError
from .harness import ExperimentSpec

# the sections and keys listed above
KEYS = {
    "simulation": {"modes", "length", "grid_points", "beta", "tau", "delay", "step", "history",
                   "history_amplitude", "history_mode"},
    "catalog": {"f", "f_a", "f_b", "g", "kernel", "kappa", "gamma"},
    "impulses": {"times", "gains"},
    "sweep": {"deltas", "alphas", "epsilon", "target", "target_mode", "target_scale", "seed",
              "out"},
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


def _floats(text: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"could not parse number list {text!r}") from exc


def _parser_for(text: str) -> configparser.ConfigParser:
    # no section header can hold a newline, so [DEFAULT] is a plain, unknown section
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed configuration: {exc}") from exc
    return parser


def parse_experiment(text: str, seed_override: int | None = None) -> ExperimentSpec:
    """Build an experiment spec from configuration text."""
    parser = _parser_for(text)
    for name in parser.sections():
        if name not in KEYS:
            raise ConfigError(f"unknown configuration section [{name}]")
        unknown = sorted(set(parser[name]) - KEYS[name])
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section [{name}]")
    try:
        sim = parser["simulation"]
        cat = parser["catalog"]
        imps = parser["impulses"] if parser.has_section("impulses") else {}
        sweep = parser["sweep"]
    except KeyError as exc:
        raise ConfigError(f"missing configuration section {exc}") from exc

    try:
        catalog = NonlinearityCatalog(
            f_kind=cat.get("f", "zero"),
            f_a=float(cat.get("f_a", 0.0)),
            f_b=float(cat.get("f_b", 0.0)),
            g_kind=cat.get("g", "zero"),
            kernel_kind=cat.get("kernel", "zero"),
            kappa=float(cat.get("kappa", 0.0)),
            gamma=float(cat.get("gamma", 0.0)),
        )
        impulses = ImpulseSchedule(
            times=tuple(_floats(imps.get("times", ""))),
            gains=tuple(_floats(imps.get("gains", ""))),
        )
        config = SimConfig(
            n_modes=int(sim.get("modes", "8")),
            length=float(sim.get("length", "1.0")),
            grid_points=int(sim.get("grid_points", "128")),
            beta=float(sim.get("beta", "2.0")),
            tau=float(sim.get("tau", "1.0")),
            delay=float(sim.get("delay", "0.3")),
            step=float(sim.get("step", "0.001")),
            catalog=catalog,
            impulses=impulses,
        )
        seed = int(sweep.get("seed", "0"))
        if seed_override is not None:
            seed = seed_override
        return ExperimentSpec(
            config=config,
            deltas=_floats(sweep.get("deltas", "")),
            alphas=_floats(sweep.get("alphas", "")),
            epsilon=float(sweep.get("epsilon", "0.01")),
            target_kind=sweep.get("target", "single_mode"),
            target_mode=int(sweep.get("target_mode", "1")),
            target_scale=float(sweep.get("target_scale", "1.0")),
            history_kind=sim.get("history", "zero"),
            history_amplitude=float(sim.get("history_amplitude", "0.0")),
            history_mode=int(sim.get("history_mode", "1")),
            seed=seed,
            out_path=sweep.get("out", None),
        )
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
    except OSError as exc:
        raise ConfigError(f"could not read configuration {path}: {exc}") from exc
    return parse_experiment(text, seed_override)
