"""Experiment configuration files (INI key-value format).

Two sections: [model] selects the diffusion coefficient, [run] the schedule
and reporting knobs.  An unknown section or key is an error, so a misspelled
key never runs silently with its default.  See configs/ for bundled examples.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .cross import DEFAULT_EVAL_BUDGET, DEFAULT_RANK_CAP
from .errors import ConfigError
from .fields import DECAY_LAWS, KINDS


@dataclass
class ExperimentConfig:
    kind: str = "affine"
    decay: str = "exponential"
    terms: int = 5
    mean: float = 2.0
    max_level: int = 4
    ref_level: int | None = None
    eps0: float = 0.25
    samples: int = 100
    seed: int = 2024
    tree: str = "balanced"
    rank_cap: int = DEFAULT_RANK_CAP
    eval_budget: int = DEFAULT_EVAL_BUDGET
    out_dir: str = "out"
    source: str = field(default="", repr=False)

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError(f"model kind must be one of {KINDS}, got {self.kind!r}")
        if self.decay not in DECAY_LAWS:
            raise ConfigError(f"decay must be one of {DECAY_LAWS}, got {self.decay!r}")
        if self.terms < 1:
            raise ConfigError("terms must be at least 1")
        if self.max_level < 0:
            raise ConfigError("max_level must be nonnegative")
        if self.ref_level is not None and self.ref_level < self.max_level:
            raise ConfigError("ref_level must be at least max_level")
        if self.eps0 <= 0:
            raise ConfigError("eps0 must be positive")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.tree not in ("balanced", "linear"):
            raise ConfigError("tree must be 'balanced' or 'linear'")
        return self


# the keys each section accepts, with the type each value is read as
KEYS = {
    "model": {"kind": str, "decay": str, "terms": int, "mean": float},
    "run": {"max_level": int, "ref_level": int, "eps0": float, "samples": int,
            "seed": int, "tree": str, "rank_cap": int, "eval_budget": int,
            "out_dir": str},
}


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err

    cfg = ExperimentConfig(source=str(path))
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}] in {path}")
        for key, text in parser[section].items():
            if key not in KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
            try:
                setattr(cfg, key, KEYS[section][key](text.strip()))
            except ValueError as err:
                raise ConfigError(f"bad value for {key} in {path}: {err}") from err
    return cfg.validate()
