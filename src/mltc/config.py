"""Experiment configuration files (INI key-value format).

Two sections: [model] selects the diffusion coefficient, [run] the schedule
and reporting knobs.  An unknown section or key is an error, so a misspelled
key never runs silently with its default.  See configs/ for bundled examples.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .cross import DEFAULT_EVAL_BUDGET, DEFAULT_RANK_CAP
from .errors import ConfigError
from .fem import MAX_LEVEL
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
        if not 0 <= self.max_level <= MAX_LEVEL:
            raise ConfigError(f"max_level must be in [0, {MAX_LEVEL}]")
        if self.ref_level is not None and not self.max_level <= self.ref_level <= MAX_LEVEL:
            raise ConfigError(f"ref_level must be in [max_level, {MAX_LEVEL}]")
        if not 0 < self.eps0 < math.inf:
            raise ConfigError("eps0 must be positive and finite")
        if not math.isfinite(self.mean):
            raise ConfigError("mean must be finite")
        if self.samples < 1:
            raise ConfigError("samples must be at least 1")
        if self.tree not in ("balanced", "linear"):
            raise ConfigError("tree must be 'balanced' or 'linear'")
        if self.rank_cap < 1 or self.eval_budget < 1:
            raise ConfigError("rank_cap and eval_budget must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
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
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
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
