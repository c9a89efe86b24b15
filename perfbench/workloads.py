"""Workload definitions and the set-up step shared by the benchmark and its
fresh-interpreter set-ups (setup_child.py).

Every workload fixes the build seed and the validation seed: another build
seed changes the amount of work (the number of PDE solves), so only the
query points come from the benchmark's --seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from mltc import fem
from mltc.config import load_config
from mltc.cross import DEFAULT_EVAL_BUDGET, DEFAULT_RANK_CAP
from mltc.fields import make_model

DESK_CONFIG = Path("configs") / "exp-decay-small.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    decay: str
    terms: int
    mean: float
    max_level: int
    ref_level: int | None     # reference build in validation when > max_level
    samples: int              # error_metrics samples per validation
    batch: int                # samples per evaluate_batch / psi_batch call
    singles: int              # evaluate() calls per query round
    psi_repeats: int          # psi_batch calls per query round
    stats_repeats: int        # expectation() + expectation_psi() per round
    rounds_per_10s: int       # query rounds per 10 s of --seconds
    eps0: float = 0.25
    build_seed: int = 2024
    metrics_seed: int = 2024
    tree: str = "balanced"
    rank_cap: int = DEFAULT_RANK_CAP
    eval_budget: int = DEFAULT_EVAL_BUDGET
    setups: int = 5           # fresh-interpreter set-ups per run
    builds: int = 1           # run_ml calls per run (median reported)
    validations: int = 1      # validation passes per run (median reported)
    batch_repeats: int = 1    # evaluate_batch calls per query round

    @property
    def top_level(self) -> int:
        """Finest grid level the workload touches (reference build included)."""
        return max(self.max_level, self.ref_level or 0)

    def build_kwargs(self) -> dict:
        return dict(eps0=self.eps0, tree_shape=self.tree, seed=self.build_seed,
                    rank_cap=self.rank_cap, eval_budget=self.eval_budget, threads=1)

    def query_rounds(self, seconds: float) -> int:
        return max(1, round(self.rounds_per_10s * seconds / 10.0))


def _desk_run(root: Path) -> Workload:
    """exp-decay-small.ini as `mltc run` runs it, with a small query load."""
    cfg = load_config(root / DESK_CONFIG)
    return Workload(
        name="desk-run", kind=cfg.kind, decay=cfg.decay, terms=cfg.terms,
        mean=cfg.mean, max_level=cfg.max_level, ref_level=cfg.ref_level,
        samples=cfg.samples, eps0=cfg.eps0, build_seed=cfg.seed,
        metrics_seed=cfg.seed, tree=cfg.tree, rank_cap=cfg.rank_cap,
        eval_budget=cfg.eval_budget, builds=8, validations=3, batch=200,
        batch_repeats=2, singles=10, psi_repeats=4, stats_repeats=8,
        rounds_per_10s=10)


def load(name: str, root: Path) -> Workload:
    if name == "fine-affine":
        return Workload(
            name=name, kind="affine", decay="exponential", terms=5, mean=2.0,
            max_level=6, ref_level=None, samples=10, setups=3, batch=120,
            singles=18, psi_repeats=3, stats_repeats=4, rounds_per_10s=5)
    if name == "highdim-logu":
        return Workload(
            name=name, kind="log-uniform", decay="slow-algebraic", terms=8,
            mean=0.0, max_level=3, ref_level=None, samples=400, builds=3,
            validations=3, batch=1000, batch_repeats=2, singles=20,
            psi_repeats=4, stats_repeats=20, rounds_per_10s=5)
    if name == "desk-run":
        return _desk_run(root)
    raise KeyError(name)


def set_up(wl: Workload):
    """Make the model and the per-level FE data of every level the workload uses."""
    model = make_model(wl.kind, wl.decay, wl.terms, wl.mean)
    for level in range(wl.top_level + 1):
        fem.build_grid(level)
        fem.h1_frame(level)
        fem.load_vector(level)
        if level:
            fem.prolongation_matrix(level)
    return model
