"""Command-line front end: run experiments, sweep levels, self-verify.

Exit codes: 0 success, 2 configuration error (including an unknown config
key or section), 3 budget abort, 4 loss of ellipticity (the coefficient is
nonpositive at a collocation point of the build), 1 internal error.  `run`
writes levels.csv, errors.csv and report.txt into the output directory.  On
exit 3 or 4 it writes levels.csv alone, with eps_level empty: the levels built
so far, or every level of the finished build when only the reference build
fails.  `sweep` writes one errors.csv row per level, and on exit 3 or 4 the
rows of the levels finished so far.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import verify
from .config import ExperimentConfig, load_config
from .driver import (ErrorMetrics, LevelDiagnostics, MLSurrogate, error_metrics,
                     run_ml)
from .errors import BudgetError, ConfigError, EllipticityError
from .fields import make_model

LEVEL_COLUMNS = ["level", "degree", "n", "r_eff", "r_max", "step1", "step2",
                 "pde_solves", "time_s", "eps_level"]
ERROR_COLUMNS = ["max_level", "eps_ml_u", "eps_e_u", "eps_ml_psi", "eps_e_psi"]


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    return cfg.validate()


def _abort(err: BudgetError | EllipticityError) -> int:
    """Report a budget abort (exit 3) or a loss of ellipticity (exit 4)."""
    if isinstance(err, BudgetError):
        print(f"budget abort: {err}", file=sys.stderr)
        return 3
    print(f"ellipticity failure: {err}", file=sys.stderr)
    return 4


def _environment_stamp() -> list[str]:
    return [
        f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}",
        f"platform {platform.platform()}",
        "timing mode: cpu",
        f"generated {datetime.datetime.now().isoformat(timespec='seconds')}",
    ]


def _write_levels_csv(path: Path, diags: list[LevelDiagnostics], eps_level):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(LEVEL_COLUMNS)
        for d in diags:
            eps = f"{eps_level[d.level]:.6e}" if d.level < len(eps_level) else ""
            w.writerow([d.level, d.degree, d.n_spatial, f"{d.r_eff:.6f}", d.r_max,
                        d.step1_evals, d.step2_evals, d.pde_solves,
                        f"{d.time_s:.6f}", eps])


def _write_errors_csv(path: Path, rows: list[tuple[int, ErrorMetrics]]):
    """One row per (max_level, metrics); a missing expectation error stays empty."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(ERROR_COLUMNS)
        for L, m in rows:
            w.writerow([L] + ["" if v is None else f"{v:.6e}"
                              for v in (m.eps_ml_u, m.eps_e_u, m.eps_ml_psi, m.eps_e_psi)])


def _level_table(diags: list[LevelDiagnostics], eps_level) -> list[str]:
    lines = [f"{'l':>3} {'p':>3} {'n':>8} {'r_eff':>7} {'r_max':>5} "
             f"{'step1':>7} {'step2':>8} {'solves':>7} {'time[s]':>9} {'eps(l)':>11}"]
    for d in diags:
        lines.append(f"{d.level:>3} {d.degree:>3} {d.n_spatial:>8} {d.r_eff:>7.2f} "
                     f"{d.r_max:>5} {d.step1_evals:>7} {d.step2_evals:>8} "
                     f"{d.pde_solves:>7} {d.time_s:>9.2f} {eps_level[d.level]:>11.3e}")
    return lines


def _config_echo(cfg: ExperimentConfig) -> list[str]:
    return [
        f"config: {cfg.source or '<defaults>'}",
        f"model: kind={cfg.kind} decay={cfg.decay} terms={cfg.terms} mean={cfg.mean}",
        f"run: max_level={cfg.max_level} ref_level={cfg.ref_level} eps0={cfg.eps0} "
        f"samples={cfg.samples} seed={cfg.seed} tree={cfg.tree}",
        f"budgets: rank_cap={cfg.rank_cap} eval_budget={cfg.eval_budget}",
    ]


def _build_reference(cfg: ExperimentConfig, model, surrogate) -> MLSurrogate | None:
    if cfg.ref_level is None:
        return None
    if cfg.ref_level == cfg.max_level:
        return surrogate
    ref, _ = run_ml(model, cfg.terms, cfg.ref_level, eps0=cfg.eps0,
                    tree_shape=cfg.tree, seed=cfg.seed + 1, rank_cap=cfg.rank_cap,
                    eval_budget=cfg.eval_budget)
    return ref


def cmd_run(cfg: ExperimentConfig) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = make_model(cfg.kind, cfg.decay, cfg.terms, cfg.mean)
    t0 = time.perf_counter()
    diags = []
    try:
        surrogate, diags = run_ml(model, cfg.terms, cfg.max_level, eps0=cfg.eps0,
                                  tree_shape=cfg.tree, seed=cfg.seed,
                                  rank_cap=cfg.rank_cap, eval_budget=cfg.eval_budget)
        reference = _build_reference(cfg, model, surrogate)
    except (BudgetError, EllipticityError) as err:
        # a failed reference build keeps the levels of the finished main build
        partial = diags or getattr(err, "partial_diagnostics", [])
        _write_levels_csv(out_dir / "levels.csv", partial, [])
        return _abort(err)
    metrics = error_metrics(surrogate, reference, samples=cfg.samples,
                            seed=cfg.seed, per_level=True)
    elapsed = time.perf_counter() - t0

    _write_levels_csv(out_dir / "levels.csv", diags, metrics.eps_level_u)
    _write_errors_csv(out_dir / "errors.csv", [(cfg.max_level, metrics)])

    lines = _config_echo(cfg)
    if model.relaxed_ellipticity:
        lines.append("note: worst-case ellipticity bound nonpositive; "
                     "accepted via sampled minimum (> 0.05)")
    lines.append("")
    lines.extend(_level_table(diags, metrics.eps_level_u))
    lines.append("")
    lines.append(f"eps_ml[u]  = {metrics.eps_ml_u:.6e}")
    if metrics.eps_e_u is not None:
        lines.append(f"eps_E[u]   = {metrics.eps_e_u:.6e}")
    lines.append(f"eps_ml[psi] = {metrics.eps_ml_psi:.6e}")
    if metrics.eps_e_psi is not None:
        lines.append(f"eps_E[psi]  = {metrics.eps_e_psi:.6e}")
    lines.append(f"total time: {elapsed:.1f}s")
    lines.append("")
    lines.extend(_environment_stamp())
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_sweep(cfg: ExperimentConfig, levels: list[int]) -> int:
    if not levels:
        raise ConfigError("sweep needs a nonempty ascending list of levels")
    if sorted(levels) != levels:
        raise ConfigError("sweep levels must be ascending")
    ref_level = cfg.ref_level if cfg.ref_level is not None else max(levels) + 1
    if ref_level <= max(levels):
        raise ConfigError("ref_level must exceed the largest sweep level")
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = make_model(cfg.kind, cfg.decay, cfg.terms, cfg.mean)
    rows = []
    try:
        reference, _ = run_ml(model, cfg.terms, ref_level, eps0=cfg.eps0,
                              tree_shape=cfg.tree, seed=cfg.seed + 1,
                              rank_cap=cfg.rank_cap, eval_budget=cfg.eval_budget)
        for L in levels:
            surrogate, _ = run_ml(model, cfg.terms, L, eps0=cfg.eps0,
                                  tree_shape=cfg.tree, seed=cfg.seed,
                                  rank_cap=cfg.rank_cap, eval_budget=cfg.eval_budget)
            metrics = error_metrics(surrogate, reference, samples=cfg.samples,
                                    seed=cfg.seed, per_level=False)
            rows.append((L, metrics))
            print(f"L={L}: eps_ml[u]={metrics.eps_ml_u:.6e} "
                  f"eps_E[u]={metrics.eps_e_u:.6e} "
                  f"eps_ml[psi]={metrics.eps_ml_psi:.6e} "
                  f"eps_E[psi]={metrics.eps_e_psi:.6e}")
    except (BudgetError, EllipticityError) as err:
        return _abort(err)
    finally:
        _write_errors_csv(out_dir / "errors.csv", rows)     # the levels finished so far
    return 0


def cmd_verify() -> int:
    return 0 if verify.run_all() else 1


def main(argv=None) -> int:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=None, help="override config seed")
    shared.add_argument("--out-dir", default=None, help="override output directory")
    parser = argparse.ArgumentParser(
        prog="mltc",
        description="Multilevel low-rank tensor collocation for random-diffusion PDEs")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", parents=[shared],
                           help="run one configured experiment")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", parents=[shared],
                             help="error convergence over several levels")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--levels", required=True,
                         help="comma-separated ascending max levels, e.g. 2,3,4")
    sub.add_parser("verify", parents=[shared],
                   help="run the built-in verification suites")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify()
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            return cmd_run(cfg)
        try:
            levels = [int(tok) for tok in args.levels.split(",") if tok.strip()]
        except ValueError as err:
            raise ConfigError(f"bad --levels list: {err}") from err
        return cmd_sweep(cfg, levels)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (BudgetError, EllipticityError) as err:
        return _abort(err)
    except Exception as err:  # pragma: no cover - internal failures
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
