"""Command-line front end: run experiments, sweep levels, self-verify.

Exit codes: 0 success, 2 configuration error (an unknown config key or
section, a setting out of range or not finite, a config file that cannot be
decoded, or more terms than a build's step-2 index can hold, found before
any build), 3 budget abort, 4 loss of ellipticity
(the coefficient is nonpositive at a collocation point of a build or at a
validation sample), 5 numerical failure (a singular pivot block, a
non-finite fiber or oracle value, or a banded factorization that is not
positive definite), 1 internal error.  `run` writes levels.csv, errors.csv
and report.txt into the output directory.  On exit 3, 4 or 5 it writes
levels.csv alone, with eps_level empty: the levels built so far, or every
level of the finished build when only the reference build or the validation
fails.  `sweep` writes one errors.csv row per level, and on exit 3, 4 or 5
the rows of the levels finished so far.  A level whose cross approximation ends
unconverged is kept (exit 0), and `run` names it, with its validation residual
and target, on stderr and in report.txt; a level of the reference build is
named the same way, as a "reference level", by `run` and, on stderr, by
`sweep`, which names the levels of each swept build on stderr as well ("L=2
level 1").  report.txt also lists, per level, the most PCG iterations a
build fiber's solve and a validation solve took (see driver.run_ml and
driver.error_metrics), the wall time of each level's step 1 (column basis)
and step 2 (cross approximation), and the fibers each level's step 2 fetched,
whose FE solves that step's time includes.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import verify
from .config import ExperimentConfig, load_config
from .driver import (ErrorMetrics, LevelDiagnostics, MLSurrogate, degree_schedule,
                     error_metrics, run_ml)
from .errors import ABORTS, BudgetError, ConfigError, EllipticityError
from .fem import MAX_LEVEL, build_grid
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


def _abort(err: Exception) -> int:
    """Report a budget abort (exit 3), a loss of ellipticity (exit 4) or a
    numerical failure (exit 5): a singular pivot, a non-finite value or a
    failed factorization."""
    if isinstance(err, BudgetError):
        print(f"budget abort: {err}", file=sys.stderr)
        return 3
    if isinstance(err, EllipticityError):
        print(f"ellipticity failure: {err}", file=sys.stderr)
        return 4
    print(f"numerical failure: {err}", file=sys.stderr)
    return 5


def _blas_build(module) -> str:
    """The BLAS a library was built against, as its show_config(mode="dicts")
    names it, or "unknown" where that does not."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _environment_stamp() -> list[str]:
    return [
        f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}",
        f"platform {platform.platform()}",
        "BLAS threads: " + " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in
                                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")),
        # a query adds the levels' nodal values on scipy's BLAS and does the rest on numpy's
        f"BLAS builds: numpy {_blas_build(np)}, scipy {_blas_build(scipy)}",
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


def _unconverged(diags: list[LevelDiagnostics], build: str = "") -> list[str]:
    """One warning per unconverged level; `build` names a build other than the main one."""
    prefix = f"{build} " if build else ""
    return [f"warning: {prefix}level {d.level} did not converge: cross_residual "
            f"{d.cross_residual:.3e} > eps_target {d.eps_target:.3e}"
            for d in diags if not d.converged]


def _config_echo(cfg: ExperimentConfig) -> list[str]:
    return [
        f"config: {cfg.source or '<defaults>'}",
        f"model: kind={cfg.kind} decay={cfg.decay} terms={cfg.terms} mean={cfg.mean}",
        f"run: max_level={cfg.max_level} ref_level={cfg.ref_level} eps0={cfg.eps0} "
        f"samples={cfg.samples} seed={cfg.seed} tree={cfg.tree}",
        f"budgets: rank_cap={cfg.rank_cap} eval_budget={cfg.eval_budget}",
    ]


def _check_index_range(cfg: ExperimentConfig, max_levels) -> None:
    """Reject builds whose step-2 entries, (p + 1)^terms parameter indices times
    at most min(rank_cap, n) spatial ones, outgrow a flat np.intp index."""
    for L in max_levels:
        for level, p in enumerate(degree_schedule(L)):
            ranks = min(cfg.rank_cap, build_grid(level).n)
            if (p + 1) ** cfg.terms * ranks > np.iinfo(np.intp).max:
                raise ConfigError(
                    f"terms = {cfg.terms} is too many at level {level} of the build to "
                    f"level {L}: {p + 1}^{cfg.terms} x {ranks} step-2 entries outgrow "
                    "a flat np.intp index")


def _build(cfg: ExperimentConfig, model, level: int, seed: int
           ) -> tuple[MLSurrogate, list[LevelDiagnostics]]:
    """run_ml up to `level` with the config's build settings."""
    return run_ml(model, cfg.terms, level, eps0=cfg.eps0, tree_shape=cfg.tree,
                  seed=seed, rank_cap=cfg.rank_cap, eval_budget=cfg.eval_budget)


def _build_reference(cfg: ExperimentConfig, model
                     ) -> tuple[MLSurrogate | None, list[LevelDiagnostics]]:
    """The reference surrogate and the diagnostics of its own build, if it has one.

    A reference at max_level would be the surrogate itself, so there is none.
    """
    if cfg.ref_level is None or cfg.ref_level == cfg.max_level:
        return None, []
    return _build(cfg, model, cfg.ref_level, cfg.seed + 1)


def cmd_run(cfg: ExperimentConfig) -> int:
    _check_index_range(cfg, {cfg.max_level, cfg.ref_level or cfg.max_level})
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = make_model(cfg.kind, cfg.decay, cfg.terms, cfg.mean)
    t0 = time.perf_counter()
    diags = []
    try:
        surrogate, diags = _build(cfg, model, cfg.max_level, cfg.seed)
        reference, ref_diags = _build_reference(cfg, model)
        warnings = _unconverged(diags) + _unconverged(ref_diags, "reference")
        for warning in warnings:
            print(warning, file=sys.stderr)
        metrics = error_metrics(surrogate, reference, samples=cfg.samples,
                                seed=cfg.seed, per_level=True)
    except ABORTS as err:
        # a failed reference build or validation keeps the levels of the
        # finished main build
        partial = diags or getattr(err, "partial_diagnostics", [])
        _write_levels_csv(out_dir / "levels.csv", partial, [])
        return _abort(err)
    elapsed = time.perf_counter() - t0

    _write_levels_csv(out_dir / "levels.csv", diags, metrics.eps_level_u)
    _write_errors_csv(out_dir / "errors.csv", [(cfg.max_level, metrics)])

    lines = _config_echo(cfg)
    if model.relaxed_ellipticity:
        lines.append("note: worst-case ellipticity bound nonpositive; "
                     "accepted via sampled minimum (> 0.05)")
    lines.append("")
    lines.extend(_level_table(diags, metrics.eps_level_u))
    lines.extend(warnings)
    lines.append("")
    lines.append(f"eps_ml[u]  = {metrics.eps_ml_u:.6e}")
    if metrics.eps_e_u is not None:
        lines.append(f"eps_E[u]   = {metrics.eps_e_u:.6e}")
    lines.append(f"eps_ml[psi] = {metrics.eps_ml_psi:.6e}")
    if metrics.eps_e_psi is not None:
        lines.append(f"eps_E[psi]  = {metrics.eps_e_psi:.6e}")
    lines.append("build pcg iterations per level (0 LU, -1 fell back to LU): "
                 + " ".join(str(d.pcg_iterations) for d in diags))
    lines.append("build step 1 (column basis) seconds per level: "
                 + " ".join(f"{d.step1_s:.3f}" for d in diags))
    lines.append("build step 2 (cross approximation) seconds per level: "
                 + " ".join(f"{d.step2_s:.3f}" for d in diags))
    # step 2's time includes the FE solves of the fibers it fetches first
    lines.append("build fibers fetched in step 2 per level: "
                 + " ".join(str(d.fibers - d.step1_evals) for d in diags))
    lines.append("validation pcg iterations per level (0 LU, -1 fell back to LU): "
                 + " ".join(str(k) for k in metrics.pcg_iterations))
    lines.append(f"total time: {elapsed:.1f}s")
    lines.append("")
    lines.extend(_environment_stamp())
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def cmd_sweep(cfg: ExperimentConfig, levels: list[int]) -> int:
    if not levels:
        raise ConfigError("sweep needs a nonempty ascending list of levels")
    if sorted(set(levels)) != levels:
        raise ConfigError("sweep levels must be ascending and distinct")
    if levels[0] < 0 or levels[-1] > MAX_LEVEL:
        raise ConfigError(f"sweep levels must be in [0, {MAX_LEVEL}]")
    ref_level = cfg.ref_level if cfg.ref_level is not None else levels[-1] + 1
    if not levels[-1] < ref_level <= MAX_LEVEL:
        raise ConfigError(f"ref_level must be in (largest sweep level, {MAX_LEVEL}]")
    _check_index_range(cfg, levels + [ref_level])
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = make_model(cfg.kind, cfg.decay, cfg.terms, cfg.mean)
    rows = []
    try:
        reference, ref_diags = _build(cfg, model, ref_level, cfg.seed + 1)
        for warning in _unconverged(ref_diags, "reference"):
            print(warning, file=sys.stderr)
        for L in levels:
            surrogate, diags = _build(cfg, model, L, cfg.seed)
            for warning in _unconverged(diags, f"L={L}"):
                print(warning, file=sys.stderr)
            metrics = error_metrics(surrogate, reference, samples=cfg.samples,
                                    seed=cfg.seed, per_level=False)
            rows.append((L, metrics))
            print(f"L={L}: eps_ml[u]={metrics.eps_ml_u:.6e} "
                  f"eps_E[u]={metrics.eps_e_u:.6e} "
                  f"eps_ml[psi]={metrics.eps_ml_psi:.6e} "
                  f"eps_E[psi]={metrics.eps_e_psi:.6e}")
    except ABORTS as err:
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
    except ABORTS as err:
        return _abort(err)
    except Exception as err:  # pragma: no cover - internal failures
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
