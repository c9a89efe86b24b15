"""Multilevel tensor collocation: level schedules, the per-level compression
loop, surrogate evaluation, statistics, and error metrics.

Per level l = 0..L the difference of FE solutions on two consecutive grids is
sampled at tensorized Chebyshev points and compressed in hierarchical form
with relative accuracy eps_l = 2^(l-L) * eps0; the degree schedule
p(l) = floor((L - l + 1) / 2) balances interpolation and FE error across
levels.  The surrogate is the sum of the per-level interpolants and supports
pointwise evaluation, exact expectation against the uniform density, and the
output functional psi(u) = integral of u.

Each level's spatial frame is mapped to nodal values once, when the
surrogate is built.  A query contracts the parametric modes to per-level
(M, r_l) coefficients and sums the nodal frames times those coefficients over
the levels with one prolongation per level; psi and the expectation need only
r_l-vectors.  Beside its (M, n_L) output a batch holds just the (M, sum r_l)
coefficients, so no batch is split into chunks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .colloc import CollocationGrid
from .cross import (DEFAULT_EVAL_BUDGET, DEFAULT_RANK_CAP, ApproxResult,
                    ColumnSource, EvalBudget, approximate_tensor)
from .errors import BudgetError, EllipticityError
from .fem import (build_grid, functional_psi, h1_frame, prolongate,
                  prolongation_matrix, solve_at)
from .fields import CoefficientModel
from .htensor import HTensor, build_tree, ht_coefficients, storage_and_ranks


def degree_schedule(L: int) -> list[int]:
    """Isotropic degrees p(l) = floor((L - l + 1) / 2) for l = 0..L."""
    if L < 0:
        raise ValueError("max level must be nonnegative")
    return [(L - level + 1) // 2 for level in range(L + 1)]


def accuracy_schedule(L: int, eps0: float = 0.25) -> list[float]:
    """Tensor accuracies eps_l = 2^(l-L) * eps0, doubling per level."""
    return [2.0 ** (level - L) * eps0 for level in range(L + 1)]


@dataclass(frozen=True)
class LevelPlan:
    max_level: int
    eps0: float = 0.25

    @property
    def degrees(self) -> tuple:
        return tuple(degree_schedule(self.max_level))

    @property
    def accuracies(self) -> tuple:
        return tuple(accuracy_schedule(self.max_level, self.eps0))


@dataclass
class LevelRecord:
    level: int
    grid: CollocationGrid
    tensor: HTensor          # parametric modes (p+1)^N, spatial mode n_level


@dataclass
class LevelDiagnostics:
    level: int
    degree: int
    n_spatial: int
    eps_target: float
    r_max: int = 0
    r_eff: float = 0.0
    storage: int = 0
    step1_evals: int = 0
    step2_evals: int = 0
    fibers: int = 0
    pde_solves: int = 0          # FE solves the level's fibers need, reused or not
    solves_reused: int = 0       # of those, coarse solves taken from the previous level
    time_s: float = 0.0
    cross_residual: float = float("nan")
    converged: bool = False


class MLSurrogate:
    """Sum over levels of interpolated, compressed level differences.

    Building it maps each level's spatial leaf frame U_l (H1 coordinates) to
    nodal values on the level's own grid, G_l = R_l^-1 U_l, and to the psi
    row U_l^T psi_vec_l, and contracts the expectation coefficients.  A query
    then contracts only the parametric modes, to per-level (M, r_l)
    coefficients C_l.
    """

    def __init__(self, model: CoefficientModel, n_params: int, plan: LevelPlan,
                 records: list[LevelRecord]):
        self.model = model
        self.n_params = n_params
        self.plan = plan
        self.records = records
        self._spatial = []          # per level: U_l, the (n_l, r_l) frame in H1 coordinates
        self._nodal_frames = []     # per level: G_l, the same frame in nodal values
        self._psi_rows = []         # per level: the (r_l,) vector U_l^T psi_vec_l
        for rec in records:
            X = rec.tensor
            U = X.leaf_frames[X.tree.leaf_of_mode[n_params]]
            frame = h1_frame(rec.level)
            self._spatial.append(U)
            self._nodal_frames.append(frame.from_h1(U))
            self._psi_rows.append(U.T @ frame.psi_vec)
        self._mean_coeffs = [
            self._level_coefficients(rec, {m: rec.grid.quadrature_weights[None, :]
                                           for m in range(n_params)})
            for rec in records]

    @property
    def max_level(self) -> int:
        return self.plan.max_level

    def _level_coefficients(self, rec: LevelRecord, weights: dict) -> np.ndarray:
        """Contract a level tensor's parametric modes with per-sample weights.

        weights maps each parametric mode to an (M, p+1) array; returns the
        (M, r_l) coefficients in the level's spatial frame.
        """
        X = rec.tensor
        rows = {m: W @ X.leaf_frames[X.tree.leaf_of_mode[m]] for m, W in weights.items()}
        return ht_coefficients(X, rows, self.n_params)

    def coefficients(self, Y: np.ndarray) -> list[np.ndarray]:
        """Per level, the (M, r_l) spatial-frame coefficients at samples Y (M, N)."""
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if Y.shape[1] != self.n_params:
            raise ValueError(f"samples must have {self.n_params} columns")
        return [self._level_coefficients(rec, {m: rec.grid.lagrange_weights_many(Y[:, m])
                                               for m in range(self.n_params)})
                for rec in self.records]

    def components_h1(self, Y: np.ndarray) -> list[np.ndarray]:
        """Per level, the H1-coordinate vectors of the level interpolant.

        Y has shape (M, N); each returned array has shape (M, n_level).
        """
        return [C @ U.T for C, U in zip(self.coefficients(Y), self._spatial)]

    def _nodal(self, coeffs: list[np.ndarray]) -> np.ndarray:
        """Top-level nodal values, (M, n_L), from per-level coefficients.

        Horner sum over levels: total <- P_l total + G_l C_l^T.
        """
        frames = self._nodal_frames
        total = frames[0] @ coeffs[0].T
        for rec, G, C in zip(self.records[1:], frames[1:], coeffs[1:]):
            total = prolongation_matrix(rec.level) @ total
            total += G @ C.T
        return total.T

    def _psi(self, coeffs: list[np.ndarray]) -> np.ndarray:
        """psi(u) per sample from per-level coefficients."""
        return sum(C @ q for C, q in zip(coeffs, self._psi_rows))

    def evaluate_batch(self, Y: np.ndarray) -> np.ndarray:
        """Nodal surrogate solutions at the top level, shape (M, n_L)."""
        return self._nodal(self.coefficients(Y))

    def evaluate(self, y) -> np.ndarray:
        """Nodal surrogate solution at one parameter point."""
        return self.evaluate_batch(np.asarray(y, dtype=float)[None, :])[0]

    def psi_batch(self, Y: np.ndarray) -> np.ndarray:
        """psi(u) per sample, straight from the coefficients."""
        return self._psi(self.coefficients(Y))

    def expectation(self) -> np.ndarray:
        """Exact uniform-density expectation of the surrogate (nodal, level L)."""
        return self._nodal(self._mean_coeffs)[0]

    def expectation_psi(self) -> float:
        return float(self._psi(self._mean_coeffs)[0])


def run_ml(model: CoefficientModel, n_params: int, L: int, *, eps0: float = 0.25,
           tree_shape: str = "balanced", seed: int = 0,
           rank_cap: int = DEFAULT_RANK_CAP, eval_budget: int = DEFAULT_EVAL_BUDGET,
           threads: int = 1):
    """Build the multilevel surrogate level by level.

    Per level, an oracle over ((p+1)^N, n_level) backed by cached PDE solves
    feeds the three-step compression at accuracy eps_l.  When p(l) = p(l-1)
    the two levels share their collocation nodes, and level l takes its
    coarse solve u_{l-1}(y_k) from the fine solves level l-1 made.  Returns
    the surrogate and per-level diagnostics; a budget abort (BudgetError) or a
    coefficient that is nonpositive at a collocation point (EllipticityError)
    is raised with the diagnostics gathered so far attached as
    `partial_diagnostics`.

    `threads` accepts only 1 and does nothing else; the benchmark still
    passes it, and it goes away with the next change to the benchmark.
    """
    if threads != 1:
        raise ValueError("threads must be 1: fibers are evaluated serially")
    if n_params < 1:
        raise ValueError("need at least one parametric dimension")
    plan = LevelPlan(L, eps0)
    seeds = np.random.SeedSequence(seed).spawn(L + 1)
    budget = EvalBudget(eval_budget)

    records: list[LevelRecord] = []
    diags: list[LevelDiagnostics] = []
    previous = {}       # node index -> u_{level-1}, when level-1 had the same nodes
    for level in range(L + 1):
        p = plan.degrees[level]
        eps_l = plan.accuracies[level]
        grid = CollocationGrid(p)
        n_spatial = build_grid(level).n
        diag = LevelDiagnostics(level=level, degree=p, n_spatial=n_spatial,
                                eps_target=eps_l)
        t0 = time.process_time()
        solves = {} if level < L and plan.degrees[level + 1] == p else None
        reused = set()

        def fetch(j, level=level, nodes=grid.nodes, coarse=previous, solves=solves,
                  reused=reused):
            y = nodes[list(j)]
            u = solve_at(y, level, model)
            if solves is not None:
                solves[j] = u
            if level:
                u_coarse = coarse.get(j)
                if u_coarse is None:
                    u_coarse = solve_at(y, level - 1, model)
                else:
                    reused.add(j)
                u = u - prolongate(u_coarse, level)
            return h1_frame(level).to_h1(u)

        source = ColumnSource((p + 1,) * n_params, n_spatial, fetch, budget=budget)
        tree = build_tree(n_params + 1, tree_shape)
        rng = np.random.default_rng(seeds[level])
        try:
            result: ApproxResult = approximate_tensor(
                source, tree, eps_l, rng=rng, rank_cap=rank_cap)
        except (BudgetError, EllipticityError) as err:
            err.partial_diagnostics = diags + [diag]    # counted by `finally`
            raise
        finally:
            diag.time_s = time.process_time() - t0
            diag.fibers = source.n_fetched
            diag.pde_solves = source.n_fetched * (1 if level == 0 else 2)
            diag.solves_reused = len(reused)
        diag.step1_evals = result.step1_evals
        diag.step2_evals = result.step2_evals
        diag.cross_residual = result.cross_diag.validation_residual
        diag.converged = result.cross_diag.converged
        rep = storage_and_ranks(result.tensor)
        diag.r_max, diag.r_eff, diag.storage = rep.r_max, rep.r_eff, rep.storage_scalars
        records.append(LevelRecord(level, grid, result.tensor))
        diags.append(diag)
        previous = solves or {}
    return MLSurrogate(model, n_params, plan, records), diags


def prolongate_to(v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    out = v
    for lev in range(from_level + 1, to_level + 1):
        out = prolongation_matrix(lev) @ out
    return out


@dataclass
class ErrorMetrics:
    samples: int
    seed: int
    eps_ml_u: float
    eps_ml_psi: float
    eps_level_u: list = field(default_factory=list)
    eps_e_u: float | None = None
    eps_e_psi: float | None = None


def error_metrics(surrogate: MLSurrogate, reference: MLSurrogate | None = None,
                  samples: int = 100, seed: int = 0,
                  per_level: bool = True) -> ErrorMetrics:
    """Sampled relative errors of the surrogate in the H1_0 seminorm.

    eps_ml compares the surrogate against direct FE solves at the top level
    over `samples` random parameters; the per-level errors compare each
    compressed level interpolant against the exact level difference at the
    same samples.  With a reference surrogate (same model, higher level) the
    expectation errors are computed at the reference level.
    """
    if reference is not None:
        if reference.model != surrogate.model or reference.n_params != surrogate.n_params:
            raise ValueError("reference surrogate was built for a different problem")
        if reference.max_level < surrogate.max_level:
            raise ValueError("reference level must not be below the surrogate level")
    model = surrogate.model
    N = surrogate.n_params
    L = surrogate.max_level
    rng = np.random.default_rng(seed)
    Y = rng.uniform(-1.0, 1.0, size=(samples, N))

    frame_top = h1_frame(L)
    coeffs = surrogate.coefficients(Y)
    surr_nodal = surrogate._nodal(coeffs)
    psi_surr = surrogate._psi(coeffs)

    num_ml = 0.0
    den = 0.0
    num_psi = 0.0
    den_psi = 0.0
    num_level = np.zeros(L + 1)
    for i in range(samples):
        if per_level:
            ladder = [solve_at(Y[i], lev, model) for lev in range(L + 1)]
            u_direct = ladder[L]
            for lev in range(L + 1):
                if lev == 0:
                    d_nodal = ladder[0]
                else:
                    d_nodal = ladder[lev] - prolongation_matrix(lev) @ ladder[lev - 1]
                z_exact = h1_frame(lev).to_h1(d_nodal)
                z_surr = surrogate._spatial[lev] @ coeffs[lev][i]
                num_level[lev] += float(np.sum((z_surr - z_exact) ** 2))
        else:
            u_direct = solve_at(Y[i], L, model)
        diff = frame_top.to_h1(surr_nodal[i] - u_direct)
        num_ml += float(diff @ diff)
        zd = frame_top.to_h1(u_direct)
        den += float(zd @ zd)
        psi_d = functional_psi(u_direct, L)
        num_psi += (psi_surr[i] - psi_d) ** 2
        den_psi += psi_d**2

    metrics = ErrorMetrics(
        samples=samples, seed=seed,
        eps_ml_u=float(np.sqrt(num_ml / den)),
        eps_ml_psi=float(np.sqrt(num_psi / den_psi)),
        eps_level_u=(list(np.sqrt(num_level / den)) if per_level else []),
    )
    if reference is not None:
        L_ref = reference.max_level
        frame_ref = h1_frame(L_ref)
        e_surr = prolongate_to(surrogate.expectation(), L, L_ref)
        e_ref = reference.expectation()
        z_ref = frame_ref.to_h1(e_ref)
        metrics.eps_e_u = float(np.linalg.norm(frame_ref.to_h1(e_surr - e_ref))
                                / np.linalg.norm(z_ref))
        psi_ref = reference.expectation_psi()
        metrics.eps_e_psi = float(abs(surrogate.expectation_psi() - psi_ref)
                                  / abs(psi_ref))
    return metrics
