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
surrogate is built.  A query evaluates the Lagrange weights once per distinct
degree, for all N parameters in one call, and reuses them on every level of
that degree: these are the numbers a per-level evaluation gives.  It
contracts the parametric modes to per-level (M, r_l) coefficients
(htensor.ht_coefficients) and sums the nodal frames times those
coefficients over the levels with one prolongation per level; psi and the
expectation need only r_l-vectors.  The nodal frames are kept
Fortran-ordered, and each G_l C_l^T is added into the sum in place by one
BLAS dgemm (C <- C_l G_l^T + C on the transposed sum), so no product is
formed apart: beside its (M, n_L) output a batch holds only the previous
level's sum while it is prolongated and the (M, sum r_l) coefficients, and no
batch is split into chunks.  For M >= 2 the sum is bitwise numpy's
`total += G_l @ C_l.T`; for one sample (evaluate, the expectation) it agrees
with that to round-off, since numpy then takes a matrix-vector kernel.  The
contraction runs on BLAS too, with other kernels for one sample than for a
batch as well: its upward pass takes one GEMM and one batched matrix-vector
product per tree node, its walk down to the spatial frame one GEMM per step.
So evaluate(y) and a one-point psi_batch agree with the point's batch row to
round-off only: at most 2.6e-14 of the row's largest entry on the
benchmark's highdim-logu surrogate (N=8, L=3), whose transfer tensors hold
entries up to about 1e3 against coefficients of order 1, and under 2e-15 on
its affine ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm

from . import fem
from .colloc import CollocationGrid
from .cross import (DEFAULT_EVAL_BUDGET, DEFAULT_RANK_CAP, ApproxResult,
                    ColumnSource, EvalBudget, approximate_tensor)
from .errors import ABORTS
from .fem import (build_grid, functional_psi, h1_frame, prolongate,
                  prolongation_matrix, solve_at, solve_ladder)
from .fields import CoefficientModel, check_parameters
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
    # the most PCG iterations a fiber's top rung took: 0 at or below
    # fem.DIRECT_MAX_LEVEL, -1 where a fiber's solve fell back to the LU
    pcg_iterations: int = 0
    time_s: float = 0.0
    step1_s: float = 0.0         # wall time of step 1 (column basis) and of
    step2_s: float = 0.0         # step 2 (cross approximation)
    cross_residual: float = float("nan")
    converged: bool = False


class MLSurrogate:
    """Sum over levels of interpolated, compressed level differences.

    Building it maps each level's spatial leaf frame U_l (H1 coordinates) to
    nodal values on the level's own grid, G_l = R_l^-1 U_l, forms the psi row
    G_l^T m_l from the level's mass vector m_l, and contracts the expectation
    coefficients.  So one frame per level serves nodal values, psi and the
    expectation.  A query then evaluates the Lagrange weights of its samples
    once per distinct degree, for all parameters in one call, and contracts
    only the parametric modes, to per-level (M, r_l) coefficients C_l.
    """

    def __init__(self, model: CoefficientModel, n_params: int, plan: LevelPlan,
                 records: list[LevelRecord]):
        self.model = model
        self.n_params = n_params
        self.plan = plan
        self.records = records
        self._spatial = []          # per level: U_l, the (n_l, r_l) frame in H1 coordinates
        self._nodal_frames = []     # per level: G_l, the same frame in nodal values
        self._psi_rows = []         # per level: the (r_l,) vector G_l^T m_l
        for rec in records:
            X = rec.tensor
            U = X.leaf_frames[X.tree.leaf_of_mode[n_params]]
            G = np.asfortranarray(h1_frame(rec.level).from_h1(U))
            self._spatial.append(U)
            self._nodal_frames.append(G)
            self._psi_rows.append(G.T @ fem.mass_vector(rec.level))
        self._mean_coeffs = [
            self._level_coefficients(rec, np.broadcast_to(
                rec.grid.quadrature_weights, (n_params, 1, rec.grid.p + 1)))
            for rec in records]

    @property
    def max_level(self) -> int:
        return self.plan.max_level

    def _level_coefficients(self, rec: LevelRecord, W: np.ndarray) -> np.ndarray:
        """Contract a level tensor's parametric modes with per-sample weights.

        W has shape (N, M, p+1): W[m] holds the weights of mode m; returns
        the (M, r_l) coefficients in the level's spatial frame.
        """
        X = rec.tensor
        rows = {m: W[m] @ X.leaf_frames[X.tree.leaf_of_mode[m]]
                for m in range(self.n_params)}
        return ht_coefficients(X, rows, self.n_params)

    def coefficients(self, Y: np.ndarray) -> list[np.ndarray]:
        """Per level, the (M, r_l) spatial-frame coefficients at samples Y.

        Y has shape (N,) for one sample or (M, N).  Samples must be finite
        and lie in [-1, 1], as fields.evaluate requires: the interpolant does
        not extrapolate.
        """
        Y = np.asarray(Y, dtype=float)
        N = self.n_params
        if Y.ndim not in (1, 2) or Y.shape[-1] != N:
            raise ValueError(f"samples must have shape ({N},) or (M, {N}), "
                             f"got {Y.shape}")
        Y = Y.reshape(-1, N)
        check_parameters(Y)
        # mode m's weights form the contiguous (M, p+1) block W[m]
        flat = Y.T.ravel()
        grids = {rec.grid.p: rec.grid for rec in self.records}
        W = {p: g.lagrange_weights_many(flat).reshape(N, len(Y), p + 1)
             for p, g in grids.items()}
        return [self._level_coefficients(rec, W[rec.grid.p]) for rec in self.records]

    def components_h1(self, Y: np.ndarray) -> list[np.ndarray]:
        """Per level, the H1-coordinate vectors of the level interpolant.

        Y has shape (M, N); each returned array has shape (M, n_level).
        """
        return [C @ U.T for C, U in zip(self.coefficients(Y), self._spatial)]

    def _nodal(self, coeffs: list[np.ndarray]) -> np.ndarray:
        """Top-level nodal values, (M, n_L), from per-level coefficients.

        Horner sum over levels: total <- P_l total + G_l C_l^T.  The sum is
        kept as an (n_l, M) C-ordered array, so its transpose is the
        Fortran-ordered (M, n_l) output that dgemm accumulates C_l G_l^T into
        in place; `total` is rebound to what dgemm returns, which stays right
        should f2py copy.  Returns that transpose, a Fortran-ordered view.
        """
        frames = self._nodal_frames
        total = frames[0] @ coeffs[0].T
        for rec, G, C in zip(self.records[1:], frames[1:], coeffs[1:]):
            total = prolongation_matrix(rec.level) @ total
            # C.T and G are both Fortran-ordered, so f2py passes them uncopied
            if total.size:          # dgemm rejects an empty batch
                total = dgemm(1.0, C.T, G, beta=1.0, c=total.T, trans_a=1,
                              trans_b=1, overwrite_c=1).T
        return total.T

    def _psi(self, coeffs: list[np.ndarray]) -> np.ndarray:
        """psi(u) per sample from per-level coefficients."""
        return sum(C @ q for C, q in zip(coeffs, self._psi_rows))

    def evaluate_batch(self, Y: np.ndarray) -> np.ndarray:
        """Nodal surrogate solutions at the top level, shape (M, n_L)."""
        return self._nodal(self.coefficients(Y))

    def evaluate(self, y) -> np.ndarray:
        """Nodal surrogate solution at one parameter point of shape (N,)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_params,):
            raise ValueError(f"parameter point must have shape ({self.n_params},), "
                             f"got {y.shape}")
        return self.evaluate_batch(y[None, :])[0]

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
    feeds the three-step compression at accuracy eps_l.  A fiber at a level
    l up to fem.DIRECT_MAX_LEVEL takes u_l(y_k) and u_{l-1}(y_k) from
    solve_at, the latter from a memo of level l-1's solves, keyed by the
    parameter point, when it is there.  solves_reused counts these hits;
    they occur where p(l) = p(l-1), as Chebyshev nodes of adjacent degrees
    never coincide, so a level keeps its solves only for a next level of
    its own degree.  A fiber above the cut takes both from one
    fem.solve_ladder(y_k, l) call, the ladder that validation uses too, and
    reuses no solve; pde_solves still counts two solves per fiber.  The
    table in fem's module docstring gives each solver's distance from
    solve_at and the bitwise rules that pin these counts.  Returns
    the surrogate and per-level diagnostics; a budget abort (BudgetError), a
    coefficient that is nonpositive at a collocation point (EllipticityError)
    or a numerical failure (a singular pivot, a non-finite value or a failed
    factorization: NumericalError) is raised with the diagnostics gathered
    so far attached as `partial_diagnostics`.

    `threads` accepts only 1 and does nothing else; the benchmark still
    passes it, and it goes away with the next change to the benchmark.
    """
    if threads != 1:
        raise ValueError("threads must be 1: fibers are evaluated serially")
    if n_params != model.terms:
        raise ValueError(f"n_params = {n_params} differs from model.terms = {model.terms}")
    plan = LevelPlan(L, eps0)
    seeds = np.random.SeedSequence(seed).spawn(L + 1)
    budget = EvalBudget(eval_budget)

    records: list[LevelRecord] = []
    diags: list[LevelDiagnostics] = []
    memo = {}           # y.tobytes() -> solve_at(y, level - 1) of level - 1's fibers
    for level in range(L + 1):
        p = plan.degrees[level]
        eps_l = plan.accuracies[level]
        grid = CollocationGrid(p)
        n_spatial = build_grid(level).n
        diag = LevelDiagnostics(level=level, degree=p, n_spatial=n_spatial,
                                eps_target=eps_l)
        t0 = time.process_time()
        # this level's solves, kept when the next level solves by solve_at too
        # at the same degree: other degrees share no Chebyshev node with p
        keep = level < min(L, fem.DIRECT_MAX_LEVEL) and plan.degrees[level + 1] == p
        memo_next, memo_size = {}, len(memo)
        pcg = []            # per ladder fiber: its top rung's iterations, -1 on a fallback

        def fetch(j):
            y = grid.nodes[list(j)]
            if level > fem.DIRECT_MAX_LEVEL:
                counts = []
                ladder = solve_ladder(y, level, model, counts)
                pcg.append(-1 if min(counts[-2:]) < 0 else counts[-1])
                return fem.delta_h1(ladder[level], ladder[level - 1], level)
            key = y.tobytes()
            u = solve_at(y, level, model)
            if keep:
                memo_next[key] = u
            # a fiber is fetched once, so its memo entry is read at most once
            u_coarse = memo.pop(key, None)
            if level and u_coarse is None:
                u_coarse = solve_at(y, level - 1, model)
            return fem.delta_h1(u, u_coarse, level)

        source = ColumnSource((p + 1,) * n_params, n_spatial, fetch, budget=budget)
        tree = build_tree(n_params + 1, tree_shape)
        rng = np.random.default_rng(seeds[level])
        try:
            result: ApproxResult = approximate_tensor(
                source, tree, eps_l, rng=rng, rank_cap=rank_cap)
        except ABORTS as err:
            err.partial_diagnostics = diags + [diag]    # counted by `finally`
            raise
        finally:
            diag.time_s = time.process_time() - t0
            diag.fibers = source.n_fetched
            diag.pde_solves = source.n_fetched * (1 if level == 0 else 2)
            diag.solves_reused = memo_size - len(memo)      # the entries hits popped
            diag.pcg_iterations = -1 if min(pcg, default=0) < 0 else max(pcg, default=0)
        diag.step1_evals = result.step1_evals
        diag.step2_evals = result.step2_evals
        diag.step1_s, diag.step2_s = result.step1_time, result.step2_time
        diag.cross_residual = result.cross_diag.validation_residual
        diag.converged = result.cross_diag.converged
        rep = storage_and_ranks(result.tensor)
        diag.r_max, diag.r_eff, diag.storage = rep.r_max, rep.r_eff, rep.storage_scalars
        records.append(LevelRecord(level, grid, result.tensor))
        diags.append(diag)
        memo = memo_next
    return MLSurrogate(model, n_params, plan, records), diags


@dataclass
class ErrorMetrics:
    samples: int
    seed: int
    eps_ml_u: float
    eps_ml_psi: float
    eps_level_u: list = field(default_factory=list)
    eps_e_u: float | None = None
    eps_e_psi: float | None = None
    # per level, the most PCG iterations a sample's solve took: 0 where every
    # sample was factorized, -1 where one fell back to the factorization
    pcg_iterations: list = field(default_factory=list)


def error_metrics(surrogate: MLSurrogate, reference: MLSurrogate | None = None,
                  samples: int = 100, seed: int = 0,
                  per_level: bool = True) -> ErrorMetrics:
    """Sampled relative errors of the surrogate in the H1_0 seminorm.

    eps_ml compares the surrogate against direct FE solves at the top level
    over `samples` random parameters; the per-level errors compare each
    compressed level interpolant against the exact level difference at the
    same samples.  With a reference surrogate (same model, higher level) the
    expectation errors are computed at the reference level.

    Each sample's solves u_0(y), ..., u_L(y) come from one fem.solve_ladder
    call, with or without `per_level`, so both report the same eps_ml; the
    table in fem's module docstring gives their distance from solve_at.
    """
    if reference is not None:
        if reference.model != surrogate.model or reference.n_params != surrogate.n_params:
            raise ValueError("reference surrogate was built for a different problem")
        if reference.max_level < surrogate.max_level:
            raise ValueError("reference level must not be below the surrogate level")
    if samples < 1:
        raise ValueError("samples must be at least 1")
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
    counts = []         # per sample, the ladder's iteration count per level
    for i in range(samples):
        counts.append([])
        ladder = solve_ladder(Y[i], L, model, counts[-1])
        u_direct = ladder[L]
        if per_level:
            for lev in range(L + 1):
                z_exact = fem.delta_h1(ladder[lev], ladder[lev - 1], lev)
                z_surr = surrogate._spatial[lev] @ coeffs[lev][i]
                num_level[lev] += float(np.sum((z_surr - z_exact) ** 2))
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
        pcg_iterations=np.where((np.array(counts) < 0).any(axis=0), -1,
                                np.max(counts, axis=0)).tolist(),
    )
    if reference is not None:
        L_ref = reference.max_level
        frame_ref = h1_frame(L_ref)
        e_surr = prolongate(surrogate.expectation(), L, L_ref)
        e_ref = reference.expectation()
        z_ref = frame_ref.to_h1(e_ref)
        metrics.eps_e_u = float(np.linalg.norm(frame_ref.to_h1(e_surr - e_ref))
                                / np.linalg.norm(z_ref))
        psi_ref = reference.expectation_psi()
        metrics.eps_e_psi = float(abs(surrogate.expectation_psi() - psi_ref)
                                  / abs(psi_ref))
    return metrics
