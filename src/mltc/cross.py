"""Black-box low-rank approximation of tensors from an entry oracle.

The target tensor has many small parametric modes and one large trailing
spatial mode, so the approximation runs in three steps: a greedy search for
an orthonormal basis V of the spatial columns (step 1), a hierarchical cross
approximation of the V-projected tensor whose trailing mode has length
rank(V) (step 2), and an exact lift of the spatial leaf frame back through V
(step 3).

Step 2 selects, per dimension-tree node, row and column pivot sets by greedy
partial pivoting along fibers through cross centers; column candidates of a
node are combinations of sibling-mode fibers with the parent's column pivots,
and parent row pivots seed the children's search.  Leaf frames and transfer
tensors of the result are filled with oracle values at pivot-determined
entries only.  A validation pass on random probe crosses decides whether a
tightened re-sweep is needed.

Evaluation accounting: step 1 is counted in spatial fibers (one fiber is one
column, i.e. one collocation-point evaluation of the underlying model) and
step 2 in entries of the reduced tensor.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, PivotError
from .htensor import DimensionTree, HTensor

RCOND_GUARD = 1e-12
DEFAULT_RANK_CAP = 150
DEFAULT_EVAL_BUDGET = 10**7


class EvalBudget:
    """Shared scalar-evaluation budget; fibers charge their full length."""

    def __init__(self, limit=DEFAULT_EVAL_BUDGET):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int):
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetError(
                f"evaluation budget exhausted ({self.used} > {self.limit})")


class EntryOracle:
    """Cached scalar-entry oracle over a product index set.

    Repeated queries hit the cache and do not increment the counter; the
    counter therefore reports distinct evaluated entries.
    """

    def __init__(self, shape, fn, batch_fn=None, budget: EvalBudget | None = None):
        self.shape = tuple(int(s) for s in shape)
        self._fn = fn
        self._batch_fn = batch_fn
        self._cache = {}
        self._max_abs = 0.0
        self._budget = budget

    @property
    def count(self) -> int:
        return len(self._cache)

    @property
    def max_abs(self) -> float:
        return self._max_abs

    def _check(self, idx):
        if len(idx) != len(self.shape):
            raise ValueError("index length mismatch")
        for i, n in zip(idx, self.shape):
            if not 0 <= i < n:
                raise ValueError(f"index {idx} out of range for shape {self.shape}")

    def _store(self, idx, value):
        if not np.isfinite(value):
            raise ArithmeticError(f"oracle returned non-finite value at {idx}")
        self._cache[idx] = value
        self._max_abs = max(self._max_abs, abs(value))
        return value

    def entry(self, idx) -> float:
        idx = tuple(int(i) for i in idx)
        if idx in self._cache:
            return self._cache[idx]
        self._check(idx)
        if self._budget is not None:
            self._budget.charge(1)
        return self._store(idx, float(self._fn(idx)))

    def entries(self, indices) -> np.ndarray:
        indices = [tuple(int(i) for i in idx) for idx in indices]
        missing = list(dict.fromkeys(idx for idx in indices if idx not in self._cache))
        if missing and self._batch_fn is not None:
            for idx in missing:
                self._check(idx)
            if self._budget is not None:
                self._budget.charge(len(missing))
            values = self._batch_fn(missing)
            for idx, v in zip(missing, values):
                self._store(idx, float(v))
        else:
            for idx in missing:
                self.entry(idx)
        return np.array([self._cache[idx] for idx in indices])


class ColumnSource:
    """Cached access to the spatial columns X[j, :] of a fiber-structured tensor.

    `fetch` maps a parametric multi-index to the full spatial fiber.  Each
    distinct fiber is fetched exactly once; `n_fetched` counts them.  A
    `budget` is charged n_spatial per fetched fiber, and one per entry of the
    oracles reduce_oracle derives.
    """

    def __init__(self, param_shape, n_spatial, fetch, budget: EvalBudget | None = None):
        self.param_shape = tuple(int(s) for s in param_shape)
        self.n_spatial = int(n_spatial)
        self._fetch = fetch
        self._cache = {}
        self.budget = budget

    @classmethod
    def from_entry_oracle(cls, oracle: EntryOracle, **kw):
        param_shape, n_spatial = oracle.shape[:-1], oracle.shape[-1]

        def fetch(j):
            return oracle.entries([j + (i,) for i in range(n_spatial)])

        return cls(param_shape, n_spatial, fetch, **kw)

    @property
    def n_fetched(self) -> int:
        return len(self._cache)

    def column(self, j) -> np.ndarray:
        j = tuple(int(i) for i in j)
        if j in self._cache:
            return self._cache[j]
        for i, n in zip(j, self.param_shape):
            if not 0 <= i < n:
                raise ValueError(f"parametric index {j} out of range")
        if self.budget is not None:
            self.budget.charge(self.n_spatial)
        col = np.asarray(self._fetch(j), dtype=float)
        if col.shape != (self.n_spatial,):
            raise ValueError("fiber has wrong length")
        if not np.all(np.isfinite(col)):
            raise ArithmeticError(f"non-finite fiber at {j}")
        self._cache[j] = col
        return col

    def columns(self, js) -> dict:
        js = [tuple(int(i) for i in j) for j in js]
        for j in sorted({j for j in js if j not in self._cache}):
            self.column(j)
        return {j: self._cache[j] for j in js}


# ---------------------------------------------------------------------------
# training sets (unions of crosses)

def cross_indices(shape, center) -> list:
    """All indices differing from `center` in at most one position."""
    out = [tuple(center)]
    seen = {tuple(center)}
    for i, n in enumerate(shape):
        for k in range(n):
            idx = tuple(center[:i]) + (k,) + tuple(center[i + 1:])
            if idx not in seen:
                seen.add(idx)
                out.append(idx)
    return out


@dataclass
class TrainingSet:
    shape: tuple
    indices: list = field(default_factory=list)
    crosses: int = 0

    def _add_cross(self, rng):
        center = tuple(int(rng.integers(n)) for n in self.shape)
        known = set(self.indices)
        for idx in cross_indices(self.shape, center):
            if idx not in known:
                self.indices.append(idx)
                known.add(idx)
        self.crosses += 1

    def enrich(self, s: int, rng) -> None:
        for _ in range(s):
            self._add_cross(rng)


def build_training_set(shape, s: int, rng) -> TrainingSet:
    """Union of s crosses with uniformly random centers."""
    if s < 1:
        raise ValueError("cross count must be at least 1")
    train = TrainingSet(tuple(int(n) for n in shape))
    train.enrich(s, rng)
    return train


# ---------------------------------------------------------------------------
# step 1: greedy spatial column basis

@dataclass
class ColumnBasisDiag:
    loops: int = 0
    columns_fetched: int = 0
    rank: int = 0
    max_col_norm: float = 0.0
    final_residual: float = 0.0
    zero_tensor: bool = False


def greedy_column_basis(source: ColumnSource, train: TrainingSet, eps: float,
                        s_per_loop: int = 3, rng=None, relative: bool = False,
                        max_rank: int | None = None, max_loops: int = 500):
    """Greedy orthonormal basis of the spatial column space.

    Repeatedly picks the trained column with the largest projection residual
    and appends its normalized residual to V, enriching the training set with
    fresh random crosses every loop and reusing all previously fetched
    columns.  With relative=True the termination threshold is
    eps * (largest column norm seen so far), re-evaluated each loop.
    """
    if eps < 0:
        raise ValueError("tolerance must be nonnegative")
    rng = np.random.default_rng() if rng is None else rng
    n = source.n_spatial
    max_rank = n if max_rank is None else min(max_rank, n)
    diag = ColumnBasisDiag()

    start = source.n_fetched
    V = np.zeros((n, 0))
    norms2, proj, res2 = {}, {}, {}

    def admit(js):
        cols = source.columns(js)
        for j, c in cols.items():
            if j in norms2:
                continue
            norms2[j] = float(c @ c)
            proj[j] = V.T @ c
            res2[j] = max(norms2[j] - float(proj[j] @ proj[j]), 0.0)
            diag.max_col_norm = max(diag.max_col_norm, math.sqrt(norms2[j]))

    admit(train.indices)
    while True:
        diag.loops += 1
        if diag.loops > 1:
            before = len(train.indices)
            train.enrich(s_per_loop, rng)
            admit(train.indices[before:])
        threshold = eps * diag.max_col_norm if relative else eps
        appended = False
        while True:
            j_star = max(res2, key=lambda j: res2[j])
            estimate = math.sqrt(res2[j_star])
            diag.final_residual = estimate
            if estimate <= threshold:
                break
            # the incremental estimate suffers cancellation; recompute exactly
            c = source.column(j_star)
            w = c - V @ (V.T @ c)
            w -= V @ (V.T @ w)  # one re-orthogonalization pass
            nrm = float(np.linalg.norm(w))
            res2[j_star] = nrm * nrm
            diag.final_residual = nrm
            if nrm <= threshold:
                continue
            v = w / nrm
            V = np.hstack([V, v[:, None]])
            for j in norms2:
                p = float(v @ source.column(j))
                proj[j] = np.append(proj[j], p)
                res2[j] = max(res2[j] - p * p, 0.0)
            appended = True
            break
        if not appended or V.shape[1] >= max_rank or diag.loops > max_loops:
            break

    if V.shape[1] == 0:
        # numerically zero tensor: canonical unit vector keeps ranks >= 1
        diag.zero_tensor = True
        V = np.zeros((n, 1))
        V[0, 0] = 1.0
    diag.rank = V.shape[1]
    diag.columns_fetched = source.n_fetched - start
    return V, diag


def reduce_oracle(source: ColumnSource, V: np.ndarray) -> EntryOracle:
    """Entry oracle of the V-projected tensor over (param modes, rank(V)).

    Its entries are charged to the source's budget.
    """
    V = np.asarray(V, dtype=float)
    if V.shape[0] != source.n_spatial:
        raise ValueError("basis row count must match the spatial size")
    r = V.shape[1]
    shape = source.param_shape + (r,)

    def fn(idx):
        j, k = idx[:-1], idx[-1]
        return float(V[:, k] @ source.column(j))

    def batch(indices):
        cols = source.columns([idx[:-1] for idx in indices])
        return [float(V[:, idx[-1]] @ cols[idx[:-1]]) for idx in indices]

    return EntryOracle(shape, fn, batch_fn=batch, budget=source.budget)


# ---------------------------------------------------------------------------
# full-pivot LU for the small pivot matrices

class PivotMatrix:
    """r x r pivot block with a full-pivot LU factorization."""

    def __init__(self, M: np.ndarray):
        self.M = np.array(M, dtype=float)
        n = self.M.shape[0]
        A = self.M.copy()
        pr, pc = np.arange(n), np.arange(n)
        for k in range(n):
            sub = np.abs(A[k:, k:])
            i, j = np.unravel_index(np.argmax(sub), sub.shape)
            i += k
            j += k
            A[[k, i], :] = A[[i, k], :]
            pr[[k, i]] = pr[[i, k]]
            A[:, [k, j]] = A[:, [j, k]]
            pc[[k, j]] = pc[[j, k]]
            if A[k, k] != 0.0:
                A[k + 1:, k] /= A[k, k]
                A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
        self._lu, self._pr, self._pc = A, pr, pc

    @property
    def rcond_estimate(self) -> float:
        d = np.abs(np.diag(self._lu))
        if d.size == 0 or d.max() == 0.0:
            return 0.0
        return float(d.min() / d.max())

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve M X = B (B may be a vector or a matrix of columns)."""
        from scipy.linalg import solve_triangular

        if not np.all(np.diag(self._lu) != 0.0):
            raise PivotError("pivot matrix is numerically singular")
        B = np.asarray(B, dtype=float)
        one_d = B.ndim == 1
        Y = B[:, None] if one_d else B
        Z = Y[self._pr, :]
        Z = solve_triangular(self._lu, Z, lower=True, unit_diagonal=True)
        Z = solve_triangular(self._lu, Z, lower=False)
        X = np.empty_like(Z)
        X[self._pc, :] = Z
        return X[:, 0] if one_d else X


# ---------------------------------------------------------------------------
# step 2: hierarchical cross approximation

@dataclass
class NodeDiag:
    modes: tuple
    rank: int
    rows: list
    cols: list
    residual: float


@dataclass
class CrossDiagnostics:
    nodes: list = field(default_factory=list)
    sweeps: int = 0
    entries_evaluated: int = 0
    validation_residual: float = math.inf
    target: float = 0.0
    converged: bool = False
    wall_time: float = 0.0

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["modes", "rank", "row_pivots", "col_pivots", "residual"])
            for nd in self.nodes:
                w.writerow(["+".join(map(str, nd.modes)), nd.rank,
                            ";".join(map(str, nd.rows)), ";".join(map(str, nd.cols)),
                            f"{nd.residual:.6e}"])
            w.writerow([])
            w.writerow(["sweeps", self.sweeps])
            w.writerow(["entries_evaluated", self.entries_evaluated])
            w.writerow(["validation_residual", f"{self.validation_residual:.6e}"])
            w.writerow(["target", f"{self.target:.6e}"])
            w.writerow(["converged", self.converged])
            w.writerow(["wall_time_s", f"{self.wall_time:.3f}"])


class _NodeState:
    def __init__(self, node, modes, comp):
        self.node = node
        self.modes = modes          # sorted mode tuple of the node
        self.comp = comp            # sorted complement
        self.rows = []              # pivot tuples over `modes`
        self.cols = []              # pivot tuples over `comp`
        self.M = np.zeros((0, 0))
        self.pm = None              # PivotMatrix of M
        self.residual = math.inf
        self.zero = False
        self.rejected = set()

    def refresh(self):
        self.pm = PivotMatrix(self.M) if len(self.rows) else None


class _CrossRun:
    """One hierarchical cross approximation over a fixed oracle and tree."""

    def __init__(self, oracle, tree: DimensionTree, eps: float, rng,
                 rank_cap: int, probe_crosses: int, max_sweeps: int,
                 pool_cap: int = 600):
        self.oracle = oracle
        self.tree = tree
        self.shape = oracle.shape
        self.d = len(oracle.shape)
        self.eps = eps
        self.eps_node = eps
        self.rng = rng
        self.rank_cap = rank_cap
        self.probe_crosses = probe_crosses
        self.max_sweeps = max_sweeps
        self.pool_cap = pool_cap
        self.states: dict[int, _NodeState] = {}
        self.hints: list[tuple] = []    # full indices that seed extra candidates
        self.extra_contexts = 0

    # -- index plumbing ----------------------------------------------------

    def full_index(self, modes, row, comp, col) -> tuple:
        idx = [0] * self.d
        for m, v in zip(modes, row):
            idx[m] = v
        for m, v in zip(comp, col):
            idx[m] = v
        return tuple(idx)

    def value(self, modes, row, comp, col) -> float:
        return self.oracle.entry(self.full_index(modes, row, comp, col))

    @staticmethod
    def restrict(source_modes, idx, target_modes) -> tuple:
        pos = {m: i for i, m in enumerate(source_modes)}
        return tuple(idx[pos[m]] for m in target_modes)

    def random_tuple(self, modes) -> tuple:
        return tuple(int(self.rng.integers(self.shape[m])) for m in modes)

    def mode_cross(self, modes, center) -> list:
        sizes = [self.shape[m] for m in modes]
        return cross_indices(sizes, center)

    # -- residuals ---------------------------------------------------------

    def _block(self, modes, rows, comp, cols) -> np.ndarray:
        idx = [self.full_index(modes, r, comp, c) for r in rows for c in cols]
        return self.oracle.entries(idx).reshape(len(rows), len(cols))

    def _residual_block(self, st: _NodeState, rows, cols) -> np.ndarray:
        """Residual of the current skeleton on rows x cols (dense, small)."""
        y = self._block(st.modes, rows, st.comp, cols)
        if not st.rows:
            return y
        U = self._block(st.modes, rows, st.comp, st.cols)
        Vb = self._block(st.modes, st.rows, st.comp, cols)
        return y - U @ st.pm.solve(Vb)

    def residual_over_cols(self, st, row, cols) -> np.ndarray:
        return self._residual_block(st, [row], cols)[0]

    def residual_over_rows(self, st, rows, col) -> np.ndarray:
        return self._residual_block(st, rows, [col])[:, 0]

    # -- candidate pools ----------------------------------------------------

    def node_pools(self, st: _NodeState, parent_state: _NodeState | None,
                   sibling_modes) -> tuple[list, list]:
        """(row candidate centers, column candidate pool) for one node."""
        row_centers = []
        seen = set()

        def add_row(r):
            if r not in seen:
                seen.add(r)
                row_centers.append(r)

        if parent_state is not None:
            for pr in parent_state.rows:
                add_row(self.restrict(parent_state.modes, pr, st.modes))
        for r in st.rows:
            add_row(r)
        for hint in self.hints:
            add_row(self.restrict(range(self.d), hint, st.modes))
        for _ in range(50):
            if len(row_centers) >= 3:
                break
            add_row(self.random_tuple(st.modes))

        contexts = [()] if parent_state is None else list(parent_state.cols)
        for hint in self.hints:
            ctx = self.restrict(range(self.d), hint,
                                parent_state.comp if parent_state else ())
            if ctx not in contexts:
                contexts.append(ctx)
        for _ in range(self.extra_contexts):
            ctx = (self.random_tuple(parent_state.comp) if parent_state is not None
                   else ())
            if ctx not in contexts:
                contexts.append(ctx)

        sib_centers = []
        sseen = set()

        def add_sib(u):
            if u not in sseen:
                sseen.add(u)
                sib_centers.append(u)

        if parent_state is not None:
            for pr in parent_state.rows:
                add_sib(self.restrict(parent_state.modes, pr, sibling_modes))
        for c in st.cols:
            add_sib(self.restrict(st.comp, c, sibling_modes))
        for hint in self.hints:
            add_sib(self.restrict(range(self.d), hint, sibling_modes))
        for _ in range(50):
            if len(sib_centers) >= 2:
                break
            add_sib(self.random_tuple(sibling_modes))

        ctx_modes = parent_state.comp if parent_state is not None else ()
        cols, cseen = [], set()
        for u0 in sib_centers:
            for u in self.mode_cross(sibling_modes, u0):
                for ctx in contexts:
                    col = self.merge_col(st.comp, sibling_modes, u, ctx_modes, ctx)
                    if col not in cseen:
                        cseen.add(col)
                        cols.append(col)
                        if len(cols) >= self.pool_cap:
                            return row_centers, cols
        return row_centers, cols

    @staticmethod
    def merge_col(comp, sib_modes, sib_idx, ctx_modes, ctx_idx) -> tuple:
        vals = {}
        vals.update(zip(sib_modes, sib_idx))
        vals.update(zip(ctx_modes, ctx_idx))
        return tuple(vals[m] for m in comp)

    # -- pivot growth --------------------------------------------------------

    def find_pivot(self, st: _NodeState, row_centers, col_pool):
        best = (None, None, -1.0)
        col_pool = [c for c in col_pool if c not in st.cols]
        if not col_pool:
            return best
        for r0 in row_centers[:3]:
            r = r0
            c = None
            for _ in range(3):
                res = self.residual_over_cols(st, r, col_pool)
                jbest = int(np.argmax(np.abs(res)))
                c = col_pool[jbest]
                row_fiber = [x for x in self.mode_cross(st.modes, r) if x not in st.rows]
                if not row_fiber:
                    break
                resr = self.residual_over_rows(st, row_fiber, c)
                ibest = int(np.argmax(np.abs(resr)))
                r_new = row_fiber[ibest]
                val = abs(resr[ibest])
                if (r_new, c) in st.rejected:
                    break
                if val > best[2]:
                    best = (r_new, c, val)
                if r_new == r:
                    break
                r = r_new
        return best

    def grow_node(self, st: _NodeState, parent_state, sibling_modes, node_cap):
        row_centers, col_pool = self.node_pools(st, parent_state, sibling_modes)
        while True:
            r, c, val = self.find_pivot(st, row_centers, col_pool)
            scale = self.oracle.max_abs
            if r is None or val <= self.eps_node * scale or val == 0.0:
                st.residual = max(val, 0.0)
                break
            if len(st.rows) >= min(node_cap, self.rank_cap):
                st.residual = val
                if node_cap > self.rank_cap:
                    raise BudgetError(
                        f"rank cap {self.rank_cap} reached at node {st.modes} "
                        f"with residual {val:.3e} above target")
                break
            # conditioning guard: reject pivots that degenerate the block
            rows_new, cols_new = st.rows + [r], st.cols + [c]
            M_new = np.array([[self.value(st.modes, rr, st.comp, cc) for cc in cols_new]
                              for rr in rows_new])
            pm_new = PivotMatrix(M_new)
            if pm_new.rcond_estimate < RCOND_GUARD:
                st.rejected.add((r, c))
                if len(st.rejected) > 3 * (len(st.rows) + 1):
                    st.residual = val
                    break
                continue
            st.rows, st.cols, st.M, st.pm = rows_new, cols_new, M_new, pm_new
            st.residual = val
            if r not in row_centers:
                row_centers.append(r)
        if not st.rows:
            # numerically zero block: keep rank one with a unit pivot matrix
            st.zero = True
            st.rows = [row_centers[0]]
            st.cols = [col_pool[0] if col_pool else self.random_tuple(st.comp)]
            st.M = np.eye(1)
            st.refresh()

    # -- sweeps ---------------------------------------------------------------

    def state_for(self, node) -> _NodeState:
        if node.index not in self.states:
            comp = self.tree.complement(node)
            self.states[node.index] = _NodeState(node, tuple(node.modes), comp)
        return self.states[node.index]

    def sweep(self):
        for idx in self.tree.breadth_first():
            node = self.tree.nodes[idx]
            if node.is_leaf:
                continue
            c1, c2 = (self.tree.nodes[i] for i in node.children)
            s1, s2 = self.state_for(c1), self.state_for(c2)
            if node.parent == -1:
                self.grow_node(s1, None, tuple(c2.modes), self.node_rank_cap(c1))
                # the sibling state is the transpose of the same skeleton
                s2.rows = [self.restrict(s1.comp, c, s2.modes) for c in s1.cols]
                s2.cols = [self.restrict(s1.modes, r, s2.comp) for r in s1.rows]
                s2.M = s1.M.T.copy()
                s2.refresh()
                s2.residual = s1.residual
                s2.zero = s1.zero
            else:
                parent = self.state_for(node)
                self.grow_node(s1, parent, tuple(c2.modes), self.node_rank_cap(c1))
                self.grow_node(s2, parent, tuple(c1.modes), self.node_rank_cap(c2))

    def node_rank_cap(self, node) -> int:
        size_t = 1
        for m in node.modes:
            size_t = min(size_t * self.shape[m], self.rank_cap + 1)
        comp = self.tree.complement(node)
        size_c = 1
        for m in comp:
            size_c = min(size_c * self.shape[m], self.rank_cap + 1)
        return min(size_t, size_c, self.rank_cap + 1)

    # -- assembly ---------------------------------------------------------------

    def assemble(self) -> HTensor:
        leaf_frames, transfers = {}, {}
        for node in self.tree.leaves():
            st = self.states[node.index]
            m = node.modes[0]
            n = self.shape[m]
            U = np.empty((n, len(st.cols)))
            for b, c in enumerate(st.cols):
                for j in range(n):
                    U[j, b] = self.value((m,), (j,), st.comp, c)
            if st.zero:
                U = np.zeros_like(U)
            leaf_frames[node.index] = U
        for node in self.tree.internal_nodes():
            c1, c2 = (self.tree.nodes[i] for i in node.children)
            s1, s2 = self.states[c1.index], self.states[c2.index]
            if node.parent == -1:
                ctx_modes, contexts = (), [()]
            else:
                st = self.states[node.index]
                ctx_modes, contexts = st.comp, st.cols
            B = np.empty((len(contexts), len(s1.rows), len(s2.rows)))
            for s, ctx in enumerate(contexts):
                W = np.empty((len(s1.rows), len(s2.rows)))
                for a1, r1 in enumerate(s1.rows):
                    for a2, r2 in enumerate(s2.rows):
                        other = self.merge_col(s1.comp, tuple(c2.modes), r2,
                                               ctx_modes, ctx)
                        W[a1, a2] = self.value(s1.modes, r1, s1.comp, other)
                W = s1.pm.solve(W)
                W = s2.pm.solve(W.T).T
                B[s] = W
            if node.parent != -1 and self.states[node.index].zero:
                B = np.zeros_like(B)
            transfers[node.index] = B
        return HTensor(self.tree, self.shape, leaf_frames, transfers)

    # -- validation ---------------------------------------------------------------

    def probe_indices(self) -> list:
        out, seen = [], set()
        for _ in range(self.probe_crosses):
            center = self.random_tuple(range(self.d))
            for idx in cross_indices(self.shape, center):
                if idx not in seen:
                    seen.add(idx)
                    out.append(idx)
        return out

    def validate(self, X: HTensor):
        from .htensor import ht_entries

        probes = self.probe_indices()
        exact = self.oracle.entries(probes)
        approx = ht_entries(X, np.array(probes))
        denom = np.linalg.norm(exact)
        if denom == 0.0:
            scale = self.oracle.max_abs
            err = np.linalg.norm(approx) / scale if scale > 0 else 0.0
            return err, probes, exact - approx
        return float(np.linalg.norm(exact - approx) / denom), probes, exact - approx

    # -- driver ---------------------------------------------------------------

    def run(self):
        t0 = time.perf_counter()
        diag = CrossDiagnostics(target=self.eps)
        start_count = self.oracle.count
        self.eps_node = self.eps
        X = None
        for sweep in range(1, self.max_sweeps + 1):
            diag.sweeps = sweep
            self.sweep()
            X = self.assemble()
            err, probes, gap = self.validate(X)
            diag.validation_residual = err
            if err <= max(self.eps, 1e-14):
                diag.converged = True
                break
            # tighten and seed the next sweep with the worst probes
            self.eps_node *= 0.25
            self.extra_contexts += 1
            worst = np.argsort(-np.abs(gap))[:3]
            self.hints = [probes[i] for i in worst]
        for idx in sorted(self.states):
            st = self.states[idx]
            diag.nodes.append(NodeDiag(st.modes, len(st.rows), list(st.rows),
                                       list(st.cols), st.residual))
        diag.entries_evaluated = self.oracle.count - start_count
        diag.wall_time = time.perf_counter() - t0
        return X, diag


def hier_cross(oracle, tree: DimensionTree, eps_ten: float, *, rng=None,
               rank_cap: int = DEFAULT_RANK_CAP, probe_crosses: int = 3,
               max_sweeps: int = 4):
    """Adaptive cross approximation of an entry oracle in hierarchical form.

    Ranks per node grow until the sampled residual estimate drops below
    eps_ten relative to the running entry scale; the assembled tensor is
    validated on random probe crosses and re-swept with tighter per-node
    tolerances when validation fails.
    """
    if eps_ten < 0:
        raise ValueError("tensor tolerance must be nonnegative")
    if len(oracle.shape) != tree.order:
        raise ValueError("oracle order must match the tree")
    rng = np.random.default_rng() if rng is None else rng

    if tree.order == 1:
        vec = oracle.entries([(i,) for i in range(oracle.shape[0])])
        X = HTensor(tree, oracle.shape, {tree.root: np.asarray(vec)[:, None]}, {})
        diag = CrossDiagnostics(target=eps_ten, converged=True, sweeps=1,
                                entries_evaluated=oracle.count)
        diag.nodes.append(NodeDiag((0,), 1, [], [], 0.0))
        return X, diag

    run = _CrossRun(oracle, tree, eps_ten, rng, rank_cap, probe_crosses, max_sweeps)
    return run.run()


def lift_spatial(Y: HTensor, V: np.ndarray, mode: int | None = None) -> HTensor:
    """Replace the trailing-mode leaf frame U by V @ U (exact lift)."""
    V = np.asarray(V, dtype=float)
    mode = Y.order - 1 if mode is None else mode
    leaf = Y.tree.leaf_of_mode[mode]
    U = Y.leaf_frames[leaf]
    if U.shape[0] != V.shape[1]:
        raise ValueError(f"cannot lift: frame has {U.shape[0]} rows, "
                         f"basis has {V.shape[1]} columns")
    frames = dict(Y.leaf_frames)
    frames[leaf] = V @ U
    sizes = list(Y.mode_sizes)
    sizes[mode] = V.shape[0]
    return HTensor(Y.tree, sizes, frames, dict(Y.transfers))


# ---------------------------------------------------------------------------
# the three-step pipeline

@dataclass
class ApproxResult:
    tensor: HTensor
    step1_evals: int      # spatial fibers fetched in step 1 (collocation points)
    step2_evals: int      # reduced-tensor entries evaluated in step 2
    step2_fibers: int     # additional fibers fetched during step 2
    basis_rank: int
    step1_diag: ColumnBasisDiag
    cross_diag: CrossDiagnostics
    step1_time: float = 0.0
    step2_time: float = 0.0


def approximate_tensor(source: ColumnSource, tree: DimensionTree, eps_rel: float,
                       *, rng=None, s_init: int = 3, s_per_loop: int = 3,
                       rank_cap: int = DEFAULT_RANK_CAP, probe_crosses: int = 3,
                       max_sweeps: int = 4) -> ApproxResult:
    """Run the three-step pipeline against a fiber-structured oracle.

    Step 1 uses an absolute tolerance derived from eps_rel and the running
    dominant column norm; step 2 targets eps_rel relative accuracy; step 3
    lifts the result back to the full spatial dimension without further
    approximation.
    """
    if eps_rel <= 0:
        raise ValueError("relative accuracy must be positive")
    rng = np.random.default_rng() if rng is None else rng

    t0 = time.perf_counter()
    train = build_training_set(source.param_shape, s_init, rng)
    V, s1diag = greedy_column_basis(source, train, eps_rel, s_per_loop=s_per_loop,
                                    rng=rng, relative=True, max_rank=rank_cap)
    t1 = time.perf_counter()

    fibers_after_step1 = source.n_fetched
    reduced = reduce_oracle(source, V)
    Yt, cdiag = hier_cross(reduced, tree, eps_rel, rng=rng, rank_cap=rank_cap,
                           probe_crosses=probe_crosses, max_sweeps=max_sweeps)
    t2 = time.perf_counter()

    X = lift_spatial(Yt, V)
    return ApproxResult(
        tensor=X,
        step1_evals=s1diag.columns_fetched,
        step2_evals=reduced.count,
        step2_fibers=source.n_fetched - fibers_after_step1,
        basis_rank=V.shape[1],
        step1_diag=s1diag,
        cross_diag=cdiag,
        step1_time=t1 - t0,
        step2_time=t2 - t1,
    )
