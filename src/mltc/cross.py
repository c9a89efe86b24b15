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
tightened re-sweep is needed.  A node keeps its pivot skeleton (pivot rows,
pivot columns and their block) and no trace; CrossDiagnostics holds the sweep
count, the last validation residual and whether it met the target.  Residual
products U @ pm.solve(B) keep their operand shapes (the bitwise rule), so a
pivot search solves its skeleton-rows x pool block once and shares it, while
each row-fiber residual keeps its own one-column solve.

Oracle contract: an EntryOracle's `fn` takes an (m, d) int array of distinct,
not yet cached multi-indices and returns their m values.  Step 2 reads the
tensor only in blocks, one `entries` call per block, and the cache is keyed
by the flat C-order index of each multi-index.

Evaluation accounting: step 1 is counted in spatial fibers (one fiber is one
column, i.e. one collocation-point evaluation of the underlying model) and
step 2 in entries of the reduced tensor.

The caller tunes only the accuracy, the rank cap and the rng.  The loop
constants are fixed by the method, and the golden counts and the acceptance
suite depend on them: S_INIT and S_PER_LOOP (random crosses in step 1's first
training set and per further loop), MAX_LOOPS (step 1's loop limit),
PROBE_CROSSES (random crosses per step-2 validation), MAX_SWEEPS (step-2
sweeps before a tensor is returned unconverged) and POOL_CAP (column
candidates per node in step 2).  Functions read them at call time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, PivotError
from .htensor import DimensionTree, HTensor

RCOND_GUARD = 1e-12     # pivot blocks with a smaller rcond estimate are rejected
S_INIT = 3              # random crosses in step 1's first training set
S_PER_LOOP = 3          # random crosses step 1 adds per further loop
MAX_LOOPS = 500         # step-1 loops before the basis is returned as it is
PROBE_CROSSES = 3       # random crosses in each step-2 validation
MAX_SWEEPS = 4          # step-2 sweeps before the tensor is returned unconverged
POOL_CAP = 600          # column candidates per node in a step-2 pivot search
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
    """Cached entry oracle over a product index set.

    `fn` maps an (m, d) int array of distinct, not yet cached multi-indices
    to m values.  The cache is keyed by the flat C-order index, so repeated
    queries do not reach `fn` and `count` reports distinct evaluated entries.
    """

    def __init__(self, shape, fn, budget: EvalBudget | None = None):
        self.shape = tuple(int(s) for s in shape)
        self._fn = fn
        self._cache = {}
        self._max_abs = 0.0
        self._budget = budget

    @property
    def count(self) -> int:
        return len(self._cache)

    @property
    def max_abs(self) -> float:
        return self._max_abs

    def entries(self, indices) -> np.ndarray:
        """Values at the rows of an (m, d) index array (or a list of d-tuples)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.shape == (0,):
            idx = idx.reshape(0, len(self.shape))
        if idx.ndim != 2:
            raise ValueError("indices must form an (m, d) array")
        keys = np.ravel_multi_index(tuple(idx.T), self.shape).tolist()
        cache = self._cache
        first = {}          # flat index of each miss -> its first row in idx
        for i, k in enumerate(keys):
            if k not in cache and k not in first:
                first[k] = i
        if first:
            if self._budget is not None:
                self._budget.charge(len(first))
            values = np.asarray(self._fn(idx[list(first.values())]), dtype=float)
            if values.shape != (len(first),):
                raise ValueError("oracle returned the wrong number of values")
            if not np.all(np.isfinite(values)):
                raise ArithmeticError("oracle returned a non-finite value")
            cache.update(zip(first, values.tolist()))
            self._max_abs = max(self._max_abs, float(np.abs(values).max()))
        return np.fromiter(map(cache.__getitem__, keys), dtype=float, count=len(keys))


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
            idx = np.empty((n_spatial, len(j) + 1), dtype=np.intp)
            idx[:, :-1] = j
            idx[:, -1] = np.arange(n_spatial)
            return oracle.entries(idx)

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

    def enrich(self, s: int, rng) -> None:
        """Add s crosses with uniformly random centers."""
        known = set(self.indices)
        for _ in range(s):
            center = tuple(int(rng.integers(n)) for n in self.shape)
            for idx in cross_indices(self.shape, center):
                if idx not in known:
                    self.indices.append(idx)
                    known.add(idx)


def build_training_set(shape, s: int, rng) -> TrainingSet:
    """Union of s crosses with uniformly random centers."""
    if s < 1:
        raise ValueError("cross count must be at least 1")
    train = TrainingSet(tuple(int(n) for n in shape))
    train.enrich(s, rng)
    return train


# ---------------------------------------------------------------------------
# step 1: greedy spatial column basis

def greedy_column_basis(source: ColumnSource, train: TrainingSet, eps: float,
                        rng=None, max_rank: int | None = None) -> np.ndarray:
    """Greedy orthonormal basis V of the spatial column space.

    Repeatedly picks the trained column with the largest projection residual
    and appends its normalized residual to V, enriching the training set with
    fresh random crosses every loop and reusing all previously fetched
    columns.  The termination threshold is eps * (largest column norm seen so
    far), re-evaluated each loop.
    """
    if eps < 0:
        raise ValueError("tolerance must be nonnegative")
    rng = np.random.default_rng() if rng is None else rng
    n = source.n_spatial
    max_rank = n if max_rank is None else min(max_rank, n)
    V = np.zeros((n, 0))
    norms2, res2 = {}, {}

    def admit(js):
        cols = source.columns(js)
        for j, c in cols.items():
            if j in norms2:
                continue
            norms2[j] = float(c @ c)
            p = V.T @ c
            res2[j] = max(norms2[j] - float(p @ p), 0.0)

    admit(train.indices)
    loops = 0
    while True:
        loops += 1
        if loops > 1:
            before = len(train.indices)
            train.enrich(S_PER_LOOP, rng)
            admit(train.indices[before:])
        threshold = eps * math.sqrt(max(norms2.values()))
        appended = False
        while True:
            j_star = max(res2, key=lambda j: res2[j])
            estimate = math.sqrt(res2[j_star])
            if estimate <= threshold:
                break
            # the incremental estimate suffers cancellation; recompute exactly
            c = source.column(j_star)
            w = c - V @ (V.T @ c)
            w -= V @ (V.T @ w)  # one re-orthogonalization pass
            nrm = float(np.linalg.norm(w))
            res2[j_star] = nrm * nrm
            if nrm <= threshold:
                continue
            v = w / nrm
            V = np.hstack([V, v[:, None]])
            for j in norms2:
                p = float(v @ source.column(j))
                res2[j] = max(res2[j] - p * p, 0.0)
            appended = True
            break
        if not appended or V.shape[1] >= max_rank or loops > MAX_LOOPS:
            break

    if V.shape[1] == 0:
        # numerically zero tensor: canonical unit vector keeps ranks >= 1
        V = np.zeros((n, 1))
        V[0, 0] = 1.0
    return V


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
        js = list(map(tuple, idx[:, :-1].tolist()))
        cols = source.columns(js)
        return [float(V[:, k] @ cols[j]) for j, k in zip(js, idx[:, -1].tolist())]

    return EntryOracle(shape, fn, budget=source.budget)


# ---------------------------------------------------------------------------
# full-pivot LU for the small pivot matrices

class PivotMatrix:
    """r x r pivot block with a full-pivot LU factorization."""

    def __init__(self, M: np.ndarray):
        A = np.array(M, dtype=float)
        n = A.shape[0]
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
        """Solve M X = B for a matrix B of columns."""
        from scipy.linalg import solve_triangular

        if not np.all(np.diag(self._lu) != 0.0):
            raise PivotError("pivot matrix is numerically singular")
        Z = np.asarray(B, dtype=float)[self._pr, :]
        Z = solve_triangular(self._lu, Z, lower=True, unit_diagonal=True)
        Z = solve_triangular(self._lu, Z, lower=False)
        X = np.empty_like(Z)
        X[self._pc, :] = Z
        return X


# ---------------------------------------------------------------------------
# step 2: hierarchical cross approximation

@dataclass
class CrossDiagnostics:
    sweeps: int = 0
    validation_residual: float = math.inf
    converged: bool = False


class _NodeState:
    def __init__(self, modes, comp):
        self.modes = modes          # sorted mode tuple of the node
        self.comp = comp            # sorted complement
        self.rows = []              # pivot tuples over `modes`
        self.cols = []              # pivot tuples over `comp`
        self.M = np.zeros((0, 0))
        self.pm = None              # PivotMatrix of M
        self.zero = False
        self.rejected = set()

    def refresh(self):
        self.pm = PivotMatrix(self.M) if len(self.rows) else None


class _CrossRun:
    """One hierarchical cross approximation over a fixed oracle and tree."""

    def __init__(self, oracle, tree: DimensionTree, eps: float, rng, rank_cap: int):
        self.oracle = oracle
        self.tree = tree
        self.shape = oracle.shape
        self.d = len(oracle.shape)
        self.eps = eps
        self.rng = rng
        self.rank_cap = rank_cap
        self.states: dict[int, _NodeState] = {}
        self.hints: list[tuple] = []    # full indices that seed extra candidates
        self.extra_contexts = 0

    # -- index plumbing ----------------------------------------------------

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
        """Oracle values at (row over `modes`, col over `comp`), rows x cols."""
        nr, nc = len(rows), len(cols)
        idx = np.zeros((nr, nc, self.d), dtype=np.intp)
        idx[:, :, list(modes)] = np.asarray(rows).reshape(nr, 1, len(modes))
        idx[:, :, list(comp)] = np.asarray(cols).reshape(1, nc, len(comp))
        return self.oracle.entries(idx.reshape(-1, self.d)).reshape(nr, nc)

    def _residual_block(self, st: _NodeState, rows, cols) -> np.ndarray:
        """Residual of the current skeleton on rows x cols (dense, small)."""
        y = self._block(st.modes, rows, st.comp, cols)
        if not st.rows:
            return y
        U = self._block(st.modes, rows, st.comp, st.cols)
        Vb = self._block(st.modes, st.rows, st.comp, cols)
        return y - U @ st.pm.solve(Vb)

    # -- candidate pools ----------------------------------------------------

    def node_pools(self, st: _NodeState, parent_state: _NodeState | None,
                   sibling_modes) -> tuple[list, list]:
        """(row candidate centers, column candidate pool) for one node.

        Candidates keep their first-seen order; dicts serve as ordered sets.
        """
        everything = range(self.d)
        p_modes, p_rows, ctx_modes, contexts = (), [], (), {(): None}
        if parent_state is not None:
            p_modes, p_rows = parent_state.modes, parent_state.rows
            ctx_modes, contexts = parent_state.comp, dict.fromkeys(parent_state.cols)

        rows = dict.fromkeys([self.restrict(p_modes, r, st.modes) for r in p_rows] + st.rows
                             + [self.restrict(everything, h, st.modes) for h in self.hints])
        for _ in range(50):
            if len(rows) >= 3:
                break
            rows.setdefault(self.random_tuple(st.modes))

        contexts.update(dict.fromkeys(self.restrict(everything, h, ctx_modes)
                                      for h in self.hints))
        for _ in range(self.extra_contexts):
            contexts.setdefault(self.random_tuple(ctx_modes))

        sibs = dict.fromkeys([self.restrict(p_modes, r, sibling_modes) for r in p_rows]
                             + [self.restrict(st.comp, c, sibling_modes) for c in st.cols]
                             + [self.restrict(everything, h, sibling_modes)
                                for h in self.hints])
        for _ in range(50):
            if len(sibs) >= 2:
                break
            sibs.setdefault(self.random_tuple(sibling_modes))

        cols = {}
        for u0 in sibs:
            for u in self.mode_cross(sibling_modes, u0):
                for ctx in contexts:
                    col = self.merge_col(st.comp, sibling_modes, u, ctx_modes, ctx)
                    cols.setdefault(col)
                    if len(cols) >= POOL_CAP:
                        return list(rows), list(cols)
        return list(rows), list(cols)

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
        W = None
        for r in row_centers[:3]:
            for _ in range(3):
                res = self._block(st.modes, [r], st.comp, col_pool)
                if st.rows:
                    U = self._block(st.modes, [r], st.comp, st.cols)
                    if W is None:
                        # solved once per search, after the first row's blocks (same
                        # oracle order); W spans the pool so U @ W keeps its shapes
                        W = st.pm.solve(self._block(st.modes, st.rows, st.comp, col_pool))
                    res = res - U @ W
                res = res[0]
                jbest = int(np.argmax(np.abs(res)))
                c = col_pool[jbest]
                row_fiber = [x for x in self.mode_cross(st.modes, r) if x not in st.rows]
                if not row_fiber:
                    break
                resr = self._residual_block(st, row_fiber, [c])[:, 0]
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
                break
            if len(st.rows) >= min(node_cap, self.rank_cap):
                if node_cap > self.rank_cap:
                    raise BudgetError(
                        f"rank cap {self.rank_cap} reached at node {st.modes} "
                        f"with residual {val:.3e} above target")
                break
            # conditioning guard: reject pivots that degenerate the block
            rows_new, cols_new = st.rows + [r], st.cols + [c]
            M_new = self._block(st.modes, rows_new, st.comp, cols_new)
            pm_new = PivotMatrix(M_new)
            if pm_new.rcond_estimate < RCOND_GUARD:
                st.rejected.add((r, c))
                if len(st.rejected) > 3 * (len(st.rows) + 1):
                    break
                continue
            st.rows, st.cols, st.M, st.pm = rows_new, cols_new, M_new, pm_new
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
            self.states[node.index] = _NodeState(tuple(node.modes), comp)
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
            U = self._block((m,), [(j,) for j in range(self.shape[m])], st.comp, st.cols)
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
                others = [self.merge_col(s1.comp, tuple(c2.modes), r2, ctx_modes, ctx)
                          for r2 in s2.rows]
                W = s1.pm.solve(self._block(s1.modes, s1.rows, s1.comp, others))
                W = s2.pm.solve(W.T).T
                B[s] = W
            if node.parent != -1 and self.states[node.index].zero:
                B = np.zeros_like(B)
            transfers[node.index] = B
        return HTensor(self.tree, self.shape, leaf_frames, transfers)

    # -- validation ---------------------------------------------------------------

    def validate(self, X: HTensor):
        from .htensor import ht_entries

        probes = build_training_set(self.shape, PROBE_CROSSES, self.rng).indices
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
        diag = CrossDiagnostics()
        self.eps_node = self.eps
        X = None
        for sweep in range(1, MAX_SWEEPS + 1):
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
        return X, diag


def hier_cross(oracle, tree: DimensionTree, eps_ten: float, *, rng=None,
               rank_cap: int = DEFAULT_RANK_CAP):
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
    if tree.order < 2:
        raise ValueError("cross approximation needs a tree of order at least 2")
    rng = np.random.default_rng() if rng is None else rng
    return _CrossRun(oracle, tree, eps_ten, rng, rank_cap).run()


def lift_spatial(Y: HTensor, V: np.ndarray) -> HTensor:
    """Replace the trailing-mode leaf frame U by V @ U (exact lift)."""
    V = np.asarray(V, dtype=float)
    mode = Y.order - 1
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
    cross_diag: CrossDiagnostics
    step1_time: float = 0.0
    step2_time: float = 0.0


def approximate_tensor(source: ColumnSource, tree: DimensionTree, eps_rel: float,
                       *, rng=None, rank_cap: int = DEFAULT_RANK_CAP) -> ApproxResult:
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
    fetched = source.n_fetched
    train = build_training_set(source.param_shape, S_INIT, rng)
    V = greedy_column_basis(source, train, eps_rel, rng=rng, max_rank=rank_cap)
    step1_evals = source.n_fetched - fetched
    t1 = time.perf_counter()

    reduced = reduce_oracle(source, V)
    Yt, cdiag = hier_cross(reduced, tree, eps_rel, rng=rng, rank_cap=rank_cap)
    t2 = time.perf_counter()

    X = lift_spatial(Yt, V)
    return ApproxResult(
        tensor=X,
        step1_evals=step1_evals,
        step2_evals=reduced.count,
        cross_diag=cdiag,
        step1_time=t1 - t0,
        step2_time=t2 - t1,
    )
