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
tensors are filled with oracle values at pivot-determined entries only.  A
validation pass on random probe crosses decides whether a tightened re-sweep
is needed.  A node keeps only its pivot skeleton; CrossDiagnostics holds the
sweep count, the last validation residual and whether it met the target.
Every node has a _NodeState, the root included: its pivot columns are the
single empty context, so its children's pools are built like any other's.

Step 2 works on index arrays: pivots, row centers and column pools are
(k, |modes|) intp arrays over a node's modes or its complement, compared by
their keys row @ strides[modes] (the tensor's C-order strides).  A row key
plus a column key is the entry's flat C-order index, so a block's keys are one
broadcast sum and the oracle is read by `lookup`, one call per block.  The
counts and level tensors depend on these bitwise rules: candidates keep their
first-seen order; the random draws, all made by `random_index` (training and
probe crosses through `add_crosses`, row, context and sibling draws in
`_CrossRun.distinct`), and the oracle's calls keep their order and number;
residual products U @ pm.solve(B) keep their operand shapes (a pivot search
solves its skeleton-rows x pool block once, each row-fiber residual its own
column); and PivotMatrix.solve makes the LAPACK calls solve_triangular
makes for a C-ordered factor, dtrtrs(lu.T, Z, lower=0, trans=1, unitdiag=1)
then dtrtrs(lu.T, Z, lower=1, trans=1).  The plain dtrtrs(lu, Z, lower=1,
unitdiag=1) rounds differently.

Oracle contract: an EntryOracle's `fn` takes an (m, d) int array of distinct,
not yet cached multi-indices in first-seen order and returns their m values.
Step 1 is counted in spatial fibers (model evaluations), step 2 in entries.

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
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs

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
        self.max_abs = 0.0      # largest |value| evaluated so far
        self._budget = budget

    @property
    def count(self) -> int:
        return len(self._cache)

    def entries(self, indices) -> np.ndarray:
        """Values at the rows of an (m, d) index array (or a list of d-tuples)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.shape == (0,):
            idx = idx.reshape(0, len(self.shape))
        if idx.ndim != 2:
            raise ValueError("indices must form an (m, d) array")
        return self.lookup(np.ravel_multi_index(tuple(idx.T), self.shape))

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Values at an int array of in-range flat C-order keys, in its shape."""
        flat = keys.ravel().tolist()
        cache = self._cache
        misses = list(dict.fromkeys([k for k in flat if k not in cache]))
        if misses:
            if self._budget is not None:
                self._budget.charge(len(misses))
            idx = np.stack(np.unravel_index(misses, self.shape), axis=1)
            values = np.asarray(self._fn(idx), dtype=float)
            if values.shape != (len(misses),):
                raise ValueError("oracle returned the wrong number of values")
            if not np.all(np.isfinite(values)):
                raise ArithmeticError("oracle returned a non-finite value")
            cache.update(zip(misses, values.tolist()))
            self.max_abs = max(self.max_abs, float(np.abs(values).max()))
        return np.fromiter(map(cache.__getitem__, flat), dtype=float,
                           count=len(flat)).reshape(keys.shape)


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
        if len(j) != len(self.param_shape):
            raise ValueError(f"parametric index {j} must have length {len(self.param_shape)}")
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

    def columns(self, js) -> list:
        """Fibers at the rows of an (m, N) int array (or a list of N-tuples), in
        row order; each miss is one `column` call, in ascending multi-index
        (flat C-order) order."""
        keys = list(map(tuple, np.asarray(js).tolist()))
        cache = self._cache
        for j in sorted({j for j in keys if j not in cache}):
            self.column(j)
        return [cache[j] for j in keys]


# ---------------------------------------------------------------------------
# training sets (unions of crosses)

def cross_array(shape, center) -> np.ndarray:
    """All indices differing from `center` in at most one position, as rows:
    the center, then per position its other values in ascending order."""
    center = np.asarray(center, dtype=np.intp)
    sizes = np.asarray(shape, dtype=np.intp)
    pos = np.repeat(np.arange(len(sizes)), sizes)
    val = np.arange(len(pos)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keep = val != center[pos]
    out = np.repeat(center[None, :], np.count_nonzero(keep) + 1, axis=0)
    out[np.arange(1, len(out)), pos[keep]] = val[keep]
    return out


def random_index(rng, sizes) -> tuple:
    """A uniformly random multi-index over `sizes`, drawn position by position
    with one integer draw each.  Every random draw of steps 1 and 2 is made here."""
    return tuple(int(rng.integers(n)) for n in sizes)


def add_crosses(shape, held, s: int, rng) -> np.ndarray:
    """The (m, d) intp rows of `held`, then s crosses with uniformly random
    centers, each index once in first-seen order (held rows keep their places)."""
    if s < 1:
        raise ValueError("cross count must be at least 1")
    rows = np.concatenate([held] + [cross_array(shape, random_index(rng, shape))
                                    for _ in range(s)])
    keys = np.ravel_multi_index(tuple(rows.T), shape)
    _, first = np.unique(keys, return_index=True)
    return rows[np.sort(first)]


# ---------------------------------------------------------------------------
# step 1: greedy spatial column basis

def greedy_column_basis(source: ColumnSource, train: np.ndarray, eps: float,
                        rng, max_rank: int | None = None) -> np.ndarray:
    """Greedy orthonormal basis V of the spatial column space.

    Repeatedly picks the trained column with the largest projection residual
    and appends its normalized residual to V, adding fresh random crosses to
    the (m, N) training index array every loop (add_crosses returns a new
    array; the caller's is not written) and reusing all previously fetched
    columns.  The termination threshold is eps * (largest column norm seen so
    far), re-evaluated each loop.
    """
    if not eps >= 0:
        raise ValueError("tolerance must be nonnegative")
    n = source.n_spatial
    max_rank = n if max_rank is None else min(max_rank, n)
    V = np.zeros((n, 0))
    cols, norms2, res2 = [], [], []     # per trained column: c, |c|^2, |c - V V^T c|^2

    def admit(js):
        for c in source.columns(js):
            cols.append(c)
            norms2.append(float(c @ c))
            p = V.T @ c
            res2.append(max(norms2[-1] - float(p @ p), 0.0))

    admit(train)
    loops = 0
    while True:
        loops += 1
        if loops > 1:
            before = len(train)
            train = add_crosses(source.param_shape, train, S_PER_LOOP, rng)
            admit(train[before:])
        threshold = eps * math.sqrt(max(norms2))
        appended = False
        while True:
            j_star = max(range(len(res2)), key=res2.__getitem__)
            estimate = math.sqrt(res2[j_star])
            if estimate <= threshold:
                break
            # the incremental estimate suffers cancellation; recompute exactly
            c = cols[j_star]
            w = c - V @ (V.T @ c)
            w -= V @ (V.T @ w)  # one re-orthogonalization pass
            nrm = float(np.linalg.norm(w))
            res2[j_star] = nrm * nrm
            if nrm <= threshold:
                continue
            v = w / nrm
            V = np.hstack([V, v[:, None]])
            for j, c in enumerate(cols):
                p = float(v @ c)
                res2[j] = max(res2[j] - p * p, 0.0)
            appended = True
            break
        if not appended or V.shape[1] >= max_rank or loops > MAX_LOOPS:
            break

    if V.shape[1] == 0:
        # numerically zero tensor: canonical unit vector keeps ranks >= 1
        V = np.eye(n, 1)
    return V


def reduce_oracle(source: ColumnSource, V: np.ndarray) -> EntryOracle:
    """Entry oracle of the V-projected tensor over (param modes, rank(V)).

    Its entries are charged to the source's budget.
    """
    V = np.asarray(V, dtype=float)
    if V.shape[0] != source.n_spatial:
        raise ValueError("basis row count must match the spatial size")
    shape = source.param_shape + (V.shape[1],)

    def fn(idx):
        cols = source.columns(idx[:, :-1])
        return [float(V[:, k] @ c) for c, k in zip(cols, idx[:, -1].tolist())]

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
            i, j = i + k, j + k
            A[[k, i], :] = A[[i, k], :]
            pr[[k, i]] = pr[[i, k]]
            A[:, [k, j]] = A[:, [j, k]]
            pc[[k, j]] = pc[[j, k]]
            if A[k, k] != 0.0:
                A[k + 1:, k] /= A[k, k]
                A[k + 1:, k + 1:] -= np.outer(A[k + 1:, k], A[k, k + 1:])
        self._lu, self._pr, self._pc = A, pr, pc
        self._singular = not np.all(np.diag(A) != 0.0)

    @property
    def rcond_estimate(self) -> float:
        d = np.abs(np.diag(self._lu))
        if d.size == 0 or d.max() == 0.0:
            return 0.0
        return float(d.min() / d.max())

    def solve(self, B: np.ndarray) -> np.ndarray:
        """Solve M X = B for a matrix B of columns (see the module docstring)."""
        if self._singular:
            raise PivotError("pivot matrix is numerically singular")
        Z = np.asarray(B, dtype=float)[self._pr, :]
        Z, info = dtrtrs(self._lu.T, Z, lower=0, trans=1, unitdiag=1)
        if info == 0:
            Z, info = dtrtrs(self._lu.T, Z, lower=1, trans=1)
        if info != 0:
            raise PivotError(f"triangular solve failed (dtrtrs info {info})")
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


def _drop_known(idx, stride, known) -> np.ndarray:
    """The rows of `idx`, in order, whose key row @ stride no row of `known` has."""
    keys = set((known @ stride).tolist())
    return idx[[k not in keys for k in (idx @ stride).tolist()]]


class _NodeState:
    def __init__(self, modes, comp, strides):
        self.modes = modes          # sorted mode tuple of the node
        self.comp = comp            # sorted complement
        self.rstride = strides[list(modes)]     # row key = row @ rstride
        self.cstride = strides[list(comp)]      # column key = col @ cstride
        self.rows = np.zeros((0, len(modes)), dtype=np.intp)    # pivot rows over `modes`
        self.cols = np.zeros((0, len(comp)), dtype=np.intp)     # pivot columns over `comp`
        self.M = np.zeros((0, 0))
        self.pm = None              # PivotMatrix of M
        self.zero = False
        self.rejected = set()       # (row key, column key) of rejected pivots


class _CrossRun:
    """One hierarchical cross approximation over a fixed oracle and tree."""

    def __init__(self, oracle, tree: DimensionTree, eps: float, rng, rank_cap: int):
        self.oracle = oracle
        self.tree = tree
        self.shape = oracle.shape
        self.d = len(oracle.shape)
        self.strides = np.array([math.prod(self.shape[m + 1:]) for m in range(self.d)],
                                dtype=np.intp)
        self.eps = eps
        self.rng = rng
        self.rank_cap = rank_cap
        self.states = {node.index: _NodeState(node.modes, tree.complement(node),
                                              self.strides) for node in tree.nodes}
        # the root's one context is the empty index over its empty complement
        self.states[tree.root].cols = np.zeros((1, 0), dtype=np.intp)
        self.hints = np.zeros((0, self.d), dtype=np.intp)   # full indices seeding pools
        self.extra_contexts = 0
        self._crosses = {}

    # -- index plumbing ----------------------------------------------------

    @staticmethod
    def restrict(source_modes, idx, target_modes) -> np.ndarray:
        """The columns of the index rows `idx` (over source_modes) for target_modes."""
        return idx[:, [source_modes.index(m) for m in target_modes]]

    def mode_cross(self, modes, center) -> np.ndarray:
        """cross_array over `modes`, memoized per run (callers do not write to it)."""
        key = (modes, center.tobytes())
        if key not in self._crosses:
            self._crosses[key] = cross_array([self.shape[m] for m in modes], center)
        return self._crosses[key]

    def distinct(self, modes, idx, target, draws) -> np.ndarray:
        """The rows of `idx` over `modes` once each, in first-seen order, then up
        to `draws` random tuples, each kept if new, until `target` rows are held."""
        held = dict.fromkeys(map(tuple, idx.tolist()))
        sizes = [self.shape[m] for m in modes]
        for _ in range(draws):
            if len(held) >= target:
                break
            held.setdefault(random_index(self.rng, sizes))
        return np.array(list(held), dtype=np.intp).reshape(len(held), len(modes))

    # -- residuals ---------------------------------------------------------

    def _block(self, st: _NodeState, rows, cols) -> np.ndarray:
        """Oracle values at (row over st.modes, column over st.comp), rows x cols."""
        return self.oracle.lookup((rows @ st.rstride)[:, None] + cols @ st.cstride)

    def _residual_block(self, st: _NodeState, rows, cols) -> np.ndarray:
        """Residual of the current skeleton on rows x cols (dense, small)."""
        y = self._block(st, rows, cols)
        if not len(st.rows):
            return y
        U = self._block(st, rows, st.cols)
        Vb = self._block(st, st.rows, cols)
        return y - U @ st.pm.solve(Vb)

    # -- candidate pools ----------------------------------------------------

    def node_pools(self, st: _NodeState, parent: _NodeState,
                   sibling_modes) -> tuple[np.ndarray, np.ndarray]:
        """(row candidate centers, column candidate pool) for one node.

        A column candidate joins a point of a cross through a sibling center
        with a context, a pivot column of the parent; the pool keeps the first
        POOL_CAP distinct ones in the order sibling center, cross point, context.
        """
        everything = tuple(range(self.d))
        p_modes, p_rows = parent.modes, parent.rows
        ctx_modes, contexts = parent.comp, parent.cols
        hints, restrict = self.hints, self.restrict

        rows = self.distinct(st.modes, np.concatenate(
            [restrict(p_modes, p_rows, st.modes), st.rows,
             restrict(everything, hints, st.modes)]), 3, 50)
        contexts = self.distinct(ctx_modes, np.concatenate(
            [contexts, restrict(everything, hints, ctx_modes)]), math.inf,
            self.extra_contexts)
        sibs = self.distinct(sibling_modes, np.concatenate(
            [restrict(p_modes, p_rows, sibling_modes),
             restrict(st.comp, st.cols, sibling_modes),
             restrict(everything, hints, sibling_modes)]), 2, 50)

        points = np.concatenate([self.mode_cross(sibling_modes, u) for u in sibs])
        keys = ((points @ self.strides[list(sibling_modes)])[:, None]
                + (contexts @ self.strides[list(ctx_modes)])[None, :])
        _, first = np.unique(keys, return_index=True)
        ip, ic = np.divmod(np.sort(first)[:POOL_CAP], len(contexts))
        pool = np.empty((len(ip), len(st.comp)), dtype=np.intp)
        pool[:, [st.comp.index(m) for m in sibling_modes]] = points[ip]
        pool[:, [st.comp.index(m) for m in ctx_modes]] = contexts[ic]
        return rows, pool

    # -- pivot growth --------------------------------------------------------

    def find_pivot(self, st: _NodeState, row_centers, col_pool):
        best = (None, None, -1.0)
        pool = _drop_known(col_pool, st.cstride, st.cols)
        if not len(pool):
            return best
        W = None
        for r in row_centers[:3]:
            for _ in range(3):
                res = self._block(st, r[None, :], pool)
                if len(st.rows):
                    U = self._block(st, r[None, :], st.cols)
                    if W is None:
                        # solved once per search, after the first row's blocks (same
                        # oracle order); W spans the pool so U @ W keeps its shapes
                        W = st.pm.solve(self._block(st, st.rows, pool))
                    res = res - U @ W
                c = pool[int(np.argmax(np.abs(res[0])))]
                row_fiber = _drop_known(self.mode_cross(st.modes, r), st.rstride, st.rows)
                if not len(row_fiber):
                    break
                resr = self._residual_block(st, row_fiber, c[None, :])[:, 0]
                ibest = int(np.argmax(np.abs(resr)))
                r_new, val = row_fiber[ibest], abs(resr[ibest])
                if (int(r_new @ st.rstride), int(c @ st.cstride)) in st.rejected:
                    break
                if val > best[2]:
                    best = (r_new, c, val)
                if np.array_equal(r_new, r):
                    break
                r = r_new
        return best

    def grow_node(self, st: _NodeState, parent: _NodeState, sibling_modes, node_cap):
        row_centers, col_pool = self.node_pools(st, parent, sibling_modes)
        while True:
            r, c, val = self.find_pivot(st, row_centers, col_pool)
            if r is None or val <= self.eps_node * self.oracle.max_abs or val == 0.0:
                break
            if len(st.rows) >= min(node_cap, self.rank_cap):
                if node_cap > self.rank_cap:
                    raise BudgetError(
                        f"rank cap {self.rank_cap} reached at node {st.modes} "
                        f"with residual {val:.3e} above target")
                break
            # conditioning guard: reject pivots that degenerate the block
            rows_new, cols_new = np.vstack([st.rows, r]), np.vstack([st.cols, c])
            M_new = self._block(st, rows_new, cols_new)
            pm_new = PivotMatrix(M_new)
            if pm_new.rcond_estimate < RCOND_GUARD:
                st.rejected.add((int(r @ st.rstride), int(c @ st.cstride)))
                if len(st.rejected) > 3 * (len(st.rows) + 1):
                    break
                continue
            st.rows, st.cols, st.M, st.pm = rows_new, cols_new, M_new, pm_new
            if not np.any(row_centers @ st.rstride == r @ st.rstride):
                row_centers = np.vstack([row_centers, r])
        if not len(st.rows):
            # numerically zero block: keep rank one with a unit pivot matrix
            st.zero = True
            st.rows, st.cols = row_centers[:1], col_pool[:1]    # neither is ever empty
            st.M = np.eye(1)
            st.pm = PivotMatrix(st.M)

    # -- sweeps ---------------------------------------------------------------

    def sweep(self):
        for idx in self.tree.breadth_first():
            node = self.tree.nodes[idx]
            if node.is_leaf:
                continue
            parent = self.states[idx]
            s1, s2 = (self.states[i] for i in node.children)
            self.grow_node(s1, parent, s2.modes, self.node_rank_cap(s1))
            if node.parent == -1:
                # the sibling state is the transpose of the same skeleton
                s2.rows = self.restrict(s1.comp, s1.cols, s2.modes)
                s2.cols = self.restrict(s1.modes, s1.rows, s2.comp)
                s2.M, s2.zero = s1.M.T.copy(), s1.zero
                s2.pm = PivotMatrix(s2.M)
            else:
                self.grow_node(s2, parent, s1.modes, self.node_rank_cap(s2))

    def node_rank_cap(self, st: _NodeState) -> int:
        cap = self.rank_cap + 1
        sizes = []
        for modes in (st.modes, st.comp):
            sizes.append(1)
            for m in modes:
                sizes[-1] = min(sizes[-1] * self.shape[m], cap)
        return min(*sizes, cap)

    # -- assembly ---------------------------------------------------------------

    def assemble(self) -> HTensor:
        leaf_frames, transfers = {}, {}
        for node in self.tree.leaves():
            st = self.states[node.index]
            U = self._block(st, np.arange(self.shape[node.modes[0]])[:, None], st.cols)
            leaf_frames[node.index] = np.zeros_like(U) if st.zero else U
        for node in self.tree.internal_nodes():
            st = self.states[node.index]
            s1, s2 = (self.states[i] for i in node.children)
            contexts = st.cols @ st.cstride
            # the entry at (s1 row, s2 row, context) has the sum of the three keys
            row_keys = (s1.rows @ s1.rstride)[:, None]
            col_keys = (s2.rows @ s2.rstride)[None, :] + contexts[:, None]
            B = np.empty((len(contexts), len(s1.rows), len(s2.rows)))
            for s in range(len(contexts)):
                W = s1.pm.solve(self.oracle.lookup(row_keys + col_keys[s]))
                B[s] = s2.pm.solve(W.T).T
            transfers[node.index] = np.zeros_like(B) if st.zero else B
        return HTensor(self.tree, self.shape, leaf_frames, transfers)

    # -- validation ---------------------------------------------------------------

    def validate(self, X: HTensor):
        from .htensor import ht_entries

        probes = add_crosses(self.shape, np.zeros((0, self.d), dtype=np.intp),
                             PROBE_CROSSES, self.rng)
        exact = self.oracle.entries(probes)
        gap = exact - ht_entries(X, probes)
        denom = np.linalg.norm(exact)
        if denom == 0.0:
            scale = self.oracle.max_abs
            return (np.linalg.norm(gap) / scale if scale > 0 else 0.0), probes, gap
        return float(np.linalg.norm(gap) / denom), probes, gap

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
            self.hints = probes[worst]
        return X, diag


def hier_cross(oracle, tree: DimensionTree, eps_ten: float, *, rng,
               rank_cap: int = DEFAULT_RANK_CAP):
    """Adaptive cross approximation of an entry oracle in hierarchical form.

    Ranks per node grow until the sampled residual estimate drops below
    eps_ten relative to the running entry scale; the assembled tensor is
    validated on random probe crosses and re-swept with tighter per-node
    tolerances when validation fails.
    """
    if not eps_ten >= 0:
        raise ValueError("tensor tolerance must be nonnegative")
    if len(oracle.shape) != tree.order:
        raise ValueError("oracle order must match the tree")
    if tree.order < 2:
        raise ValueError("cross approximation needs a tree of order at least 2")
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
                       *, rng, rank_cap: int = DEFAULT_RANK_CAP) -> ApproxResult:
    """Run the three-step pipeline against a fiber-structured oracle.

    Step 1 uses an absolute tolerance derived from eps_rel and the running
    dominant column norm; step 2 targets eps_rel relative accuracy; step 3
    lifts the result back to the full spatial dimension without further
    approximation.
    """
    if not eps_rel > 0:
        raise ValueError("relative accuracy must be positive")

    t0 = time.perf_counter()
    fetched = source.n_fetched
    train = add_crosses(source.param_shape, np.zeros((0, len(source.param_shape)),
                                                     dtype=np.intp), S_INIT, rng)
    V = greedy_column_basis(source, train, eps_rel, rng, max_rank=rank_cap)
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
