import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mltc import cross, htensor
from mltc.cross import (DEFAULT_RANK_CAP, ColumnSource, EntryOracle, EvalBudget,
                        PivotMatrix, approximate_tensor, build_training_set,
                        cross_array, greedy_column_basis, hier_cross,
                        lift_spatial, reduce_oracle)
from mltc.errors import BudgetError, PivotError
from mltc.htensor import build_tree, ht_entries, ht_full

from conftest import random_htensor


def dense_oracle(T, budget=None):
    return EntryOracle(T.shape, lambda idx: T[tuple(idx.T)], budget=budget)


def rank_one(vs):
    """The dense outer product of the vectors vs."""
    T = np.ones(())
    for v in vs:
        T = np.multiply.outer(T, v)
    return T


@st.composite
def index_batches(draw):
    """A random shape and a few batches of in-range multi-indices, with repeats."""
    d = draw(st.integers(1, 4))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    index = st.tuples(*(st.integers(0, n - 1) for n in shape))
    batches = draw(st.lists(st.lists(index, max_size=12), min_size=1, max_size=5))
    return shape, batches


@st.composite
def low_rank_tensors(draw):
    """Tree, dense values and rng of a random HT tensor of order 2-6 and ranks <= 3."""
    d = draw(st.integers(2, 6))
    tree = build_tree(d, draw(st.sampled_from(["balanced", "linear"])))
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = random_htensor(tree, sizes, draw(st.integers(1, 3)), rng)
    return tree, ht_full(X), rng


class TestEntryOracle:
    def test_cache_and_counter(self):
        calls = []

        def fn(idx):
            calls.append(idx.tolist())
            return np.ones(len(idx))

        oracle = EntryOracle((3, 3), fn)
        assert oracle.entries([(1, 2)]).tolist() == [1.0]
        assert oracle.entries(np.array([[1, 2]])).tolist() == [1.0]
        assert oracle.count == 1 and calls == [[[1, 2]]]
        oracle.entries([(1, 2), (0, 0), (0, 0)])
        assert oracle.count == 2 and calls[-1] == [[0, 0]]
        assert oracle.entries([]).shape == (0,)

    def test_out_of_range(self):
        oracle = EntryOracle((2, 2), lambda idx: np.zeros(len(idx)))
        for bad in ([(2, 0)], [(0, -1)], [(0, 0, 0)], [0, 1]):
            with pytest.raises(ValueError):
                oracle.entries(bad)
        assert oracle.count == 0

    def test_non_finite_rejected(self):
        oracle = EntryOracle((2,), lambda idx: np.array([1.0, np.nan])[idx[:, 0]])
        with pytest.raises(ArithmeticError):
            oracle.entries([(0,), (1,)])
        assert oracle.count == 0

    def test_budget_charged_per_batch_of_misses(self):
        budget = EvalBudget(3)
        oracle = dense_oracle(np.arange(6.0).reshape(2, 3), budget=budget)
        oracle.entries([(0, 0), (0, 1), (0, 0)])
        assert budget.used == 2
        with pytest.raises(BudgetError):
            oracle.entries([(0, 1), (1, 0), (1, 1)])
        assert oracle.count == 2

    @settings(max_examples=100, deadline=None)
    @given(index_batches(), st.data())
    def test_batches_match_dense_gather(self, case, data):
        shape, batches = case
        d = len(shape)
        T = np.random.default_rng(sum(shape)).standard_normal(shape)
        received = []

        def fn(idx):
            assert idx.shape == (len(idx), d)
            received.extend(map(tuple, idx.tolist()))
            return T[tuple(idx.T)]

        budget = EvalBudget(None)
        oracle = EntryOracle(shape, fn, budget=budget)
        for batch in batches:
            idx = np.array(batch, dtype=int).reshape(-1, d)
            assert np.array_equal(oracle.entries(idx), T[tuple(idx.T)])
        distinct = {idx for batch in batches for idx in batch}
        assert oracle.count == len(distinct) == budget.used
        assert len(received) == len(set(received)) and set(received) == distinct

        # a bad index anywhere in a batch rejects the whole batch
        mode = data.draw(st.integers(0, d - 1))
        good = [0] * d
        for bad in ([good, good[:mode] + [shape[mode]] + good[mode + 1:]],
                    [good, good[:mode] + [-1] + good[mode + 1:]],
                    [good + [0]] * 2, [good[:-1]] * 2, good):
            with pytest.raises(ValueError):
                oracle.entries(bad)
        assert oracle.count == len(distinct) == budget.used

        # a non-finite value among the misses is rejected and nothing is cached
        missing = [idx for idx in np.ndindex(shape) if idx not in distinct]
        if missing:
            poisoned = T.copy()
            poisoned[data.draw(st.sampled_from(missing))] = np.inf
            fresh = EntryOracle(shape, lambda idx: poisoned[tuple(idx.T)])
            with pytest.raises(ArithmeticError):
                fresh.entries(missing)
            assert fresh.count == 0


    @settings(max_examples=100, deadline=None)
    @given(index_batches(), st.data())
    def test_fn_sees_new_indices_in_first_seen_order(self, case, data):
        # batches reach the oracle as index arrays (entries) or as flat keys
        # (lookup, in a random 2-D layout); each fn call must hold exactly the
        # indices not cached before it, once each, in first-seen order
        shape, batches = case
        T = np.random.default_rng(len(shape)).standard_normal(shape)
        received = []

        def fn(idx):
            received.append(list(map(tuple, idx.tolist())))
            return T[tuple(idx.T)]

        budget = EvalBudget(None)
        oracle = EntryOracle(shape, fn, budget=budget)
        seen, expected = set(), []
        for batch in batches:
            idx = np.array(batch, dtype=int).reshape(-1, len(shape))
            new = [i for i in dict.fromkeys(map(tuple, idx.tolist())) if i not in seen]
            seen.update(new)
            if new:
                expected.append(new)
            if data.draw(st.booleans()):
                got = oracle.entries(idx)
            else:
                keys = np.ravel_multi_index(tuple(idx.T), shape)
                if len(keys) % 2 == 0:
                    keys = keys.reshape(2, -1)
                got = oracle.lookup(keys)
                assert got.shape == keys.shape
                got = got.ravel()
            assert np.array_equal(got, T[tuple(idx.T)])
        assert received == expected
        assert budget.used == oracle.count == len(seen)


class TestTrainingSet:
    def test_cross_shape(self):
        # the center, then per position its other values in ascending order
        got = cross_array((3, 3), (1, 1))
        assert got.tolist() == [[1, 1], [0, 1], [2, 1], [1, 0], [1, 2]]

    def test_overlap_bound(self, rng):
        train = build_training_set((5,) * 10, 3, rng)
        assert train.indices.dtype == np.intp and train.indices.shape[1] == 10
        assert len(train.indices) <= 3 * (10 * 5 - 9)
        assert len(np.unique(train.indices, axis=0)) == len(train.indices)

    @pytest.mark.parametrize("seed", range(4))
    def test_first_seen_union_of_crosses(self, seed):
        shape = (3, 2, 4)
        train = build_training_set(shape, 2, np.random.default_rng(seed))
        held = train.indices.copy()
        train.enrich(3, np.random.default_rng(seed + 10))
        assert np.array_equal(train.indices[:len(held)], held)   # held rows stay put
        union = {}
        for gen, s in ((np.random.default_rng(seed), 2), (np.random.default_rng(seed + 10), 3)):
            for _ in range(s):
                center = [int(gen.integers(n)) for n in shape]
                union.update(dict.fromkeys(map(tuple, cross_array(shape, center).tolist())))
        assert list(map(tuple, train.indices.tolist())) == list(union)

    def test_zero_crosses_rejected(self, rng):
        with pytest.raises(ValueError):
            build_training_set((3, 3), 0, rng)


class TestColumnSource:
    @pytest.mark.parametrize("j", [(1,), (1, 0, 0), ()])
    def test_index_of_wrong_length_charges_nothing(self, j):
        # zip would truncate the range check, so the length is checked first
        budget = EvalBudget(None)
        fetched = []
        src = ColumnSource((3, 3), 5, lambda j: fetched.append(j) or np.ones(5),
                           budget=budget)
        with pytest.raises(ValueError, match="must have length 2"):
            src.column(j)
        assert budget.used == 0 and fetched == [] and src.n_fetched == 0
        src.column((1, 2))
        assert budget.used == 5 and fetched == [(1, 2)]


class TestGreedyColumnBasis:
    def test_constant_column_space(self, rng):
        v = rng.standard_normal(8) + 3.0
        T = np.tile(v[None, :], (5, 1))          # all columns equal v
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((5,), 1, rng)
        V = greedy_column_basis(src, train, 1e-10, rng=rng)
        assert V.shape[1] == 1
        assert np.allclose(np.abs(V[:, 0]), np.abs(v / np.linalg.norm(v)))

    def test_two_directions(self, rng):
        u = np.array([1.0, 0, 0, 0]) * 2
        w = np.array([0, 1.0, 0, 0]) * 5
        cols = np.array([u, w, u + w, 2 * u, u - w, w])   # span = {u, w}
        T = cols                                           # 6 x 4
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((6,), 3, rng)
        train.indices = [(i,) for i in range(6)]
        V = greedy_column_basis(src, train, 1e-10, rng=rng)
        assert V.shape[1] == 2
        for direction in (u, w):
            res = direction - V @ (V.T @ direction)
            assert np.linalg.norm(res) < 1e-10

    def test_zero_columns_give_unit_vector(self, rng):
        T = np.zeros((4, 3))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((4,), 2, rng)
        V = greedy_column_basis(src, train, 1e-10, rng=rng)
        assert np.array_equal(V, np.eye(3)[:, [0]])     # e_0 keeps the rank at one

    def test_threshold_relative_to_largest_column(self):
        # the threshold scales with the columns: scaling the tensor by a power
        # of two changes no decision and no bit of V
        gen = np.random.default_rng(3)
        T = sum(4.0**-k * rank_one([gen.standard_normal(n) for n in (4, 4, 10)])
                for k in range(5))
        runs = []
        for scale in (1.0, 2.0**20, 2.0**-20):
            src = ColumnSource.from_entry_oracle(dense_oracle(scale * T))
            rng = np.random.default_rng(8)
            train = build_training_set((4, 4), 1, rng)
            V = greedy_column_basis(src, train, 1e-2, rng=rng)
            runs.append((V.shape[1], src.n_fetched, V))
        assert runs[0][0] >= 2
        for rank, fetched, V in runs[1:]:
            assert (rank, fetched) == runs[0][:2]
            assert np.array_equal(V, runs[0][2])


class TestReduceOracle:
    def test_coordinate_projection(self, rng):
        T = rng.standard_normal((4, 6))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        V = np.eye(6)[:, [2]]
        red = reduce_oracle(src, V)
        assert np.allclose(red.entries([(j, 0) for j in range(4)]), T[:, 2])

    def test_rank_one_projection(self, rng):
        w = rng.standard_normal(5)
        z = rng.standard_normal(7)
        T = np.einsum("a,b->ab", w, z)
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        V = (z / np.linalg.norm(z))[:, None]
        red = reduce_oracle(src, V)
        vals = red.entries([(j, 0) for j in range(5)])
        assert np.allclose(vals, np.linalg.norm(z) * w)

    def test_cache_counts_once(self, rng):
        T = rng.standard_normal((4, 6))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        red = reduce_oracle(src, np.eye(6)[:, :2])
        red.entries([(1, 1)])
        fibers = src.n_fetched
        red.entries([(1, 1), (1, 0)])   # same fiber, other basis vector
        assert red.count == 2
        assert src.n_fetched == fibers

    def test_entry_is_basis_dot_fiber(self, rng):
        # each reduced entry is V[:, k] @ fiber, bitwise
        T = rng.standard_normal((5, 9))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        V = np.linalg.qr(rng.standard_normal((9, 3)))[0]
        idx = [(j, k) for j in (4, 0, 2) for k in (2, 0)]
        want = [float(V[:, k] @ T[j]) for j, k in idx]
        assert reduce_oracle(src, V).entries(idx).tolist() == want


class TestPivotMatrix:
    def test_full_pivot_solve(self, rng):
        for n in (1, 3, 7):
            M = rng.standard_normal((n, n)) + np.eye(n)
            B = rng.standard_normal((n, 4))
            pm = PivotMatrix(M)
            assert np.allclose(M @ pm.solve(B), B, atol=1e-10)
            assert pm.rcond_estimate > 1e-12

    def test_singular_detected(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert PivotMatrix(M).rcond_estimate < 1e-12
        with pytest.raises(PivotError):
            PivotMatrix(np.zeros((2, 2))).solve(np.ones((2, 1)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 600), st.integers(-30, 30),
           st.integers(0, 2**32 - 1))
    def test_solve_is_bitwise_solve_triangular(self, n, m, scale, seed):
        # the reference solves the same permuted LU factor with scipy's wrapper
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n)) * 2.0 ** scale
        B = rng.standard_normal((n, m))
        pm = PivotMatrix(M)
        Z = solve_triangular(pm._lu, B[pm._pr, :], lower=True, unit_diagonal=True)
        Z = solve_triangular(pm._lu, Z, lower=False)
        X = np.empty_like(Z)
        X[pm._pc, :] = Z
        assert np.array_equal(pm.solve(B), X)


class ScriptedRng:
    """An rng whose integers(n) returns the scripted values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, n):
        value = self.values.pop(0)
        assert 0 <= value < n
        return value


class TestCrossIndexing:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 5), st.sampled_from(["balanced", "linear"]), st.data())
    def test_block_matches_dense_gather(self, d, shape_name, data):
        shape = tuple(data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
        T = np.random.default_rng(d).standard_normal(shape)
        tree = build_tree(d, shape_name)
        node = tree.nodes[data.draw(st.sampled_from(
            [i for i in range(len(tree.nodes)) if i != tree.root]))]
        run = cross._CrossRun(dense_oracle(T), tree, 1e-8, None, DEFAULT_RANK_CAP)
        state = run.state_for(node)

        def draw_rows(modes):
            index = st.tuples(*(st.integers(0, shape[m] - 1) for m in modes))
            rows = data.draw(st.lists(index, min_size=1, max_size=6))
            return np.array(rows, dtype=np.intp).reshape(len(rows), len(modes))

        rows, cols = draw_rows(state.modes), draw_rows(state.comp)
        want = np.empty((len(rows), len(cols)))
        for i, r in enumerate(rows):
            for j, c in enumerate(cols):
                full = [0] * d
                for m, v in zip(state.modes + state.comp, list(r) + list(c)):
                    full[m] = v
                want[i, j] = T[tuple(full)]
        assert np.array_equal(run._block(state, rows, cols), want)

    def test_node_pools_worked_example(self, monkeypatch):
        # modes (0, 1, 2, 3) of sizes (3, 3, 2, 2); the node is leaf {0}, its
        # parent {0, 1} and its sibling {1}
        monkeypatch.setattr(cross, "POOL_CAP", 7)
        tree = build_tree(4, "balanced")
        # draws: rows 2 (held), 0 (held), 1 (new, now three); one extra
        # context over modes (2, 3): (1, 1); sibling centers 1 (held), 0
        rng = ScriptedRng([2, 0, 1, 1, 1, 1, 0])
        run = cross._CrossRun(dense_oracle(np.zeros((3, 3, 2, 2))), tree, 1e-8, rng,
                              DEFAULT_RANK_CAP)
        run.extra_contexts = 1
        leaf_node = tree.nodes[tree.leaf_of_mode[0]]
        parent, leaf = (run.state_for(tree.nodes[i])
                        for i in (leaf_node.parent, leaf_node.index))
        assert (parent.modes, parent.comp) == ((0, 1), (2, 3))
        assert (leaf.modes, leaf.comp) == ((0,), (1, 2, 3))
        parent.rows = np.array([[2, 1], [0, 1]])
        parent.cols = np.array([[1, 0], [0, 1]])
        rows, pool = run.node_pools(leaf, parent, (1,))
        assert rng.values == []
        # parent rows restricted to mode 0, then the random draw
        assert rows.tolist() == [[2], [0], [1]]
        # sibling centers 1 and 0; the cross through 1 over mode 1 is 1, 0, 2,
        # each joined with the contexts (1, 0), (0, 1), (1, 1) in turn; the
        # cross through 0 adds nothing new, and POOL_CAP keeps the first seven
        assert pool.tolist() == [[1, 1, 0], [1, 0, 1], [1, 1, 1],
                                 [0, 1, 0], [0, 0, 1], [0, 1, 1],
                                 [2, 1, 0]]


class TestHierCross:
    def test_exact_rank_one(self, rng):
        sizes = (4, 3, 5, 3)
        T = rank_one([rng.standard_normal(n) + 2.0 for n in sizes])
        X, diag = hier_cross(dense_oracle(T), build_tree(4, "balanced"), 1e-12,
                             rng=np.random.default_rng(1))
        assert set(X.ranks.values()) == {1}
        assert np.abs(ht_full(X) - T).max() / np.abs(T).max() < 1e-10

    def test_validation_calls_ht_entries_once_per_sweep(self, monkeypatch):
        # validation looks ht_entries up in mltc.htensor at call time, so a
        # wrapper installed there (as the benchmark's span tracer does) sees
        # every call; this full-rank tensor fails its first validation
        calls = []
        entries = htensor.ht_entries

        def counting(X, indices):
            calls.append(len(indices))
            return entries(X, indices)

        monkeypatch.setattr(htensor, "ht_entries", counting)
        monkeypatch.setattr(cross, "MAX_SWEEPS", 3)
        T = np.random.default_rng(0).standard_normal((4, 4, 4, 4))
        _, diag = hier_cross(dense_oracle(T), build_tree(4, "balanced"), 0.1,
                             rng=np.random.default_rng(0))
        assert diag.sweeps > 1
        assert len(calls) == diag.sweeps

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            hier_cross(dense_oracle(np.ones(3)), build_tree(1), 1e-8)

    def test_flat_keys_must_fit_intp(self):
        # 2^66 entries: block keys would wrap around in np.intp, so the first
        # lookup (np.unravel_index of its misses) must refuse the shape
        oracle = EntryOracle((2**22,) * 3, lambda idx: np.ones(len(idx)))
        with pytest.raises(ValueError):
            hier_cross(oracle, build_tree(3, "balanced"), 1e-8,
                       rng=np.random.default_rng(0))
        assert oracle.count == 0

    def test_self_reproduction(self, rng):
        tree = build_tree(4, "balanced")
        sizes = (4, 4, 4, 4)
        X0 = random_htensor(tree, sizes, 3, rng)
        T0 = ht_full(X0)
        oracle = dense_oracle(T0)
        X, diag = hier_cross(oracle, tree, 1e-10, rng=np.random.default_rng(2))
        probes = np.column_stack([rng.integers(0, n, 1000) for n in sizes])
        err = np.abs(ht_entries(X, probes)
                     - np.array([T0[tuple(r)] for r in probes])).max()
        assert err / abs(T0).max() < 1e-8
        for node_index, r in X.ranks.items():
            if node_index != tree.root:
                assert r <= max(X0.ranks.values())

    def test_loose_tolerance_rank_one_and_monotone(self, rng):
        tree = build_tree(4, "balanced")
        sizes = (4, 4, 4, 4)
        X0 = random_htensor(tree, sizes, 3, rng)
        T0 = ht_full(X0)
        loose, tight = dense_oracle(T0), dense_oracle(T0)
        X_loose, _ = hier_cross(loose, tree, 1.0, rng=np.random.default_rng(3))
        hier_cross(tight, tree, 1e-6, rng=np.random.default_rng(3))
        assert max(X_loose.ranks.values()) == 1
        assert loose.count <= tight.count

    def test_interpolation_property(self, rng):
        # on an exactly recovered tensor the skeleton agrees with the source
        # on every pivot row and column of every node matricization
        tree = build_tree(3, "balanced")
        sizes = (4, 3, 4)
        X0 = random_htensor(tree, sizes, 2, rng)
        T0 = ht_full(X0)
        run = cross._CrossRun(dense_oracle(T0), tree, 1e-12,
                              np.random.default_rng(4), DEFAULT_RANK_CAP)
        X, _ = run.run()
        T1 = ht_full(X)
        scale = abs(T0).max()
        for nd in run.states.values():
            comp = tuple(m for m in range(3) if m not in nd.modes)
            order = list(nd.modes) + list(comp)
            M0 = np.transpose(T0, order).reshape(
                int(np.prod([sizes[m] for m in nd.modes])), -1)
            M1 = np.transpose(T1, order).reshape(M0.shape)
            strides = {}
            for block, ms in (("row", nd.modes), ("col", comp)):
                s = []
                acc = 1
                for m in reversed(ms):
                    s.insert(0, acc)
                    acc *= sizes[m]
                strides[block] = s

            def flat(tup, s):
                return sum(i * k for i, k in zip(tup, s))

            for r in nd.rows:
                i = flat(r, strides["row"])
                assert np.abs(M1[i] - M0[i]).max() < 1e-10 * scale
            for c in nd.cols:
                j = flat(c, strides["col"])
                assert np.abs(M1[:, j] - M0[:, j]).max() < 1e-10 * scale

    def test_determinism(self, rng):
        tree = build_tree(4, "balanced")
        X0 = random_htensor(tree, (4, 4, 4, 4), 3, rng)
        T0 = ht_full(X0)
        runs = []
        for _ in range(2):
            oracle = dense_oracle(T0)
            run = cross._CrossRun(oracle, tree, 1e-8, np.random.default_rng(77),
                                  DEFAULT_RANK_CAP)
            X, _ = run.run()
            pivots = [(i, st.modes, st.rows.tolist(), st.cols.tolist())
                      for i, st in sorted(run.states.items())]
            runs.append((oracle.count, pivots, X))
        (count_a, pivots_a, X_a), (count_b, pivots_b, X_b) = runs
        assert count_a == count_b and pivots_a == pivots_b
        for k in X_a.leaf_frames:
            assert np.array_equal(X_a.leaf_frames[k], X_b.leaf_frames[k])
        for k in X_a.transfers:
            assert np.array_equal(X_a.transfers[k], X_b.transfers[k])

    def test_one_pool_solve_per_pivot_search(self, rng, monkeypatch):
        # a pivot search solves the skeleton-rows x pool block once and shares
        # it between its row residuals
        counts, pool = [], []   # pool-wide solves per search; pool size of the live search
        find_pivot, solve = cross._CrossRun.find_pivot, PivotMatrix.solve

        def tracked_find_pivot(self, st, row_centers, col_pool):
            counts.append(0)
            known = st.cols.tolist()
            pool.append(len([c for c in col_pool.tolist() if c not in known]))
            try:
                return find_pivot(self, st, row_centers, col_pool)
            finally:
                pool.pop()

        def tracked_solve(self, B):
            if pool and B.shape[1] == pool[-1]:
                counts[-1] += 1
            return solve(self, B)

        monkeypatch.setattr(cross._CrossRun, "find_pivot", tracked_find_pivot)
        monkeypatch.setattr(PivotMatrix, "solve", tracked_solve)
        tree = build_tree(4, "balanced")
        T0 = ht_full(random_htensor(tree, (4, 4, 4, 4), 3, rng))
        hier_cross(dense_oracle(T0), tree, 1e-8, rng=np.random.default_rng(77))
        assert max(counts) == 1

    def test_rank_cap_is_an_error(self, rng):
        T = rng.standard_normal((6, 6, 6))
        oracle = dense_oracle(T)
        with pytest.raises(BudgetError):
            hier_cross(oracle, build_tree(3, "balanced"), 1e-12,
                       rng=np.random.default_rng(1), rank_cap=2)

    def test_eval_budget_is_an_error(self, rng):
        T = rng.standard_normal((6, 6, 6))
        oracle = dense_oracle(T, budget=EvalBudget(30))
        with pytest.raises(BudgetError):
            hier_cross(oracle, build_tree(3, "balanced"), 1e-12,
                       rng=np.random.default_rng(1))


class TestLiftSpatial:
    def test_identity(self, rng):
        tree = build_tree(3, "balanced")
        Y = random_htensor(tree, (3, 3, 4), 2, rng)
        X = lift_spatial(Y, np.eye(4))
        assert np.allclose(ht_full(X), ht_full(Y))

    def test_rank_one_column_selection(self, rng):
        tree = build_tree(2, "balanced")
        w = rng.standard_normal(5)
        frames = {tree.leaf_of_mode[0]: w[:, None],
                  tree.leaf_of_mode[1]: np.eye(3)[:, [0]]}
        Y = random_htensor(tree, (5, 3), 1, rng)
        Y.leaf_frames.update(frames)
        Y.transfers[tree.root] = np.ones((1, 1, 1))
        V = rng.standard_normal((7, 3))
        X = lift_spatial(Y, V)
        assert np.allclose(ht_full(X), np.einsum("a,b->ab", w, V[:, 0]))

    def test_matches_dense_mode_product(self, rng):
        tree = build_tree(3, "linear")
        Y = random_htensor(tree, (3, 2, 4), 2, rng)
        V = np.linalg.qr(rng.standard_normal((9, 4)))[0]
        X = lift_spatial(Y, V)
        ref = np.einsum("abr,nr->abn", ht_full(Y), V)
        assert np.allclose(ht_full(X), ref)

    def test_dimension_mismatch(self, rng):
        tree = build_tree(3, "balanced")
        Y = random_htensor(tree, (3, 3, 4), 2, rng)
        with pytest.raises(ValueError):
            lift_spatial(Y, np.ones((10, 3)))


class TestApproximateTensor:
    def test_rank_one_field(self, rng):
        sizes = (4, 4, 4, 9)
        T = rank_one([rng.standard_normal(n) + 2.0 for n in sizes])
        base = dense_oracle(T)
        src = ColumnSource.from_entry_oracle(base)
        res = approximate_tensor(src, build_tree(4, "balanced"), 1e-10,
                                 rng=np.random.default_rng(5))
        assert res.step1_evals >= 1              # at least one full fiber
        assert base.count >= sizes[-1]           # that fiber has #J_d entries
        probes = np.column_stack([rng.integers(0, n, 500) for n in sizes])
        exact = T[tuple(probes.T)]
        err = np.abs(ht_entries(res.tensor, probes) - exact).max()
        assert err / np.abs(exact).max() < 1e-8

    @settings(max_examples=40, deadline=None)
    @given(low_rank_tensors())
    def test_exact_recovery_property(self, case):
        tree, T0, rng = case
        src = ColumnSource.from_entry_oracle(dense_oracle(T0))
        res = approximate_tensor(src, tree, 1e-10, rng=rng)
        probes = np.column_stack([rng.integers(0, n, 300) for n in T0.shape])
        err = np.abs(ht_entries(res.tensor, probes) - T0[tuple(probes.T)]).max()
        assert err <= 1e-8 * np.abs(T0).max()

    def test_single_collocation_point(self, rng):
        # one parametric point, large spatial mode: step counts are 1 and 1
        u = rng.standard_normal(2000)
        sizes = (1,) * 10 + (2000,)
        base = EntryOracle(sizes, lambda idx: u[idx[:, -1]])
        src = ColumnSource.from_entry_oracle(base)
        res = approximate_tensor(src, build_tree(11, "balanced"), 0.25,
                                 rng=np.random.default_rng(6))
        assert res.step1_evals == 1
        assert res.step2_evals == 1
        assert set(res.tensor.ranks.values()) == {1}
        pr = np.zeros((4, 11), dtype=int)
        pr[:, -1] = [0, 7, 100, 1999]
        assert np.allclose(ht_entries(res.tensor, pr), u[[0, 7, 100, 1999]])

    def test_monotone_probe_residual(self, rng):
        tree = build_tree(4, "balanced")
        X0 = random_htensor(tree, (4, 4, 4, 6), 3, rng)
        T0 = ht_full(X0)
        probes = np.column_stack([rng.integers(0, n, 400) for n in T0.shape])
        exact = np.array([T0[tuple(r)] for r in probes])

        def run(eps):
            src = ColumnSource.from_entry_oracle(dense_oracle(T0))
            res = approximate_tensor(src, tree, eps, rng=np.random.default_rng(9))
            approx = ht_entries(res.tensor, probes)
            return np.linalg.norm(approx - exact) / np.linalg.norm(exact)

        assert run(0.0625) <= run(0.25) + 1e-12

    def test_accounting(self, rng, monkeypatch):
        tree = build_tree(4, "balanced")
        X0 = random_htensor(tree, (4, 4, 4, 6), 3, rng)
        T0 = ht_full(X0)
        src = ColumnSource.from_entry_oracle(dense_oracle(T0))
        fetched = []
        basis = cross.greedy_column_basis

        def recording(source, *args, **kwargs):
            fetched.append(source.n_fetched)
            V = basis(source, *args, **kwargs)
            fetched.append(source.n_fetched)
            return V

        monkeypatch.setattr(cross, "greedy_column_basis", recording)
        res = approximate_tensor(src, tree, 1e-8, rng=np.random.default_rng(10))
        assert len(fetched) == 2 and res.step1_evals == fetched[1] - fetched[0] > 0

    def test_accuracy_validation(self, rng):
        # Frobenius error within a small factor of the requested accuracy
        tree = build_tree(4, "balanced")
        sizes = (5, 5, 5, 8)
        T = np.zeros(sizes)
        for k in range(6):
            term = np.einsum("a,b,c,d->abcd",
                             *(rng.standard_normal(n) for n in sizes))
            T += 4.0**-k * term
        nrm = np.linalg.norm(T.ravel())
        for eps in (1e-2, 1e-4):
            src = ColumnSource.from_entry_oracle(dense_oracle(T))
            res = approximate_tensor(src, tree, eps, rng=np.random.default_rng(11))
            err = np.linalg.norm((ht_full(res.tensor) - T).ravel())
            assert err <= 10 * eps * nrm

    def test_invalid_accuracy(self, rng):
        src = ColumnSource.from_entry_oracle(dense_oracle(np.ones((2, 2))))
        for eps in (0.0, math.nan):
            with pytest.raises(ValueError):
                approximate_tensor(src, build_tree(2, "balanced"), eps)

    def test_nan_step_tolerances(self, rng):
        src = ColumnSource.from_entry_oracle(dense_oracle(np.ones((2, 2))))
        with pytest.raises(ValueError, match="^tolerance must be nonnegative"):
            greedy_column_basis(src, build_training_set((2,), 1, rng), math.nan)
        with pytest.raises(ValueError, match="tensor tolerance"):
            hier_cross(dense_oracle(np.ones((2, 2))), build_tree(2, "balanced"), math.nan)
