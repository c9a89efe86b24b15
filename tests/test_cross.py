import itertools
import math

import numpy as np
import pytest

from mltc.cross import (ColumnSource, EntryOracle, EvalBudget, PivotMatrix,
                        approximate_tensor, build_training_set, cross_indices,
                        greedy_column_basis, hier_cross, lift_spatial,
                        reduce_oracle)
from mltc.errors import BudgetError
from mltc.htensor import build_tree, ht_entries, ht_entry, ht_full

from conftest import random_htensor


def dense_oracle(T, budget=None):
    return EntryOracle(T.shape, lambda idx: T[idx], budget=budget)


class TestEntryOracle:
    def test_cache_and_counter(self):
        calls = []
        oracle = EntryOracle((3, 3), lambda idx: calls.append(idx) or 1.0)
        assert oracle.entry((1, 2)) == 1.0
        assert oracle.entry((1, 2)) == 1.0
        assert oracle.count == 1 and len(calls) == 1
        oracle.entries([(1, 2), (0, 0), (0, 0)])
        assert oracle.count == 2

    def test_out_of_range(self):
        oracle = EntryOracle((2, 2), lambda idx: 0.0)
        with pytest.raises(ValueError):
            oracle.entry((2, 0))

    def test_non_finite_rejected(self):
        oracle = EntryOracle((2,), lambda idx: float("nan"))
        with pytest.raises(ArithmeticError):
            oracle.entry((0,))


class TestTrainingSet:
    def test_cross_shape(self):
        got = set(cross_indices((3, 3), (1, 1)))
        assert got == {(1, 1), (0, 1), (2, 1), (1, 0), (1, 2)}
        assert len(got) == 5

    def test_overlap_bound(self, rng):
        train = build_training_set((5,) * 10, 3, rng)
        assert train.crosses == 3
        assert len(train.indices) <= 3 * (10 * 5 - 9)
        assert len(set(train.indices)) == len(train.indices)

    def test_zero_crosses_rejected(self, rng):
        with pytest.raises(ValueError):
            build_training_set((3, 3), 0, rng)


class TestGreedyColumnBasis:
    def test_constant_column_space(self, rng):
        v = rng.standard_normal(8) + 3.0
        T = np.tile(v[None, :], (5, 1))          # all columns equal v
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((5,), 1, rng)
        V, diag = greedy_column_basis(src, train, 1e-10, rng=rng, relative=True)
        assert diag.rank == 1
        assert np.allclose(np.abs(V[:, 0]), np.abs(v / np.linalg.norm(v)))

    def test_two_directions(self, rng):
        u = np.array([1.0, 0, 0, 0]) * 2
        w = np.array([0, 1.0, 0, 0]) * 5
        cols = np.array([u, w, u + w, 2 * u, u - w, w])   # span = {u, w}
        T = cols                                           # 6 x 4
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((6,), 3, rng)
        train.indices = [(i,) for i in range(6)]
        V, diag = greedy_column_basis(src, train, 1e-10, rng=rng, relative=True)
        assert diag.rank == 2
        for direction in (u, w):
            res = direction - V @ (V.T @ direction)
            assert np.linalg.norm(res) < 1e-10

    def test_zero_tensor(self, rng):
        T = np.zeros((4, 3))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        train = build_training_set((4,), 2, rng)
        V, diag = greedy_column_basis(src, train, 1e-10, rng=rng, relative=True)
        assert diag.zero_tensor and diag.rank == 1
        assert np.isclose(np.linalg.norm(V[:, 0]), 1.0)


class TestReduceOracle:
    def test_coordinate_projection(self, rng):
        T = rng.standard_normal((4, 6))
        src = ColumnSource.from_entry_oracle(dense_oracle(T))
        V = np.eye(6)[:, [2]]
        red = reduce_oracle(src, V)
        for j in range(4):
            assert np.isclose(red.entry((j, 0)), T[j, 2])

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
        red.entry((1, 1))
        fibers = src.n_fetched
        red.entry((1, 1))
        red.entry((1, 0))            # same fiber, other basis vector
        assert red.count == 2
        assert src.n_fetched == fibers


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


class TestHierCross:
    def test_exact_rank_one(self, rng):
        sizes = (4, 3, 5, 3)
        vs = [rng.standard_normal(n) + 2.0 for n in sizes]

        def f(idx):
            out = 1.0
            for v, i in zip(vs, idx):
                out *= v[i]
            return out

        oracle = EntryOracle(sizes, f)
        X, diag = hier_cross(oracle, build_tree(4, "balanced"), 1e-12,
                             rng=np.random.default_rng(1))
        assert set(X.ranks.values()) == {1}
        worst = 0.0
        for idx in itertools.product(*(range(n) for n in sizes)):
            worst = max(worst, abs(ht_entry(X, idx) - f(idx)))
        scale = max(abs(f(idx)) for idx in itertools.product(*(range(n) for n in sizes)))
        assert worst / scale < 1e-10

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
        X_loose, d_loose = hier_cross(dense_oracle(T0), tree, 1.0,
                                      rng=np.random.default_rng(3))
        X_tight, d_tight = hier_cross(dense_oracle(T0), tree, 1e-6,
                                      rng=np.random.default_rng(3))
        assert max(X_loose.ranks.values()) == 1
        assert d_loose.entries_evaluated <= d_tight.entries_evaluated

    def test_interpolation_property(self, rng):
        # on an exactly recovered tensor the skeleton agrees with the source
        # on every pivot row and column of every node matricization
        tree = build_tree(3, "balanced")
        sizes = (4, 3, 4)
        X0 = random_htensor(tree, sizes, 2, rng)
        T0 = ht_full(X0)
        X, diag = hier_cross(dense_oracle(T0), tree, 1e-12,
                             rng=np.random.default_rng(4))
        T1 = ht_full(X)
        scale = abs(T0).max()
        for nd in diag.nodes:
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
            X, diag = hier_cross(dense_oracle(T0), tree, 1e-8,
                                 rng=np.random.default_rng(77))
            runs.append((diag.entries_evaluated,
                         [(nd.modes, nd.rank, tuple(map(tuple, nd.rows)),
                           tuple(map(tuple, nd.cols))) for nd in diag.nodes]))
        assert runs[0] == runs[1]

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
        vs = [rng.standard_normal(n) + 2.0 for n in sizes]

        def f(idx):
            out = 1.0
            for v, i in zip(vs, idx):
                out *= v[i]
            return out

        base = EntryOracle(sizes, f)
        src = ColumnSource.from_entry_oracle(base)
        res = approximate_tensor(src, build_tree(4, "balanced"), 1e-10,
                                 rng=np.random.default_rng(5))
        assert res.step1_evals >= 1              # at least one full fiber
        assert base.count >= sizes[-1]           # that fiber has #J_d entries
        probes = np.column_stack([rng.integers(0, n, 500) for n in sizes])
        exact = np.array([f(tuple(r)) for r in probes])
        err = np.abs(ht_entries(res.tensor, probes) - exact).max()
        assert err / np.abs(exact).max() < 1e-8

    def test_single_collocation_point(self, rng):
        # one parametric point, large spatial mode: step counts are 1 and 1
        u = rng.standard_normal(2000)
        sizes = (1,) * 10 + (2000,)
        base = EntryOracle(sizes, lambda idx: u[idx[-1]])
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

    def test_accounting(self, rng):
        tree = build_tree(4, "balanced")
        X0 = random_htensor(tree, (4, 4, 4, 6), 3, rng)
        T0 = ht_full(X0)
        src = ColumnSource.from_entry_oracle(dense_oracle(T0))
        res = approximate_tensor(src, tree, 1e-8, rng=np.random.default_rng(10))
        assert res.step1_evals + res.step2_fibers == src.n_fetched
        assert res.step2_evals == res.cross_diag.entries_evaluated

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
        with pytest.raises(ValueError):
            approximate_tensor(src, build_tree(2, "balanced"), 0.0)

    def test_diagnostics_csv(self, rng, tmp_path):
        tree = build_tree(3, "balanced")
        X0 = random_htensor(tree, (3, 3, 4), 2, rng)
        T0 = ht_full(X0)
        src = ColumnSource.from_entry_oracle(dense_oracle(T0))
        res = approximate_tensor(src, tree, 1e-8, rng=np.random.default_rng(12))
        path = tmp_path / "diag.csv"
        res.cross_diag.write_csv(path)
        text = path.read_text()
        assert "modes,rank,row_pivots,col_pivots,residual" in text
        assert "entries_evaluated" in text
