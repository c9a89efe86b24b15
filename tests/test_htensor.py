import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mltc.errors import SizeCapError
from mltc.htensor import (HTensor, build_tree, contract_modes, ht_coefficients,
                          ht_contract, ht_entries, ht_entry, ht_from_dense,
                          ht_full, ht_norm, load_htensor, save_htensor,
                          storage_and_ranks)

from conftest import random_htensor


class TestBuildTree:
    def test_balanced_five(self):
        tree = build_tree(5, "balanced")
        modes = {tuple(n.modes) for n in tree.nodes}
        assert (0, 1, 2, 3, 4) in modes
        assert (0, 1, 2) in modes and (3, 4) in modes
        assert (0, 1) in modes and (2,) in modes

    def test_single_mode(self):
        tree = build_tree(1, "balanced")
        assert len(tree.nodes) == 1
        assert tree.nodes[0].is_leaf and tree.nodes[0].parent == -1

    def test_linear_three(self):
        tree = build_tree(3, "linear")
        root = tree.nodes[tree.root]
        left, right = (tree.nodes[c] for c in root.children)
        assert left.modes == (0,) and right.modes == (1, 2)
        gl, gr = (tree.nodes[c] for c in right.children)
        assert gl.modes == (1,) and gr.modes == (2,)

    def test_zero_modes_rejected(self):
        with pytest.raises(ValueError):
            build_tree(0, "balanced")
        with pytest.raises(ValueError):
            build_tree(3, "fancy")

    @pytest.mark.parametrize("shape", ["balanced", "linear"])
    def test_partition_property(self, shape):
        for d in range(1, 33):
            tree = build_tree(d, shape)
            for node in tree.nodes:
                if not node.is_leaf:
                    l, r = (tree.nodes[c] for c in node.children)
                    assert set(l.modes) | set(r.modes) == set(node.modes)
                    assert not set(l.modes) & set(r.modes)
            assert sorted(tree.leaf_of_mode) == list(range(d))
            if shape == "balanced":
                for node in tree.nodes:
                    if not node.is_leaf:
                        l, r = (tree.nodes[c] for c in node.children)
                        assert abs(len(l.modes) - len(r.modes)) <= 1


def rank_one_ones(tree, sizes):
    frames = {n.index: np.ones((sizes[n.modes[0]], 1)) for n in tree.leaves()}
    transfers = {n.index: np.ones((1, 1, 1)) for n in tree.internal_nodes()}
    return HTensor(tree, sizes, frames, transfers)


class TestEntry:
    def test_rank_one_all_ones(self):
        tree = build_tree(4, "balanced")
        X = rank_one_ones(tree, (2, 3, 2, 3))
        for idx in [(0, 0, 0, 0), (1, 2, 1, 2), (0, 1, 1, 0)]:
            assert ht_entry(X, idx) == 1.0

    def test_matches_full(self, rng):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 3, 3, 3), 2, rng)
        T = ht_full(X)
        scale = abs(T).max()
        for _ in range(50):
            idx = tuple(rng.integers(3, size=4))
            assert abs(ht_entry(X, idx) - T[idx]) < 1e-12 * scale

    def test_round_trip_through_from_dense(self, rng):
        T = rng.standard_normal((2, 2, 2))
        tree = build_tree(3, "balanced")
        X = ht_from_dense(T, tree, 1e-14)
        for idx in np.ndindex(2, 2, 2):
            assert abs(ht_entry(X, idx) - T[idx]) < 1e-12 * abs(T[idx])

    def test_out_of_range(self, rng):
        tree = build_tree(3, "balanced")
        X = random_htensor(tree, (2, 2, 2), 2, rng)
        with pytest.raises(ValueError):
            ht_entry(X, (0, 2, 0))
        with pytest.raises(ValueError):
            ht_entries(X, [(0, 0, 0), (0, -3, 0)])


class TestFull:
    def test_scalar_tensor(self):
        tree = build_tree(1, "balanced")
        X = HTensor(tree, (1,), {0: np.array([[2.5]])}, {})
        assert ht_full(X).shape == (1,)
        assert ht_full(X)[0] == 2.5

    def test_rank_one_outer_product(self, rng):
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(2)
        tree = build_tree(3, "balanced")
        frames = {tree.leaf_of_mode[0]: a[:, None], tree.leaf_of_mode[1]: b[:, None],
                  tree.leaf_of_mode[2]: c[:, None]}
        transfers = {n.index: np.ones((1, 1, 1)) for n in tree.internal_nodes()}
        X = HTensor(tree, (3, 4, 2), frames, transfers)
        ref = np.einsum("a,b,c->abc", a, b, c)
        assert np.allclose(ht_full(X), ref, atol=1e-14)

    def test_entry_consistency(self, rng):
        tree = build_tree(5, "linear")
        X = random_htensor(tree, (2, 3, 2, 2, 3), 3, rng)
        T = ht_full(X)
        for _ in range(100):
            idx = tuple(int(rng.integers(n)) for n in X.mode_sizes)
            assert np.isclose(T[idx], ht_entry(X, idx), rtol=1e-12, atol=1e-14)

    def test_size_cap(self, rng):
        tree = build_tree(3, "balanced")
        X = random_htensor(tree, (100, 100, 101), 1, rng)
        with pytest.raises(SizeCapError):
            ht_full(X)


class TestFromDense:
    def test_rank_one_gives_unit_ranks(self, rng):
        a, b, c = rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal(5)
        T = np.einsum("a,b,c->abc", a, b, c)
        X = ht_from_dense(T, build_tree(3, "balanced"), 1e-12)
        assert set(X.ranks.values()) == {1}

    def test_two_term_rank_bound(self, rng):
        T = np.zeros((4, 4, 4))
        for _ in range(2):
            a, b, c = (rng.standard_normal(4) for _ in range(3))
            T += np.einsum("a,b,c->abc", a, b, c)
        X = ht_from_dense(T, build_tree(3, "balanced"), 1e-10)
        for node_index, r in X.ranks.items():
            if node_index != X.tree.root:
                assert r <= 2

    def test_zero_tensor(self):
        X = ht_from_dense(np.zeros((3, 2, 3)), build_tree(3, "balanced"), 1e-12)
        assert set(X.ranks.values()) == {1}
        assert ht_norm(X) == 0.0

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_reconstruction_bound(self, d, rng):
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(d))
        T = rng.standard_normal(sizes)
        tol = 1e-3
        X = ht_from_dense(T, build_tree(d, "balanced"), tol)
        err = np.linalg.norm((ht_full(X) - T).ravel())
        assert err <= tol * math.sqrt(2 * d - 3) * np.linalg.norm(T.ravel())


class TestNorm:
    def test_all_ones(self):
        tree = build_tree(4, "balanced")
        X = rank_one_ones(tree, (2, 3, 2, 2))
        assert np.isclose(ht_norm(X), math.sqrt(2 * 3 * 2 * 2))

    def test_matches_dense(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            tree = build_tree(d, "balanced")
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(d))
            X = random_htensor(tree, sizes, 3, rng)
            dense = np.linalg.norm(ht_full(X).ravel())
            assert np.isclose(ht_norm(X), dense, rtol=1e-10)

    def test_scaling_homogeneity(self, rng):
        tree = build_tree(3, "linear")
        X = random_htensor(tree, (3, 4, 2), 2, rng)
        assert np.isclose(ht_norm(X.scaled(-2.5)), 2.5 * ht_norm(X), rtol=1e-12)


class TestContract:
    def test_rank_one_factorization(self, rng):
        a, b, c = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        tree = build_tree(3, "balanced")
        frames = {tree.leaf_of_mode[0]: a[:, None], tree.leaf_of_mode[1]: b[:, None],
                  tree.leaf_of_mode[2]: c[:, None]}
        transfers = {n.index: np.ones((1, 1, 1)) for n in tree.internal_nodes()}
        X = HTensor(tree, (3, 4, 5), frames, transfers)
        u, v = rng.standard_normal(3), rng.standard_normal(4)
        out = contract_modes(X, {0: u, 1: v})
        assert np.allclose(out, (u @ a) * (v @ b) * c)

    def test_unit_vector_slice(self, rng):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 3, 3, 3), 2, rng)
        e1 = np.eye(3)[1]
        out = contract_modes(X, {0: e1, 1: e1, 3: e1})
        for j in range(3):
            assert np.isclose(out[j], ht_entry(X, (1, 1, j, 1)), rtol=1e-12)

    def test_matches_dense_contraction(self, rng):
        tree = build_tree(4, "linear")
        X = random_htensor(tree, (3, 2, 4, 3), 3, rng)
        T = ht_full(X)
        w = {i: rng.standard_normal(X.mode_sizes[i]) for i in (0, 2, 3)}
        out = contract_modes(X, w)
        ref = np.einsum("abcd,a,c,d->b", T, w[0], w[2], w[3])
        assert np.allclose(out, ref)

    def test_two_free_modes_rejected(self, rng):
        X = random_htensor(build_tree(4, "linear"), (3, 2, 4, 3), 2, rng)
        with pytest.raises(ValueError):
            contract_modes(X, {0: np.ones(3), 2: np.ones(4)})

    def test_all_modes_equals_entry(self, rng):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 3, 3, 3), 2, rng)
        idx = (2, 0, 1, 2)
        w = {i: np.eye(3)[j] for i, j in enumerate(idx)}
        assert np.isclose(contract_modes(X, w), ht_entry(X, idx), rtol=1e-12)

    def test_length_mismatch(self, rng):
        tree = build_tree(3, "balanced")
        X = random_htensor(tree, (3, 4, 2), 2, rng)
        with pytest.raises(ValueError):
            contract_modes(X, {0: np.ones(4)})


def dense_contract(T, weights, out):
    """np.einsum of T with weights[m], whose last axis runs over mode m and
    whose leading axis, if it has two, is the sample axis (labelled T.ndim)."""
    ops = [T, list(range(T.ndim))]
    for m, W in weights.items():
        ops += [W, [T.ndim, m][-W.ndim:]]
    return np.einsum(*ops, out)


def assert_matches_dense(got, X, weights, out):
    """got agrees with the dense contraction to within rounding.

    The bound is the same contraction of |X| (every frame and transfer tensor
    replaced by its absolute value) with |weights|, which bounds the sum of
    absolute products that any evaluation order adds up.
    """
    abs_X = HTensor(X.tree, X.mode_sizes,
                    {k: abs(U) for k, U in X.leaf_frames.items()},
                    {k: abs(B) for k, B in X.transfers.items()})
    want = dense_contract(ht_full(X), weights, out)
    bound = dense_contract(ht_full(abs_X), {m: abs(W) for m, W in weights.items()}, out)
    got = np.asarray(got).reshape(want.shape)
    assert np.all(abs(got - want) <= 1e-12 * bound)


def with_identity_leaf(X, mode):
    """X with the leaf frame of `mode` replaced by the identity over its rank."""
    leaf = X.tree.leaf_of_mode[mode]
    r = X.ranks[leaf]
    frames = dict(X.leaf_frames)
    frames[leaf] = np.eye(r)
    sizes = list(X.mode_sizes)
    sizes[mode] = r
    return HTensor(X.tree, sizes, frames, dict(X.transfers))


@st.composite
def random_tensors(draw):
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["balanced", "linear"]))
    rmax = draw(st.integers(1, 3))
    M = draw(st.integers(1, 5))
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = random_htensor(build_tree(d, shape), sizes, rmax, rng)
    return X, M, rng


def low_order_case(d, shape):
    rng = np.random.default_rng(d)
    return random_htensor(build_tree(d, shape), (3,) * d, 2, rng), 2, rng


class TestContractProperties:
    @settings(max_examples=80, deadline=None)
    @given(random_tensors())
    @example(low_order_case(1, "balanced"))
    @example(low_order_case(2, "linear"))
    def test_ht_contract_matches_dense(self, case):
        X, M, rng = case
        d = X.order
        for free_mode in [None] + list(range(d)):
            W = {m: rng.standard_normal((M, n)) for m, n in enumerate(X.mode_sizes)
                 if m != free_mode}
            rows = {m: W[m] @ X.leaf_frames[X.tree.leaf_of_mode[m]] for m in W}
            cases = [(ht_contract(X, rows, free_mode), X)]
            coef = ht_coefficients(X, rows, free_mode)
            if free_mode is None:   # the (M, 1) root values
                assert coef.shape == (M, 1)
                cases.append((coef[:, 0], X))
            else:   # the contraction with the free leaf frame replaced by the identity
                cases.append((coef, with_identity_leaf(X, free_mode)))
            for got, Xd in cases:
                if not W:   # order 1 with its only mode free: one row, the tensor itself
                    assert got.shape == (1, Xd.mode_sizes[0])
                    assert_matches_dense(got, Xd, {}, [0])
                else:
                    out = [d] + ([] if free_mode is None else [free_mode])
                    assert got.shape == (M,) + tuple(Xd.mode_sizes[m] for m in out[1:])
                    assert_matches_dense(got, Xd, W, out)

    @settings(max_examples=80, deadline=None)
    @given(random_tensors())
    def test_ht_entries_matches_dense(self, case):
        X, M, rng = case
        idx = np.column_stack([rng.integers(0, n, M) for n in X.mode_sizes])
        one_hot = {m: np.eye(n)[idx[:, m]] for m, n in enumerate(X.mode_sizes)}
        got = ht_entries(X, idx)
        assert got.shape == (M,)
        assert_matches_dense(got, X, one_hot, [X.order])
        first = {m: W[:1] for m, W in one_hot.items()}
        assert_matches_dense(ht_entry(X, idx[0]), X, first, [X.order])

    @settings(max_examples=80, deadline=None)
    @given(random_tensors(), st.data())
    def test_contract_modes_matches_dense(self, case, data):
        X, _, rng = case
        modes = data.draw(st.sets(st.integers(0, X.order - 1)))
        w = {m: rng.standard_normal(X.mode_sizes[m]) for m in modes}
        free = [m for m in range(X.order) if m not in w]
        if len(free) > 1:
            with pytest.raises(ValueError):
                contract_modes(X, w)
        else:
            assert_matches_dense(contract_modes(X, w), X, w, free)

    def test_rows_must_cover_contracted_modes(self, rng):
        X = random_htensor(build_tree(3, "balanced"), (2, 3, 2), 2, rng)
        rows = {m: np.ones((1, X.ranks[X.tree.leaf_of_mode[m]])) for m in (0, 1)}
        with pytest.raises(ValueError):
            ht_contract(X, rows)
        with pytest.raises(ValueError):
            ht_contract(X, rows, free_mode=1)
        assert ht_contract(X, rows, free_mode=2).shape == (1, 2)
        with pytest.raises(ValueError):
            ht_coefficients(X, rows)
        r_free = X.ranks[X.tree.leaf_of_mode[2]]
        assert ht_coefficients(X, rows, free_mode=2).shape == (1, r_free)


class TestStorage:
    def test_degenerate_collocation_row(self):
        # 10 parametric modes of size 1 plus one spatial mode, all ranks 1
        tree = build_tree(11, "balanced")
        sizes = (1,) * 10 + (263169,)
        frames = {n.index: np.ones((sizes[n.modes[0]], 1)) for n in tree.leaves()}
        transfers = {n.index: np.ones((1, 1, 1)) for n in tree.internal_nodes()}
        X = HTensor(tree, sizes, frames, transfers)
        rep = storage_and_ranks(X)
        assert rep.r_max == 1
        assert abs(rep.r_eff - 1.0) <= 0.01

    def test_matrix_case(self, rng):
        n, r = 200, 3
        tree = build_tree(2, "balanced")
        frames = {tree.leaf_of_mode[0]: rng.standard_normal((n, r)),
                  tree.leaf_of_mode[1]: rng.standard_normal((n, r))}
        transfers = {tree.root: rng.standard_normal((1, r, r))}
        X = HTensor(tree, (n, n), frames, transfers)
        rep = storage_and_ranks(X)
        assert rep.storage_scalars == 2 * n * r + r * r
        assert abs(rep.r_eff - r) < 0.1

    def test_minimal_storage(self):
        tree = build_tree(5, "balanced")
        X = rank_one_ones(tree, (1, 1, 1, 1, 1))
        assert storage_and_ranks(X).storage_scalars >= 5

    def test_root_reproduces_storage(self, rng):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 5, 4, 6), 3, rng)
        rep = storage_and_ranks(X)
        d = X.order
        value = (d - 1) * rep.r_eff**3 + rep.r_eff * sum(X.mode_sizes)
        assert abs(value - rep.storage_scalars) < 1e-6 * rep.storage_scalars


class TestRandomizedAgreement:
    def test_entry_and_norm_agree_with_dense(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            shape = "balanced" if rng.integers(2) else "linear"
            tree = build_tree(d, shape)
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(d))
            X = random_htensor(tree, sizes, 3, rng)
            T = ht_full(X)
            scale = max(abs(T).max(), 1e-300)
            idx = tuple(int(rng.integers(n)) for n in sizes)
            assert abs(ht_entry(X, idx) - T[idx]) <= 1e-12 * scale
            nrm = np.linalg.norm(T.ravel())
            assert abs(ht_norm(X) - nrm) <= 1e-12 * max(nrm, 1e-300) + 1e-300


class TestSerialization:
    def test_round_trip_bit_exact(self, rng, tmp_path):
        tree = build_tree(5, "balanced")
        X = random_htensor(tree, (3, 2, 4, 2, 3), 3, rng)
        path = tmp_path / "tensor.npz"
        save_htensor(X, path)
        Y = load_htensor(path)
        assert Y.mode_sizes == X.mode_sizes
        assert Y.tree.shape == X.tree.shape
        for k, U in X.leaf_frames.items():
            assert np.array_equal(Y.leaf_frames[k], U)
        for k, B in X.transfers.items():
            assert np.array_equal(Y.transfers[k], B)
