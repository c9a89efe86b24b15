import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mltc.errors import SizeCapError
from mltc.htensor import (HTensor, build_tree, ht_coefficients, ht_entries,
                          ht_full, storage_and_ranks)

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
        idx = np.array([(0, 0, 0, 0), (1, 2, 1, 2), (0, 1, 1, 0)])
        assert np.all(ht_entries(X, idx) == 1.0)

    def test_matches_full(self, rng):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 3, 3, 3), 2, rng)
        T = ht_full(X)
        scale = abs(T).max()
        for _ in range(50):
            idx = tuple(rng.integers(3, size=4))
            assert abs(ht_entries(X, [idx])[0] - T[idx]) < 1e-12 * scale

    def test_out_of_range(self, rng):
        tree = build_tree(3, "balanced")
        X = random_htensor(tree, (2, 2, 2), 2, rng)
        with pytest.raises(ValueError):
            ht_entries(X, [(0, 2, 0)])
        with pytest.raises(ValueError):
            ht_entries(X, [(0, 0, 0), (0, -3, 0)])

    def test_only_index_arrays(self, rng):
        X = random_htensor(build_tree(3, "balanced"), (2, 2, 2), 2, rng)
        for bad in ([0, 1, 0], [[[0, 1, 0]]], [(0, 1)], np.zeros((2, 4), dtype=int)):
            with pytest.raises(ValueError):
                ht_entries(X, bad)
        assert ht_entries(X, np.zeros((0, 3), dtype=int)).shape == (0,)


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
            assert np.isclose(T[idx], ht_entries(X, [idx])[0], rtol=1e-12, atol=1e-14)

    def test_size_cap(self, rng):
        tree = build_tree(3, "balanced")
        X = random_htensor(tree, (100, 100, 101), 1, rng)
        with pytest.raises(SizeCapError):
            ht_full(X)

    def test_scaling_homogeneity(self, rng):
        tree = build_tree(3, "linear")
        X = random_htensor(tree, (3, 4, 2), 2, rng)
        assert np.allclose(ht_full(X.scaled(-2.5)), -2.5 * ht_full(X), rtol=1e-12)


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
def random_tensors(draw, batches=st.integers(1, 5)):
    d = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["balanced", "linear"]))
    rmax = draw(st.integers(1, 3))
    M = draw(batches)
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
    def test_ht_coefficients_matches_dense(self, case):
        X, M, rng = case
        d = X.order
        for free_mode in [None] + list(range(d)):
            W = {m: rng.standard_normal((M, n)) for m, n in enumerate(X.mode_sizes)
                 if m != free_mode}
            rows = {m: W[m] @ X.leaf_frames[X.tree.leaf_of_mode[m]] for m in W}
            coef = ht_coefficients(X, rows, free_mode)
            if free_mode is None:   # the (M, 1) root values
                assert coef.shape == (M, 1)
                cases = [(coef[:, 0], X)]
            else:   # times the free leaf frame, and with that frame replaced by the identity
                frame = X.leaf_frames[X.tree.leaf_of_mode[free_mode]]
                cases = [(coef @ frame.T, X), (coef, with_identity_leaf(X, free_mode))]
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
        assert_matches_dense(ht_entries(X, idx[:1]), X, first, [X.order])

    def test_rows_must_cover_contracted_modes(self, rng):
        X = random_htensor(build_tree(3, "balanced"), (2, 3, 2), 2, rng)
        rows = {m: np.ones((1, X.ranks[X.tree.leaf_of_mode[m]])) for m in (0, 1)}
        with pytest.raises(ValueError):
            ht_coefficients(X, rows)
        with pytest.raises(ValueError):
            ht_coefficients(X, rows, free_mode=1)
        r_free = X.ranks[X.tree.leaf_of_mode[2]]
        assert ht_coefficients(X, rows, free_mode=2).shape == (1, r_free)
        # a free mode that is no mode of X, with rows for all of them
        rows[2] = np.ones((1, r_free))
        for bad in (3, -1):
            with pytest.raises(ValueError, match="free mode"):
                ht_coefficients(X, rows, free_mode=bad)


def einsum_walk(X, rows, free_mode=None):
    """The contraction as three-operand einsums: the recursive upward pass
    "sab,ma,mb->ms", then the root-to-free-leaf walk with the coefficients,
    the transfer tensor and the sibling's rows in one einsum per step."""
    tree = X.tree

    def up(node_index):
        node = tree.nodes[node_index]
        if node.is_leaf:
            return rows[node.modes[0]]
        return np.einsum("sab,ma,mb->ms", X.transfers[node_index],
                         up(node.children[0]), up(node.children[1]))

    if free_mode is None:
        return up(tree.root)
    path = [tree.leaf_of_mode[free_mode]]
    while path[-1] != tree.root:
        path.append(tree.nodes[path[-1]].parent)
    M = next(iter(rows.values())).shape[0] if rows else 1
    C = np.ones((M, 1))
    for parent, child in zip(path[::-1], path[-2::-1]):
        left, right = tree.nodes[parent].children
        B = X.transfers[parent]
        if child == left:
            C = np.einsum("ms,sab,mb->ma", C, B, up(right))
        else:
            C = np.einsum("ms,sab,ma->mb", C, B, up(left))
    return C


def random_rows(X, M, rng, free_mode=None):
    return {m: rng.standard_normal((M, X.ranks[X.tree.leaf_of_mode[m]]))
            for m in range(X.order) if m != free_mode}


BATCHES = st.sampled_from([0, 1, 2, 7, 64])


class TestContractionPaths:
    # ht_entries, and so the cross approximation's validation, reads the
    # upward pass alone: it must keep every bit of the einsum reference, or
    # the builds' pivots and counts move
    @settings(max_examples=60, deadline=None)
    @given(random_tensors(BATCHES))
    @example(low_order_case(4, "balanced"))
    @example(low_order_case(4, "linear"))
    def test_upward_pass_bitwise(self, case):
        X, M, rng = case
        rows = random_rows(X, M, rng)
        got = ht_coefficients(X, rows)
        assert got.shape == (M, 1)
        assert got.tobytes() == einsum_walk(X, rows).tobytes()
        idx = np.column_stack([rng.integers(0, n, M) for n in X.mode_sizes])
        leaf_rows = {m: X.leaf_frames[X.tree.leaf_of_mode[m]][idx[:, m]]
                     for m in range(X.order)}
        entries = ht_entries(X, idx)
        assert entries.shape == (M,)
        assert entries.tobytes() == einsum_walk(X, leaf_rows)[:, 0].tobytes()

    # the walk takes one GEMM per step and so sums in another order than the
    # einsum walk; every free mode of both tree shapes runs the left-child and
    # the right-child branch, at the root and below it
    @settings(max_examples=60, deadline=None)
    @given(random_tensors(BATCHES))
    @example(low_order_case(4, "balanced"))
    @example(low_order_case(4, "linear"))
    @example((random_htensor(build_tree(5, "linear"), (2,) * 5, 3,
                             np.random.default_rng(5)), 64, np.random.default_rng(6)))
    def test_walk_matches_einsum_walk(self, case):
        X, M, rng = case
        abs_X = HTensor(X.tree, X.mode_sizes,
                        {k: abs(U) for k, U in X.leaf_frames.items()},
                        {k: abs(B) for k, B in X.transfers.items()})
        for free_mode in range(X.order):
            rows = random_rows(X, M, rng, free_mode)
            got = ht_coefficients(X, rows, free_mode)
            r_free = X.ranks[X.tree.leaf_of_mode[free_mode]]
            assert got.shape == ((M if rows else 1), r_free)
            bound = einsum_walk(abs_X, {m: abs(R) for m, R in rows.items()}, free_mode)
            assert np.all(abs(got - einsum_walk(X, rows, free_mode)) <= 1e-14 * bound)

    @pytest.mark.parametrize("shape", ["balanced", "linear"])
    def test_empty_batch_shapes(self, shape, rng):
        X = random_htensor(build_tree(5, shape), (2, 3, 2, 3, 2), 3, rng)
        for free_mode in [None] + list(range(5)):
            got = ht_coefficients(X, random_rows(X, 0, rng, free_mode), free_mode)
            r = 1 if free_mode is None else X.ranks[X.tree.leaf_of_mode[free_mode]]
            assert got.shape == (0, r)


class TestRowChecks:
    @pytest.fixture
    def tensor(self, rng):
        return random_htensor(build_tree(3, "balanced"), (2, 3, 2), 3, rng)

    def rows(self, X, counts, free_mode=None):
        return {m: np.ones((M, X.ranks[X.tree.leaf_of_mode[m]]))
                for m, M in zip((m for m in range(3) if m != free_mode), counts)}

    @pytest.mark.parametrize("free_mode", [None, 2])
    @pytest.mark.parametrize("counts", [(1, 5), (5, 1), (2, 3)])
    def test_sample_counts_must_agree(self, tensor, counts, free_mode):
        # einsum would broadcast a one-row mode against the others
        rows = self.rows(tensor, counts + (5,), free_mode)
        with pytest.raises(ValueError, match="rows of mode 1 "):
            ht_coefficients(tensor, rows, free_mode)

    @pytest.mark.parametrize("free_mode", [None, 0])
    def test_rows_must_be_two_dimensional(self, tensor, free_mode):
        rows = self.rows(tensor, (4, 4, 4), free_mode)
        mode = 2
        for bad in (rows[mode][0], rows[mode][None], np.float64(1.0)):
            with pytest.raises(ValueError, match=f"rows of mode {mode} "):
                ht_coefficients(tensor, {**rows, mode: bad}, free_mode)
        first = next(iter(rows))
        with pytest.raises(ValueError, match=f"rows of mode {first} "):
            ht_coefficients(tensor, {**rows, first: rows[first][0]}, free_mode)

    @pytest.mark.parametrize("free_mode", [None, 1])
    def test_columns_must_match_leaf_rank(self, tensor, free_mode):
        rows = self.rows(tensor, (4, 4, 4), free_mode)
        for mode, R in rows.items():
            for bad in (R[:, :-1], np.hstack([R, R[:, :1]])):
                with pytest.raises(ValueError, match=f"rows of mode {mode} "):
                    ht_coefficients(tensor, {**rows, mode: bad}, free_mode)


class TestConstructorChecks:
    @pytest.mark.parametrize("breakage, message", [
        ("short mode_sizes", "mode_sizes length must equal the tree order"),
        ("short leaf", r"leaf frame at node \d+ has wrong shape"),
        ("rank-0 leaf", "ranks must be at least 1"),
        ("2-way transfer", "transfer tensors must be 3-way"),
        ("wide child rank", r"transfer tensor at node \d+ mismatches child ranks"),
        ("root rank 2", "root rank must be 1"),
    ])
    def test_inconsistent_parts_rejected(self, rng, breakage, message):
        tree = build_tree(4, "balanced")
        X = random_htensor(tree, (3, 5, 4, 6), 3, rng)
        sizes, frames, transfers = X.mode_sizes, X.leaf_frames, X.transfers
        leaf, inner = tree.leaf_of_mode[0], tree.nodes[tree.root].children[0]
        U, B, R = frames[leaf], transfers[inner], transfers[tree.root]
        parts = {
            "short mode_sizes": (sizes[:-1], frames, transfers),
            "short leaf": (sizes, {**frames, leaf: U[:-1]}, transfers),
            "rank-0 leaf": (sizes, {**frames, leaf: U[:, :0]}, transfers),
            "2-way transfer": (sizes, frames, {**transfers, inner: B[..., 0]}),
            "wide child rank": (sizes, frames, {
                **transfers, inner: np.concatenate([B, B[:, :1]], axis=1)}),
            "root rank 2": (sizes, frames, {**transfers, tree.root: np.concatenate([R, R])}),
        }
        with pytest.raises(ValueError, match=message):
            HTensor(tree, *parts[breakage])


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(["balanced", "linear"]), st.data())
    def test_effective_rank_is_the_root_of_the_cost(self, d, shape, data):
        # the effective rank is the real root of the storage cubic, to round-off
        sizes = tuple(data.draw(st.lists(st.integers(1, 300), min_size=d, max_size=d)))
        rmax, seed = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 2**16))
        X = random_htensor(build_tree(d, shape), sizes, rmax, np.random.default_rng(seed))
        rep = storage_and_ranks(X)
        cost = (d - 1) * rep.r_eff**3 + rep.r_eff * sum(sizes)
        assert abs(cost - rep.storage_scalars) <= 1e-12 * rep.storage_scalars

    @pytest.mark.parametrize("n", [1, 7, 263169])
    def test_order_one_effective_rank(self, n):
        # a single frame costs r * n, so its effective rank is its rank exactly
        X = random_htensor(build_tree(1), (n,), 1, np.random.default_rng(0))
        rep = storage_and_ranks(X)
        assert rep.storage_scalars == n and rep.r_eff == 1.0


class TestRandomizedAgreement:
    def test_entry_agrees_with_dense(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 6))
            shape = "balanced" if rng.integers(2) else "linear"
            tree = build_tree(d, shape)
            sizes = tuple(int(rng.integers(2, 5)) for _ in range(d))
            X = random_htensor(tree, sizes, 3, rng)
            T = ht_full(X)
            scale = max(abs(T).max(), 1e-300)
            idx = tuple(int(rng.integers(n)) for n in sizes)
            assert abs(ht_entries(X, [idx])[0] - T[idx]) <= 1e-12 * scale

