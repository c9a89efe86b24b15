"""Hierarchical tensors over binary dimension trees.

A tensor of order d is stored through a binary tree whose root carries the
mode set {0,...,d-1}: every leaf holds one mode and an explicit frame matrix,
every internal node holds a small 3-way transfer tensor that expresses its
(implicit) frame in terms of its children's frames.  Storage is
sum(n_i * r_i) over leaves plus sum(r_t * r_t1 * r_t2) over internal nodes.

The tensors are built by cross approximation (cross.py) and read in two
ways, both through one batched contraction, ht_coefficients: every
contracted mode brings one already-reduced leaf-frame row per sample, a
single upward pass reduces the subtrees to (M, r_t) rows, and at most one
free mode is recovered by walking the root-to-leaf path down to its
(M, r_free) coefficients.  ht_entries gathers leaf rows at multi-indices and
keeps the root values (the entries the cross approximation validates); the
surrogate passes per-sample interpolation or quadrature weights and keeps the
coefficients of its spatial frame.  The upward pass takes one BLAS GEMM and
one batched matrix-vector product per node, the walk one GEMM per step, for
any M.  They sum in another order than a per-sample einsum, so the entries
step 2 of the cross approximation validates move in their last bits; on the
bundled configs and the benchmark's builds no pivot, count, rank or level
tensor bit moves with them.  ht_full densifies a small tensor, the
reference the tests compare against.  Modes are 0-based throughout; row
order of any frame is lexicographic in the node's sorted mode list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError

FULL_SIZE_CAP = 10**6


@dataclass(frozen=True)
class TreeNode:
    index: int
    modes: tuple
    parent: int          # -1 for the root
    children: tuple      # () for leaves, else (left, right)

    @property
    def is_leaf(self):
        return not self.children


class DimensionTree:
    """Binary mode-partition tree ('balanced' or 'linear' shape)."""

    def __init__(self, order: int, shape: str, nodes: list[TreeNode]):
        self.order = order
        self.shape = shape
        self.nodes = nodes
        self.root = 0
        self.leaf_of_mode = {}
        for node in nodes:
            if node.is_leaf:
                self.leaf_of_mode[node.modes[0]] = node.index
        self._validate()

    def _validate(self):
        root = self.nodes[self.root]
        if root.modes != tuple(range(self.order)):
            raise ValueError("root must hold all modes")
        for node in self.nodes:
            if node.is_leaf:
                if len(node.modes) != 1:
                    raise ValueError("leaves must hold a single mode")
            else:
                left, right = (self.nodes[c] for c in node.children)
                merged = tuple(sorted(left.modes + right.modes))
                if merged != node.modes or set(left.modes) & set(right.modes):
                    raise ValueError("children must partition the parent mode set")
        if sorted(self.leaf_of_mode) != list(range(self.order)):
            raise ValueError("every mode needs exactly one leaf")

    def internal_nodes(self):
        return [n for n in self.nodes if not n.is_leaf]

    def leaves(self):
        return [n for n in self.nodes if n.is_leaf]

    def complement(self, node: TreeNode) -> tuple:
        return tuple(m for m in range(self.order) if m not in node.modes)

    def breadth_first(self):
        order, queue = [], [self.root]
        while queue:
            i = queue.pop(0)
            order.append(i)
            queue.extend(self.nodes[i].children)
        return order

    def __repr__(self):
        return f"DimensionTree(order={self.order}, shape={self.shape!r}, nodes={len(self.nodes)})"


def build_tree(order: int, shape: str = "balanced") -> DimensionTree:
    """Build the dimension tree over modes 0..order-1.

    'balanced' halves each mode range (left child gets the larger half),
    'linear' splits off the first mode and recurses on the remainder.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if shape not in ("balanced", "linear"):
        raise ValueError(f"unknown tree shape {shape!r}")
    nodes = []

    def add(modes, parent):
        idx = len(nodes)
        nodes.append(None)  # reserve slot; children get appended after
        if len(modes) == 1:
            nodes[idx] = TreeNode(idx, modes, parent, ())
            return idx
        if shape == "balanced":
            half = (len(modes) + 1) // 2
        else:
            half = 1
        left = add(modes[:half], idx)
        right = add(modes[half:], idx)
        nodes[idx] = TreeNode(idx, modes, parent, (left, right))
        return idx

    add(tuple(range(order)), -1)
    return DimensionTree(order, shape, nodes)


class HTensor:
    """Compressed tensor: leaf frames plus internal transfer tensors.

    leaf_frames maps a leaf node index to an (n_i, r_i) array; transfers maps
    an internal node index to an (r_t, r_left, r_right) array.  The root rank
    must be 1.  Instances are immutable by convention: operations return new
    objects and never mutate stored arrays.
    """

    def __init__(self, tree: DimensionTree, mode_sizes, leaf_frames: dict, transfers: dict):
        self.tree = tree
        self.mode_sizes = tuple(int(s) for s in mode_sizes)
        self.leaf_frames = leaf_frames
        self.transfers = transfers
        self._check()

    def _check(self):
        if len(self.mode_sizes) != self.tree.order:
            raise ValueError("mode_sizes length must equal the tree order")
        ranks = {}
        for node in self.tree.leaves():
            U = self.leaf_frames[node.index]
            if U.ndim != 2 or U.shape[0] != self.mode_sizes[node.modes[0]]:
                raise ValueError(f"leaf frame at node {node.index} has wrong shape")
            if U.shape[1] < 1:
                raise ValueError("ranks must be at least 1")
            ranks[node.index] = U.shape[1]
        for node in self.tree.internal_nodes():
            B = self.transfers[node.index]
            if B.ndim != 3:
                raise ValueError("transfer tensors must be 3-way")
            ranks[node.index] = B.shape[0]
        for node in self.tree.internal_nodes():
            B = self.transfers[node.index]
            r1, r2 = ranks[node.children[0]], ranks[node.children[1]]
            if B.shape[1:] != (r1, r2):
                raise ValueError(f"transfer tensor at node {node.index} mismatches child ranks")
        if ranks[self.tree.root] != 1:
            raise ValueError("root rank must be 1")
        self._ranks = ranks

    @property
    def order(self):
        return self.tree.order

    @property
    def ranks(self) -> dict:
        return dict(self._ranks)

    def scaled(self, alpha: float) -> "HTensor":
        """Return alpha * self (scales the root transfer tensor)."""
        transfers = dict(self.transfers)
        root = self.tree.root
        transfers[root] = alpha * self.transfers[root]
        return HTensor(self.tree, self.mode_sizes, dict(self.leaf_frames), transfers)

    def __repr__(self):
        rmax = max(self._ranks.values())
        return f"HTensor(sizes={self.mode_sizes}, r_max={rmax})"


def ht_coefficients(X: HTensor, rows: dict, free_mode: int | None = None) -> np.ndarray:
    """Per-sample coefficients in the free leaf's frame after contracting the rest.

    free_mode is None or one of X's modes, and rows maps every other mode to
    an (M, r_leaf) array whose row m is sample m's weight vector already
    multiplied into that mode's leaf frame; every array must be 2-D, with the
    M of the first and its leaf's rank as column count, or ValueError names
    the mode.  One upward pass reduces every subtree off the
    root-to-free-leaf path to (M, r_t) rows, one BLAS GEMM and one batched
    matrix-vector product per node: with V1 and V2 the (M, a) and (M, b)
    rows of its children and B its (s, a, b) transfer tensor, the GEMM
    T = V2 @ B.reshape(s*a, b).T, which reads B in place, is viewed as
    (M, s, a) and each sample's V1 row contracts its own slice of T.
    Without a free mode that pass is all there is, and its (M, 1) root
    values (the root rank is 1) are the result, which ht_entries and so the
    cross approximation's validation read.  With a free mode the path is
    walked from the root down to the (M, r_free) coefficients of the free
    leaf frame, one BLAS GEMM per step: with C the (M, s) coefficients at a
    node and B its (s, a, b) transfer tensor, the path child's axis last,
    T = C @ B.reshape(s, a*b) is viewed as (M, a, b) and each sample's
    sibling row contracts its own slice of T.  At the root s = 1 and C is 1,
    so that step is the GEMM of the sibling rows with B[0].
    """
    tree = X.tree
    leaves = tree.leaf_of_mode
    if free_mode is not None and free_mode not in leaves:
        raise ValueError(f"free mode {free_mode!r} is not one of the modes 0..{X.order - 1}")
    if (len(rows) != X.order - (free_mode is not None) or free_mode in rows
            or not rows.keys() <= leaves.keys()):
        expected = sorted(set(range(X.order)) - {free_mode})
        raise ValueError(f"rows must cover exactly the modes {expected}")
    # M from the first array; a 0-D first array gets -1, which no shape matches
    M = (next(iter(rows.values())).shape or (-1,))[0] if rows else 1
    for m, R in rows.items():
        want = (M, X._ranks[leaves[m]])
        if R.shape != want:
            raise ValueError(f"rows of mode {m} have shape {R.shape}, expected {want}: "
                             "one row per sample, as many as the first mode's, and one "
                             "column per rank of the mode's leaf")

    def up(node_index):
        node = tree.nodes[node_index]
        if not node.children:
            return rows[node.modes[0]]
        V1, V2 = map(up, node.children)
        B = X.transfers[node_index]
        s, a, b = B.shape
        T = (V2 @ B.reshape(s * a, b).T).reshape(M, s, a)
        return (T @ V1[:, :, None])[:, :, 0]

    if free_mode is None:
        return up(tree.root)
    C = np.ones((M, 1))
    node = tree.nodes[tree.root]
    while node.children:
        left, right = node.children
        B = X.transfers[node.index]
        if free_mode in tree.nodes[left].modes:
            child, B, V = left, B.transpose(0, 2, 1), up(right)
        else:
            child, V = right, up(left)
        s, a, b = B.shape
        if node.index == tree.root:
            C = V @ B[0]
        else:
            T = (C @ B.reshape(s, a * b)).reshape(M, a, b)
            C = (V[:, None, :] @ T)[:, 0]
        node = tree.nodes[child]
    return C


def ht_entries(X: HTensor, indices) -> np.ndarray:
    """Entries at an (m, d) integer array of multi-indices."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim != 2 or indices.shape[1] != X.order:
        raise ValueError(f"indices must be an (m, {X.order}) array of multi-indices")
    for i, n in enumerate(X.mode_sizes):
        col = indices[:, i]
        if col.min(initial=0) < 0 or col.max(initial=0) >= n:
            raise ValueError(f"index out of range for mode {i}")
    rows = {m: X.leaf_frames[leaf][indices[:, m]] for m, leaf in X.tree.leaf_of_mode.items()}
    return ht_coefficients(X, rows)[:, 0]


def ht_full(X: HTensor, size_cap: int = FULL_SIZE_CAP) -> np.ndarray:
    """Densify the represented tensor (axes in natural mode order)."""
    total = math.prod(X.mode_sizes)
    if total > size_cap:
        raise SizeCapError(f"full tensor has {total} entries, cap is {size_cap}")

    def expand(node_index):
        # returns (array of shape (prod sizes, r), mode order list)
        node = X.tree.nodes[node_index]
        if node.is_leaf:
            return X.leaf_frames[node_index], list(node.modes)
        F1, m1 = expand(node.children[0])
        F2, m2 = expand(node.children[1])
        B = X.transfers[node_index]
        F = np.einsum("sab,ia,jb->ijs", B, F1, F2)
        return F.reshape(F1.shape[0] * F2.shape[0], B.shape[0]), m1 + m2

    F, mode_order = expand(X.tree.root)
    shape = tuple(X.mode_sizes[m] for m in mode_order)
    T = F[:, 0].reshape(shape)
    return np.transpose(T, np.argsort(mode_order))


@dataclass(frozen=True)
class StorageReport:
    storage_scalars: int
    r_max: int
    r_eff: float


def storage_and_ranks(X: HTensor) -> StorageReport:
    """Storage count, maximal rank and the effective rank.

    The effective rank is the one real root of the strictly increasing cubic
    (d-1) * r^3 + r * sum_i(n_i) = storage, i.e. the uniform rank a tensor of
    these mode sizes would need to occupy the same number of scalars.
    """
    storage = 0
    for node in X.tree.leaves():
        storage += X.leaf_frames[node.index].size
    for node in X.tree.internal_nodes():
        storage += X.transfers[node.index].size
    r_max = max(X.ranks.values())
    roots = np.roots([X.order - 1, 0.0, float(sum(X.mode_sizes)), -float(storage)])
    r_eff = roots[np.argmin(np.abs(roots.imag))].real
    return StorageReport(int(storage), int(r_max), float(r_eff))
