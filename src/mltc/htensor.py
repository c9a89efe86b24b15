"""Hierarchical tensors over binary dimension trees.

A tensor of order d is stored through a binary tree whose root carries the
mode set {0,...,d-1}: every leaf holds one mode and an explicit frame matrix,
every internal node holds a small 3-way transfer tensor that expresses its
(implicit) frame in terms of its children's frames.  Storage is
sum(n_i * r_i) over leaves plus sum(r_t * r_t1 * r_t2) over internal nodes.

Entries and mode contractions share one batched contraction,
ht_coefficients: every contracted mode brings one already-reduced leaf-frame
row per sample, a single upward pass reduces the subtrees to (M, r_t) rows,
and at most one free mode is recovered by walking the root-to-leaf path down
to its (M, r_free) coefficients.  ht_contract multiplies those once by the
free leaf's frame; ht_entries gathers leaf rows for it, and contract_modes
multiplies weight vectors into them.  The surrogate passes per-sample
interpolation weights to ht_coefficients and keeps the coefficients, since
it maps its spatial frames to nodal values once per build.  Full
reconstruction (ht_full), Frobenius norms (ht_norm, a Gram recursion) and a
truncated-SVD constructor from dense input complete the module.  Modes are
0-based throughout; row order of any frame is lexicographic in the node's
sorted mode list.
"""

from __future__ import annotations

import json
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

    def depth_first(self):
        """Node indices ordered so children precede parents."""
        order = []

        def visit(i):
            node = self.nodes[i]
            for c in node.children:
                visit(c)
            order.append(i)

        visit(self.root)
        return order

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

    def rank_of(self, node_index):
        return self._ranks[node_index]

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

    rows maps each contracted mode to an (M, r_leaf) array whose row m is
    sample m's weight vector already multiplied into that mode's leaf frame.
    One upward pass reduces every subtree off the root-to-free-leaf path to
    (M, r_t) rows, and the path is walked down to the (M, r_free)
    coefficients of the free leaf frame.  Without a free mode the result is
    the (M, 1) root values (the root rank is 1).
    """
    tree = X.tree
    expected = set(range(X.order)) - {free_mode}
    if set(rows) != expected:
        raise ValueError(f"rows must cover exactly the modes {sorted(expected)}")

    def up(node_index):
        node = tree.nodes[node_index]
        if node.is_leaf:
            return rows[node.modes[0]]
        V1 = up(node.children[0])
        V2 = up(node.children[1])
        B = X.transfers[node_index]
        return np.einsum("sab,ma,mb->ms", B, V1, V2)

    if free_mode is None:
        return up(tree.root)
    path = [tree.leaf_of_mode[free_mode]]
    while path[-1] != tree.root:
        path.append(tree.nodes[path[-1]].parent)
    path.reverse()
    M = next(iter(rows.values())).shape[0] if rows else 1
    C = np.ones((M, 1))
    for parent, child in zip(path, path[1:]):
        left, right = tree.nodes[parent].children
        B = X.transfers[parent]
        if child == left:
            C = np.einsum("ms,sab,mb->ma", C, B, up(right))
        else:
            C = np.einsum("ms,sab,ma->mb", C, B, up(left))
    return C


def ht_contract(X: HTensor, rows: dict, free_mode: int | None = None) -> np.ndarray:
    """Contract every mode but `free_mode` with one leaf-frame row per sample.

    rows is as for ht_coefficients.  Without a free mode the result is the
    (M,) vector of root values; with one, the (M, r_free) coefficients times
    the free leaf frame give the (M, n_free) result.
    """
    C = ht_coefficients(X, rows, free_mode)
    if free_mode is None:
        return C[:, 0]
    return C @ X.leaf_frames[X.tree.leaf_of_mode[free_mode]].T


def ht_entries(X: HTensor, indices) -> np.ndarray:
    """Entries at an (m, d) integer array of multi-indices (or one index)."""
    indices = np.asarray(indices, dtype=np.intp)
    if indices.ndim == 1:
        indices = indices[None, :]
    if indices.shape[1] != X.order:
        raise ValueError("index rows must have length equal to the tensor order")
    for i, n in enumerate(X.mode_sizes):
        col = indices[:, i]
        if col.min(initial=0) < 0 or col.max(initial=0) >= n:
            raise ValueError(f"index out of range for mode {i}")
    rows = {m: X.leaf_frames[leaf][indices[:, m]] for m, leaf in X.tree.leaf_of_mode.items()}
    return ht_contract(X, rows)


def ht_entry(X: HTensor, idx) -> float:
    """Entry of the represented tensor at one multi-index."""
    return float(ht_entries(X, idx)[0])


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


def _matricize(T: np.ndarray, row_modes) -> np.ndarray:
    d = T.ndim
    row_modes = list(row_modes)
    col_modes = [m for m in range(d) if m not in row_modes]
    P = np.transpose(T, row_modes + col_modes)
    rows = math.prod(T.shape[m] for m in row_modes) if row_modes else 1
    return P.reshape(rows, -1)


def _truncated_basis(M: np.ndarray, abs_tol: float) -> np.ndarray:
    """Left singular vectors keeping the Frobenius tail below abs_tol."""
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        col = np.zeros((M.shape[0], 1))
        return col
    tail = np.sqrt(np.maximum(np.cumsum(s[::-1] ** 2)[::-1], 0.0))
    # tail[r] = ||sigma_{r+1:}||; keep the smallest r with tail <= abs_tol
    keep = s.size
    for r in range(s.size):
        t = tail[r + 1] if r + 1 < s.size else 0.0
        if t <= abs_tol:
            keep = r + 1
            break
    return U[:, :keep]


def ht_from_dense(T: np.ndarray, tree: DimensionTree, tol: float = 1e-12,
                  size_cap: int = FULL_SIZE_CAP) -> HTensor:
    """Compress a dense tensor by truncated SVD of every node matricization.

    The per-node Frobenius tail is kept below tol * ||T||, which bounds the
    total reconstruction error by sqrt(2d-3) * tol * ||T||.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != tree.order:
        raise ValueError("tensor order must match the tree")
    if T.size > size_cap:
        raise SizeCapError(f"dense input has {T.size} entries, cap is {size_cap}")
    abs_tol = tol * np.linalg.norm(T.ravel())

    frames = {}   # node index -> orthonormal basis of the node matricization's range
    for node in tree.nodes:
        if node.parent == -1:
            continue
        frames[node.index] = _truncated_basis(_matricize(T, node.modes), abs_tol)

    leaf_frames = {n.index: frames[n.index] for n in tree.leaves()}
    transfers = {}
    for node in tree.internal_nodes():
        c1, c2 = node.children
        m1, m2 = tree.nodes[c1].modes, tree.nodes[c2].modes
        rows1 = math.prod(T.shape[m] for m in m1)
        U1, U2 = frames[c1], frames[c2]
        if node.parent == -1:
            # root: project the whole tensor onto the children frames
            M = np.transpose(T, list(m1) + list(m2)).reshape(rows1, -1)
            W = U1.T @ M @ U2
            transfers[node.index] = W[None, :, :]
        else:
            Ut = frames[node.index]
            r = Ut.shape[1]
            # rows of Ut follow sorted(node.modes); permute to (m1, m2) order
            sizes = [T.shape[m] for m in node.modes]
            perm = [node.modes.index(m) for m in list(m1) + list(m2)]
            cols = Ut.T.reshape([r] + sizes)
            cols = np.transpose(cols, [0] + [1 + p for p in perm])
            Z = cols.reshape(r, rows1, -1)
            transfers[node.index] = np.einsum("ia,sij,jb->sab", U1, Z, U2)
    return HTensor(tree, T.shape, leaf_frames, transfers)


def ht_norm(X: HTensor) -> float:
    """Frobenius norm of the represented tensor via Gram recursion."""
    def gram(node_index):
        node = X.tree.nodes[node_index]
        if node.is_leaf:
            U = X.leaf_frames[node_index]
            return U.T @ U
        G1 = gram(node.children[0])
        G2 = gram(node.children[1])
        B = X.transfers[node_index]
        return np.einsum("sab,tcd,ac,bd->st", B, B, G1, G2, optimize=True)

    g = gram(X.tree.root)[0, 0]
    return math.sqrt(max(g, 0.0))


def contract_modes(X: HTensor, weights: dict):
    """Contract the tensor with one weight vector per designated mode.

    Returns an HTensor with the contracted modes reduced to size 1; if all
    modes are contracted the scalar value is returned, and if exactly one
    mode is left free a dense vector over that mode is returned.
    """
    weights = {int(m): np.asarray(w, dtype=float) for m, w in weights.items()}
    for m, w in weights.items():
        if not 0 <= m < X.order:
            raise ValueError(f"mode {m} out of range")
        if w.shape != (X.mode_sizes[m],):
            raise ValueError(f"weight vector for mode {m} has length {w.shape[0]}, "
                             f"expected {X.mode_sizes[m]}")
    free = [m for m in range(X.order) if m not in weights]
    if len(free) > 1:
        frames = dict(X.leaf_frames)
        sizes = list(X.mode_sizes)
        for m, w in weights.items():
            leaf = X.tree.leaf_of_mode[m]
            frames[leaf] = (w @ X.leaf_frames[leaf])[None, :]
            sizes[m] = 1
        return HTensor(X.tree, sizes, frames, dict(X.transfers))

    rows = {m: (w @ X.leaf_frames[X.tree.leaf_of_mode[m]])[None, :]
            for m, w in weights.items()}
    if not free:
        return float(ht_contract(X, rows)[0])
    return ht_contract(X, rows, free[0])[0]


@dataclass(frozen=True)
class StorageReport:
    storage_scalars: int
    r_max: int
    r_eff: float


def storage_and_ranks(X: HTensor) -> StorageReport:
    """Storage count, maximal rank and the effective rank.

    The effective rank is the positive root of
    (d-1) * r^3 + r * sum_i(n_i) = storage, i.e. the uniform rank a tensor of
    these mode sizes would need to occupy the same number of scalars.
    """
    storage = 0
    for node in X.tree.leaves():
        storage += X.leaf_frames[node.index].size
    for node in X.tree.internal_nodes():
        storage += X.transfers[node.index].size
    r_max = max(X.ranks.values())
    d = X.order
    size_sum = float(sum(X.mode_sizes))

    def cost(r):
        return (d - 1) * r**3 + r * size_sum

    lo, hi = 0.0, float(max(r_max, 1))
    while cost(hi) < storage:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cost(mid) < storage:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    return StorageReport(int(storage), int(r_max), 0.5 * (lo + hi))


def save_htensor(X: HTensor, path) -> None:
    """Serialize to .npz (bit-exact round trip)."""
    meta = {
        "order": X.tree.order,
        "shape": X.tree.shape,
        "mode_sizes": list(X.mode_sizes),
        "nodes": [
            {"index": n.index, "modes": list(n.modes), "parent": n.parent,
             "children": list(n.children)}
            for n in X.tree.nodes
        ],
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
    for idx, U in X.leaf_frames.items():
        arrays[f"U{idx}"] = U
    for idx, B in X.transfers.items():
        arrays[f"B{idx}"] = B
    if hasattr(path, "write"):
        np.savez(path, **arrays)
    else:
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


def load_htensor(path) -> HTensor:
    if hasattr(path, "read"):
        path.seek(0)
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        nodes = [TreeNode(n["index"], tuple(n["modes"]), n["parent"], tuple(n["children"]))
                 for n in meta["nodes"]]
        tree = DimensionTree(meta["order"], meta["shape"], nodes)
        leaf_frames = {n.index: data[f"U{n.index}"] for n in tree.leaves()}
        transfers = {n.index: data[f"B{n.index}"] for n in tree.internal_nodes()}
    return HTensor(tree, meta["mode_sizes"], leaf_frames, transfers)
