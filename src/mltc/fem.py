"""Q1 finite elements on the nested uniform grid hierarchy of the unit square.

Level L has mesh size 2^-L / 4 and (4 * 2^L + 1)^2 nodes including the
Dirichlet boundary; vectors always carry all nodes, with boundary rows of
assembled operators replaced by identity.  Stiffness and load use tensorized
2-point Gauss quadrature per element (exact for constant coefficients).

Each grid builds its CSC sparsity pattern once, together with a gather map
that lists, for every nonzero, the element contributions it sums.  Assembly is
then one einsum for the element matrices and a gather-and-add into the cached
pattern; no COO to CSC conversion runs per solve.  The contributions of a
nonzero are added strictly left to right in the order in which
`coo_matrix(...).tocsc()` adds them (contributions bucketed by column in input
order, then scipy's `sort_indices` within each column).  Floating-point
addition is not associative, so another order, such as `np.bincount` or
`np.add.reduceat`, changes the last bits of the stiffness, and through the
pivots of the cross approximation its fibers, entries and ranks.  The sines of
the coefficient at the quadrature points are cached per grid as well.

The H1 coordinate map is the sparse Cholesky factor R of the unit-coefficient
stiffness: ||R c||_2 equals the H1_0 seminorm of the finite element function
with coefficients c, so tensors can store R-coordinates and read off energy
norms as Euclidean norms.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .errors import EllipticityError
from .fields import CoefficientModel, basis_values, evaluate

MAX_LEVEL = 12

# 2x2 Gauss points on the unit reference square, weight 1/4 each
_G = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
_QPTS = np.array([(a, b) for a in _G for b in _G])


def _grad_ref(xi, eta):
    """Gradients of the four bilinear basis functions at one reference point.

    Local corner order: (0,0), (1,0), (0,1), (1,1).
    """
    return np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -xi],
        [-eta, (1 - xi)],
        [eta, xi],
    ])


def _shape_ref(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta), (1 - xi) * eta, xi * eta])


_GRADS = np.array([_grad_ref(*q) for q in _QPTS])            # (4, 4, 2)
_GMATS = np.einsum("qid,qjd->qij", _GRADS, _GRADS)           # (4, 4, 4)
_SHAPES = np.array([_shape_ref(*q) for q in _QPTS])          # (4, 4)


class GridLevel:
    """Uniform Q1 grid at one refinement level (element data built lazily)."""

    def __init__(self, level: int):
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
        self.level = level
        self.m = 4 * 2**level + 1           # nodes per side
        self.h = 1.0 / (self.m - 1)
        self.n = self.m * self.m
        self._basis = {}                    # terms -> basis values at quad_points

    @property
    def boundary_mask(self) -> np.ndarray:
        if not hasattr(self, "_bnd"):
            ix, iy = np.meshgrid(np.arange(self.m), np.arange(self.m), indexing="xy")
            mask = (ix == 0) | (ix == self.m - 1) | (iy == 0) | (iy == self.m - 1)
            self._bnd = mask.ravel()        # node index = iy * m + ix
        return self._bnd

    @property
    def elements(self) -> np.ndarray:
        """(n_elements, 4) global node indices in local corner order."""
        if not hasattr(self, "_elems"):
            mc = self.m - 1
            ix, iy = np.meshgrid(np.arange(mc), np.arange(mc), indexing="xy")
            v = (iy * self.m + ix).ravel()
            self._elems = np.stack([v, v + 1, v + self.m, v + self.m + 1], axis=1)
        return self._elems

    @property
    def quad_points(self) -> np.ndarray:
        """(n_elements, 4, 2) physical quadrature point coordinates."""
        if not hasattr(self, "_qp"):
            mc = self.m - 1
            ix, iy = np.meshgrid(np.arange(mc), np.arange(mc), indexing="xy")
            origins = np.stack([ix.ravel(), iy.ravel()], axis=1) * self.h
            self._qp = origins[:, None, :] + _QPTS[None, :, :] * self.h
        return self._qp

    @property
    def stiffness_pattern(self):
        """(indptr, indices, gather) of the assembled stiffness; see assemble()."""
        if not hasattr(self, "_pattern"):
            self._pattern = _stiffness_pattern(self)
        return self._pattern

    def quad_basis(self, model: CoefficientModel) -> np.ndarray:
        """basis_values(model, ...) at the flattened quadrature points.

        Cached per number of terms, read-only; it serves both coefficient kinds.
        """
        B = self._basis.get(model.terms)
        if B is None:
            B = basis_values(model, self.quad_points.reshape(-1, 2))
            B.setflags(write=False)
            self._basis[model.terms] = B
        return B

    def node_coords(self) -> np.ndarray:
        t = np.arange(self.m) * self.h
        xx, yy = np.meshgrid(t, t, indexing="xy")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    def __repr__(self):
        return f"GridLevel({self.level}, n={self.n})"


@lru_cache(maxsize=None)
def build_grid(level: int) -> GridLevel:
    return GridLevel(level)


def _stiffness_pattern(grid: GridLevel):
    """CSC pattern of the stiffness and the gather map that fills it.

    The stiffness sums the element contributions Ke[e, i, j] into entry
    (E[e, i], E[e, j]), drops those with a boundary row or column and puts
    1.0 on the boundary diagonal.  Contribution c is Ke.ravel()[c]; id
    16 n_elements + 1 stands for the boundary 1.0 and id 16 n_elements for
    -0.0, the padding.  Returns int32 (indptr, indices) and a (4, nnz) int32
    gather map whose column k lists the contributions of nonzero k in the
    order coo_matrix(...).tocsc() adds them, padded with the -0.0 id.
    """
    E = grid.elements.astype(np.int32)
    n_contrib = 16 * E.shape[0]
    inner = ~grid.boundary_mask[E]
    keep = (inner[:, :, None] & inner[:, None, :]).ravel()
    rows = np.repeat(E, 4, axis=1).ravel()[keep]
    cols = np.tile(E, (1, 4)).ravel()[keep]
    ids = np.flatnonzero(keep).astype(np.int32)
    del E, inner, keep
    b_idx = np.flatnonzero(grid.boundary_mask).astype(np.int32)
    rows = np.concatenate([rows, b_idx])
    cols = np.concatenate([cols, b_idx])
    ids = np.concatenate([ids, np.full(b_idx.size, n_contrib + 1, dtype=np.int32)])
    del b_idx
    # coo_tocsr's order: bucket by column, input order kept within a column;
    # then the same sort_indices call that sum_duplicates makes
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(grid.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=grid.n), out=indptr[1:])
    del cols
    M = sp.csc_matrix((ids[order], rows[order], indptr), shape=(grid.n, grid.n))
    del order, rows, ids
    M.sort_indices()
    # a run of equal rows within a column is one nonzero
    first = np.ones(M.nnz, dtype=bool)
    first[1:] = M.indices[1:] != M.indices[:-1]
    first[indptr[:-1]] = True
    nonzero = np.cumsum(first, dtype=np.int32) - 1
    starts = np.flatnonzero(first).astype(np.int32)
    rank = np.arange(M.nnz, dtype=np.int32) - starts[nonzero]
    gather = np.full((4, starts.size), n_contrib, dtype=np.int32)
    gather[rank, nonzero] = M.data
    del rank
    out_indptr = np.zeros(grid.n + 1, dtype=np.int32)
    out_indptr[1:] = nonzero[indptr[1:] - 1] + 1
    indices = M.indices[starts]
    for a in (out_indptr, indices, gather):
        a.setflags(write=False)
    return out_indptr, indices, gather


def assemble(grid: GridLevel, coefficient) -> sp.csc_matrix:
    """Stiffness matrix for coefficient a(x); Dirichlet rows/columns set to identity.

    `coefficient` maps an (P, 2) array of points to P positive values.  The
    result shares its read-only index arrays with the grid's cached pattern.
    """
    pts = grid.quad_points
    avals = np.asarray(coefficient(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    if avals.min() <= 0.0:
        raise EllipticityError("coefficient is nonpositive at a quadrature point")
    Ke = np.einsum("eq,qij->eij", avals * 0.25, _GMATS)
    indptr, indices, gather = grid.stiffness_pattern
    # x + (-0.0) == x for every float x, including -0.0, so the padding is exact
    v = np.concatenate([Ke.ravel(), (-0.0, 1.0)])
    data = ((v[gather[0]] + v[gather[1]]) + v[gather[2]]) + v[gather[3]]
    A = sp.csc_matrix((data, indices, indptr), shape=(grid.n, grid.n))
    A.has_canonical_format = True
    return A


@lru_cache(maxsize=None)
def mass_vector(level: int) -> np.ndarray:
    """Integrals of the nodal basis functions (boundary nodes included)."""
    grid = build_grid(level)
    m = np.zeros(grid.n)
    contrib = grid.h**2 * 0.25 * _SHAPES.sum(axis=0)   # = h^2/4 per corner
    np.add.at(m, grid.elements.ravel(), np.tile(contrib, grid.elements.shape[0]))
    return m


@lru_cache(maxsize=None)
def load_vector(level: int) -> np.ndarray:
    """Right-hand side for f = 1 with zero Dirichlet values."""
    grid = build_grid(level)
    b = mass_vector(level).copy()
    b[grid.boundary_mask] = 0.0
    return b


def _factor_spd(A: sp.csc_matrix):
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def solve_at(y, level: int, model: CoefficientModel) -> np.ndarray:
    """FE solution of -div(a(y) grad u) = 1 with zero boundary values."""
    grid = build_grid(level)
    basis = grid.quad_basis(model)
    A = assemble(grid, lambda pts: evaluate(model, y, basis=basis))
    u = _factor_spd(A).solve(load_vector(level))
    u[grid.boundary_mask] = 0.0
    return u


@lru_cache(maxsize=None)
def prolongation_matrix(level: int) -> sp.csr_matrix:
    """Exact embedding of level-1 functions into the level grid."""
    if level < 1:
        raise ValueError("prolongation needs level >= 1")
    fine, coarse = build_grid(level), build_grid(level - 1)
    mf, mc = fine.m, coarse.m
    rows, cols, vals = [], [], []
    ix, iy = np.meshgrid(np.arange(mf), np.arange(mf), indexing="xy")
    ix, iy = ix.ravel(), iy.ravel()
    node = iy * mf + ix
    even_x, even_y = ix % 2 == 0, iy % 2 == 0

    both = even_x & even_y
    rows.append(node[both])
    cols.append((iy[both] // 2) * mc + ix[both] // 2)
    vals.append(np.ones(both.sum()))

    ex = ~even_x & even_y          # horizontal edge midpoints
    base = (iy[ex] // 2) * mc + (ix[ex] - 1) // 2
    for off in (0, 1):
        rows.append(node[ex])
        cols.append(base + off)
        vals.append(np.full(ex.sum(), 0.5))

    ey = even_x & ~even_y          # vertical edge midpoints
    base = ((iy[ey] - 1) // 2) * mc + ix[ey] // 2
    for off in (0, mc):
        rows.append(node[ey])
        cols.append(base + off)
        vals.append(np.full(ey.sum(), 0.5))

    ctr = ~even_x & ~even_y        # cell centers
    base = ((iy[ctr] - 1) // 2) * mc + (ix[ctr] - 1) // 2
    for off in (0, 1, mc, mc + 1):
        rows.append(node[ctr])
        cols.append(base + off)
        vals.append(np.full(ctr.sum(), 0.25))

    P = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(fine.n, coarse.n))
    return P.tocsr()


def prolongate(v: np.ndarray, level: int) -> np.ndarray:
    """Prolongate nodal values from level-1 onto the level grid."""
    coarse = build_grid(level - 1)
    if v.shape != (coarse.n,):
        raise ValueError(f"expected a vector of length {coarse.n}")
    return prolongation_matrix(level) @ v


class H1Frame:
    """Cholesky coordinates for the H1_0 seminorm at one level.

    R is upper triangular with R^T R = A1[p,:][:,p] for the unit-coefficient
    stiffness A1 (identity boundary rows) and the fill-reducing permutation p.
    For zero-boundary coefficient vectors c, ||R c[p]|| equals the H1_0
    seminorm of the represented function.
    """

    def __init__(self, level: int):
        self.level = level
        grid = build_grid(level)
        A1 = assemble(grid, lambda pts: np.ones(pts.shape[0]))
        lu = _factor_spd(A1)
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise ArithmeticError("symmetric factorization pivoted unexpectedly")
        self.perm = np.argsort(lu.perm_c)
        U = lu.U.tocsr()
        d = U.diagonal()
        if np.any(d <= 0.0):
            raise ArithmeticError("stiffness factorization is not positive definite")
        self.R = (sp.diags(1.0 / np.sqrt(d)) @ U).tocsr()
        self.Rt = self.R.T.tocsr()
        self.mass = mass_vector(level)
        # psi in H1 coordinates: psi(c) = m . c = (R^-T m[p]) . (R c[p])
        self.psi_vec = spsolve_triangular(self.Rt, self.mass[self.perm], lower=True)

    def to_h1(self, c: np.ndarray) -> np.ndarray:
        return self.R @ np.asarray(c)[self.perm]

    def from_h1(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        x = spsolve_triangular(self.R, z if z.ndim > 1 else z[:, None], lower=False)
        c = np.empty_like(x)
        c[self.perm, :] = x
        return c[:, 0] if z.ndim == 1 else c

    def seminorm(self, c: np.ndarray) -> float:
        return float(np.linalg.norm(self.to_h1(c)))


@lru_cache(maxsize=None)
def h1_frame(level: int) -> H1Frame:
    return H1Frame(level)


def delta_nodal(y, level: int, model: CoefficientModel) -> np.ndarray:
    """Nodal coefficients of the level difference u_level - u_{level-1}."""
    u = solve_at(y, level, model)
    if level == 0:
        return u
    return u - prolongate(solve_at(y, level - 1, model), level)


def delta_vector(y, level: int, model: CoefficientModel) -> np.ndarray:
    """Level difference in H1 coordinates; its 2-norm is the H1_0 seminorm."""
    return h1_frame(level).to_h1(delta_nodal(y, level, model))


def functional_psi(v: np.ndarray, level: int) -> float:
    """Integral of the FE function over the unit square."""
    m = mass_vector(level)
    if v.shape != m.shape:
        raise ValueError(f"expected a vector of length {m.shape[0]}")
    return float(m @ v)


def seminorm_quadrature(v: np.ndarray, level: int, refine: int = 4) -> float:
    """H1_0 seminorm by direct gradient quadrature on subdivided elements.

    Independent of the assembled stiffness and of the Cholesky coordinates;
    each element is split refine x refine with 2x2 Gauss per subcell, which
    integrates the piecewise-polynomial |grad u|^2 exactly.
    """
    grid = build_grid(level)
    E = grid.elements
    ue = v[E]                                       # (nE, 4)
    total = 0.0
    sub = 1.0 / refine
    for si in range(refine):
        for sj in range(refine):
            for q in range(4):
                xi = (si + _QPTS[q, 0]) * sub
                eta = (sj + _QPTS[q, 1]) * sub
                g = _grad_ref(xi, eta) / grid.h     # (4, 2)
                gx = ue @ g[:, 0]
                gy = ue @ g[:, 1]
                w = (grid.h * sub) ** 2 * 0.25
                total += w * float(np.sum(gx * gx + gy * gy))
    return math.sqrt(total)

