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
pivots of the cross approximation its fibers, entries and ranks.  Each grid
also caches the upper-triangle part of the gather map with its positions in
LAPACK's band storage, from which assemble_band fills a band bitwise equal to
the CSC stiffness, and per number of terms the series' sines at its quadrature
points (quad_basis), from which a solve forms the values both assemblies take.

The H1 coordinate map is the sparse Cholesky factor R of the unit-coefficient
stiffness: ||R c||_2 equals the H1_0 seminorm of the finite element function
with coefficients c, so tensors can store R-coordinates and read off energy
norms as Euclidean norms.  A frame keeps R alone.  The SuperLU factor and its
CSR copy exist only while the frame is built, each freed as soon as the next
step no longer needs it.  One rule keeps R and every coordinate on one
floating-point path: R is the product diags(1/sqrt(d)) @ U, not U with its
rows scaled in place, because the product orders the column indices within
each row differently, and that order is the summation order of to_h1.

The FE solves use three solvers; this table is the one place that states
their speeds and distances (cut = DIRECT_MAX_LEVEL):

    solver                      where                              factorization     from solve_at
    solve_at                    build fibers at levels <= cut      SuperLU (pinned)  -
    solve_ladder, rungs <= cut  validation; build fibers above it  banded Cholesky   a few 1e-15
    solve_ladder, rungs > cut   validation; build fibers above it  multigrid PCG     about 1e-13
    fallback of a rung > cut    a PCG rung that did not converge   SuperLU           bitwise
    H1Frame                     H1 coordinates of every level      SuperLU           -

solve_ladder returns the whole nested ladder u_0(y), ..., u_L(y).  It
factorizes the rungs up to the cut by LAPACK's banded Cholesky (dpbtrf) on an
upper band filled straight from the element matrices: at these sizes (at most
1,089 unknowns) a solve, assembly included, is 3-6 times faster than with
SuperLU, with one BLAS thread.  It solves each finer rung by
multigrid-preconditioned CG started from the prolongated rung below (nested
iteration), several times faster than the LU from level 4 on.  Bitwise
rules: a banded rung equals _banded_solve, a fallback rung equals solve_at,
and rung l of a ladder does not depend on how far the ladder goes, so the
ladder a build fiber at level l solves repeats rung l - 1 of level l - 1's
ladders exactly.  solve_at keeps SuperLU: the build's counts and ranks pin
both floating-point paths, and a solve that differs in the 13th digit can
move the pivots of the cross approximation (moving solve_at to the banded
solver changed the ranks of exp-decay-small's level 3).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.linalg import splu, spsolve_triangular

from .errors import EllipticityError, NumericalError
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


_GRADS = np.array([_grad_ref(*q) for q in _QPTS])            # (4, 4, 2)
_GMATS = np.einsum("qid,qjd->qij", _GRADS, _GRADS)           # (4, 4, 4)


class GridLevel:
    """Uniform Q1 grid at one refinement level (element data built lazily)."""

    def __init__(self, level: int):
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}]")
        self.level = level
        self.m = 4 * 2**level + 1           # nodes per side
        self.h = 1.0 / (self.m - 1)
        self.n = self.m * self.m
        self._basis = {}                    # terms -> basis values at the quadrature points

    @cached_property
    def boundary_mask(self) -> np.ndarray:
        ix, iy = np.meshgrid(np.arange(self.m), np.arange(self.m), indexing="xy")
        mask = (ix == 0) | (ix == self.m - 1) | (iy == 0) | (iy == self.m - 1)
        return mask.ravel()                 # node index = iy * m + ix

    @cached_property
    def elements(self) -> np.ndarray:
        """(n_elements, 4) global node indices in local corner order."""
        mc = self.m - 1
        ix, iy = np.meshgrid(np.arange(mc), np.arange(mc), indexing="xy")
        v = (iy * self.m + ix).ravel()
        return np.stack([v, v + 1, v + self.m, v + self.m + 1], axis=1)

    @cached_property
    def stiffness_pattern(self):
        """(indptr, indices, gather) of the assembled stiffness; see assemble()."""
        return _stiffness_pattern(self)

    @cached_property
    def band_pattern(self):
        """(gather, positions) of the stiffness's upper band; see assemble_band()."""
        return _band_pattern(self)

    def quad_basis(self, model: CoefficientModel) -> np.ndarray:
        """basis_values(model, ...) at the quadrature points, element by element.

        Cached per number of terms, read-only, for both kinds; the points are not kept.
        """
        B = self._basis.get(model.terms)
        if B is None:
            t = np.arange(self.m - 1) * self.h
            ox, oy = np.meshgrid(t, t, indexing="xy")
            points = np.stack([ox.ravel(), oy.ravel()], axis=1)[:, None, :] + _QPTS * self.h
            B = basis_values(model, points.reshape(-1, 2))
            B.setflags(write=False)
            self._basis[model.terms] = B
        return B

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


def _band_pattern(grid: GridLevel):
    """Gather map and positions of the stiffness's upper band.

    On the natural node order a Q1 stiffness couples node i with i +- 1,
    i +- m and i +- m +- 1, so its upper triangle fits LAPACK's upper band
    storage with kd = m + 1 superdiagonals: entry (i, j), i <= j, sits at row
    kd + i - j, column j of a (kd + 1, n) band.  Returns the columns of
    stiffness_pattern's gather map that belong to the upper triangle, and for
    each its flat index into that band kept in Fortran order, as LAPACK reads
    it.  Each band entry thus sums the same contributions in the same order
    as the CSC stiffness, bitwise.
    """
    indptr, indices, gather = grid.stiffness_pattern
    cols = np.repeat(np.arange(grid.n, dtype=np.int32), np.diff(indptr))
    upper = indices <= cols
    kd = grid.m + 1
    positions = cols[upper].astype(np.intp) * (kd + 1) + (kd + indices[upper] - cols[upper])
    gather = np.ascontiguousarray(gather[:, upper])
    for a in (gather, positions):
        a.setflags(write=False)
    return gather, positions


def _element_matrices(grid: GridLevel, avals) -> np.ndarray:
    """Ke.ravel() followed by the padding -0.0 and the boundary 1.0.

    The ids of _stiffness_pattern's gather map index this vector.
    """
    avals = np.asarray(avals, dtype=float)
    if avals.size != 4 * len(grid.elements):
        raise ValueError(f"expected {4 * len(grid.elements)} coefficient values "
                         f"(one per quadrature point), got {avals.size}")
    avals = avals.reshape(-1, 4)
    if avals.min() <= 0.0:
        raise EllipticityError("coefficient is nonpositive at a quadrature point")
    Ke = np.einsum("eq,qij->eij", avals * 0.25, _GMATS)
    # x + (-0.0) == x for every float x, including -0.0, so the padding is exact
    return np.concatenate([Ke.ravel(), (-0.0, 1.0)])


def _gather_sum(v: np.ndarray, gather: np.ndarray) -> np.ndarray:
    return ((v[gather[0]] + v[gather[1]]) + v[gather[2]]) + v[gather[3]]


def assemble(grid: GridLevel, avals) -> sp.csc_matrix:
    """Stiffness matrix for coefficient a(x); Dirichlet rows/columns set to identity.

    `avals` holds the 4 n_elements positive values of a at the grid's
    quadrature points, in quad_basis order; another count raises ValueError.
    The result shares its read-only index arrays with the grid's cached pattern.
    """
    indptr, indices, gather = grid.stiffness_pattern
    data = _gather_sum(_element_matrices(grid, avals), gather)
    A = sp.csc_matrix((data, indices, indptr), shape=(grid.n, grid.n))
    A.has_canonical_format = True
    return A


def assemble_band(grid: GridLevel, avals) -> np.ndarray:
    """The upper band of assemble(grid, avals), (m + 2, n) in Fortran order.

    It takes the same quadrature-point values as assemble.  Its entries are
    bitwise those of the CSC stiffness; no sparse matrix is built.
    """
    gather, positions = grid.band_pattern
    kd = grid.m + 1
    band = np.zeros((kd + 1, grid.n), order="F")
    band.ravel(order="K")[positions] = _gather_sum(
        _element_matrices(grid, avals), gather)
    return band


@lru_cache(maxsize=None)
def mass_vector(level: int) -> np.ndarray:
    """Integrals of the nodal basis functions (boundary nodes included), read-only.

    The outer product of the 1-D trapezoid weights (h/2, h, ..., h, h/2).
    """
    grid = build_grid(level)
    w = np.full(grid.m, grid.h)
    w[[0, -1]] = grid.h / 2
    m = np.outer(w, w).ravel()
    m.setflags(write=False)
    return m


@lru_cache(maxsize=None)
def load_vector(level: int) -> np.ndarray:
    """Right-hand side for f = 1 with zero Dirichlet values, read-only."""
    grid = build_grid(level)
    b = mass_vector(level).copy()
    b[grid.boundary_mask] = 0.0
    b.setflags(write=False)
    return b


def _factor_spd(A: sp.csc_matrix):
    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True))


def _stiffness_at(y, level: int, model: CoefficientModel) -> sp.csc_matrix:
    """A_level(y), assembled from the grid's cached quadrature basis."""
    grid = build_grid(level)
    return assemble(grid, evaluate(model, y, grid.quad_basis(model)))


def _direct_solve(A: sp.csc_matrix, level: int) -> np.ndarray:
    """The sparse LU solve of A u = load, boundary values zeroed."""
    u = _factor_spd(A).solve(load_vector(level))
    u[build_grid(level).boundary_mask] = 0.0
    return u


def solve_at(y, level: int, model: CoefficientModel) -> np.ndarray:
    """FE solution of -div(a(y) grad u) = 1 with zero boundary values."""
    return _direct_solve(_stiffness_at(y, level, model), level)


class _BandedCholesky:
    """LAPACK's banded Cholesky factor (dpbtrf) of an upper band from assemble_band.

    Raises NumericalError when the band is not positive definite; solve()
    raises it when dpbtrs reports an error, so neither returns a vector then.
    """

    def __init__(self, band: np.ndarray):
        self.factor, info = dpbtrf(band, overwrite_ab=1)
        if info != 0:
            raise NumericalError(f"banded Cholesky failed (dpbtrf info {info}): "
                                 "the stiffness is not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        x, info = dpbtrs(self.factor, b)
        if info != 0:
            raise NumericalError(f"banded Cholesky solve failed (dpbtrs info {info})")
        return x


def _banded_solve(y, level: int, model: CoefficientModel):
    """(u, factor): solve_at's solution by banded Cholesky, boundary values zeroed."""
    grid = build_grid(level)
    factor = _BandedCholesky(assemble_band(grid, evaluate(model, y, grid.quad_basis(model))))
    u = factor.solve(load_vector(level))
    u[grid.boundary_mask] = 0.0
    return u, factor


# The ladder's solver, read at call time so that tests can change it.  Levels
# up to DIRECT_MAX_LEVEL are factorized by banded Cholesky; each level above is
# solved by CG preconditioned with one V(MG_SWEEPS, MG_SWEEPS) cycle of
# MG_OMEGA-weighted Jacobi, to a residual of PCG_RTOL relative to the load.
# A rung that has not converged after MAX_PCG_ITERATIONS is factorized as in
# solve_at.
DIRECT_MAX_LEVEL = 3
MG_SWEEPS = 2
MG_OMEGA = 0.8
PCG_RTOL = 1e-12
MAX_PCG_ITERATIONS = 50


def _v_cycle(ops, level: int, coarse, r: np.ndarray) -> np.ndarray:
    """One symmetric V-cycle for A_level e = r, from a zero initial guess.

    ops[l] is (A_l as CSR, MG_OMEGA over its diagonal) at each multigrid
    level; below the lowest of them the cycle solves with the factor `coarse`.
    """
    A, w = ops[level]
    x = w * r
    for _ in range(MG_SWEEPS - 1):
        x += w * (r - A @ x)
    rc = prolongation_matrix(level).T @ (r - A @ x)
    rc[build_grid(level - 1).boundary_mask] = 0.0
    ec = _v_cycle(ops, level - 1, coarse, rc) if level - 1 in ops else coarse.solve(rc)
    e = prolongation_matrix(level) @ ec
    e[build_grid(level).boundary_mask] = 0.0
    x += e
    for _ in range(MG_SWEEPS):
        x += w * (r - A @ x)
    return x


def _pcg(ops, level: int, coarse, b: np.ndarray, x: np.ndarray):
    """(x, iterations) of multigrid-preconditioned CG from x, or (None, -1)."""
    A = ops[level][0]
    tol = PCG_RTOL * np.linalg.norm(b)
    r = b - A @ x
    z = _v_cycle(ops, level, coarse, r)
    p = z.copy()
    rz = r @ z
    for k in range(1, MAX_PCG_ITERATIONS + 1):
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        if np.linalg.norm(r) <= tol:
            return x, k
        z = _v_cycle(ops, level, coarse, r)
        rz, rz_old = r @ z, rz
        p *= rz / rz_old
        p += z
    return None, -1


def solve_ladder(y, L: int, model: CoefficientModel, iterations: list | None = None
                 ) -> list[np.ndarray]:
    """FE solutions u_0(y), ..., u_L(y) on the nested grids, by nested iteration.

    Every level is assembled once.  Levels up to DIRECT_MAX_LEVEL are solved
    as _banded_solve solves them, with no sparse matrix built; the factor of
    the last of these is the coarse solve of the multigrid above it.  Each
    higher level l starts from P_l u_{l-1} and runs multigrid-preconditioned
    CG (the module constants above), whose V-cycle takes the ladder's own
    A_{l-1}, ..., as its coarse operators and P_l and P_l^T as its transfers.
    A rung that does not converge within MAX_PCG_ITERATIONS is solved as
    solve_at solves it.  The module table gives each rung's speed and its
    distance from solve_at.  `iterations`, when given, receives one count per
    rung: the PCG iterations, 0 for a factorized rung and -1 for a rung that
    fell back.  A band that is not positive definite raises NumericalError.
    """
    if iterations is None:
        iterations = []
    ladder, ops, coarse = [], {}, None
    for level in range(L + 1):
        if level <= DIRECT_MAX_LEVEL:
            u, coarse = _banded_solve(y, level, model)     # the last is the coarse solve
            count = 0
        else:
            A = _stiffness_at(y, level, model)
            # A is symmetric, so its CSR view A.T multiplies as A does, faster
            ops[level] = (A.T, MG_OMEGA / A.diagonal())
            u, count = _pcg(ops, level, coarse, load_vector(level),
                            prolongate(ladder[-1], level - 1, level))
            if u is None:
                u = _direct_solve(A, level)
            u[build_grid(level).boundary_mask] = 0.0
        ladder.append(u)
        iterations.append(count)
    return ladder


@lru_cache(maxsize=None)
def prolongation_matrix(level: int) -> sp.csr_matrix:
    """Exact embedding of level-1 functions into the level grid, index and data read-only.

    On the node order iy * m + ix it is the Kronecker square of 1-D linear
    interpolation p: column j of p is (1/2, 1, 1/2) at fine nodes 2j - 1, 2j, 2j + 1.
    """
    if level < 1:
        raise ValueError("prolongation needs level >= 1")
    m = build_grid(level).m
    p = sp.diags([0.5, 1.0, 0.5], [-1, 0, 1], shape=(m, m), format="csc")[:, ::2]
    P = sp.kron(p, p, format="csr")
    for a in (P.indptr, P.indices, P.data):
        a.setflags(write=False)
    return P


def prolongate(v: np.ndarray, from_level: int, to_level: int) -> np.ndarray:
    """Nodal values of level from_level, a vector or one column per function, on
    the grid of level to_level >= from_level."""
    n = build_grid(from_level).n
    if v.shape[:1] != (n,) or to_level < from_level:
        raise ValueError(f"expected {n} rows of level-{from_level} values and "
                         f"to_level >= {from_level}")
    for level in range(from_level + 1, to_level + 1):
        v = prolongation_matrix(level) @ v
    return v


class H1Frame:
    """Cholesky coordinates for the H1_0 seminorm at one level.

    R is upper triangular with R^T R = A1[p,:][:,p] for the unit-coefficient
    stiffness A1 (identity boundary rows) and the fill-reducing permutation p.
    For zero-boundary coefficient vectors c, ||R c[p]|| equals the H1_0
    seminorm of the represented function.

    The frame keeps R and p, nothing of the factorization: to_h1 multiplies
    by R and from_h1 solves with it.
    """

    def __init__(self, level: int):
        self.level = level
        grid = build_grid(level)
        A1 = assemble(grid, np.ones(4 * len(grid.elements)))
        lu = _factor_spd(A1)
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise NumericalError("symmetric factorization pivoted unexpectedly")
        self.perm = np.argsort(lu.perm_c)
        U = lu.U
        del lu, A1          # free the factor before the CSR copies are made
        U = U.tocsr()
        d = U.diagonal()
        if np.any(d <= 0.0):
            raise NumericalError("stiffness factorization is not positive definite")
        self.R = (sp.diags(1.0 / np.sqrt(d)) @ U).tocsr()

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


def _difference(u: np.ndarray, u_coarse: np.ndarray | None, level: int) -> np.ndarray:
    """Nodal values of u - P u_coarse at `level`, or of u alone at level 0."""
    return u if level == 0 else u - prolongate(u_coarse, level - 1, level)


def delta_h1(u: np.ndarray, u_coarse: np.ndarray | None, level: int) -> np.ndarray:
    """H1 coordinates of the level difference of the solutions u at `level` and
    u_coarse at level - 1 (ignored at level 0); its 2-norm is the H1_0 seminorm."""
    return h1_frame(level).to_h1(_difference(u, u_coarse, level))


def delta_nodal(y, level: int, model: CoefficientModel) -> np.ndarray:
    """Nodal coefficients of the level difference u_level - u_{level-1}."""
    u = solve_at(y, level, model)
    return _difference(u, solve_at(y, level - 1, model) if level else None, level)


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

