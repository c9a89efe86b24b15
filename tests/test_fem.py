import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mltc import fem
from mltc.driver import prolongate_to
from mltc.errors import EllipticityError
from mltc.fem import (assemble, build_grid, delta_nodal, delta_vector,
                      functional_psi, h1_frame, mass_vector, prolongate,
                      seminorm_quadrature, solve_at)
from mltc.fields import evaluate, make_model


def poisson_series_integral(terms=400):
    """integral of u for -Laplace(u) = 1 on the unit square (Fourier series)."""
    total = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            total += 64.0 / (m**2 * n**2 * (m**2 + n**2) * math.pi**6)
    return total


def poisson_series_center(terms=799):
    """u(1/2, 1/2) for -Laplace(u) = 1 on the unit square."""
    total = 0.0
    for m in range(1, terms, 2):
        for n in range(1, terms, 2):
            c = 16.0 / (m * n * math.pi**4 * (m**2 + n**2))
            total += c * math.sin(m * math.pi / 2) * math.sin(n * math.pi / 2)
    return total


ONES = lambda pts: np.ones(pts.shape[0])
A2 = make_model("affine", "zero", 1)          # constant coefficient 2


def coo_stiffness(grid, avals):
    """Reference assembly: element matrices scattered as COO, summed by tocsc()."""
    Ke = np.einsum("eq,qij->eij", avals.reshape(-1, 4) * 0.25, fem._GMATS)
    E = grid.elements
    rows = np.repeat(E, 4, axis=1).ravel()
    cols = np.tile(E, (1, 4)).ravel()
    vals = Ke.ravel()
    bnd = grid.boundary_mask
    keep = ~bnd[rows] & ~bnd[cols]
    b_idx = np.flatnonzero(bnd)
    rows = np.concatenate([rows[keep], b_idx])
    cols = np.concatenate([cols[keep], b_idx])
    vals = np.concatenate([vals[keep], np.ones(b_idx.size)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(grid.n, grid.n)).tocsc()


def assert_bitwise_equal(A, B):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(A, name), getattr(B, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestGrid:
    def test_node_counts(self):
        for level, n in ((0, 25), (3, 1089), (7, 263169)):
            assert build_grid(level).n == n

    def test_level_range(self):
        with pytest.raises(ValueError):
            build_grid(13)
        with pytest.raises(ValueError):
            build_grid(-1)

    def test_nested_nodes(self):
        coarse, fine = build_grid(1), build_grid(2)
        cc, fc = coarse.node_coords(), fine.node_coords()
        fset = {tuple(np.round(p, 12)) for p in fc}
        assert all(tuple(np.round(p, 12)) in fset for p in cc)


class TestAssemble:
    def test_interior_stencil(self):
        grid = build_grid(1)
        A = assemble(grid, ONES)
        interior = np.flatnonzero(~grid.boundary_mask)
        assert np.allclose(A.diagonal()[interior], 8.0 / 3.0)

    def test_linearity_in_coefficient(self):
        grid = build_grid(1)
        A1 = assemble(grid, ONES).toarray()
        A2m = assemble(grid, lambda p: 2 * np.ones(p.shape[0])).toarray()
        interior = np.flatnonzero(~grid.boundary_mask)
        ii = np.ix_(interior, interior)
        assert np.allclose(A2m[ii], 2 * A1[ii])

    def test_exact_symmetry(self):
        grid = build_grid(2)
        model = make_model("affine", "exponential", 3)
        y = np.array([0.5, -0.5, 0.25])
        A = assemble(grid, lambda p: evaluate(model, y, p))
        assert abs(A - A.T).max() == 0.0

    def test_nonpositive_coefficient(self):
        grid = build_grid(0)
        with pytest.raises(EllipticityError):
            assemble(grid, lambda p: np.full(p.shape[0], -1.0))

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("kind", ["unit", "affine", "log-uniform"])
    def test_bitwise_equal_to_coo_reference(self, level, kind, rng):
        grid = build_grid(level)
        if kind == "unit":
            coefficient = ONES
        else:
            model = make_model(kind, "slow-algebraic", 4, 2.0)
            y = rng.uniform(-1, 1, 4)
            coefficient = lambda p: evaluate(model, y, p)
        avals = coefficient(grid.quad_points.reshape(-1, 2))
        assert_bitwise_equal(assemble(grid, coefficient), coo_stiffness(grid, avals))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda level: st.tuples(
        st.just(level),
        hnp.arrays(np.float64, 4 * (4 * 2**level) ** 2,
                   elements=st.floats(1e-300, 1e300)))))
    def test_bitwise_equal_for_any_positive_values(self, case):
        level, avals = case
        grid = build_grid(level)
        A = assemble(grid, lambda p: avals)
        assert_bitwise_equal(A, coo_stiffness(grid, avals))

    def test_quad_basis_serves_both_kinds(self, rng):
        grid = build_grid(2)
        affine = make_model("affine", "exponential", 3)
        logu = make_model("log-uniform", "exponential", 3)
        basis = grid.quad_basis(affine)
        assert grid.quad_basis(logu) is basis
        pts = grid.quad_points.reshape(-1, 2)
        for model in (affine, logu):
            y = rng.uniform(-1, 1, 3)
            assert evaluate(model, y, basis=basis).tobytes() == \
                evaluate(model, y, pts).tobytes()

    def test_spd_for_valid_models(self):
        # Cholesky-style factorization must succeed at every tested level
        for level in range(5):
            h1_frame(level)        # raises if not SPD


class TestSolve:
    def test_center_value(self):
        target = 0.5 * poisson_series_center()
        u = solve_at(np.zeros(1), 5, A2)
        grid = build_grid(5)
        center = (grid.m // 2) * grid.m + grid.m // 2
        assert abs(u[center] - target) < 3e-5
        # freeze the series value itself against regressions
        assert abs(target - 0.0368357) < 1e-6

    def test_symmetry_under_coordinate_swap(self):
        u = solve_at(np.zeros(1), 3, A2)
        grid = build_grid(3)
        U = u.reshape(grid.m, grid.m)
        assert np.abs(U - U.T).max() < 1e-12

    def test_mesh_convergence_ratio(self):
        ref_level = 6
        ref = solve_at(np.zeros(1), ref_level, A2)
        frame = h1_frame(ref_level)
        errs = []
        for level in (2, 3, 4):
            u = solve_at(np.zeros(1), level, A2)
            diff = prolongate_to(u, level, ref_level) - ref
            errs.append(frame.seminorm(diff))
        for e0, e1 in zip(errs, errs[1:]):
            assert 1.6 <= e0 / e1 <= 2.4

    def test_boundary_exactly_zero(self):
        model = make_model("affine", "exponential", 3)
        u = solve_at(np.array([0.3, -0.8, 0.5]), 2, model)
        assert np.abs(u[build_grid(2).boundary_mask]).max() == 0.0


class TestProlongation:
    def test_coincident_nodes_copy(self):
        coarse = build_grid(1)
        xc = coarse.node_coords()
        v = xc[:, 0] * (1 - xc[:, 0])
        fine_v = prolongate(v, 2)
        fine = build_grid(2)
        ix, iy = np.meshgrid(np.arange(coarse.m), np.arange(coarse.m), indexing="xy")
        fine_idx = (2 * iy) * fine.m + 2 * ix
        assert np.array_equal(fine_v[fine_idx.ravel()], v)

    def test_linear_function_midpoints(self):
        coarse, fine = build_grid(0), build_grid(1)
        v = coarse.node_coords()[:, 0]
        fv = prolongate(v, 1)
        assert np.allclose(fv, fine.node_coords()[:, 0])

    def test_energy_identity(self, rng):
        for level in (1, 2, 3):
            coarse = build_grid(level - 1)
            for _ in range(20 if level == 1 else 5):
                v = rng.standard_normal(coarse.n)
                v[coarse.boundary_mask] = 0.0
                a = np.linalg.norm(h1_frame(level).to_h1(prolongate(v, level)))
                b = np.linalg.norm(h1_frame(level - 1).to_h1(v))
                assert abs(a - b) <= 1e-10 * max(b, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prolongate(np.ones(10), 1)

    def test_energy_monotone_under_refinement(self):
        norms = [np.linalg.norm(h1_frame(lev).to_h1(solve_at(np.zeros(1), lev, A2)))
                 for lev in range(4)]
        for a, b in zip(norms, norms[1:]):
            assert b >= a - 1e-10


class TestDelta:
    def test_level_zero_is_plain_solution(self):
        model = make_model("affine", "exponential", 2)
        y = np.array([0.4, -0.2])
        z = delta_vector(y, 0, model)
        u = solve_at(y, 0, model)
        assert np.allclose(z, h1_frame(0).to_h1(u))

    def test_decay_ratio(self):
        norms = [np.linalg.norm(delta_vector(np.zeros(1), lev, A2))
                 for lev in range(1, 5)]
        for a, b in zip(norms, norms[1:]):
            assert 0.3 <= b / a <= 0.8

    def test_constant_coefficient_is_parameter_free(self, rng):
        z0 = delta_vector(np.zeros(1), 1, A2)
        z1 = delta_vector(rng.uniform(-1, 1, 1), 1, A2)
        assert np.allclose(z0, z1)

    def test_boundary_zero(self, rng):
        model = make_model("affine", "fast-algebraic", 3)
        y = rng.uniform(-1, 1, 3)
        for level in (0, 1, 2):
            d = delta_nodal(y, level, model)
            assert np.abs(d[build_grid(level).boundary_mask]).max() == 0.0

    def test_norm_matches_quadrature(self, rng):
        model = make_model("affine", "exponential", 4)
        for level in (0, 1, 2, 3):
            y = rng.uniform(-1, 1, 4)
            dn = delta_nodal(y, level, model)
            a = np.linalg.norm(delta_vector(y, level, model))
            b = seminorm_quadrature(dn, level)
            assert abs(a - b) <= 1e-6 * b


class TestPsi:
    def test_partition_of_unity(self):
        for level in (0, 2):
            assert np.isclose(functional_psi(np.ones(build_grid(level).n), level), 1.0)

    def test_series_value(self):
        target = 0.5 * poisson_series_integral()
        u = solve_at(np.zeros(1), 5, A2)
        assert abs(functional_psi(u, 5) - target) < 5e-6
        assert abs(target - 0.0175721) < 5e-7

    def test_linearity(self, rng):
        level = 1
        n = build_grid(level).n
        v, w = rng.standard_normal(n), rng.standard_normal(n)
        lhs = functional_psi(2.5 * v + w, level)
        rhs = 2.5 * functional_psi(v, level) + functional_psi(w, level)
        assert np.isclose(lhs, rhs, rtol=1e-14)

    def test_psi_vec_shortcut(self, rng):
        model = make_model("affine", "exponential", 3)
        y = rng.uniform(-1, 1, 3)
        level = 2
        d = delta_nodal(y, level, model)
        frame = h1_frame(level)
        assert np.isclose(frame.psi_vec @ frame.to_h1(d),
                          functional_psi(d, level), rtol=1e-11)


def test_mass_vector_total():
    assert np.isclose(mass_vector(3).sum(), 1.0)
