import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import spsolve_triangular

from mltc import fem
from mltc.errors import EllipticityError
from mltc.fem import (assemble, build_grid, delta_nodal, delta_vector,
                      functional_psi, h1_frame, mass_vector, prolongate,
                      seminorm_quadrature, solve_at)
from mltc.fields import basis_values, evaluate, make_model


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


A2 = make_model("affine", "zero", 1)          # constant coefficient 2
GAUSS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


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


def node_coords(grid):
    """(n, 2) node coordinates in node order (index = iy * m + ix)."""
    t = np.arange(grid.m) * grid.h
    xx, yy = np.meshgrid(t, t, indexing="xy")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def quad_points(grid):
    """(4 n_elements, 2) Gauss points, element by element; an element's four
    are its lower-left corner plus h (a, b) for a in GAUSS for b in GAUSS."""
    corners = node_coords(grid)[grid.elements[:, 0]]
    offsets = np.array([(a, b) for a in GAUSS for b in GAUSS]) * grid.h
    return (corners[:, None, :] + offsets[None, :, :]).reshape(-1, 2)


def ones(grid):
    """The unit coefficient at the grid's quadrature points."""
    return np.ones(4 * len(grid.elements))


def coefficient_values(model, y, grid):
    return evaluate(model, y, basis_values(model, quad_points(grid)))


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
        cc, fc = node_coords(coarse), node_coords(fine)
        fset = {tuple(np.round(p, 12)) for p in fc}
        assert all(tuple(np.round(p, 12)) in fset for p in cc)


class TestAssemble:
    def test_interior_stencil(self):
        grid = build_grid(1)
        A = assemble(grid, ones(grid))
        interior = np.flatnonzero(~grid.boundary_mask)
        assert np.allclose(A.diagonal()[interior], 8.0 / 3.0)

    def test_linearity_in_coefficient(self):
        grid = build_grid(1)
        A1 = assemble(grid, ones(grid)).toarray()
        A2m = assemble(grid, 2 * ones(grid)).toarray()
        interior = np.flatnonzero(~grid.boundary_mask)
        ii = np.ix_(interior, interior)
        assert np.allclose(A2m[ii], 2 * A1[ii])

    def test_exact_symmetry(self):
        grid = build_grid(2)
        model = make_model("affine", "exponential", 3)
        y = np.array([0.5, -0.5, 0.25])
        A = assemble(grid, coefficient_values(model, y, grid))
        assert abs(A - A.T).max() == 0.0

    def test_nonpositive_coefficient(self):
        grid = build_grid(0)
        with pytest.raises(EllipticityError):
            assemble(grid, -ones(grid))

    @pytest.mark.parametrize("extra", [-1, 1, -4, 4])
    @pytest.mark.parametrize("assembly", ["assemble", "assemble_band"])
    def test_wrong_number_of_values(self, assembly, extra):
        # too few or too many values, whole elements or not
        grid = build_grid(1)
        avals = np.ones(4 * len(grid.elements) + extra)
        with pytest.raises(ValueError, match=f"expected {4 * len(grid.elements)} "):
            getattr(fem, assembly)(grid, avals)

    @pytest.mark.parametrize("level", range(6))
    @pytest.mark.parametrize("kind", ["unit", "affine", "log-uniform"])
    def test_bitwise_equal_to_coo_reference(self, level, kind, rng):
        grid = build_grid(level)
        if kind == "unit":
            avals = ones(grid)
        else:
            model = make_model(kind, "slow-algebraic", 4, 2.0)
            avals = coefficient_values(model, rng.uniform(-1, 1, 4), grid)
        assert_bitwise_equal(assemble(grid, avals), coo_stiffness(grid, avals))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2).flatmap(lambda level: st.tuples(
        st.just(level),
        hnp.arrays(np.float64, 4 * (4 * 2**level) ** 2,
                   elements=st.floats(1e-300, 1e300)))))
    def test_bitwise_equal_for_any_positive_values(self, case):
        level, avals = case
        grid = build_grid(level)
        A = assemble(grid, avals)
        assert_bitwise_equal(A, coo_stiffness(grid, avals))

    def test_quad_basis_serves_both_kinds(self, rng):
        grid = build_grid(2)
        affine = make_model("affine", "exponential", 3)
        logu = make_model("log-uniform", "exponential", 3)
        basis = grid.quad_basis(affine)
        assert grid.quad_basis(logu) is basis
        reference = basis_values(affine, quad_points(grid))
        assert basis.shape == reference.shape == (4 * len(grid.elements), 3)
        assert basis.tobytes() == reference.tobytes()
        for model in (affine, logu):
            y = rng.uniform(-1, 1, 3)
            assert evaluate(model, y, basis).tobytes() == \
                coefficient_values(model, y, grid).tobytes()

    def test_spd_for_valid_models(self):
        # Cholesky-style factorization must succeed at every tested level
        for level in range(5):
            h1_frame(level)        # raises if not SPD


def reference_frame(level):
    """(perm, R) with every temporary kept alive: the factor's CSR copy U and
    R = diags(1/sqrt(d)) @ U."""
    lu = fem._factor_spd(assemble(build_grid(level), ones(build_grid(level))))
    perm = np.argsort(lu.perm_c)
    U = lu.U.tocsr()
    R = (sp.diags(1.0 / np.sqrt(U.diagonal())) @ U).tocsr()
    return perm, R


class TestH1Frame:
    @pytest.mark.parametrize("level", range(6))
    def test_bitwise_equal_to_reference(self, level, rng):
        perm, R = reference_frame(level)
        frame = h1_frame(level)
        assert_bitwise_equal(frame.R, R)
        assert np.array_equal(frame.perm, perm)
        n = build_grid(level).n
        c = rng.standard_normal(n)
        assert np.array_equal(frame.to_h1(c), R @ c[perm])
        for z in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x = spsolve_triangular(R, z.reshape(n, -1), lower=False)
            expected = np.empty_like(x)
            expected[perm, :] = x
            assert np.array_equal(frame.from_h1(z), expected.reshape(z.shape))

    def test_keeps_no_transpose(self):
        # a frame keeps R alone: no transpose, mass vector or factorization
        assert set(vars(h1_frame(2))) == {"level", "perm", "R"}


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
            diff = prolongate(u, level, ref_level) - ref
            errs.append(frame.seminorm(diff))
        for e0, e1 in zip(errs, errs[1:]):
            assert 1.6 <= e0 / e1 <= 2.4

    def test_boundary_exactly_zero(self):
        model = make_model("affine", "exponential", 3)
        u = solve_at(np.array([0.3, -0.8, 0.5]), 2, model)
        assert np.abs(u[build_grid(2).boundary_mask]).max() == 0.0

    def test_non_finite_parameter_rejected(self):
        # before the factorization, not as a singular factor inside it
        model = make_model("affine", "exponential", 3)
        y = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            solve_at(y, 1, model)
        with pytest.raises(ValueError, match="finite"):
            fem.solve_ladder(y, 1, model)


LADDER_MODELS = {"affine": make_model("affine", "exponential", 3),
                 "log-uniform": make_model("log-uniform", "slow-algebraic", 3)}


def relative_error(u, ref):
    return np.linalg.norm(u - ref) / np.linalg.norm(ref)


def banded_rung(y, level, model):
    return fem._banded_solve(y, level, model)[0]


def test_band_is_the_upper_triangle_of_the_stiffness():
    # every band entry sums the same contributions as the CSC stiffness
    model = LADDER_MODELS["log-uniform"]
    y = np.array([0.3, -0.9, 0.6])
    for level in range(4):
        grid = build_grid(level)
        avals = coefficient_values(model, y, grid)
        A = assemble(grid, avals).toarray()
        band = fem.assemble_band(grid, avals)
        kd = grid.m + 1
        assert band.shape == (kd + 1, grid.n) and band.flags.f_contiguous
        i, j = np.triu_indices(grid.n)
        inside = j - i <= kd
        assert np.abs(A[i[~inside], j[~inside]]).max() == 0.0
        i, j = i[inside], j[inside]
        assert A[i, j].tobytes() == band[kd + i - j, j].tobytes()
        outside = np.ones(band.shape, dtype=bool)
        outside[kd + i - j, j] = False
        assert np.abs(band[outside]).max() == 0.0


class TestBandedRung:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(LADDER_MODELS)),
           hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           st.integers(0, 3))
    def test_close_to_solve_at(self, kind, y, level):
        model = LADDER_MODELS[kind]
        u = banded_rung(y, level, model)
        assert relative_error(u, solve_at(y, level, model)) <= 1e-13
        assert np.abs(u[build_grid(level).boundary_mask]).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(LADDER_MODELS)),
           hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           st.integers(0, 3))
    def test_residual(self, kind, y, level):
        model = LADDER_MODELS[kind]
        A = fem._stiffness_at(y, level, model)
        b = fem.load_vector(level)
        u = banded_rung(y, level, model)
        assert np.linalg.norm(A @ u - b) <= 1e-13 * np.linalg.norm(b)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(LADDER_MODELS)),
           hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           st.integers(0, 3), st.data())
    def test_indefinite_band_raises(self, kind, y, level, data):
        # one negated interior diagonal: e_i^T A e_i < 0, so A is indefinite
        model = LADDER_MODELS[kind]
        grid = build_grid(level)
        node = data.draw(st.sampled_from(np.flatnonzero(~grid.boundary_mask).tolist()))
        assemble_band = fem.assemble_band

        def negated(grid_, avals):
            # the ladder's lower rungs stay intact
            band = assemble_band(grid_, avals)
            if grid_ is grid:
                band[grid.m + 1, node] *= -1.0
            return band

        returned = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "assemble_band", negated)
            with pytest.raises(ArithmeticError):
                returned.append(fem._banded_solve(y, level, model))
            with pytest.raises(ArithmeticError):
                returned.append(fem.solve_ladder(y, level, model))
        assert returned == []


class TestSolveLadder:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(LADDER_MODELS)),
           hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)),
           st.integers(0, 1), st.integers(0, 3))
    def test_matches_solve_at(self, kind, y, cut, L):
        # a low cut runs the multigrid on small levels, where it is cheap
        model = LADDER_MODELS[kind]
        counts = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "DIRECT_MAX_LEVEL", cut)
            ladder = fem.solve_ladder(y, L, model, counts)
        assert len(ladder) == len(counts) == L + 1
        for level, u in enumerate(ladder):
            ref = solve_at(y, level, model)
            if level <= cut:
                assert counts[level] == 0
                assert u.tobytes() == banded_rung(y, level, model).tobytes()
                assert relative_error(u, ref) <= 1e-13
            else:
                assert 0 < counts[level] <= 15
                assert relative_error(u, ref) <= 1e-11
                assert np.abs(u[build_grid(level).boundary_mask]).max() == 0.0

    def test_default_cut(self, rng):
        model = LADDER_MODELS["affine"]
        y = rng.uniform(-1, 1, 3)
        counts = []
        ladder = fem.solve_ladder(y, fem.DIRECT_MAX_LEVEL + 1, model, counts)
        assert counts[:-1] == [0] * (fem.DIRECT_MAX_LEVEL + 1) and counts[-1] > 0
        for level, u in enumerate(ladder[:-1]):
            assert u.tobytes() == banded_rung(y, level, model).tobytes()
            assert relative_error(u, solve_at(y, level, model)) <= 1e-13
        assert relative_error(ladder[-1], solve_at(y, len(ladder) - 1, model)) <= 1e-11

    @pytest.mark.parametrize("bad", range(4))
    def test_nonpositive_coefficient_at_any_rung(self, bad, monkeypatch, rng):
        # the coefficient turns negative at the quadrature points of one level
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 1)
        evaluate_ = fem.evaluate
        n_points = 4 * len(build_grid(bad).elements)

        def negative_at_bad(model, y, basis):
            a = evaluate_(model, y, basis)
            return -a if a.size == n_points else a

        monkeypatch.setattr(fem, "evaluate", negative_at_bad)
        with pytest.raises(EllipticityError):
            fem.solve_ladder(rng.uniform(-1, 1, 3), 3, LADDER_MODELS["affine"])

    def test_unconverged_rung_falls_back_to_solve_at(self, monkeypatch, rng):
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 1)
        monkeypatch.setattr(fem, "MAX_PCG_ITERATIONS", 1)
        model = LADDER_MODELS["log-uniform"]
        y = rng.uniform(-1, 1, 3)
        counts = []
        ladder = fem.solve_ladder(y, 3, model, counts)
        assert counts == [0, 0, -1, -1]
        for level, u in enumerate(ladder):
            if level <= 1:
                assert u.tobytes() == banded_rung(y, level, model).tobytes()
            else:
                assert u.tobytes() == solve_at(y, level, model).tobytes()


class TestProlongation:
    def test_coincident_nodes_copy(self):
        coarse = build_grid(1)
        xc = node_coords(coarse)
        v = xc[:, 0] * (1 - xc[:, 0])
        fine_v = prolongate(v, 1, 2)
        fine = build_grid(2)
        ix, iy = np.meshgrid(np.arange(coarse.m), np.arange(coarse.m), indexing="xy")
        fine_idx = (2 * iy) * fine.m + 2 * ix
        assert np.array_equal(fine_v[fine_idx.ravel()], v)

    def test_linear_function_midpoints(self):
        coarse, fine = build_grid(0), build_grid(1)
        v = node_coords(coarse)[:, 0]
        fv = prolongate(v, 0, 1)
        assert np.allclose(fv, node_coords(fine)[:, 0])

    def test_energy_identity(self, rng):
        for level in (1, 2, 3):
            coarse = build_grid(level - 1)
            for _ in range(20 if level == 1 else 5):
                v = rng.standard_normal(coarse.n)
                v[coarse.boundary_mask] = 0.0
                a = np.linalg.norm(h1_frame(level).to_h1(prolongate(v, level - 1, level)))
                b = np.linalg.norm(h1_frame(level - 1).to_h1(v))
                assert abs(a - b) <= 1e-10 * max(b, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prolongate(np.ones(10), 0, 1)
        with pytest.raises(ValueError):
            prolongate(np.ones((10, 25)), 0, 1)       # a function per column, not row
        with pytest.raises(ValueError):
            prolongate(np.ones(build_grid(1).n), 1, 0)

    @settings(max_examples=12, deadline=None)
    @given(level=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_bilinear_interpolation(self, level, seed):
        # an independent evaluation of the coarse Q1 function at the fine nodes
        coarse, fine = build_grid(level - 1), build_grid(level)
        v = np.random.default_rng(seed).standard_normal(coarse.n)
        t = np.arange(coarse.m) * coarse.h
        interp = RegularGridInterpolator((t, t), v.reshape(coarse.m, coarse.m),
                                         method="linear")
        expected = interp(node_coords(fine)[:, ::-1])    # points as (y, x)
        got = prolongate(v, level - 1, level)
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(v).max()

    def test_two_levels_at_once(self, rng):
        v = rng.standard_normal((build_grid(1).n, 3))
        twice = prolongate(prolongate(v, 1, 2), 2, 3)
        assert np.array_equal(prolongate(v, 1, 3), twice)
        assert prolongate(v, 1, 1) is v

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


def test_mass_vector_total():
    assert np.isclose(mass_vector(3).sum(), 1.0)


@pytest.mark.parametrize("level", range(7))
def test_mass_vector_integrates_bilinear_exactly(level):
    m = mass_vector(level)
    x, y = node_coords(build_grid(level)).T
    for f, integral in ((np.ones_like(x), 1.0), (x, 0.5), (x * y, 0.25)):
        assert abs(m @ f - integral) <= 1e-15


def test_cached_arrays_are_read_only():
    # a write into a cached array would change every later solve without a word
    P = fem.prolongation_matrix(2)
    for a in (mass_vector(2), fem.load_vector(2), P.indptr, P.indices, P.data):
        with pytest.raises(ValueError):
            a[:1] = 0
