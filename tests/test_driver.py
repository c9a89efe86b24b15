import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mltc import cli, cross, driver, fem
from mltc.colloc import CollocationGrid
from mltc.config import load_config
from mltc.cross import ColumnSource
from mltc.driver import (LevelPlan, MLSurrogate, accuracy_schedule,
                         degree_schedule, error_metrics, run_ml)
from mltc.errors import EllipticityError
from mltc.fem import (build_grid, delta_nodal, delta_vector, h1_frame, prolongate,
                      prolongation_matrix, solve_at, solve_ladder)
from mltc.fields import CoefficientModel, make_model
from mltc.htensor import ht_coefficients, ht_entries

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXP2 = make_model("affine", "exponential", 2)


@pytest.fixture(scope="module")
def tight_n2_l2():
    surrogate, diags = run_ml(EXP2, 2, 2, eps0=1e-8, seed=11)
    return surrogate, diags


@pytest.fixture(scope="module")
def linear_n3_l2():
    model = make_model("affine", "exponential", 3)
    return run_ml(model, 3, 2, seed=5, tree_shape="linear")


class TestSchedules:
    def test_table_degree_column(self):
        assert degree_schedule(7) == [4, 3, 3, 2, 2, 1, 1, 0]

    def test_small_schedules(self):
        assert degree_schedule(4) == [2, 2, 1, 1, 0]
        assert degree_schedule(0) == [0]

    def test_plan_invariants(self):
        for L in range(8):
            plan = LevelPlan(L)
            degrees = plan.degrees
            assert all(a >= b for a, b in zip(degrees, degrees[1:]))
            assert degrees[-1] == 0
            acc = plan.accuracies
            assert np.allclose(np.diff(np.log2(acc)), 1.0)
            assert acc[-1] == 0.25

    def test_accuracy_eps0(self):
        assert accuracy_schedule(3, 1e-2)[-1] == 1e-2
        assert accuracy_schedule(3, 1e-2)[0] == 1e-2 / 8

    def test_collocation_counts(self, tight_n2_l2):
        # each level tensor spans the (p+1)^N collocation points of its degree
        surrogate, _ = tight_n2_l2
        assert surrogate.plan.degrees == (1, 1, 0)
        assert [math.prod(r.tensor.mode_sizes[:2]) for r in surrogate.records] == \
            [2**2, 2**2, 1]


class TestRunML:
    def test_single_level_run(self):
        surrogate, diags = run_ml(EXP2, 2, 0, seed=5)
        assert len(diags) == 1
        d = diags[0]
        assert d.degree == 0 and d.r_max == 1
        assert d.step1_evals == 1 and d.step2_evals == 1
        # the stored tensor is the H1-coordinate solution at the single point
        rec = surrogate.records[0]
        y0 = rec.grid.nodes[[0, 0]]
        from mltc.fem import delta_vector
        z = delta_vector(y0, 0, EXP2)
        idx = np.zeros((z.size, 3), dtype=int)
        idx[:, 2] = np.arange(z.size)
        assert np.allclose(ht_entries(rec.tensor, idx), z, atol=1e-12)

    def test_top_level_row_shape(self, tight_n2_l2):
        _, diags = tight_n2_l2
        top = diags[-1]
        assert top.degree == 0
        assert top.r_max == 1
        assert abs(top.r_eff - 1.0) < 0.01
        assert top.step1_evals == 1 and top.step2_evals == 1
        assert top.pde_solves == 2

    def test_determinism(self):
        _, d1 = run_ml(EXP2, 2, 1, seed=42)
        _, d2 = run_ml(EXP2, 2, 1, seed=42)
        for a, b in zip(d1, d2):
            assert (a.step1_evals, a.step2_evals, a.r_max) == \
                (b.step1_evals, b.step2_evals, b.r_max)

    def test_threads_other_than_one_rejected(self):
        with pytest.raises(ValueError):
            run_ml(EXP2, 2, 1, seed=9, threads=2)

    @pytest.mark.parametrize("n_params", [0, 2, 4])
    def test_parameter_count_must_match_the_model(self, n_params, monkeypatch):
        # rejected on entry, before any grid is built or any solve runs
        def unreachable(*args):
            raise AssertionError("run_ml went past its argument checks")

        for name in ("build_grid", "solve_at", "solve_ladder"):
            monkeypatch.setattr(driver, name, unreachable)
        with pytest.raises(ValueError, match=f"n_params = {n_params} differs from "
                                             "model.terms = 3"):
            run_ml(make_model("affine", "exponential", 3), n_params, 1)

    def test_linear_tree_end_to_end(self, linear_n3_l2):
        surrogate, _ = linear_n3_l2
        metrics = error_metrics(surrogate, None, samples=20, seed=3,
                                per_level=False)
        assert np.isfinite(metrics.eps_ml_u) and metrics.eps_ml_u < 0.2

    def test_single_parameter_end_to_end(self):
        model = make_model("affine", "exponential", 1)
        surrogate, _ = run_ml(model, 1, 2, seed=5)
        metrics = error_metrics(surrogate, None, samples=20, seed=3,
                                per_level=False)
        assert np.isfinite(metrics.eps_ml_u) and metrics.eps_ml_u < 0.2


class TestSurrogate:
    def test_collocation_point_exact_at_l0(self):
        surrogate, _ = run_ml(EXP2, 2, 0, seed=5)
        grid = surrogate.records[0].grid
        y = grid.nodes[[0, 0]]
        direct = solve_at(y, 0, EXP2)
        assert np.linalg.norm(surrogate.evaluate(y) - direct) \
            < 1e-12 * np.linalg.norm(direct)

    def test_degenerate_model_parameter_free(self):
        model = make_model("affine", "zero", 2)
        surrogate, _ = run_ml(model, 2, 1, seed=3)
        u_det = solve_at(np.zeros(2), 1, model)
        for y in (np.array([0.1, 0.9]), np.array([-0.7, 0.3])):
            assert np.allclose(surrogate.evaluate(y), u_det, atol=1e-12)

    def test_collocation_fiber_reproduction(self, tight_n2_l2):
        # the spatial fiber of a level tensor at a collocation index reproduces
        # that point's exact difference within the level's accuracy (exact here
        # because the run is tight)
        surrogate, diags = tight_n2_l2
        for rec, diag in zip(surrogate.records, diags):
            k = (0,) * 2
            n = rec.tensor.mode_sizes[2]
            idx = np.column_stack([np.full((n, 2), k), np.arange(n)])
            fiber = ht_entries(rec.tensor, idx)
            exact = delta_vector(rec.grid.nodes[list(k)], rec.level,
                                 surrogate.model)
            rel = np.linalg.norm(fiber - exact) / np.linalg.norm(exact)
            assert rel <= max(diag.eps_target, 1e-9)

    def test_matches_dense_telescoped_interpolation(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        y = np.array([0.31, -0.57])
        total = np.zeros(build_grid(2).n)
        for rec in surrogate.records:
            grid = rec.grid
            acc = np.zeros(build_grid(rec.level).n)
            wx, wy = grid.lagrange_weights_many(y)
            for k in itertools.product(range(len(grid)), repeat=2):
                weight = wx[k[0]] * wy[k[1]]
                acc += weight * delta_nodal(grid.nodes[list(k)], rec.level, EXP2)
            total += prolongate(acc, rec.level, 2)
        frame = h1_frame(2)
        err = np.linalg.norm(frame.to_h1(surrogate.evaluate(y) - total))
        assert err < 1e-6 * np.linalg.norm(frame.to_h1(total))

    def test_linearity_in_tensors(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        alpha = -1.75
        scaled = MLSurrogate(
            surrogate.model, surrogate.n_params, surrogate.plan,
            [type(rec)(rec.level, rec.grid, rec.tensor.scaled(alpha))
             for rec in surrogate.records])
        y = np.array([0.4, 0.8])
        assert np.allclose(scaled.evaluate(y), alpha * surrogate.evaluate(y),
                           rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-4.0, 4.0, allow_subnormal=False),
                    min_size=3, max_size=3),
           st.integers(0, 2**32 - 1))
    def test_linearity_over_levels(self, tight_n2_l2, factors, seed):
        # every query of a surrogate with level tensors a_l X_l is the sum over
        # l of a_l times the query of the surrogate that keeps level l alone;
        # a subnormal a_l keeps only a few bits, so no relative bound holds there
        surrogate, _ = tight_n2_l2
        Y = np.random.default_rng(seed).uniform(-1, 1, (6, 2))

        def queries(scales):
            s = MLSurrogate(surrogate.model, surrogate.n_params, surrogate.plan,
                            [type(rec)(rec.level, rec.grid, rec.tensor.scaled(a))
                             for rec, a in zip(surrogate.records, scales)])
            return [s.evaluate_batch(Y), s.psi_batch(Y), s.expectation(),
                    s.expectation_psi()]

        got = queries(factors)
        parts = [queries(np.eye(3)[level]) for level in range(3)]
        for q, value in enumerate(got):
            terms = [a * part[q] for a, part in zip(factors, parts)]
            scale = sum(np.max(np.abs(t)) for t in terms)
            assert np.max(np.abs(value - sum(terms))) <= 1e-12 * scale

    def test_batch_matches_single(self, tight_n2_l2, rng):
        surrogate, _ = tight_n2_l2
        Y = rng.uniform(-1, 1, (7, 2))
        batch = surrogate.evaluate_batch(Y)
        for i in range(7):
            assert np.allclose(batch[i], surrogate.evaluate(Y[i]), rtol=1e-12)
        psi = surrogate.psi_batch(Y)
        from mltc.fem import functional_psi
        for i in range(7):
            assert np.isclose(psi[i], functional_psi(batch[i], 2), rtol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 3.0, -1.0 - 1e-6])
    def test_rejects_samples_outside_the_box(self, tight_n2_l2, bad):
        # the interpolant would extrapolate, or return NaNs without saying so
        surrogate, _ = tight_n2_l2
        y = np.array([bad, 0.0])
        for query in (surrogate.evaluate, surrogate.coefficients):
            with pytest.raises(ValueError):
                query(y)
        Y = np.array([[0.1, 0.2], [0.0, bad]])
        for query in (surrogate.evaluate_batch, surrogate.psi_batch):
            with pytest.raises(ValueError):
                query(Y)

    @pytest.mark.parametrize("shape", [(), (2, 2, 1), (3, 2, 2), (2, 3), (3,)], ids=str)
    def test_rejects_sample_arrays_of_other_shapes(self, tight_n2_l2, shape):
        surrogate, _ = tight_n2_l2
        Y = np.zeros(shape)
        for query in (surrogate.coefficients, surrogate.evaluate_batch,
                      surrogate.psi_batch):
            with pytest.raises(ValueError, match=r"shape \(2,\) or \(M, 2\)"):
                query(Y)

    @pytest.mark.parametrize("shape", [(), (1, 2), (2, 2), (3,)], ids=str)
    def test_evaluate_takes_one_point(self, tight_n2_l2, shape):
        surrogate, _ = tight_n2_l2
        with pytest.raises(ValueError, match=r"must have shape \(2,\), got"):
            surrogate.evaluate(np.zeros(shape))

    def test_accepts_the_corners_within_slack(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        Y = np.array([[1.0, -1.0], [1.0 + 1e-12, -1.0 - 1e-12]])
        batch = surrogate.evaluate_batch(Y)
        assert np.all(np.isfinite(batch))
        assert np.allclose(batch[0], batch[1], rtol=1e-9)


class TestExpectation:
    def test_two_point_rule_is_exact_for_linear(self):
        # N=1, p=1: quadrature of the interpolant equals the average of the
        # two collocation values
        model = make_model("affine", "exponential", 1)
        surrogate, _ = run_ml(model, 1, 1, eps0=1e-8, seed=2)
        e = surrogate.expectation()
        rec = surrogate.records
        total = np.zeros(build_grid(1).n)
        for r in rec:
            grid = r.grid
            w = grid.quadrature_weights
            acc = np.zeros(build_grid(r.level).n)
            for k in range(len(grid)):
                acc += w[k] * delta_nodal(grid.nodes[[k]], r.level, model)
            total += prolongate(acc, r.level, 1)
        assert np.allclose(e, total, atol=1e-9)

    def test_degenerate_expectation(self):
        model = make_model("affine", "zero", 2)
        surrogate, _ = run_ml(model, 2, 1, seed=3)
        assert np.allclose(surrogate.expectation(), solve_at(np.zeros(2), 1, model),
                           atol=1e-12)


class TestErrorMetrics:
    def test_self_reference_is_zero(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        metrics = error_metrics(surrogate, surrogate, samples=5, seed=3,
                                per_level=False)
        assert metrics.eps_e_u == 0.0
        assert metrics.eps_e_psi == 0.0

    def test_determinism(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        m1 = error_metrics(surrogate, None, samples=10, seed=21)
        m2 = error_metrics(surrogate, None, samples=10, seed=21)
        assert m1.eps_ml_u == m2.eps_ml_u
        assert m1.eps_level_u == m2.eps_level_u

    def test_mismatched_models_rejected(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        other_model = make_model("affine", "fast-algebraic", 2)
        other, _ = run_ml(other_model, 2, 2, seed=1)
        with pytest.raises(ValueError):
            error_metrics(surrogate, other, samples=2)

    def test_components_computed_once(self, tight_n2_l2, monkeypatch):
        surrogate, _ = tight_n2_l2
        calls = []
        original = MLSurrogate.coefficients

        def counting(self, Y):
            calls.append(len(Y))
            return original(self, Y)

        monkeypatch.setattr(MLSurrogate, "coefficients", counting)
        error_metrics(surrogate, surrogate, samples=4, seed=3, per_level=True)
        assert calls == [4]

    def test_no_samples_rejected(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        with pytest.raises(ValueError, match="samples must be at least 1"):
            error_metrics(surrogate, None, samples=0)

    def test_tight_surrogate_has_tiny_error(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        metrics = error_metrics(surrogate, None, samples=10, seed=4,
                                per_level=False)
        # interpolation error only; N=2 exponential decay at degrees (1,1,0)
        assert metrics.eps_ml_u < 0.05


def splu_ladder(y, L, model, iterations=None):
    """solve_ladder's contract by one sparse LU solve per level."""
    if iterations is not None:
        iterations.extend([0] * (L + 1))
    return [solve_at(y, level, model) for level in range(L + 1)]


class TestValidationLadder:
    # with the cut at 0, levels 1 and 2 of the L=2 build are solved by multigrid

    def test_per_level_keeps_eps_ml(self, tight_n2_l2, monkeypatch):
        surrogate, _ = tight_n2_l2
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 0)
        top = error_metrics(surrogate, None, samples=6, seed=8, per_level=False)
        full = error_metrics(surrogate, None, samples=6, seed=8, per_level=True)
        assert top.eps_ml_u == full.eps_ml_u
        assert top.eps_ml_psi == full.eps_ml_psi
        assert top.pcg_iterations == full.pcg_iterations
        assert top.pcg_iterations[0] == 0 and min(top.pcg_iterations[1:]) > 0

    def test_matches_splu_reference(self, tight_n2_l2, monkeypatch):
        surrogate, _ = tight_n2_l2
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 0)
        got = error_metrics(surrogate, surrogate, samples=6, seed=8)
        monkeypatch.setattr(driver, "solve_ladder", splu_ladder)
        want = error_metrics(surrogate, surrogate, samples=6, seed=8)
        assert want.pcg_iterations == [0, 0, 0]
        for name in ("eps_ml_u", "eps_ml_psi", "eps_level_u"):
            g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert np.all(np.abs(g - w) <= 1e-9 * w), name

    def test_fallback_is_reported(self, tight_n2_l2, monkeypatch):
        surrogate, _ = tight_n2_l2
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 1)
        monkeypatch.setattr(fem, "MAX_PCG_ITERATIONS", 1)
        got = error_metrics(surrogate, None, samples=3, seed=8)
        assert got.pcg_iterations == [0, 0, -1]
        monkeypatch.setattr(driver, "solve_ladder", splu_ladder)
        assert error_metrics(surrogate, None, samples=3, seed=8).eps_ml_u == got.eps_ml_u


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def h1_route(surrogate, comps):
    """Nodal values and psi from per-level H1 coordinates, one solve per level."""
    L = surrogate.max_level
    nodal = sum(prolongate(h1_frame(lev).from_h1(Z.T), lev, L)
                for lev, Z in enumerate(comps)).T
    psi = sum(h1_frame(lev).from_h1(Z.T).T @ fem.mass_vector(lev)
              for lev, Z in enumerate(comps))
    return nodal, psi


def whole_product_nodal(surrogate, coeffs):
    """The Horner sum of MLSurrogate._nodal with each G_l C_l^T formed whole
    by numpy and then added."""
    frames = surrogate._nodal_frames
    total = frames[0] @ coeffs[0].T
    for rec, G, C in zip(surrogate.records[1:], frames[1:], coeffs[1:]):
        total = prolongation_matrix(rec.level) @ total
        total += G @ C.T
    return total.T


def per_mode_coefficients(surrogate, Y):
    """Per-level coefficients from one lagrange_weights_many call per level
    and per mode: the reference that the per-degree weights reproduce."""
    coeffs = []
    for rec in surrogate.records:
        X = rec.tensor
        rows = {m: rec.grid.lagrange_weights_many(Y[:, m])
                @ X.leaf_frames[X.tree.leaf_of_mode[m]] for m in range(surrogate.n_params)}
        coeffs.append(ht_coefficients(X, rows, surrogate.n_params))
    return coeffs


def per_mode_mean_coefficients(surrogate):
    """The expectation's coefficients, one quadrature row per level and mode."""
    coeffs = []
    for rec in surrogate.records:
        X = rec.tensor
        w = rec.grid.quadrature_weights[None, :]
        rows = {m: w @ X.leaf_frames[X.tree.leaf_of_mode[m]]
                for m in range(surrogate.n_params)}
        coeffs.append(ht_coefficients(X, rows, surrogate.n_params))
    return coeffs


def query_samples(n_params, seed):
    """Random samples plus one coordinate on a node of each degree and the
    corners +-1."""
    Y = np.random.default_rng(seed).uniform(-1, 1, (9, n_params))
    Y[0, 0] = CollocationGrid(1).nodes[1]       # the exact-hit branch
    Y[1, -1] = 0.0                              # the degree-0 node
    Y[2] = 1.0
    Y[3] = -1.0
    return Y


class TestNodalFrames:
    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_matches_h1_coordinate_route(self, build, request, rng):
        surrogate, _ = request.getfixturevalue(build)
        N = surrogate.n_params
        Y = rng.uniform(-1, 1, (9, N))
        nodal, psi = h1_route(surrogate, surrogate.components_h1(Y))
        assert_close(surrogate.evaluate_batch(Y), nodal)
        assert_close(surrogate.evaluate(Y[4]), nodal[4])
        assert_close(surrogate.psi_batch(Y), psi)
        mean = [C @ U.T for C, U in zip(per_mode_mean_coefficients(surrogate),
                                        surrogate._spatial)]
        e_nodal, e_psi = h1_route(surrogate, mean)
        assert_close(surrogate.expectation(), e_nodal[0])
        assert_close(surrogate.expectation_psi(), e_psi[0])

    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_psi_is_mass_weighted_nodal_sum(self, build, request, rng):
        surrogate, _ = request.getfixturevalue(build)
        m = fem.mass_vector(surrogate.max_level)
        Y = rng.uniform(-1, 1, (9, surrogate.n_params))
        assert_close(surrogate.psi_batch(Y), surrogate.evaluate_batch(Y) @ m, rtol=1e-13)
        assert_close(surrogate.expectation_psi(), surrogate.expectation() @ m, rtol=1e-13)

    @pytest.mark.parametrize("M", [2, 7, 50])
    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_batch_equals_whole_product(self, build, request, M):
        # both builds have a rank-1 top level; dgemm's in-place sum of G_l C_l^T
        # is bitwise numpy's whole product for every batch of two or more
        surrogate, _ = request.getfixturevalue(build)
        Y = np.random.default_rng(M).uniform(-1, 1, (M, surrogate.n_params))
        want = whole_product_nodal(surrogate, surrogate.coefficients(Y))
        assert np.array_equal(surrogate.evaluate_batch(Y), want)

    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_one_sample_within_round_off(self, build, request):
        # numpy takes a matrix-vector kernel for one sample, so evaluate and
        # the expectation agree with the whole product to round-off only
        surrogate, _ = request.getfixturevalue(build)
        Y = query_samples(surrogate.n_params, 1)
        for y in Y:
            want = whole_product_nodal(surrogate, surrogate.coefficients(y))[0]
            assert_close(surrogate.evaluate(y), want, rtol=2e-15)
        want = whole_product_nodal(surrogate, surrogate._mean_coeffs)[0]
        assert_close(surrogate.expectation(), want, rtol=2e-15)

    def test_batch_holds_no_second_output(self, tight_n2_l2):
        # beside its output, a batch holds the previous level's sum during the
        # prolongation (81/289 of it here); a copy of the running sum made for
        # dgemm would add a whole output more
        surrogate, _ = tight_n2_l2
        Y = np.random.default_rng(3).uniform(-1, 1, (50, 2))
        surrogate.evaluate_batch(Y)
        tracemalloc.start()
        try:
            U = surrogate.evaluate_batch(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.45 * U.nbytes

    @pytest.mark.parametrize("L", [0, 2])
    def test_empty_batch(self, tight_n2_l2, L):
        surrogate = tight_n2_l2[0] if L else run_ml(EXP2, 2, 0, seed=5)[0]
        Y = np.empty((0, 2))
        assert surrogate.evaluate_batch(Y).shape == (0, build_grid(L).n)
        assert surrogate.psi_batch(Y).shape == (0,)

    def test_queries_never_build_h1_coordinates(self, tight_n2_l2, monkeypatch, rng):
        # psi_batch and evaluate_batch hold (M, r_l) coefficients, not (M, n_l)
        surrogate, _ = tight_n2_l2

        def forbidden(self, Y):
            raise AssertionError("components_h1 called")

        monkeypatch.setattr(MLSurrogate, "components_h1", forbidden)
        Y = rng.uniform(-1, 1, (5, 2))
        surrogate.evaluate_batch(Y)
        surrogate.evaluate(Y[0])
        surrogate.psi_batch(Y)
        surrogate.expectation()
        surrogate.expectation_psi()

    def test_expectation_contracted_once_per_surrogate(self, tight_n2_l2,
                                                       monkeypatch):
        surrogate, _ = tight_n2_l2
        calls = []
        original = driver.ht_coefficients

        def counting(X, rows, free_mode=None):
            calls.append(next(iter(rows.values())).shape[0])
            return original(X, rows, free_mode)

        monkeypatch.setattr(driver, "ht_coefficients", counting)
        copy = MLSurrogate(surrogate.model, surrogate.n_params, surrogate.plan,
                           surrogate.records)
        assert calls == [1, 1, 1]       # the expectation, once per level
        calls.clear()
        copy.expectation()
        copy.expectation_psi()
        assert calls == []
        error_metrics(copy, copy, samples=4, seed=3, per_level=False)
        assert calls == [4, 4, 4]       # the samples only


class TestWeightsPerDegree:
    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_queries_equal_per_mode_weights_bitwise(self, build, request):
        surrogate, _ = request.getfixturevalue(build)
        Y = query_samples(surrogate.n_params, 4)
        coeffs = per_mode_coefficients(surrogate, Y)
        nodal = surrogate._nodal(coeffs)
        assert np.array_equal(surrogate.evaluate_batch(Y), nodal)
        assert np.array_equal(surrogate.psi_batch(Y), surrogate._psi(coeffs))
        for i in range(len(Y)):
            want = surrogate._nodal(per_mode_coefficients(surrogate, Y[i:i + 1]))[0]
            assert np.array_equal(surrogate.evaluate(Y[i]), want)
        mean = per_mode_mean_coefficients(surrogate)
        assert np.array_equal(surrogate.expectation(), surrogate._nodal(mean)[0])
        assert surrogate.expectation_psi() == float(surrogate._psi(mean)[0])

    @pytest.mark.parametrize("build", ["tight_n2_l2", "linear_n3_l2"])
    def test_one_weight_call_per_distinct_degree(self, build, request, monkeypatch):
        surrogate, _ = request.getfixturevalue(build)
        N = surrogate.n_params
        calls = []
        original = CollocationGrid.lagrange_weights_many

        def counting(self, ys):
            calls.append((self.p, np.shape(ys)))
            return original(self, ys)

        monkeypatch.setattr(CollocationGrid, "lagrange_weights_many", counting)
        degrees = sorted(set(surrogate.plan.degrees))
        assert len(degrees) < len(surrogate.records)
        for M in (1, 5):
            calls.clear()
            surrogate.coefficients(query_samples(N, M)[:M])
            assert sorted(calls) == [(p, (N * M,)) for p in degrees]
        calls.clear()
        surrogate.evaluate(np.zeros(N))
        assert len(calls) == len(degrees)


# Per level: fibers, step1_evals, step2_evals, pde_solves, r_max of the bundled
# small configs built as `mltc run` builds them.
GOLDEN_COUNTS = {
    "exp-decay-small": [(188, 83, 221, 188, 2), (230, 141, 668, 460, 6),
                        (32, 32, 256, 64, 8), (32, 32, 214, 64, 7), (1, 1, 1, 2, 1)],
    "log-uniform-small": [(227, 127, 464, 227, 6), (242, 210, 2537, 484, 13),
                          (32, 32, 448, 64, 14), (32, 32, 313, 64, 10),
                          (1, 1, 1, 2, 1)],
    "lambda-zero": [(4, 4, 4, 4, 1), (4, 4, 4, 8, 1), (1, 1, 1, 2, 1)],
}
# Per level, the coarse solves taken from the previous level's memo in the
# same builds: levels 1 and 3 share their nodes with levels 0 and 2.
GOLDEN_REUSED = {
    "exp-decay-small": [0, 176, 0, 32, 0],
    "log-uniform-small": [0, 226, 0, 32, 0],
    "lambda-zero": [0, 4, 0],
}


def build_config(name):
    """Build a bundled config as `mltc run` builds it."""
    cfg = load_config(CONFIGS / f"{name}.ini")
    model = make_model(cfg.kind, cfg.decay, cfg.terms, cfg.mean)
    return run_ml(model, cfg.terms, cfg.max_level, eps0=cfg.eps0, tree_shape=cfg.tree,
                  seed=cfg.seed, rank_cap=cfg.rank_cap, eval_budget=cfg.eval_budget)


@pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
def test_golden_counts(name):
    _, diags = build_config(name)
    got = [(d.fibers, d.step1_evals, d.step2_evals, d.pde_solves, d.r_max)
           for d in diags]
    assert got == GOLDEN_COUNTS[name]
    assert [d.solves_reused for d in diags] == GOLDEN_REUSED[name]


def test_one_sweep_leaves_levels_unconverged(monkeypatch):
    # levels 2 and 3 of exp-decay-small need a second sweep; with one sweep
    # the validation leaves them unconverged and the CLI names exactly them
    monkeypatch.setattr(cross, "MAX_SWEEPS", 1)
    _, diags = build_config("exp-decay-small")
    assert [d.converged for d in diags] == [True, True, False, False, True]
    assert all(d.cross_residual > d.eps_target for d in diags[2:4])
    warnings = cli._unconverged(diags)
    assert len(warnings) == 2
    assert warnings[0].startswith("warning: level 2 did not converge")
    assert warnings[1].startswith("warning: level 3 did not converge")


@pytest.fixture(scope="module")
def exp_small_solves():
    """exp-decay-small built as `mltc run` builds it, with every driver.solve_at
    and driver.solve_ladder call as (function, level, y bytes)."""
    calls = []

    def counting_at(y, level, model):
        calls.append(("solve_at", level, np.asarray(y, dtype=float).tobytes()))
        return solve_at(y, level, model)

    def counting_ladder(y, L, model, iterations=None):
        calls.append(("solve_ladder", L, np.asarray(y, dtype=float).tobytes()))
        return solve_ladder(y, L, model, iterations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "solve_at", counting_at)
        mp.setattr(driver, "solve_ladder", counting_ladder)
        surrogate, diags = build_config("exp-decay-small")
    return surrogate, diags, calls


class TestSolveReuse:
    def test_solve_calls_match_accounting(self, exp_small_solves):
        _, diags, calls = exp_small_solves
        ladders = [c for c in calls if c[0] == "solve_ladder"]
        # a ladder call gives its fiber both solves, u_l and u_{l-1}
        assert len(calls) + len(ladders) == sum(d.pde_solves - d.solves_reused
                                                for d in diags)
        # only level 4 lies above DIRECT_MAX_LEVEL (3), and it has one fiber
        assert [c[1] for c in ladders] == [4]
        assert all(c[1] <= fem.DIRECT_MAX_LEVEL for c in calls if c[0] == "solve_at")
        assert sum(d.solves_reused for d in diags) == 208
        # degrees (2, 2, 1, 1, 0): levels 1 and 3 reuse the solves of levels 0
        # and 2 at the nodes those fetched
        assert [d.solves_reused for d in diags] == [0, 176, 0, 32, 0]
        assert [d.pcg_iterations for d in diags][:4] == [0, 0, 0, 0]
        assert diags[4].pcg_iterations > 0
        assert len(set(calls)) == len(calls)        # no (level, y) solved twice

    def test_reused_fibers_equal_fresh_differences(self, monkeypatch):
        # degrees (1, 1, 0): level 1 takes every coarse solve from level 0
        fibers = []

        class Recording(ColumnSource):
            def column(self, j):
                col = super().column(j)
                fibers.append((self.n_spatial, tuple(j), col))
                return col

        monkeypatch.setattr(driver, "ColumnSource", Recording)
        surrogate, diags = run_ml(EXP2, 2, 2, seed=3)
        assert diags[1].solves_reused == diags[1].fibers > 0
        level_of = {build_grid(lev).n: lev for lev in range(3)}
        nodes = surrogate.records[0].grid.nodes
        for n, j, col in fibers:
            if level_of[n] < 2:
                want = delta_vector(nodes[list(j)], level_of[n], EXP2)
                assert col.tobytes() == want.tobytes()


def tensor_digest(tensor):
    """SHA-1 of a level tensor's leaf frames and transfer tensors."""
    h = hashlib.sha1()
    for frames in (tensor.leaf_frames, tensor.transfers):
        for key in sorted(frames):
            h.update(frames[key].tobytes())
    return h.hexdigest()


def level_summary(surrogate, diags):
    """Per level: the tensor's SHA-1 and the counts and ranks of its build."""
    return [(tensor_digest(rec.tensor), d.fibers, d.step1_evals, d.step2_evals,
             d.pde_solves, d.r_max, d.storage) for rec, d in zip(surrogate.records, diags)]


class TestBuildLadder:
    # with the cut at 1, levels 2-4 of exp-decay-small take their fibers'
    # solves from the multigrid ladder

    def test_fibers_are_ladder_differences(self, monkeypatch):
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 1)
        fibers = {}

        class Recording(ColumnSource):
            def column(self, j):
                col = super().column(j)
                fibers[self.n_spatial, tuple(j)] = col
                return col

        monkeypatch.setattr(driver, "ColumnSource", Recording)
        surrogate, diags = build_config("exp-decay-small")
        model = surrogate.model
        assert [d.pcg_iterations for d in diags[:2]] == [0, 0]
        assert min(d.pcg_iterations for d in diags[2:]) > 0
        assert [d.solves_reused for d in diags] == [0, 176, 0, 0, 0]
        level_of = {build_grid(lev).n: lev for lev in range(5)}
        checked = 0
        for (n, j), col in fibers.items():
            level = level_of[n]
            if level <= 1:
                continue
            y = surrogate.records[level].grid.nodes[list(j)]
            ladder = solve_ladder(y, level, model)
            want = fem.delta_h1(ladder[level], ladder[level - 1], level)
            assert col.tobytes() == want.tobytes()
            lu = delta_vector(y, level, model)
            assert np.linalg.norm(col - lu) <= 1e-11 * np.linalg.norm(lu)
            checked += 1
        assert checked == sum(d.fibers for d in diags[2:])

    def test_lu_fallback_is_the_direct_build(self, monkeypatch):
        # with no PCG iteration allowed every rung above the cut falls back to
        # solve_at's LU, so the solver is the only thing the ladder path changes
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", 1)
        monkeypatch.setattr(fem, "MAX_PCG_ITERATIONS", 0)
        surrogate, diags = build_config("exp-decay-small")
        assert [d.pcg_iterations for d in diags] == [0, 0, -1, -1, -1]
        monkeypatch.setattr(fem, "DIRECT_MAX_LEVEL", fem.MAX_LEVEL)
        direct, direct_diags = build_config("exp-decay-small")
        assert [d.pcg_iterations for d in direct_diags] == [0] * 5
        got, want = level_summary(surrogate, diags), level_summary(direct, direct_diags)
        # levels 0-1 are built by solve_at, and levels 3-4 take both solves of
        # a fiber from fallback rungs, bitwise solve_at
        assert got[:2] == want[:2] and got[3:] == want[3:]
        # level 2's coarse solves are the ladder's banded rung 1, about 1e-15
        # from the LU: its tensor moves in the last bits, but its fibers,
        # step1, pde_solves and r_max stay
        keep = (1, 2, 4, 5)
        assert [got[2][k] for k in keep] == [want[2][k] for k in keep]
        # levels above the cut reuse nothing; the direct build reuses at level 3
        assert [d.solves_reused for d in diags] == [0, 176, 0, 0, 0]
        assert [d.solves_reused for d in direct_diags] == [0, 176, 0, 32, 0]


class TestEllipticityFailure:
    # accepted only because the relaxation is forced: level 0 builds, and the
    # coefficient is negative at a level-1 quadrature point for the first node
    MODEL = CoefficientModel("affine", "slow-algebraic", 3, 0.85,
                             relaxed_ellipticity=True)

    def test_partial_diagnostics_attached(self):
        with pytest.raises(EllipticityError) as info:
            run_ml(self.MODEL, 3, 2)
        partial = info.value.partial_diagnostics
        assert [d.level for d in partial] == [0, 1]
        assert partial[0].converged and partial[0].fibers == 8
        assert partial[1].fibers == 0
