import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from mltc import driver
from mltc.colloc import CollocationGrid
from mltc.config import load_config
from mltc.cross import ColumnSource
from mltc.driver import (LevelPlan, MLSurrogate, accuracy_schedule,
                         degree_schedule, error_metrics, prolongate_to, run_ml)
from mltc.errors import EllipticityError
from mltc.fem import (build_grid, delta_nodal, delta_vector, h1_frame,
                      prolongation_matrix, solve_at)
from mltc.fields import CoefficientModel, make_model
from mltc.htensor import ht_contract

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
        from mltc.htensor import ht_entries
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
        # contracting a level tensor with unit weight vectors at a collocation
        # index reproduces that point's exact difference within the level's
        # accuracy (exact here because the run is tight)
        surrogate, diags = tight_n2_l2
        from mltc.fem import delta_vector
        from mltc.htensor import contract_modes
        for rec, diag in zip(surrogate.records, diags):
            k = (0,) * 2
            w = {m: np.eye(len(rec.grid))[k[m]] for m in range(2)}
            fiber = contract_modes(rec.tensor, w)
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
            wx = grid.lagrange_weights(y[0])
            wy = grid.lagrange_weights(y[1])
            for k in itertools.product(range(len(grid)), repeat=2):
                weight = wx[k[0]] * wy[k[1]]
                acc += weight * delta_nodal(grid.nodes[list(k)], rec.level, EXP2)
            total += prolongate_to(acc, rec.level, 2)
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
            total += prolongate_to(acc, r.level, 1)
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

    def test_tight_surrogate_has_tiny_error(self, tight_n2_l2):
        surrogate, _ = tight_n2_l2
        metrics = error_metrics(surrogate, None, samples=10, seed=4,
                                per_level=False)
        # interpolation error only; N=2 exponential decay at degrees (1,1,0)
        assert metrics.eps_ml_u < 0.05


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def h1_route(surrogate, comps):
    """Nodal values and psi from per-level H1 coordinates, one solve per level."""
    L = surrogate.max_level
    nodal = sum(prolongate_to(h1_frame(lev).from_h1(Z.T), lev, L)
                for lev, Z in enumerate(comps)).T
    psi = sum(Z @ h1_frame(lev).psi_vec for lev, Z in enumerate(comps))
    return nodal, psi


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
        mean = []
        for rec in surrogate.records:
            X = rec.tensor
            w = rec.grid.quadrature_weights[None, :]
            mean.append(ht_contract(
                X, {m: w @ X.leaf_frames[X.tree.leaf_of_mode[m]] for m in range(N)}, N))
        e_nodal, e_psi = h1_route(surrogate, mean)
        assert_close(surrogate.expectation(), e_nodal[0])
        assert_close(surrogate.expectation_psi(), e_psi[0])

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


@pytest.fixture(scope="module")
def exp_small_solves():
    """exp-decay-small built as `mltc run` builds it, with every driver.solve_at call."""
    calls = []

    def counting(y, level, model):
        calls.append((level, np.asarray(y, dtype=float).tobytes()))
        return solve_at(y, level, model)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "solve_at", counting)
        surrogate, diags = build_config("exp-decay-small")
    return surrogate, diags, calls


class TestSolveReuse:
    def test_solve_calls_match_accounting(self, exp_small_solves):
        _, diags, calls = exp_small_solves
        assert len(calls) == sum(d.pde_solves - d.solves_reused for d in diags)
        assert sum(d.solves_reused for d in diags) == 208
        # degrees (2, 2, 1, 1, 0): levels 1 and 3 reuse the solves of levels 0
        # and 2 at the nodes those fetched
        assert [d.solves_reused for d in diags] == [0, 176, 0, 32, 0]
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
