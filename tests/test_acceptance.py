"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared desk-scale configuration is the exponential-decay affine model
with N=5 parameters; expensive artifacts (surrogates, references, metrics)
are built once per module.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math

import numpy as np
import pytest

from mltc.colloc import CollocationGrid
from mltc.cross import ColumnSource, EntryOracle, approximate_tensor
from mltc.driver import degree_schedule, error_metrics, run_ml
from mltc.fem import (build_grid, delta_nodal, delta_vector, functional_psi,
                      h1_frame, prolongate, seminorm_quadrature, solve_at)
from mltc.fields import make_model
from mltc.htensor import build_tree, ht_entries, ht_full

from conftest import random_htensor

SAMPLE_SEED = 7
RUN_SEED = 2024


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS ({text})")


@pytest.fixture(scope="module")
def desk_model():
    return make_model("affine", "exponential", 5)


@pytest.fixture(scope="module")
def desk_run(desk_model):
    return run_ml(desk_model, 5, 5, seed=RUN_SEED)


@pytest.fixture(scope="module")
def reference6(desk_model):
    surrogate, _ = run_ml(desk_model, 5, 6, seed=RUN_SEED + 1)
    return surrogate


@pytest.fixture(scope="module")
def desk_metrics(desk_run, reference6):
    surrogate, _ = desk_run
    return error_metrics(surrogate, reference6, samples=100, seed=SAMPLE_SEED,
                         per_level=True)


@pytest.fixture(scope="module")
def sweep_errors(desk_model, desk_metrics, reference6):
    errors = {}
    for L in (2, 3, 4):
        surrogate, _ = run_ml(desk_model, 5, L, seed=RUN_SEED)
        metrics = error_metrics(surrogate, reference6, samples=100,
                                seed=SAMPLE_SEED, per_level=False)
        errors[L] = metrics.eps_ml_u
    errors[5] = desk_metrics.eps_ml_u
    return errors


def test_criterion_01_schedule_reproduction():
    degrees = degree_schedule(7)
    assert degrees == [4, 3, 3, 2, 2, 1, 1, 0]
    sizes = [build_grid(level).n for level in range(8)]
    assert sizes == [25, 81, 289, 1089, 4225, 16641, 66049, 263169]
    report(1, f"degrees {tuple(degrees)}, n {tuple(sizes)}")


def test_criterion_02_degenerate_level_rank():
    # the level-7 iteration of an N=10, L=7 run: degree 0, one collocation
    # point, spatial fibers from two real PDE solves at levels 7 and 6
    model = make_model("affine", "exponential", 10)
    level = 7
    p = degree_schedule(7)[level]
    assert p == 0
    grid = CollocationGrid(p)
    n7 = build_grid(level).n

    def fetch(j):
        y = grid.nodes[list(j)]
        return delta_vector(y, level, model)

    source = ColumnSource((1,) * 10, n7, fetch)
    result = approximate_tensor(source, build_tree(11, "balanced"), 0.25,
                                rng=np.random.default_rng(1))
    from mltc.htensor import storage_and_ranks
    rep = storage_and_ranks(result.tensor)
    assert rep.r_max == 1
    assert abs(rep.r_eff - 1.0) <= 0.01
    assert result.step1_evals == 1
    assert result.step2_evals == 1
    assert source.n_fetched == 1          # a single collocation point
    report(2, f"r_max={rep.r_max}, r_eff={rep.r_eff:.2f}, "
              f"step1={result.step1_evals}, step2={result.step2_evals}")


def test_criterion_03_error_equilibration(desk_metrics):
    eps = np.array(desk_metrics.eps_level_u)
    assert np.all(np.isfinite(eps)) and np.all(eps > 0)
    ratio = eps.max() / eps.min()
    assert ratio <= 50.0
    report(3, "eps(l) = [" + ", ".join(f"{e:.2e}" for e in eps)
           + f"], max/min = {ratio:.1f}")


def test_criterion_04_convergence_rate(sweep_errors):
    levels = np.array(sorted(sweep_errors))
    errs = np.array([sweep_errors[L] for L in levels])
    assert np.all(np.diff(errs) < 0)
    slope = np.polyfit(levels, np.log2(errs), 1)[0]
    assert -1.3 <= slope <= -0.7
    report(4, "eps_ml[u] = [" + ", ".join(f"{e:.2e}" for e in errs)
           + f"] over L = {levels.tolist()}, slope = {slope:.2f}")


def test_criterion_05_rank_profile(desk_run):
    _, diags = desk_run
    r_max = [d.r_max for d in diags]
    peak = int(np.argmax(r_max))
    assert r_max[-1] == 1                       # degenerate top level
    assert 0 < peak < len(r_max) - 1            # interior peak
    assert r_max[peak] > r_max[0]               # rises from level 0
    assert r_max[peak] > r_max[-1]
    report(5, f"r_max profile {r_max}, peak at level {peak}")


def test_criterion_06_cross_exactness(rng):
    tree = build_tree(6, "balanced")
    sizes = (5, 5, 5, 5, 5, 5)
    X0 = random_htensor(tree, sizes, 3, rng)
    T0 = ht_full(X0)
    base = EntryOracle(sizes, lambda idx: T0[tuple(idx.T)])
    source = ColumnSource.from_entry_oracle(base)
    result = approximate_tensor(source, tree, 1e-10,
                                rng=np.random.default_rng(3))
    probes = np.column_stack([rng.integers(0, n, 1000) for n in sizes])
    approx = ht_entries(result.tensor, probes)
    exact = np.array([T0[tuple(row)] for row in probes])
    err = np.abs(approx - exact).max() / np.abs(T0).max()
    assert err < 1e-8
    share = result.step2_evals / T0.size
    assert share < 0.05
    report(6, f"max rel err {err:.1e}, step2 evals {result.step2_evals} "
              f"({100 * share:.2f}% of {T0.size})")


def test_criterion_07_fem_correctness():
    model = make_model("affine", "zero", 1)     # constant coefficient 2
    target = 0.0175721
    psi5 = functional_psi(solve_at(np.zeros(1), 5, model), 5)
    assert abs(psi5 - target) <= 2e-5
    ref_level = 6
    ref = solve_at(np.zeros(1), ref_level, model)
    frame = h1_frame(ref_level)
    errs = []
    for level in (2, 3, 4):
        u = solve_at(np.zeros(1), level, model)
        errs.append(frame.seminorm(prolongate(u, level, ref_level) - ref))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.6 <= r <= 2.4 for r in ratios)
    report(7, f"psi(u_5) = {psi5:.7f} (target {target}), "
              f"H1 ratios {[f'{r:.2f}' for r in ratios]}")


def test_criterion_08_statistics_consistency():
    model = make_model("affine", "exponential", 2)
    surrogate, _ = run_ml(model, 2, 2, eps0=1e-8, seed=RUN_SEED)
    frame = h1_frame(2)
    e_quad = surrogate.expectation()
    psi_quad = surrogate.expectation_psi()

    m_samples = 100_000
    rng = np.random.default_rng(SAMPLE_SEED)
    Y = rng.uniform(-1.0, 1.0, size=(m_samples, 2))
    total = np.zeros(frame.R.shape[0])
    total_sq = np.zeros(frame.R.shape[0])
    psi_sum = 0.0
    psi_sq = 0.0
    chunk = 5000
    for start in range(0, m_samples, chunk):
        block = surrogate.evaluate_batch(Y[start:start + chunk])
        Z = frame.to_h1((block - e_quad[None, :]).T).T
        total += Z.sum(axis=0)
        total_sq += (Z**2).sum(axis=0)
        psi = surrogate.psi_batch(Y[start:start + chunk])
        psi_sum += psi.sum()
        psi_sq += (psi**2).sum()

    mean_dev = total / m_samples
    var = total_sq / m_samples - mean_dev**2
    se = math.sqrt(max(var.sum(), 0.0) / m_samples)
    gap = float(np.linalg.norm(mean_dev))
    assert gap <= 3.0 * se, (gap, se)

    psi_mean = psi_sum / m_samples
    psi_se = math.sqrt(max(psi_sq / m_samples - psi_mean**2, 0.0) / m_samples)
    psi_gap = abs(psi_mean - psi_quad)
    assert psi_gap <= 3.0 * psi_se, (psi_gap, psi_se)
    report(8, f"H1 gap {gap:.2e} <= 3 SE {3 * se:.2e}; "
              f"psi gap {psi_gap:.2e} <= 3 SE {3 * psi_se:.2e}")


def test_criterion_09_log_uniform_path():
    model = make_model("log-uniform", "slow-algebraic", 5)
    surrogate, diags = run_ml(model, 5, 4, seed=RUN_SEED)
    metrics = error_metrics(surrogate, None, samples=100, seed=SAMPLE_SEED,
                            per_level=True)
    eps = np.array(metrics.eps_level_u)
    assert np.all(np.isfinite(eps))
    assert np.all((eps >= 1e-5) & (eps <= 1e-1))
    report(9, "log-uniform eps(l) = [" + ", ".join(f"{e:.2e}" for e in eps) + "]")


def test_criterion_10_norm_identity(rng):
    model = make_model("affine", "exponential", 4)
    checks = 0
    for level in (0, 1, 2, 3):
        for _ in range(3 if level < 3 else 1):
            y = rng.uniform(-1.0, 1.0, 4)
            coords_norm = float(np.linalg.norm(delta_vector(y, level, model)))
            quad_norm = seminorm_quadrature(delta_nodal(y, level, model), level)
            assert abs(coords_norm - quad_norm) <= 1e-6 * quad_norm
            checks += 1
    assert checks == 10
    report(10, f"{checks} random draws matched to 1e-6 relative")
