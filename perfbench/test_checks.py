"""Each benchmark check accepts the program's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py

The wrong answers come from a surrogate whose level-0 tensor is scaled by
1.01, from a perturbed FE integral, and from a solve on a coarser grid.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
from mltc import driver, fem, fields  # noqa: E402

N, L = 2, 2


def _scaled(surrogate, alpha):
    rec = surrogate.records[0]
    records = [driver.LevelRecord(rec.level, rec.grid, rec.tensor.scaled(alpha)),
               *surrogate.records[1:]]
    return driver.MLSurrogate(surrogate.model, surrogate.n_params, surrogate.plan, records)


@pytest.fixture(scope="module")
def case():
    model = fields.make_model("affine", "exponential", N)
    good, diags = driver.run_ml(model, N, L, seed=3)
    Y = np.random.default_rng(4).uniform(-1.0, 1.0, size=(20, N))
    return model, good, _scaled(good, 1.01), Y, good.evaluate_batch(Y), diags


def test_expectation_against_gauss_grid(case):
    _, good, bad, _, _, diags = case
    Y_gauss, w_gauss = checks.gauss_grid(N, max(d.degree for d in diags))
    assert w_gauss.sum() == pytest.approx(1.0)
    U_gauss = good.evaluate_batch(Y_gauss)
    assert checks.expectation_matches_quadrature(good.expectation(), U_gauss, w_gauss)
    assert not checks.expectation_matches_quadrature(bad.expectation(), U_gauss, w_gauss)


def test_psi_against_mass_vector(case):
    _, good, bad, Y, U, _ = case
    mass = fem.mass_vector(L)
    assert checks.psi_matches_mass(good.psi_batch(Y), U, mass)
    assert not checks.psi_matches_mass(bad.psi_batch(Y), U, mass)
    E = good.expectation()
    assert checks.expectation_psi_matches_mass(good.expectation_psi(), E, mass)
    assert not checks.expectation_psi_matches_mass(bad.expectation_psi(), E, mass)


def test_single_against_batch_row(case):
    _, good, bad, Y, U, _ = case
    assert checks.single_matches_batch(good.evaluate(Y[3]), U[3])
    assert not checks.single_matches_batch(bad.evaluate(Y[3]), U[3])


def test_reported_error_against_quadrature(case):
    model, good, bad, _, _, _ = case
    samples, seed = 10, 5
    Y_val = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(samples, N))
    reported = driver.error_metrics(good, samples=samples, seed=seed).eps_ml_u

    def recomputed(surrogate):
        return checks.relative_error_by_quadrature(
            surrogate.evaluate_batch(Y_val), Y_val, L, model)

    assert checks.error_matches(reported, recomputed(good), 0.25)
    assert not checks.error_matches(reported, recomputed(bad), 0.25)
    # consistent but above the target accuracy
    far = _scaled(good, 2.0)
    far_reported = driver.error_metrics(far, samples=samples, seed=seed).eps_ml_u
    assert not checks.error_matches(far_reported, recomputed(far), 0.25)


def test_fe_integral_against_series():
    level = 4
    const = fields.make_model("affine", "zero", 1, 2.0)
    psi_h = fem.functional_psi(fem.solve_at(np.zeros(1), level, const), level)
    assert checks.fe_integral_matches_series(psi_h, 2.0, level)
    assert not checks.fe_integral_matches_series(1.01 * psi_h, 2.0, level)
    coarse = fem.functional_psi(fem.solve_at(np.zeros(1), 1, const), 1)
    assert not checks.fe_integral_matches_series(coarse, 2.0, level)
