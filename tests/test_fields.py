import math

import numpy as np
import pytest

from mltc.errors import EllipticityError
from mltc.fields import (CoefficientModel, basis_values, eigenvalue,
                         ellipticity_bounds, evaluate, make_model)


class TestEigenvalue:
    def test_closed_forms(self):
        assert np.isclose(eigenvalue(1, "exponential"), math.exp(-1))
        assert np.isclose(eigenvalue(2, "fast-algebraic"), 1 / 16)
        assert np.isclose(eigenvalue(3, "slow-algebraic"), 1 / 9)
        assert eigenvalue(5, "zero") == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            eigenvalue(0, "exponential")
        with pytest.raises(ValueError):
            eigenvalue(1, "cubic")

    def test_positive_nonincreasing(self):
        for decay in ("exponential", "fast-algebraic", "slow-algebraic"):
            lam = [eigenvalue(n, decay) for n in range(1, 30)]
            assert all(v > 0 for v in lam)
            assert all(a >= b for a, b in zip(lam, lam[1:]))


class TestEvaluate:
    def test_mean_field(self):
        model = make_model("affine", "exponential", 4)
        x = np.array([[0.3, 0.7], [0.5, 0.5], [0.1, 0.9]])
        assert np.allclose(evaluate(model, np.zeros(4), x), 2.0)

    def test_hand_value(self):
        model = make_model("affine", "exponential", 1)
        got = evaluate(model, np.array([1.0]), np.array([0.25, 0.25]))
        assert np.isclose(got, 2.0 + math.exp(-0.5))

    def test_log_uniform_at_zero(self):
        model = make_model("log-uniform", "slow-algebraic", 3)
        x = np.array([[0.2, 0.4], [0.9, 0.1]])
        assert np.allclose(evaluate(model, np.zeros(3), x), 1.0)

    def test_out_of_range_parameters(self):
        model = make_model("affine", "exponential", 2)
        with pytest.raises(ValueError):
            evaluate(model, np.array([1.5, 0.0]), np.array([0.5, 0.5]))

    def test_affine_in_each_parameter(self, rng):
        model = make_model("affine", "fast-algebraic", 3)
        x = np.array([0.37, 0.81])
        y = rng.uniform(-0.5, 0.5, 3)
        for n in range(3):
            h = 0.25
            yp, ym = y.copy(), y.copy()
            yp[n] += h
            ym[n] -= h
            second = evaluate(model, yp, x) - 2 * evaluate(model, y, x) \
                + evaluate(model, ym, x)
            assert abs(second) < 1e-10

    def test_log_uniform_is_exp_of_affine(self, rng):
        lu = make_model("log-uniform", "slow-algebraic", 4)
        y = rng.uniform(-1, 1, 4)
        x = rng.uniform(0, 1, (7, 2))
        # the affine coefficient with mean 0 is the fluctuation sum itself
        affine_sum = evaluate(CoefficientModel("affine", "slow-algebraic", 4, 0.0), y, x)
        assert np.allclose(evaluate(lu, y, x), np.exp(affine_sum), rtol=1e-14)

    def test_basis_vanishes_on_boundary(self):
        model = make_model("affine", "exponential", 6)
        edge = np.array([[0.0, 0.3], [1.0, 0.7], [0.2, 0.0], [0.9, 1.0]])
        assert np.abs(basis_values(model, edge)).max() < 1e-13

    def test_sign_mirror(self, rng):
        model = make_model("affine", "exponential", 5)
        y = rng.uniform(-1, 1, 5)
        x = rng.uniform(0, 1, (5, 2))
        plus = evaluate(model, y, x) - model.mean
        minus = evaluate(model, -y, x) - model.mean
        assert np.allclose(plus, -minus, atol=1e-14)


class TestEllipticity:
    def test_exponential_limit(self):
        model = make_model("affine", "exponential", 60)
        lower, upper = ellipticity_bounds(model)
        s_inf = math.exp(-0.5) / (1 - math.exp(-0.5))
        assert abs(lower - (2 - s_inf)) < 1e-6
        assert abs(upper - (2 + s_inf)) < 1e-6
        assert lower > 0

    def test_slow_algebraic_needs_relaxation(self):
        model = make_model("affine", "slow-algebraic", 10)
        lower, _ = ellipticity_bounds(model)
        assert lower < 0
        assert model.relaxed_ellipticity

    def test_log_uniform_always_positive(self):
        model = make_model("log-uniform", "slow-algebraic", 20)
        lower, _ = ellipticity_bounds(model)
        assert lower > 0
        assert not model.relaxed_ellipticity

    def test_hopeless_model_rejected(self):
        with pytest.raises(EllipticityError):
            make_model("affine", "exponential", 10, mean=0.01)
