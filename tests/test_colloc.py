import math

import numpy as np
import pytest

from mltc.colloc import CollocationGrid, chebyshev_nodes


class TestNodes:
    def test_degree_zero(self):
        nodes = chebyshev_nodes(0)
        assert nodes.shape == (1,)
        assert abs(nodes[0]) < 1e-15

    def test_degree_one(self):
        assert np.allclose(chebyshev_nodes(1), [math.sqrt(2) / 2, -math.sqrt(2) / 2])

    def test_degree_two(self):
        assert np.allclose(chebyshev_nodes(2), [math.sqrt(3) / 2, 0, -math.sqrt(3) / 2],
                           atol=1e-15)

    def test_interior_decreasing_symmetric(self):
        for p in range(0, 12):
            nodes = chebyshev_nodes(p)
            assert np.all(nodes < 1) and np.all(nodes > -1)
            assert np.all(np.diff(nodes) < 0)
            assert np.allclose(nodes, -nodes[::-1], atol=1e-15)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(-1)


class TestLagrangeWeights:
    def test_cardinality(self):
        grid = CollocationGrid(4)
        assert np.allclose(grid.lagrange_weights_many(grid.nodes), np.eye(5))

    def test_midpoint_degree_one(self):
        assert np.allclose(CollocationGrid(1).lagrange_weights_many([0.0]), [[0.5, 0.5]])

    def test_partition_of_unity(self, rng):
        grid = CollocationGrid(6)
        W = grid.lagrange_weights_many(rng.uniform(-1, 1, 25))
        assert np.all(abs(W.sum(axis=1) - 1.0) < 1e-12)

    def test_polynomial_exactness(self, rng):
        p = 5
        grid = CollocationGrid(p)
        coeffs = rng.standard_normal(p + 1)
        f = lambda x: np.polyval(coeffs, x)
        vals = f(grid.nodes)
        ys = np.linspace(-1, 1, 11)
        assert np.all(abs(grid.lagrange_weights_many(ys) @ vals - f(ys)) < 1e-11)


class TestQuadrature:
    def test_degree_zero(self):
        assert np.allclose(CollocationGrid(0).quadrature_weights, [1.0])

    def test_degree_one(self):
        assert np.allclose(CollocationGrid(1).quadrature_weights, [0.5, 0.5])

    def test_degree_two(self):
        assert np.allclose(CollocationGrid(2).quadrature_weights,
                           [2 / 9, 5 / 9, 2 / 9])

    def test_positive_and_normalized_up_to_20(self):
        for p in range(21):
            w = CollocationGrid(p).quadrature_weights
            assert w.min() > 0
            assert abs(w.sum() - 1.0) < 1e-12

    def test_exact_for_polynomials(self, rng):
        p = 4
        grid = CollocationGrid(p)
        coeffs = rng.standard_normal(p + 1)
        vals = np.polyval(coeffs, grid.nodes)
        # (1/2) * integral of the polynomial over [-1, 1]
        integ = np.polyint(coeffs)
        exact = 0.5 * (np.polyval(integ, 1.0) - np.polyval(integ, -1.0))
        assert abs(grid.quadrature_weights @ vals - exact) < 1e-13
