"""Chebyshev collocation grids: nodes, Lagrange weights, quadrature.

Nodes are the roots of the degree p+1 Chebyshev polynomial of the first
kind, eta_k = cos((2k+1) pi / (2(p+1))), in decreasing order.  Interpolation
weights use the barycentric second form; quadrature weights integrate each
Lagrange basis polynomial exactly against the uniform density 1/2 on [-1, 1]
(Fejer first kind, halved).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def chebyshev_nodes(p: int) -> np.ndarray:
    """p+1 first-kind Chebyshev nodes in decreasing order."""
    if p < 0:
        raise ValueError("degree must be nonnegative")
    k = np.arange(p + 1)
    return np.cos((2 * k + 1) * math.pi / (2 * (p + 1)))


class CollocationGrid:
    """One-dimensional collocation grid of degree p."""

    def __init__(self, p: int):
        self.p = int(p)
        self.nodes = chebyshev_nodes(self.p)
        # barycentric weights for first-kind Chebyshev nodes (common factor dropped)
        k = np.arange(self.p + 1)
        self._bary = (-1.0) ** k * np.sin((2 * k + 1) * math.pi / (2 * (self.p + 1)))

    def __len__(self):
        return self.p + 1

    def lagrange_weights_many(self, ys) -> np.ndarray:
        """l_k(y) for all k at a batch of points via the barycentric second
        form, shape (len(ys), p+1)."""
        ys = np.asarray(ys, dtype=float)
        out = np.empty((ys.size, self.p + 1))
        diff = ys[:, None] - self.nodes[None, :]
        exact = np.abs(diff) < 1e-15
        safe = np.where(exact, 1.0, diff)
        kernel = self._bary[None, :] / safe
        out[:] = kernel / kernel.sum(axis=1, keepdims=True)
        rows = np.flatnonzero(exact.any(axis=1))
        for i in rows:
            out[i] = 0.0
            out[i, np.flatnonzero(exact[i])[0]] = 1.0
        return out

    @cached_property
    def quadrature_weights(self) -> np.ndarray:
        """w_k = (1/2) * integral of l_k over [-1, 1]; sums to 1."""
        gl_x, gl_w = np.polynomial.legendre.leggauss(self.p + 1)
        L = self.lagrange_weights_many(gl_x)          # (p+1 points, p+1 basis)
        return 0.5 * gl_w @ L

    def __repr__(self):
        return f"CollocationGrid(p={self.p})"
