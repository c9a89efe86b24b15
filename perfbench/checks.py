"""Correctness checks on the benchmark's outputs.

Each check compares an answer of the program against a property of the
method or against a computation made here, apart from the program; none
compares against stored output.  Every check returns True when it holds.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mltc import fem

# Q1 error in the integral of u is O(h^2); see README for how C was fixed.
SERIES_C = 2.0


def gauss_grid(n_params: int, p_max: int):
    """Tensor Gauss-Legendre grid exact for degree p_max per parameter.

    Returns points (M, N) in [-1, 1]^N and weights summing to 1 (uniform
    density), with floor(p_max / 2) + 1 points per parameter.
    """
    x, w = np.polynomial.legendre.leggauss(p_max // 2 + 1)
    points = np.array(list(itertools.product(x, repeat=n_params)))
    weights = np.array([math.prod(c) for c in itertools.product(w / 2.0, repeat=n_params)])
    return points, weights


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(float(np.max(np.abs(b))), np.finfo(float).tiny)
    return a.shape == b.shape and bool(np.all(np.isfinite(a))) and \
        float(np.max(np.abs(a - b))) <= rtol * scale


def expectation_matches_quadrature(E, U_gauss, w_gauss, rtol: float = 1e-10) -> bool:
    """(a) expectation() equals the Gauss-weighted mean of evaluate_batch."""
    return _close(E, w_gauss @ U_gauss, rtol)


def psi_matches_mass(psi, U, mass, rtol: float = 1e-10) -> bool:
    """(b) psi_batch equals the mass vector dotted with each nodal row."""
    return _close(psi, U @ mass, rtol)


def expectation_psi_matches_mass(e_psi: float, E, mass, rtol: float = 1e-10) -> bool:
    """(b) expectation_psi() equals the mass vector dotted with expectation()."""
    return _close([e_psi], [float(mass @ E)], rtol)


def single_matches_batch(u, row, rtol: float = 1e-10) -> bool:
    """(c) evaluate(y) equals the matching evaluate_batch row."""
    return _close(u, row, rtol)


def relative_error_by_quadrature(U_surrogate, Y, level: int, model) -> float:
    """Sampled relative H1_0 error against direct FE solves.

    The seminorm comes from element-wise gradient quadrature, which does not
    use the Cholesky frame of the H1 coordinates.
    """
    num = den = 0.0
    for u_s, y in zip(U_surrogate, Y):
        u = fem.solve_at(y, level, model)
        num += fem.seminorm_quadrature(u_s - u, level) ** 2
        den += fem.seminorm_quadrature(u, level) ** 2
    return math.sqrt(num / den)


def error_matches(eps_reported: float, eps_recomputed: float, eps0: float,
                  rtol: float = 1e-8) -> bool:
    """(d) the reported error matches the recomputed one and meets eps0."""
    return (math.isfinite(eps_reported)
            and abs(eps_reported - eps_recomputed) <= rtol * eps_recomputed
            and eps_reported < eps0)


def series_integral(a: float, terms: int = 2001) -> float:
    """Integral of u for -a Laplace(u) = 1 on the unit square, u = 0 on the boundary.

    Double sine series: (64 / (a pi^6)) sum over odd m, n of
    1 / (m^2 n^2 (m^2 + n^2)).
    """
    k = np.arange(1, terms + 1, 2, dtype=float) ** 2
    return float(64.0 / (a * math.pi**6) * np.sum(1.0 / (k[:, None] * k[None, :]
                                                         * (k[:, None] + k[None, :]))))


def fe_integral_matches_series(psi_h: float, a: float, level: int) -> bool:
    """(e) the FE integral of u is within SERIES_C h^2 of the series value."""
    h = fem.build_grid(level).h
    exact = series_integral(a)
    return abs(psi_h - exact) <= SERIES_C * h * h * exact
