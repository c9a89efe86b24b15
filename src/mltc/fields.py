"""Parametric diffusion coefficients on the unit square.

The coefficient is an affine series  mean + sum_n sqrt(lambda_n) b_n(x) y_n
with b_n(x) = sin(2 pi n x1) sin(2 pi n x2), or its exponential (log-uniform
kind, mean 0 inside the exponential).  Eigenvalue decay laws: exp(-n), n^-4,
n^-2, plus a degenerate all-zero law that collapses the model to a
deterministic coefficient for testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError

DECAY_LAWS = ("exponential", "fast-algebraic", "slow-algebraic", "zero")
KINDS = ("affine", "log-uniform")

_Y_SLACK = 1e-9


def eigenvalue(n: int, decay: str) -> float:
    """Closed-form eigenvalue of term n (1-based)."""
    if n < 1:
        raise ValueError("term index must be at least 1")
    if decay == "exponential":
        return math.exp(-n)
    if decay == "fast-algebraic":
        return 1.0 / n**4
    if decay == "slow-algebraic":
        return 1.0 / n**2
    if decay == "zero":
        return 0.0
    raise ValueError(f"unknown decay law {decay!r}")


@dataclass(frozen=True)
class CoefficientModel:
    kind: str
    decay: str
    terms: int
    mean: float = 2.0
    relaxed_ellipticity: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.decay not in DECAY_LAWS:
            raise ValueError(f"unknown decay law {self.decay!r}")
        if self.terms < 1:
            raise ValueError("number of terms must be at least 1")

    @property
    def amplitudes(self) -> np.ndarray:
        """sqrt(lambda_n) for n = 1..terms."""
        return np.array([math.sqrt(eigenvalue(n, self.decay)) for n in
                         range(1, self.terms + 1)])


def basis_values(model: CoefficientModel, x) -> np.ndarray:
    """b_n(x) for all n; x has shape (..., 2), result (..., terms)."""
    x = np.asarray(x, dtype=float)
    n = np.arange(1, model.terms + 1)
    ang1 = 2.0 * math.pi * np.multiply.outer(x[..., 0], n)
    ang2 = 2.0 * math.pi * np.multiply.outer(x[..., 1], n)
    return np.sin(ang1) * np.sin(ang2)


def _check_y(model, y):
    y = np.asarray(y, dtype=float)
    if y.shape != (model.terms,):
        raise ValueError(f"parameter vector must have length {model.terms}")
    if np.any(np.abs(y) > 1.0 + _Y_SLACK):
        raise ValueError("parameters must lie in [-1, 1]")
    return np.clip(y, -1.0, 1.0)


def evaluate(model: CoefficientModel, y, x=None, *, basis=None):
    """Coefficient value a(y, x); x has shape (..., 2).

    A caller that evaluates many parameters at the same points passes
    basis = basis_values(model, x) in place of x.
    """
    if basis is None:
        x = np.asarray(x, dtype=float)
        if np.any(x < -1e-12) or np.any(x > 1.0 + 1e-12):
            raise ValueError("spatial points must lie in the closed unit square")
        basis = basis_values(model, x)
    f = basis @ (model.amplitudes * _check_y(model, y))
    if model.kind == "affine":
        return model.mean + f
    return np.exp(f)


def ellipticity_bounds(model: CoefficientModel):
    """Worst-case (lower, upper) coefficient bounds using |b_n| <= 1."""
    s = float(model.amplitudes.sum())
    if model.kind == "affine":
        return model.mean - s, model.mean + s
    return math.exp(-s), math.exp(s)


def _sampled_minimum(model, grid_n=33, n_samples=1000, seed=20240) -> float:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, grid_n)
    xx, yy = np.meshgrid(t, t, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
    B = basis_values(model, pts)          # (grid_n^2, terms)
    amp = model.amplitudes
    lo = math.inf
    for _ in range(n_samples):
        y = rng.uniform(-1.0, 1.0, model.terms)
        vals = model.mean + B @ (amp * y)
        lo = min(lo, float(vals.min()))
    return lo


def make_model(kind: str, decay: str, terms: int, mean: float = 2.0) -> CoefficientModel:
    """Construct a coefficient model, enforcing uniform ellipticity.

    Affine models whose worst-case lower bound is nonpositive are still
    accepted when their sampled minimum over a 33x33 grid and 1000 random
    parameter draws stays above 0.05; the relaxation is recorded on the
    model so reports can flag it.
    """
    model = CoefficientModel(kind, decay, terms, mean)
    if kind == "affine":
        lower, _ = ellipticity_bounds(model)
        if lower <= 0.0:
            sampled = _sampled_minimum(model)
            if sampled <= 0.05:
                raise EllipticityError(
                    f"affine model violates ellipticity: worst-case bound "
                    f"{lower:.4f}, sampled minimum {sampled:.4f}")
            model = CoefficientModel(kind, decay, terms, mean,
                                     relaxed_ellipticity=True)
    return model
