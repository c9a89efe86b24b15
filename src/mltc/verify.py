"""Built-in self-verification suites (deterministic, a few seconds in all)."""

from __future__ import annotations

import traceback

import numpy as np

from . import colloc, cross, driver, fem, fields, htensor


def random_htensor(tree, sizes, rmax, rng):
    """Random valid HTensor with ranks drawn in [1, rmax]."""
    ranks = {n.index: (1 if n.parent == -1 else int(rng.integers(1, rmax + 1)))
             for n in tree.nodes}
    frames = {n.index: rng.standard_normal((sizes[n.modes[0]], ranks[n.index]))
              for n in tree.leaves()}
    transfers = {n.index: rng.standard_normal(
        (ranks[n.index], ranks[n.children[0]], ranks[n.children[1]]))
        for n in tree.internal_nodes()}
    return htensor.HTensor(tree, sizes, frames, transfers)


def _close(got, want, rtol):
    """Agreement relative to the largest entry of `want`."""
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def suite_htensor():
    rng = np.random.default_rng(101)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        shape = "balanced" if trial % 2 == 0 else "linear"
        tree = htensor.build_tree(d, shape)
        sizes = tuple(int(rng.integers(2, 5)) for _ in range(d))
        X = random_htensor(tree, sizes, 3, rng)
        T = htensor.ht_full(X)
        scale = max(abs(T).max(), 1e-300)
        # the upward pass and the free-mode walk run on BLAS, with other
        # kernels for one sample than for a batch: M entries, and the M fibers
        # of the dense tensor through the free mode at their other indices,
        # for one sample and for a batch
        free = trial % d
        for M in (1, 5):
            idx = np.column_stack([rng.integers(0, n, M) for n in sizes])
            if np.max(np.abs(htensor.ht_entries(X, idx) - T[tuple(idx.T)])) > 1e-12 * scale:
                return f"entry mismatch at trial {trial}, M = {M}"
            rows = {m: X.leaf_frames[tree.leaf_of_mode[m]][idx[:, m]]
                    for m in range(d) if m != free}
            got = htensor.ht_coefficients(X, rows, free) @ \
                X.leaf_frames[tree.leaf_of_mode[free]].T
            want = np.moveaxis(T, free, -1)[tuple(idx[:, m] for m in rows)]
            if np.max(np.abs(got - want)) > 1e-12 * scale:
                return f"free-mode coefficients mismatch at trial {trial}, M = {M}"
    return None


def suite_cross():
    rng = np.random.default_rng(202)
    tree = htensor.build_tree(6, "balanced")
    sizes = (4, 4, 4, 4, 4, 5)
    X0 = random_htensor(tree, sizes, 3, rng)
    T0 = htensor.ht_full(X0)
    oracle = cross.EntryOracle(sizes, lambda idx: T0[tuple(idx.T)])
    source = cross.ColumnSource.from_entry_oracle(oracle)
    result = cross.approximate_tensor(source, tree, 1e-10,
                                      rng=np.random.default_rng(7))
    probes = np.column_stack([rng.integers(0, n, 500) for n in sizes])
    approx = htensor.ht_entries(result.tensor, probes)
    exact = np.array([T0[tuple(r)] for r in probes])
    err = abs(approx - exact).max() / abs(T0).max()
    if err > 1e-8:
        return f"synthetic recovery error {err:.2e}"
    if result.step2_evals >= T0.size:
        return "cross approximation evaluated too many entries"
    return None


def suite_fem():
    grid = fem.build_grid(0)
    A = fem.assemble(grid, np.ones(4 * len(grid.elements)))
    interior = np.flatnonzero(~grid.boundary_mask)
    if not np.allclose(A.diagonal()[interior], 8.0 / 3.0):
        return "interior stencil diagonal is not 8/3"
    model = fields.make_model("affine", "zero", 1)
    psi_target = 0.5 * 0.03514425
    u4 = fem.solve_at(np.zeros(1), 4, model)
    if abs(fem.functional_psi(u4, 4) - psi_target) > 5e-5:
        return "psi value off at level 4"
    norms = []
    ref = fem.solve_at(np.zeros(1), 6, model)
    for lev in (2, 3):
        u = fem.solve_at(np.zeros(1), lev, model)
        diff = fem.prolongate(u, lev, 6) - ref
        norms.append(fem.h1_frame(6).seminorm(diff))
    ratio = norms[0] / norms[1]
    if not 1.6 <= ratio <= 2.4:
        return f"H1 self-convergence ratio {ratio:.2f} outside [1.6, 2.4]"
    rng = np.random.default_rng(5)
    m2 = fields.make_model("affine", "exponential", 3)
    y = rng.uniform(-1, 1, 3)
    dn = fem.delta_nodal(y, 2, m2)
    a = np.linalg.norm(fem.delta_vector(y, 2, m2))
    b = fem.seminorm_quadrature(dn, 2)
    if abs(a - b) > 1e-6 * b:
        return "H1 coordinate norm does not match quadrature"
    # the ladder's banded rungs are round-off from solve_at, its multigrid
    # rungs PCG_RTOL-close; both coefficient kinds
    m_log = fields.make_model("log-uniform", "slow-algebraic", 3)
    for model in (m2, m_log):
        for lev, u in enumerate(fem.solve_ladder(y, 5, model)):
            ref = fem.solve_at(y, lev, model)
            rtol = 1e-13 if lev <= fem.DIRECT_MAX_LEVEL else 1e-11
            if np.linalg.norm(u - ref) > rtol * np.linalg.norm(ref):
                return f"solve_ladder differs from solve_at at level {lev} ({model.kind})"
    return None


def suite_driver():
    if driver.degree_schedule(7) != [4, 3, 3, 2, 2, 1, 1, 0]:
        return "degree schedule for L=7 is wrong"
    expected_n = [25, 81, 289, 1089, 4225, 16641, 66049, 263169]
    if [fem.build_grid(lev).n for lev in range(8)] != expected_n:
        return "grid sizes do not match the schedule"
    for p in range(11):
        w = colloc.CollocationGrid(p).quadrature_weights
        if w.min() <= 0 or abs(w.sum() - 1.0) > 1e-12:
            return f"quadrature weights invalid at degree {p}"
    model = fields.make_model("affine", "zero", 2)
    surrogate, _ = driver.run_ml(model, 2, 1, seed=3)
    u_det = fem.solve_at(np.zeros(2), 1, model)
    err = np.linalg.norm(surrogate.evaluate(np.array([0.4, -0.9])) - u_det)
    if err > 1e-10 * np.linalg.norm(u_det):
        return "degenerate model surrogate is parameter dependent"
    # psi is read off per-level rows; it must be the mass-weighted nodal sum
    Y = np.random.default_rng(9).uniform(-1, 1, (5, 2))
    want = surrogate.evaluate_batch(Y) @ fem.mass_vector(1)
    if not np.allclose(surrogate.psi_batch(Y), want, rtol=1e-12, atol=0.0):
        return "psi_batch differs from the mass-weighted nodal surrogate"
    # a query contracts on numpy's BLAS and adds the levels' nodal values on
    # scipy's, with other kernels for one sample than for a batch: the two
    # builds must agree to round-off
    model = fields.make_model("affine", "exponential", 2)
    surrogate, _ = driver.run_ml(model, 2, 2, seed=11)
    Y = np.random.default_rng(9).uniform(-1, 1, (5, 2))
    batch = surrogate.evaluate_batch(Y)
    for y, row in zip(Y, batch):
        if not _close(surrogate.evaluate(y), row, 1e-13):
            return "evaluate differs from its evaluate_batch row"
    # a Gauss-Legendre rule with p + 1 points per parameter is exact for the
    # degree-p interpolant
    x, w = np.polynomial.legendre.leggauss(max(surrogate.plan.degrees) + 1)
    Y = np.array(np.meshgrid(x, x, indexing="ij")).reshape(2, -1).T
    mean = np.outer(w, w).ravel() / 4.0 @ surrogate.evaluate_batch(Y)
    if not _close(surrogate.expectation(), mean, 1e-10):
        return "expectation differs from the Gauss-Legendre mean of evaluate_batch"
    return None


SUITES = [
    ("htensor dense oracle", suite_htensor),
    ("cross exact recovery", suite_cross),
    ("fem convergence", suite_fem),
    ("driver schedule and weights", suite_driver),
]


def run_all(out=print) -> bool:
    ok = True
    for name, fn in SUITES:
        try:
            failure = fn()
        except Exception as err:    # a raising suite fails alone; the rest still run
            traceback.print_exc()
            failure = f"{type(err).__name__}: {err}"
        if failure is None:
            out(f"PASS {name}")
        else:
            out(f"FAIL {name}: {failure}")
            ok = False
    return ok
