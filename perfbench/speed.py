"""A probe of the machine's speed: fixed work that calls nothing in mltc.

The shared machine the benchmark runs on changes speed in steps lasting from
seconds to more than a minute (see README.md, "Machine noise").  The
benchmark runs the probe between its timed events and scales each event's
times by REF_S over the median of the probes nearest to it (harness.py), so
that a time reads as it would at the reference speed, where one probe takes
REF_S.  The probe mixes the kinds of work mltc does: sparse LU
factorizations and solves of a five-point Laplacian, small dense products,
and an interpreted Python loop over a dict.
"""

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REF_S = 0.1     # seconds of one probe at the reference speed


class Probe:
    def __init__(self):
        n = 65
        t = sp.diags_array([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                           offsets=[-1, 0, 1])
        eye = sp.identity(n)
        self.K = (sp.kron(t, eye) + sp.kron(eye, t)).tocsc()
        self.b = np.ones(n * n)
        self.A = np.random.default_rng(0).random((150, 150))
        self()      # first-call costs (imports, allocator) stay out of the probes

    def __call__(self) -> float:
        """Seconds taken by the fixed work."""
        t0 = perf_counter()
        for _ in range(4):
            x = spla.splu(self.K).solve(self.b)
        B = self.A
        for _ in range(100):
            B = self.A @ B
            B /= np.abs(B).max()
        table, total = {}, 0.0
        for i in range(60000):
            table[i % 997] = table.get(i % 997, 0.0) + i * 0.5
            total += table[i % 997]
        if not (np.isfinite(x).all() and np.isfinite(B).all() and total > 0):
            raise RuntimeError("speed probe produced a non-finite result")
        return perf_counter() - t0
