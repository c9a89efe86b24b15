"""The phases of one benchmark run and their checks; see README.md.

Imported by run.py once `src/` is on the import path.
"""

import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import speed
import workloads
from mltc import driver, fem, fields
from mltc.htensor import storage_and_ranks

HERE = Path(__file__).resolve().parent


def tail(values):
    """Highest order statistic with at least ten samples above it."""
    s = sorted(values)
    if len(s) < 11:
        raise ValueError("a tail needs at least eleven samples")
    return s[len(s) - 11]


def interleave(*counts) -> list[str]:
    """Spread the repeats of each (name, count) evenly; the first name goes first.

    A slow stretch of the machine then hits a few events of every kind rather
    than every event of one kind.
    """
    events = []
    for order, (name, n) in enumerate(counts):
        offset = 0.0 if order == 0 else 0.5
        events += [((k + offset) / n, order, name) for k in range(n)]
    return [name for _, _, name in sorted(events)]


class Run:
    """One benchmark run: its operations, raw timings and checked outputs."""

    def __init__(self, wl, seed: int, root: Path, tracer):
        self.wl = wl
        self.root = root
        self.tracer = tracer
        self.attempted = 0
        self.failed: list[str] = []
        self.raw = defaultdict(list)        # wall-clock times (keys ending in _s) and eps
        self.scaled = defaultdict(list)     # the same times at the probe's reference speed
        self.probes: list[float] = []
        self.singles_done = 0
        self.surrogate = None      # the first build's surrogate, diagnostics and counts
        self.diags = self.counts = None
        self.Y = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(wl.batch, wl.terms))

    def record(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def phase(self, name: str):
        return self.tracer.in_phase(name) if self.tracer else nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else nullcontext()

    def fresh_setup(self):
        """One set-up in a fresh interpreter, timed there from before `import mltc`."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), self.wl.name],
            cwd=self.root, capture_output=True, text=True, timeout=120)
        ok = proc.returncode == 0
        if ok:
            self.raw["setup_s"].append(
                json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        else:
            sys.stderr.write(proc.stderr)
        self.record("setup", ok)

    def run_events(self, events):
        """Run the events with a speed probe before, between and after them.

        Every time an event records is then scaled by speed.REF_S over the
        median of the four probes nearest to it, two on either side, so that
        one probe the machine slowed for a moment moves no event much.
        """
        probe = speed.Probe()
        self.probes.append(probe())
        recorded = []       # per event: {timing key: (first, end) index of its samples}
        for event in events:
            marks = {key: len(values) for key, values in self.raw.items()}
            getattr(self, event)()
            self.probes.append(probe())
            recorded.append({key: (marks.get(key, 0), len(values))
                             for key, values in self.raw.items() if key.endswith("_s")})
        for i, ranges in enumerate(recorded):
            scale = speed.REF_S / statistics.median(self.probes[max(0, i - 1):i + 3])
            for key, (first, end) in ranges.items():
                self.scaled[key] += [v * scale for v in self.raw[key][first:end]]

    def set_up(self):
        with self.phase("setup"):
            self.model = workloads.set_up(self.wl)
        self.mass = fem.mass_vector(self.wl.max_level)

    def build(self):
        wl = self.wl
        with self.phase("build"):
            t0 = perf_counter()
            surrogate, diags = driver.run_ml(self.model, wl.terms, wl.max_level,
                                             **wl.build_kwargs())
            self.raw["build_s"].append(perf_counter() - t0)
        counts = [(d.fibers, d.step2_evals, d.pde_solves, d.r_max) for d in diags]
        self.record("build", all(d.converged for d in diags)
                    and (self.counts is None or counts == self.counts))
        if self.surrogate is None:
            self.surrogate, self.diags, self.counts = surrogate, diags, counts
            with self.untraced():
                Y_gauss, self.w_gauss = checks.gauss_grid(
                    wl.terms, max(d.degree for d in diags))
                self.U_gauss = surrogate.evaluate_batch(Y_gauss)

    def query(self):
        """One query round.

        Calls of one kind run back to back: interleaving them made
        `psi_batch` on fine-affine bimodal (0.12 s or 0.25 s, by what ran
        before it), which doubled its spread between runs.
        """
        wl = self.wl
        with self.phase("query"):
            for call, n in (("batch", wl.batch_repeats), ("single", wl.singles),
                            ("psi", wl.psi_repeats), ("stats", wl.stats_repeats)):
                for _ in range(n):
                    getattr(self, "_" + call)()
        del self.U      # the round's batch output; not held through builds and validations

    def _batch(self):
        t0 = perf_counter()
        self.U = self.surrogate.evaluate_batch(self.Y)
        self.raw["batch_s"].append(perf_counter() - t0)
        self.record("evaluate_batch", self.U.shape == (self.wl.batch, self.mass.size)
                    and bool(np.all(np.isfinite(self.U))))

    def _single(self):
        i = self.singles_done % self.wl.batch
        self.singles_done += 1
        t0 = perf_counter()
        u = self.surrogate.evaluate(self.Y[i])
        self.raw["single_s"].append(perf_counter() - t0)
        self.record("evaluate", checks.single_matches_batch(u, self.U[i]))

    def _psi(self):
        t0 = perf_counter()
        psi = self.surrogate.psi_batch(self.Y)
        self.raw["psi_s"].append(perf_counter() - t0)
        self.record("psi_batch", checks.psi_matches_mass(psi, self.U, self.mass))

    def _stats(self):
        t0 = perf_counter()
        E = self.surrogate.expectation()
        e_psi = self.surrogate.expectation_psi()
        self.raw["stats_s"].append(perf_counter() - t0)
        self.record("stats",
                    checks.expectation_matches_quadrature(E, self.U_gauss, self.w_gauss)
                    and checks.expectation_psi_matches_mass(e_psi, E, self.mass))

    def validate(self):
        """What `mltc run` does after the build."""
        wl = self.wl
        with self.phase("validate"):
            t0 = perf_counter()
            reference = None
            if wl.ref_level is not None and wl.ref_level > wl.max_level:
                reference, _ = driver.run_ml(
                    self.model, wl.terms, wl.ref_level,
                    **{**wl.build_kwargs(), "seed": wl.build_seed + 1})
            em = driver.error_metrics(self.surrogate, reference, samples=wl.samples,
                                      seed=wl.metrics_seed, per_level=True)
            self.raw["validate_s"].append(perf_counter() - t0)
            self.raw["eps_ml_u"].append(em.eps_ml_u)

    def final_checks(self):
        """Checks (d) and (e), made apart from the timed phases."""
        wl = self.wl
        with self.untraced():
            Y_val = np.random.default_rng(wl.metrics_seed).uniform(
                -1.0, 1.0, size=(wl.samples, wl.terms))
            eps_check = checks.relative_error_by_quadrature(
                self.surrogate.evaluate_batch(Y_val), Y_val, wl.max_level, self.model)
            for eps in self.raw["eps_ml_u"]:
                self.record("validate", checks.error_matches(eps, eps_check, wl.eps0))
            const = fields.make_model("affine", "zero", 1, 2.0)
            u = fem.solve_at(np.zeros(1), wl.top_level, const)
            self.record("fe_series", checks.fe_integral_matches_series(
                fem.functional_psi(u, wl.top_level), const.mean, wl.top_level))
        self.raw["eps_check"] = eps_check

    def end_to_end(self) -> dict:
        """Timings are medians of the scaled times; see speed.py."""
        wl, t, med = self.wl, self.scaled, statistics.median
        storage = sum(storage_and_ranks(rec.tensor).storage_scalars
                      for rec in self.surrogate.records)
        return {
            "setup_s": (med(t["setup_s"]), "s"),
            "build_s": (med(t["build_s"]), "s"),
            "surrogate_kb": (storage * 8 / 1000.0, "KB"),
            "eval_per_s": (wl.batch / med(t["batch_s"]), "1/s"),
            "eval_ms": (1e3 * med(t["single_s"]), "ms"),
            "eval_tail_ms": (1e3 * tail(t["single_s"]), "ms"),
            "psi_per_s": (wl.batch / med(t["psi_s"]), "1/s"),
            "stats_ms": (1e3 * med(t["stats_s"]), "ms"),
            "validate_s": (med(t["validate_s"]), "s"),
            "eps_ml_u": (self.raw["eps_ml_u"][0], "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    def per_layer(self) -> dict:
        """Span times add up the whole run, so they take the run's median probe."""
        diags = self.diags
        fibers = sum(d.fibers for d in diags)
        points = sum((d.degree + 1) ** self.wl.terms for d in diags)
        metrics = self.tracer.layer_metrics(fibers, sum(d.step2_evals for d in diags), points)
        scale = speed.REF_S / statistics.median(self.probes)
        return {k: (v * scale if unit == "s" else v, unit) for k, (v, unit) in metrics.items()}
