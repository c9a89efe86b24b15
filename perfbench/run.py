"""Benchmark of building, querying and validating the multilevel surrogate.

Run from the repository root:

    python3 perfbench/run.py --workload fine-affine --seed 1 --seconds 10 --trace 0

One process runs the phases set-up, build, query, validation and checks,
single-threaded (threads=1, BLAS pinned to one thread).  The repeated builds,
query rounds, validations and fresh-interpreter set-ups are spread evenly
over the run, so that each metric samples the machine's speed over the whole
run rather than over one stretch of it, and a speed probe between each two
events scales their times to a reference speed (speed.py).  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics from
spans around mltc's public entry points with --trace 1.  Raw samples (and
spans, when traced) go to .bench_out/.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

OUT_DIR = Path(".bench_out")
WORKLOADS = ("fine-affine", "highdim-logu", "desk-run")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True, help="seed of the query points")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; sets the number of query rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "mltc" / "__init__.py").is_file():
        print("perfbench: src/mltc not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mltc
    if Path(mltc.__file__).resolve().parent != (src / "mltc").resolve():
        print(f"perfbench: imported mltc from {mltc.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import harness
    import spans
    import workloads

    wl = workloads.load(args.workload, root)
    tracer = spans.Tracer() if args.trace else None
    run = harness.Run(wl, args.seed, root, tracer)
    # the traced run builds once, so that its counts are those of one build,
    # and makes no fresh-interpreter set-ups
    events = harness.interleave(("build", 1 if tracer else wl.builds),
                                ("query", wl.query_rounds(args.seconds)),
                                ("validate", wl.validations),
                                ("fresh_setup", 0 if tracer else wl.setups))
    with (tracer.installed() if tracer else nullcontext()):
        run.set_up()
        run.run_events(events)
        run.final_checks()
        metrics = run.per_layer() if tracer else run.end_to_end()

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
              "events": events, "probes": run.probes, "failed": run.failed,
              "raw": run.raw, "scaled": run.scaled}
    if tracer:
        record["spans"] = tracer.spans
    out = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    for name in run.failed:
        print(f"perfbench: failed operation: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
