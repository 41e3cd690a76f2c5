#!/usr/bin/env python3
"""Benchmark annealsim on whole user jobs, each checked against an independent reference.

    python3 bench/run.py --workload sweep5 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src``.  One process, no workers, one BLAS thread.  Phases of a
run:

1. set-up rounds, at least ``SETUP_ROUNDS`` and until ``SETUP_SECONDS``
   have passed: a fresh import of annealsim, the input files written and
   read back, and a warm-up that fills the program's lazy caches.
   ``setup_s`` is the median round;
2. the reference answers (benchmark code only, not timed);
3. jobs until ``--seconds`` have passed, each checked after its clock stops.
   ``job_s`` is the median job.

With ``--trace 1`` the jobs of the first half of the time run plain and those
of the second half traced (see ``tracer.py``); the set-up rounds are traced
too.  Then ``simulate_fixed`` is timed on the workload's model at two step
counts, which splits its cost into a per-call and a per-step part.  The spans
go to ``bench/out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A job that raises or whose
output fails a check counts as failed; a failed check also makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread.  On a 2-core VM the second OpenBLAS thread spins through
# every job, and a 9-qubit job then varies by +-15% against +-4% on one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# set-up rounds: at least this many, and more while under SETUP_SECONDS
SETUP_ROUNDS = 5
SETUP_SECONDS = 2.0


def fresh_import():
    """Import annealsim anew, so that each set-up round pays for import and caches."""
    for name in [m for m in sys.modules if m == "annealsim" or m.startswith("annealsim.")]:
        del sys.modules[name]
    package = importlib.import_module("annealsim")
    importlib.import_module("annealsim.cli")
    return package


def setup_round(workload, seed, workdir, tracer=None, label=None):
    start = time.perf_counter()
    qa = fresh_import()
    if tracer is not None:
        tracer.job = label
        tracer.install(qa)
    inputs = workload.inputs(qa, seed, workdir)
    workload.warm(qa, inputs)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    return qa, inputs, elapsed


def run_jobs(workload, qa, inputs, reference, seconds, tally, tracer=None):
    """Jobs 0, 1, ... until ``seconds`` have passed; returns their wall times and count."""
    times = []
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        tally["attempted"] += 1
        try:
            if tracer is not None:
                tracer.job = k
            start = time.perf_counter()
            output = workload.job(qa, inputs, k)
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.job = None
            problems = workload.check(reference, inputs, k, output)
        except Exception:  # noqa: BLE001 - a failing job is counted, the run goes on
            traceback.print_exc()
            tally["failed"] += 1
        else:
            if problems:
                tally["failed"] += 1
                tally["wrong"] += 1
                for msg in problems[:20]:
                    print(f"check failed, job {k}: {msg}", file=sys.stderr)
        k += 1
        if time.perf_counter() >= deadline:
            return times, k


def median_or_nan(values):
    return statistics.median(values) if values else float("nan")


def split_fixed(qa, workload, inputs, budget=0.5):
    """Per-call and per-step parts of simulate_fixed from two step counts.

    Each count is timed at least twice and until ``budget`` seconds have
    passed; the fastest call counts.
    """
    model, tau, schedule, order, (n1, n2) = workload.split(qa, inputs)
    timed = {}
    for n in (n1, n2):
        samples = []
        while len(samples) < 2 or sum(samples) < budget:
            start = time.perf_counter()
            result = qa.simulate_fixed(model, tau, schedule, order=order, n_steps=n)
            samples.append(time.perf_counter() - start)
        timed[result.steps_used] = min(samples)
    (s1, t1), (s2, t2) = sorted(timed.items())
    per_step = (t2 - t1) / (s2 - s1)
    return t1 - per_step * s1, per_step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "annealsim" / "__init__.py").is_file():
        print(f"error: no annealsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, so it must follow the BLAS thread cap
    from tracer import JOB_METRICS, SETUP_METRICS, Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    tracer = Tracer() if args.trace else None
    tally = {"attempted": 0, "failed": 0, "wrong": 0}
    try:
        setup_times = []
        while len(setup_times) < SETUP_ROUNDS or sum(setup_times) < SETUP_SECONDS:
            qa, inputs, elapsed = setup_round(workload, args.seed, workdir, tracer,
                                              f"setup{len(setup_times)}")
            setup_times.append(elapsed)
        reference = workload.reference(args.seed)

        if tracer is None:
            times, _ = run_jobs(workload, qa, inputs, reference, args.seconds, tally)
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "job_s": {"value": median_or_nan(times), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
            }
        else:
            plain, _ = run_jobs(workload, qa, inputs, reference, args.seconds / 2, tally)
            traced_inputs = dict(inputs)
            if "schedules" in inputs:
                traced_inputs["schedules"] = tuple(map(tracer.envelopes, inputs["schedules"]))
            tracer.install(qa)
            # numbered from 0 again, so the first traced job always runs copy 0
            traced, k = run_jobs(workload, qa, traced_inputs, reference, args.seconds / 2,
                                 tally, tracer)
            tracer.uninstall()
            call_s, step_s = split_fixed(qa, workload, inputs)
            metrics = tracer.metrics(JOB_METRICS, range(k))
            metrics.update(tracer.metrics(SETUP_METRICS,
                                          [f"setup{r}" for r in range(len(setup_times))]))
            metrics["magnus.call_s"] = {"value": call_s, "unit": "s"}
            metrics["magnus.step_ms"] = {"value": step_s * 1e3, "unit": "ms"}
            metrics["trace.overhead_s"] = {"value": median_or_nan(traced) - median_or_nan(plain),
                                           "unit": "s"}
            tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.json",
                         workload=workload.name, seed=args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
