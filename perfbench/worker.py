"""One benchmark process: set a workload up, then measure or trace it.

Started by ``run.py``, which pins the BLAS thread count in its
environment. Prints one JSON object on its last line of standard output.

Modes:

* ``setup``: set up and report ``setup_s`` only (extra set-up samples);
* ``measure``: set up, then run work units untraced until ``--seconds``
  have passed (at least one unit, and no unit that would end well past
  the deadline), reporting each unit's wall time and ops, and the
  durations of the calls the workload times one by one (``time_calls``);
* ``trace``: set up with tracing on, run the plan once traced and once
  untraced, and report the per-layer metrics of the traced pass and the
  tracing overhead (traced minus untraced wall time of the plan).
  Spans are written to ``perfbench/_out`` when the run ends.

Set-up time runs from before the program's import to the end of one
warm-up call of each kind the timed phase makes, so that first-call costs
(BLAS start-up in the first ``eigvalsh``, for one) are paid there.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import hqcnn

    if not Path(hqcnn.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"hqcnn imported from {hqcnn.__file__}, not from this checkout")


def _run_plan(plan, call=lambda unit: unit()):
    """Run each unit once; returns (wall seconds, results)."""
    start = time.perf_counter()
    results = [call(unit) for unit in plan]
    return time.perf_counter() - start, results


def _measure(workload, seconds: float) -> dict:
    calls = workload.time_calls()
    plan = workload.plan()
    start = time.perf_counter()
    walls, results = [], []
    while True:
        unit = plan[len(results) % len(plan)]
        t0 = time.perf_counter()
        result = unit()
        walls.append(time.perf_counter() - t0)
        results.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    return {
        "units": [[wall, r.ops] for wall, r in zip(walls, results)],
        "calls": calls,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "trainings": [t for r in results for t in r.trainings],
        "test_errors": [r.test_errors for r in results if r.test_errors],
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    _import_program()
    import numpy
    import scipy

    from workloads import WORKLOADS

    tracer = None
    if args.mode == "trace":
        from layers import instrument
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)
        tracer.active = True

    work_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        pause = tracer.paused if tracer else nullcontext
        workload = WORKLOADS[args.workload](args.seed, args.tiny, work_dir, pause)
        workload.setup()
        report = {"setup_s": time.perf_counter() - _START, "op": workload.op}
        if args.mode == "measure":
            report.update(_measure(workload, args.seconds))
        elif args.mode == "trace":
            from layers import per_layer_metrics

            plan = workload.plan()
            traced_s, results = _run_plan(
                plan, lambda unit: tracer.call("bench.unit", unit)
            )
            tracer.uninstall()
            untraced_s, untraced = _run_plan(plan)
            results += untraced
            metrics = per_layer_metrics(tracer, results[: len(plan)])
            metrics["bench.wall_s"] = (untraced_s, "s")
            metrics["bench.traced_wall_s"] = (traced_s, "s")
            metrics["bench.trace_overhead_s"] = (traced_s - untraced_s, "s")
            report["metrics"] = metrics
            report["attempted"] = sum(r.attempted for r in results)
            report["failed"] = sum(r.failed for r in results)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
            tracer.write_spans(spans)
            report["spans"] = str(spans.relative_to(ROOT))
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
