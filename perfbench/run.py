"""hqcnn benchmark launcher.

    python3 perfbench/run.py --workload compare-tfim4 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every benchmark process runs single-threaded Python with the BLAS thread
count pinned in its environment (``threadpoolctl`` is not a dependency).

With ``--trace 0`` the launcher takes ``SETUP_SAMPLES`` set-up times, one
from each of several fresh processes, and measures the workload untraced;
the last line of standard output is a JSON object with the end-to-end
metrics:

* ``ops_per_s``: ops per second. An op is a BFGS iteration on
  compare-tfim4, an FD gradient evaluation on train-tfim8 and an exact
  solve by both routes on oracle-tfim10, so the figure does not move with
  the amount of work a seed happens to need. On train-tfim8 and
  oracle-tfim10 it is the median over work units of ops over unit wall
  time. On compare-tfim4 it is read from the fastest calls
  (``fast_ops_per_s``);
* ``setup_s``: the median set-up time;
* ``peak_rss_mb``: the measuring process's peak resident set.

With ``--trace 1`` one traced process reports the per-layer metrics
instead. The line before the result records the environment and, for
``--trace 0``, the workload-specific figures (wall time per unit,
failed fraction, fit quality) by name and unit.

``--tiny`` shrinks every workload to 2 qubits and a few iterations; the
smoke test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0
FAST_QUANTILE = 0.01


def fast_ops_per_s(units, calls: dict[str, list[float]]) -> float:
    """Ops per second with each timed call at its fast-state duration.

    On a shared host a call of a few milliseconds runs either at full
    speed or up to twice as slow while a neighbour competes for the core,
    and the share of slow calls swings from run to run, so means and
    medians of such calls swing with it. The fast end of each kind's
    durations (the ``FAST_QUANTILE`` quantile, over thousands of calls)
    stays put. The time of the units is rebuilt as the number of calls of
    each kind times that duration, plus the wall time spent outside the
    timed calls (optimizer steps, evaluation, I/O) as measured, so that
    call counts, line-search waste and untimed work all still count in
    full.
    """
    wall = sum(w for w, _ in units)
    ops = sum(o for _, o in units)
    fast_s = wall
    for durations in calls.values():
        durations = sorted(durations)
        fast_s += len(durations) * durations[int(FAST_QUANTILE * len(durations))]
        fast_s -= sum(durations)
    return ops / fast_s


def _worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ] + (["--tiny"] if args.tiny else [])
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"benchmark worker ({mode}) stopped at the {TIME_LIMIT_S:.0f} s limit")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"benchmark worker ({mode}) failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _figures(report: dict) -> dict:
    """The workload-specific end-to-end figures, for the record; rates are
    medians over work units of wall-clock rates."""
    units = report["units"]
    figures = {
        "wall_s": _metric(statistics.median(wall for wall, _ in units), "s"),
        f"{report['op']}_per_s": _metric(
            statistics.median(ops / wall for wall, ops in units), "1/s"
        ),
        "failed_frac": _metric(report["failed"] / report["attempted"], "frac"),
    }
    gaps = [gap for _, _, gap in report["trainings"]]
    if gaps:
        figures["final_cost_gap"] = _metric(statistics.mean(gaps), "energy")
    for variant in ("with", "without"):
        errors = [e[f"{variant}_measurements"] for e in report["test_errors"]]
        if errors:
            figures[f"test_error_{variant}"] = _metric(statistics.mean(errors), "energy")
    return figures


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hqcnn" / "__init__.py").is_file():
        sys.exit(f"no hqcnn sources under {ROOT / 'src'}")

    deadline = time.monotonic() + TIME_LIMIT_S
    info = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }
    if args.trace:
        report = _worker(args, "trace", deadline)
        metrics = {name: _metric(v, unit) for name, (v, unit) in report["metrics"].items()}
        info["spans"] = report["spans"]
    else:
        setups = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
        report = _worker(args, "measure", deadline)
        setups.append(report["setup_s"])
        if report["calls"]:
            ops_per_s = fast_ops_per_s(report["units"], report["calls"])
        else:
            ops_per_s = statistics.median(ops / wall for wall, ops in report["units"])
        metrics = {
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        }
        info["units"] = len(report["units"])
        info["figures"] = _figures(report)
    info.update(report["versions"])
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
