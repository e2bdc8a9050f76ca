#!/usr/bin/env python
"""Compare simulator throughput (steps/sec) against a committed baseline.

Runs a small fixed set of (workload, variant) configurations through
``run_under_schedule``, measures warp-steps per wall-clock second (best
of ``--repeat`` runs), and compares against ``benchmarks/baseline.json``:

* a drop of more than ``--threshold`` (default 20%) is a REGRESSION and
  the script exits non-zero (``--lenient`` downgrades it to a warning
  for machines whose wall-clock numbers are known to be incomparable to
  the baseline's);
* a *step-count* mismatch is always an error: steps are simulated and
  must be bit-identical on every machine;
* interpreter calls per warp-step — Python calls into ``repro`` code,
  counted by ``cProfile`` over one run — are as exact as the step count,
  so a case that makes *more* calls than its recorded figure fails even
  under ``--lenient``: it catches a fast path (e.g. spin parking)
  silently switching off.  The gate only applies to the sequential issue
  loops; with ``REPRO_SM_SHARDS`` set the worker threads' calls differ
  and only step drift is checked.

After an *intentional* perf change, refresh the committed baseline —
that is the escape hatch for legitimate shifts — with::

    PYTHONPATH=src python benchmarks/compare_baseline.py --update

Alongside the single-point baseline verdict, each case is judged by the
experiment database's perf observatory (``--db``, default
``$REPRO_EXPDB``): the current rate against the rolling median of the
recorded window, plus deterministic step-drift detection — see
:mod:`repro.expdb.observatory`.  ``--record`` appends this measurement
to the database, growing the trajectory the next invocation is judged
against (``python -m repro db trajectory`` renders the history).
"""

import argparse
import cProfile
import json
import os
import pstats
import sys
import time
from pathlib import Path

BASELINE_PATH = Path(__file__).resolve().parent / "baseline.json"

# (case name, workload, variant, gpu_overrides): the case name is the
# baseline key, so the multi-device case stays distinct from a
# single-device run of the same workload/variant
CASES = [
    ("ra/hv-sorting", "ra", "hv-sorting", None),
    ("ra/vbv", "ra", "vbv", None),
    ("ra/cgl", "ra", "cgl", None),
    ("ht/optimized", "ht", "optimized", None),
    ("mg-2dev/optimized", "mg", "optimized",
     {"devices": 2, "link_model": "uniform:60"}),
]


def measure(workload, variant, repeat, gpu_overrides=None):
    import repro
    from repro.harness import configs
    from repro.sched.explore import run_under_schedule

    params = configs.test_workload_params(workload)
    best = None
    steps = None
    for _ in range(repeat):
        start = time.perf_counter()
        outcome = run_under_schedule(workload, params, variant,
                                     gpu_overrides=gpu_overrides)
        elapsed = time.perf_counter() - start
        if outcome.failure is not None:
            raise SystemExit(
                "benchmark run failed: %s/%s -> %s" % (workload, variant, outcome.failure)
            )
        steps = outcome.steps
        rate = outcome.steps / elapsed
        best = rate if best is None else max(best, rate)
    # profiled after the timed runs, so lazy imports and caches are warm
    # and the count is the same on every invocation
    profile = cProfile.Profile()
    profile.enable()
    run_under_schedule(workload, params, variant, gpu_overrides=gpu_overrides)
    profile.disable()
    package = os.path.dirname(repro.__file__) + os.sep
    calls = sum(
        entry[1]
        for (filename, _line, _name), entry in pstats.Stats(profile).stats.items()
        if filename.startswith(package)
    )
    return {
        "steps": steps,
        "steps_per_sec": round(best, 1),
        "calls": calls,
        "calls_per_step": round(calls / steps, 2),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite baseline.json from this machine's numbers")
    parser.add_argument("--lenient", action="store_true",
                        help="downgrade throughput regressions to warnings "
                             "(step drift still fails)")
    parser.add_argument("--strict", action="store_true",
                        help=argparse.SUPPRESS)  # legacy: now the default
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="fractional steps/sec drop that counts as a regression")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per case; the best rate is kept")
    parser.add_argument("--db", default=None, metavar="PATH",
                        help="experiment database for the rolling-window "
                             "verdict (default: $REPRO_EXPDB or "
                             "expdb/experiments.sqlite)")
    parser.add_argument("--record", action="store_true",
                        help="append this measurement to the experiment "
                             "database's perf trajectory")
    args = parser.parse_args(argv)
    from repro.gpu.config import GpuConfig
    from repro.gpu.scheduler import resolve_sm_shards

    current = {
        case: measure(workload, variant, args.repeat, gpu_overrides)
        for case, workload, variant, gpu_overrides in CASES
    }

    if args.update:
        from repro.common.fsio import atomic_write_json

        payload = {
            "comment": "best-of-%d steps/sec and exact repro calls per warp-step "
                       "per case at configs.test_workload_params geometry; "
                       "refresh with --update" % args.repeat,
            "benchmarks": current,
        }
        atomic_write_json(str(BASELINE_PATH), payload)
        print("baseline written to %s" % BASELINE_PATH)
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())["benchmarks"]
    status = 0
    sharded = resolve_sm_shards(GpuConfig()) > 1
    if sharded:
        print("sharded issue loops: calls/step gate skipped, step drift checked")
    for case, now in sorted(current.items()):
        then = baseline.get(case)
        if then is None:
            print("%-20s NEW         %10.1f steps/sec (not in baseline)"
                  % (case, now["steps_per_sec"]))
            continue
        if then["steps"] != now["steps"]:
            print("%-20s STEP DRIFT  baseline %d steps, now %d -- simulation "
                  "is no longer deterministic vs the committed baseline"
                  % (case, then["steps"], now["steps"]))
            status = 1
            continue
        if not sharded and "calls" in then:
            verdict = "ok" if now["calls"] <= then["calls"] else "MORE CALLS"
            print("%-20s %-11s %10.2f -> %10.2f calls/step"
                  % (case, verdict, then["calls_per_step"], now["calls_per_step"]))
            if now["calls"] > then["calls"]:
                status = 1
        ratio = now["steps_per_sec"] / then["steps_per_sec"]
        delta = now["steps_per_sec"] - then["steps_per_sec"]
        verdict = "ok" if ratio >= 1.0 - args.threshold else "REGRESSION"
        print("%-20s %-11s %10.1f -> %10.1f steps/sec (%+10.1f, %.0f%% of baseline)"
              % (case, verdict, then["steps_per_sec"], now["steps_per_sec"],
                 delta, 100 * ratio))
        if verdict == "REGRESSION" and not args.lenient:
            status = 1

    # second opinion: the experiment database's rolling window, which
    # tracks the *trajectory* instead of one hand-refreshed point
    from repro.expdb.db import ExperimentDB, default_db_path
    from repro.expdb.observatory import record_perf_run, rolling_verdict

    db_path = args.db or default_db_path()
    with ExperimentDB(db_path) as db:
        print()
        print("rolling-window verdicts (experiment DB %s):" % db_path)
        for case, now in sorted(current.items()):
            verdict = rolling_verdict(
                db, case, now["steps"], now["steps_per_sec"],
                tolerance=args.threshold,
            )
            print("  " + verdict.brief())
            if verdict.status == "regression":
                drift = (verdict.window_steps is not None
                         and verdict.steps != verdict.window_steps)
                # step drift is a determinism break, never excusable by
                # --lenient; rate regressions follow the legacy flag
                if drift or not args.lenient:
                    status = 1
        if args.record:
            run_id = record_perf_run(db, current)
            print("recorded perf run %d in %s" % (run_id, db_path))
    return status


if __name__ == "__main__":
    sys.exit(main())
