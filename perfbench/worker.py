"""One pass of a benchmark workload, in a process of its own.

``run.py`` starts this script once per pass and measures it from outside
(wall time, set-up time, peak memory); the pass prints one JSON object as
its last line of standard output with what only the inside can see: the
per-cell results, the host time inside kernel launches and, in the traced
modes, the per-layer attribution.

Modes:

``probe``    import and build up to the first kernel launch (the first job
             dispatch on ``sweep``), note the time, run nothing
``plain``    run the cell list once, untraced
``spans``    run it with every layer entry point wrapped in a span
``profile``  run it under ``cProfile``, folded into layers by module

The untraced modes sample the host's speed as they go (``calibrate.py``)
and report it as ``cal``, and ``first_cal`` at the first launch.

Usage: ``python3 perfbench/worker.py --workload spin --mode plain
[--seed N] [--geometry bench|test] [--fault SPEC]``
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
#: where each sweep pass makes its fresh journal and expdb
TMP = os.path.join(ROOT, ".perfbench-tmp")

MODES = ("probe", "plain", "spans", "profile")


class FirstLaunch(Exception):
    """Raised by the probe at the first kernel launch to stop the run."""


def cell_record(name, run):
    """Plain-data summary of one finished cell; ``sig`` must repeat exactly."""
    kernels = run.kernel_results
    counters = {}
    for kernel in kernels:
        for key, value in kernel.counters.as_dict().items():
            counters[key] = counters.get(key, 0) + value
    steps = sum(k.steps for k in kernels)
    stats = run.stats
    return {
        "name": name,
        "sig": [steps, run.cycles, run.commits, stats.get("aborts", 0),
                run.crashed],
        "error": None,
        "mem_txns": sum(k.mem_txns for k in kernels),
        "begins": stats.get("begins", 0),
        "lock_spin_reads": stats.get("lock_spin_reads", 0),
        "validations": stats.get("validations", 0),
        "mg_remote_ops": sum(counters.get("mg.remote." + kind, 0)
                             for kind in ("read", "write", "atomic")),
        "mg_link_cycles": counters.get("mg.link.cycles", 0),
    }


def failed_record(name, error):
    return {"name": name, "sig": None, "error": error}


class PassState:
    """The instruments of one pass; forked sweep workers inherit them."""

    def __init__(self, mode, calibrator):
        from spans import LaunchClock, SpanTracer

        self.mode = mode
        self.clock = LaunchClock(calibrator)
        self.tracer = SpanTracer() if mode == "spans" else None
        self.profile = None

    def start_profile(self):
        import cProfile

        self.profile = cProfile.Profile()
        self.profile.enable()

    def stop_profile(self):
        from spans import profile_layers

        self.profile.disable()
        return profile_layers(self.profile)

    def layer_totals(self):
        """This process's own ``{layer: [self_s, calls]}``."""
        if self.mode == "spans":
            return self.tracer.as_dict()
        if self.mode == "profile" and self.profile is not None:
            return self.stop_profile()
        return {}


class WorkerExecutor:
    """The sweep executor of the traced passes: runs ``execute_job`` in the
    forked worker with that worker's instruments reset, then appends the
    job's interval and what the instruments measured to the spool file."""

    def __init__(self, state, spool):
        self.state = state
        self.spool = spool

    def __call__(self, spec):
        from repro.harness.parallel import execute_job
        from spans import spool_append

        state = self.state
        if state.tracer is not None:
            state.tracer.reset()
        if state.mode == "profile":
            # the fork inherited the parent's active profiler: stop it, so
            # this worker's profile holds only its own job
            state.profile.disable()
            state.start_profile()
        start = time.monotonic()
        try:
            return execute_job(spec)
        finally:
            job = [start, time.monotonic()]
            spool_append(self.spool, {"job": job, "layers": state.layer_totals()})


def union_length(intervals, lo, hi):
    """Seconds of [lo, hi] covered by the union of ``intervals``."""
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def run_sim(args, state, out):
    from cells import sim_cells
    from repro.harness import configs
    from repro.harness.runner import run_workload
    from repro.workloads import make_workload

    cells = sim_cells(args.workload, args.geometry, args.seed)
    multi = any(c.gpu_overrides.get("devices", 1) > 1 for c in cells)
    if args.mode == "probe":
        def stop():
            raise FirstLaunch()

        state.clock.on_first = stop
    state.clock.install(multi=multi)
    if state.tracer is not None:
        state.tracer.install()
    if args.mode == "profile":
        state.start_profile()
    records = []
    for index, cell in enumerate(cells):
        fault = [args.fault] if args.fault and index == 0 else None
        try:
            run = run_workload(
                make_workload(cell.workload, **cell.params), cell.variant,
                cell.gpu(), num_locks=configs.DEFAULT_NUM_LOCKS, verify=True,
                fault_plan=fault,
            )
        except FirstLaunch:
            break
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not fatal
            records.append(failed_record(cell.name, "%s: %s" % (type(exc).__name__, exc)))
            continue
        records.append(cell_record(cell.name, run))
    out["layers"] = state.layer_totals()
    out["cells"] = records
    out["first"] = state.clock.first
    out["first_cal"] = state.clock.first_cal


def _sweep_cells(results):
    records = []
    for result in results:
        name = "%s/%s" % result.key
        if result.failed:
            records.append(failed_record(name, result.brief_error()))
        else:
            records.append(cell_record(name, result.run))
    return records


def run_sweep(args, state, out):
    from cells import SWEEP_JOBS, sweep_specs
    from repro.expdb.recorder import SweepRecorder
    from repro.harness.parallel import run_jobs
    from repro.telemetry import MetricRegistry

    specs = sweep_specs(args.geometry, args.seed)
    # a fresh journal and expdb for every pass: no pass resumes another's.
    # Forked workers report launch time and traced jobs through the spool.
    os.makedirs(TMP, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="sweep-", dir=TMP)
    journal = os.path.join(tmp, "journal.jsonl")
    db = os.path.join(tmp, "expdb.sqlite")
    spool = os.path.join(tmp, "spool.jsonl")
    state.clock.spool = spool
    state.clock.install()
    executor = None
    if args.mode in ("spans", "profile"):
        executor = WorkerExecutor(state, spool)
    if state.tracer is not None:
        state.tracer.install()
    cold_metrics, warm_metrics = MetricRegistry(), MetricRegistry()

    def sweep(metrics):
        return run_jobs(specs, jobs=SWEEP_JOBS, supervise={}, journal=journal,
                        metrics=metrics, recorder=SweepRecorder(db, "fig2"),
                        executor=executor)

    try:
        state.clock.mark_first()
        out["first"] = state.clock.first
        out["first_cal"] = state.clock.first_cal
        if args.mode == "probe":
            out["cells"] = []
            return
        if args.mode == "profile":
            state.start_profile()
        pool_start = time.monotonic()
        cold = sweep(cold_metrics)
        resumed = sweep(warm_metrics)
        pool_end = time.monotonic()
        with open(spool) as handle:
            spooled = [json.loads(line) for line in handle]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    layers = state.layer_totals()
    records = _sweep_cells(cold)
    executed = int(warm_metrics.counters_dict().get("supervisor.jobs.executed", 0))
    for record, again in zip(records, _sweep_cells(resumed)):
        if record["error"] is None and again != record:
            record["error"] = "resumed result differs from the cold pass"
            record["sig"] = None
    if executed:
        records.append(failed_record(
            "resume", "resume executed %d cell(s) instead of 0" % executed))
    out["cells"] = records
    out["attempts"] = int(cold_metrics.counters_dict().get("supervisor.attempts", 0))
    out["launch_s"] = sum(entry.get("launch", 0.0) for entry in spooled)
    jobs = [tuple(entry["job"]) for entry in spooled if "job" in entry]
    if jobs:
        busy = union_length(jobs, pool_start, pool_end)
        out["busy_extra_s"] = sum(end - start for start, end in jobs) - busy
        for entry in spooled:
            for layer, (self_s, calls) in entry.get("layers", {}).items():
                totals = layers.setdefault(layer, [0.0, 0])
                totals[0] += self_s
                totals[1] += calls
    if state.tracer is not None:
        # the pool's own time: neither a worker running a job nor this
        # process inside the journal or the recorder
        covered = union_length(jobs + state.tracer.intervals, pool_start, pool_end)
        layers["harness.pool"] = [pool_end - pool_start - covered, 2]
    out["layers"] = layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spin", "commit", "contended", "sweep"))
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--geometry", choices=("bench", "test"), default="bench")
    parser.add_argument("--fault", default=None,
                        help="fault spec armed on the first cell (self-test)")
    args = parser.parse_args(argv)

    calibrator = None
    if args.mode in ("probe", "plain"):
        from calibrate import PASS_INTERVAL_S, PROBE_INTERVAL_S, Calibrator

        calibrator = Calibrator(
            PROBE_INTERVAL_S if args.mode == "probe" else PASS_INTERVAL_S)
        calibrator.start()
    start = time.perf_counter()
    import repro.harness.runner  # noqa: F401 - timed: the import share of set-up
    import repro.harness.parallel  # noqa: F401
    if args.workload == "sweep":
        import repro.expdb.recorder  # noqa: F401
        import repro.harness.supervisor  # noqa: F401
    out = {"import_s": time.perf_counter() - start}

    state = PassState(args.mode, calibrator)
    if args.workload == "sweep":
        run_sweep(args, state, out)
    else:
        run_sim(args, state, out)
        out["launch_s"] = state.clock.seconds
    if calibrator is not None:
        calibrator.stop()
        out["cal"] = calibrator.snapshot()
    # peak resident memory: this process, plus each concurrent sweep
    # worker at the largest worker's peak
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "sweep":
        from cells import SWEEP_JOBS

        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_kb += SWEEP_JOBS * children
    out["peak_rss_kb"] = peak_kb
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
