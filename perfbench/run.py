"""Host-time benchmark of the GPU-STM simulator on four fixed workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spin --seed 1 --seconds 25 --trace 0

Workloads (cell lists in ``cells.py``):

``spin``       {ra, ht} x {vbv, cgl}: lock/seqlock metadata polling
``commit``     {ra, ht, gn, eb} x 4 STM variants: low-contention commits
``contended``  {lg, mg on 2 devices} x 3 variants: the abort/retry path
``sweep``      ``fig2 --quick`` through ``run_jobs`` with supervision, a
               journal and an expdb recorder at 2 workers, then a resume

Every pass runs in a fresh ``worker.py`` process, measured from here.
The untraced passes sample the host's speed while they run
(``calibrate.py``), and their times are divided by it: they read as host
seconds at the reference host's speed, so a slow spell of a shared host
does not pass for a slower simulator.
Metric names and units come from ``BENCHMARK.json`` at the checkout root.
``--trace 0`` runs set-up probes and then untraced passes until
``--seconds`` is spent, and reports the end-to-end metrics as medians
over those samples.  ``--trace 1`` runs one untraced pass, one span pass
and one profile pass and reports the per-layer attribution.  Either way
every cell is verified, its (steps, cycles, commits, aborts) must repeat
exactly in every pass, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The process exits 2 without a result when the checkout has no simulator
source, and 1 after the result when any cell failed.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("spin", "commit", "contended", "sweep")
#: set-up-only passes per timed run, on top of one sample per pass
SETUP_PROBES = 8
#: no run may take longer than this, whatever ``--seconds`` says
RUN_LIMIT_S = 170.0


def metric_units(section):
    """``(name, unit)`` of every metric ``BENCHMARK.json`` lists in
    ``section`` (``end_to_end`` or ``per_layer``), in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return [(metric["name"], metric["unit"]) for metric in spec[section]]


class PassFailed(Exception):
    """A worker process that crashed, timed out or printed no result."""


def run_pass(args, mode, timeout):
    """Run one worker pass; return its result with ``wall_s`` (spawn to
    exit) and ``setup_s`` (spawn to first launch or dispatch) added,
    both calibrated as ``launch_s`` is; ``raw_wall_s`` is as measured."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--mode", mode,
           "--geometry", args.geometry]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.fault:
        cmd += ["--fault", args.fault]
    # the expdb's provenance probe runs git: keep it inside the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    spawn = time.monotonic()
    # a session of its own, so a timeout also stops the sweep's workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed("%s pass timed out after %.0fs" % (mode, timeout))
    end = time.monotonic()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise PassFailed("%s pass exited %d: %s" % (mode, proc.returncode, tail))
    result = json.loads(lines[-1])
    # [mean host slowness, samples, seconds spent sampling]; traced passes
    # do not sample and stay as measured
    slowness, _samples, sampling = result.get("cal") or (1.0, 0, 0.0)
    result["slowness"] = slowness
    result["raw_wall_s"] = end - spawn - sampling
    result["wall_s"] = result["raw_wall_s"] / slowness
    result["launch_s"] = result.get("launch_s", 0.0) / slowness
    result["setup_s"] = None
    if result.get("first"):
        slowness, _samples, sampling = result.get("first_cal") or (1.0, 0, 0.0)
        result["setup_s"] = (result["first"] - spawn - sampling) / slowness
    return result


class Verdict:
    """Cells attempted and failed over the passes of one run.

    A failure is a cell that crashed, tripped the watchdog, failed its
    verify or commit count, failed under the supervisor, or whose
    (steps, cycles, commits, aborts) differ from the first pass's.
    """

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.reference = {}

    def add_pass(self, result):
        for cell in result["cells"]:
            self.attempted += 1
            name = cell["name"]
            if cell["error"] is not None:
                self.failures.append("%s: %s" % (name, cell["error"]))
            elif self.reference.setdefault(name, cell["sig"]) != cell["sig"]:
                self.failures.append(
                    "%s: determinism mismatch %s != %s"
                    % (name, cell["sig"], self.reference[name]))

    def add_crash(self, error):
        self.attempted += 1
        self.failures.append(str(error))

    @property
    def failed(self):
        return len(self.failures)


def _sum(cells, key):
    return sum(cell[key] for cell in cells if cell["error"] is None)


def _sig_sum(cells, index):
    return sum(cell["sig"][index] for cell in cells if cell["error"] is None)


def timed_run(args, verdict, deadline):
    """``--trace 0``: set-up probes, then untraced passes until the time
    is spent.  Returns ``{metric: (value, samples)}``."""
    setups, passes = [], []
    for _ in range(SETUP_PROBES):
        try:
            probe = run_pass(args, "probe", deadline - time.monotonic())
        except PassFailed as exc:
            verdict.add_crash(exc)
            continue
        setups.append(probe["setup_s"])
    budget_end = time.monotonic() + args.seconds
    while True:
        try:
            result = run_pass(args, "plain", deadline - time.monotonic())
        except PassFailed as exc:
            verdict.add_crash(exc)
            break
        verdict.add_pass(result)
        passes.append(result)
        if result["setup_s"] is not None:
            setups.append(result["setup_s"])
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if time.monotonic() + typical > min(budget_end, deadline):
            break
    if not passes:
        return {}
    cells = passes[0]["cells"]
    rates = [_sig_sum(p["cells"], 0) / p["launch_s"]
             for p in passes if p["launch_s"] > 0]
    metrics = {
        "wall_s": [p["wall_s"] for p in passes],
        "steps_per_s": rates,
        "sim_cycles": [_sig_sum(cells, 1)],
        "peak_rss_mb": [p["peak_rss_kb"] / 1024.0 for p in passes],
        "setup_s": setups,
        "host_slowness": [p["slowness"] for p in passes],
    }
    return {name: (statistics.median(values), len(values))
            for name, values in metrics.items() if values}


def traced_run(args, verdict, deadline):
    """``--trace 1``: one untraced, one span and one profile pass.
    Returns ``{metric: (value, samples)}``."""
    results = {}
    for mode in ("plain", "spans", "profile"):
        try:
            results[mode] = run_pass(args, mode, deadline - time.monotonic())
        except PassFailed as exc:
            verdict.add_crash(exc)
            return {}
        verdict.add_pass(results[mode])
    plain, spans, profile = results["plain"], results["spans"], results["profile"]
    span = {layer: value[0] for layer, value in spans["layers"].items()}
    prof = profile["layers"]
    cells = plain["cells"]
    steps = _sig_sum(cells, 0) or 1

    # Warp.step's self time still holds the generator code it resumes:
    # split it by the profile's self time of the layers that run there
    in_step = ("gpu.warp", "gpu.thread", "stm.runtime", "workloads")
    weight = sum(prof[layer][0] for layer in in_step) or 1.0
    share = {layer: span["gpu.warp"] * prof[layer][0] / weight for layer in in_step}

    commits = _sig_sum(cells, 2)
    begins = _sum(cells, "begins")
    values = {
        "gpu.scheduler.self_s": span["gpu.scheduler"],
        "gpu.scheduler.steps": steps,
        "gpu.warp.self_s": share["gpu.warp"],
        "gpu.warp.mem_txns": _sum(cells, "mem_txns"),
        "gpu.thread.self_s": span["gpu.thread"] + share["gpu.thread"],
        "gpu.thread.ops_per_step": spans["layers"]["gpu.thread"][1] / steps,
        "stm.runtime.self_s": span["stm.runtime"] + share["stm.runtime"],
        "stm.runtime.commits": commits,
        "stm.runtime.aborts": _sig_sum(cells, 3),
        "stm.runtime.commit_ratio": commits / begins if begins else 0.0,
        "stm.runtime.lock_spin_reads": _sum(cells, "lock_spin_reads"),
        "stm.runtime.validations": _sum(cells, "validations"),
        "workloads.self_s": span["workloads"] + share["workloads"],
        "multigpu.ctx.self_s": span["multigpu.ctx"],
        "multigpu.ctx.remote_ops": _sum(cells, "mg_remote_ops"),
        "multigpu.ctx.link_cycles": _sum(cells, "mg_link_cycles"),
        "harness.import_s": plain["import_s"],
        "harness.pool.self_s": span.get("harness.pool", 0.0),
        "harness.pool.attempts": plain.get("attempts", 0),
        "harness.journal.record_s": span["harness.journal.record"],
        "harness.journal.resume_s": span["harness.journal.resume"],
        "expdb.recorder_s": span["expdb.recorder"],
    }
    calls = {
        "gpu.scheduler": prof["gpu.scheduler"][1],
        "gpu.warp": prof["gpu.warp"][1],
        "gpu.thread": prof["gpu.thread"][1] + prof["gpu.thread.ops"][1],
        "multigpu.ctx": prof["multigpu.ctx"][1],
        "stm.runtime": prof["stm.runtime"][1],
        "workloads": prof["workloads"][1] + prof["workloads.setup"][1],
        "harness": prof["harness"][1],
    }
    for layer, count in calls.items():
        values["calls_per_step." + layer] = count / steps
    values["calls_per_step.total"] = sum(v[1] for v in prof.values()) / steps

    attributed = sum(value for name, value in values.items()
                     if name.endswith("_s"))
    # a sweep's workers run in parallel: their busy time beyond the wall
    # the pool covered is host time too
    busy = spans["wall_s"] + spans.get("busy_extra_s", 0.0)
    values["unattributed_s"] = busy - attributed
    values["trace_overhead"] = spans["raw_wall_s"] / plain["raw_wall_s"]
    return {name: (value, 1) for name, value in values.items()}


def report(metrics, units, verdict):
    """Print the human-readable table, then the JSON result line."""
    print("%-32s %16s  %-10s %s" % ("metric", "value", "unit", "samples"))
    for name, unit in units:
        if name in metrics:
            value, samples = metrics[name]
            print("%-32s %16.6g  %-10s %d" % (name, value, unit, samples))
    fail_frac = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print("%-32s %16.6g  %-10s %d" % ("fail_frac", fail_frac, "ratio",
                                      verdict.attempted))
    if "host_slowness" in metrics:
        # what the times were divided by: the host's speed, not the program's
        value, samples = metrics["host_slowness"]
        print("%-32s %16.6g  %-10s %d" % ("host_slowness", value, "ratio", samples))
    for failure in verdict.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    correct = verdict.attempted > 0 and not verdict.failures and all(
        name in metrics for name, _unit in units)
    result = {
        "correct": correct,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed if verdict.attempted else 1,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in units if name in metrics},
    }
    print(json.dumps(result))
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="run seed n: cell i gets seed n*64+i "
                             "(default: each workload's built-in seed)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time to spend measuring untraced passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--geometry", choices=("bench", "test"), default="bench",
                        help="test: the unit-test geometry, for the self-test")
    parser.add_argument("--fault", default=None,
                        help="fault spec armed on the first cell (self-test)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no simulator source under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    verdict = Verdict()
    if args.trace:
        metrics = traced_run(args, verdict, deadline)
        units = metric_units("per_layer")
    else:
        metrics = timed_run(args, verdict, deadline)
        units = metric_units("end_to_end")
        if verdict.attempted:
            metrics["verified_frac"] = (
                1.0 - verdict.failed / verdict.attempted, verdict.attempted)
    return 0 if report(metrics, units, verdict) else 1


if __name__ == "__main__":
    sys.exit(main())
