"""Microbenchmark: the per-warp-step hot loop, isolated from workloads.

The end-to-end benchmarks (``test_bench_simperf``, ``compare_baseline``)
measure whole runs; this one isolates the two inner costs the vectorized
core optimizes, so a regression in either shows up undiluted:

* **issue selection** — ``Device._issue_round_robin`` turning over a
  device full of compute-only warps (every step is a zero-op bookkeeping
  issue, so the measured rate is almost pure scheduler + ``Warp.step``
  framing overhead); and
* **coalescing cost** — the grouped fold over one warp-step's address
  column (``Warp._group_cost`` and the set/dict reductions in
  :mod:`repro.gpu.soa`).

Rates land in ``benchmarks/results/hotloop.json`` for cross-PR diffing.
"""

import time

from repro.gpu.config import GpuConfig
from repro.gpu.scheduler import Device
from benchmarks.conftest import save_artifact

ROUNDS = 3


def _spin_kernel(tc, iters):
    # zero-op resumptions: every step is a pure issue-slot charge, so the
    # launch measures scheduler turnover + Warp.step framing and nothing else
    for _ in range(iters):
        yield


def _issue_rate():
    """Warp-steps per second through the round-robin issue loop."""
    best = 0.0
    steps = cycles = None
    for _ in range(ROUNDS):
        device = Device(GpuConfig(num_sms=8))
        started = time.perf_counter()
        result = device.launch(_spin_kernel, 16, 128, args=(400,))
        elapsed = time.perf_counter() - started
        if steps is None:
            steps, cycles = result.steps, result.cycles
        else:
            # determinism: identical geometry, identical simulated time
            assert (result.steps, result.cycles) == (steps, cycles)
        best = max(best, steps / elapsed)
    return best, steps, cycles


def _fold_rate(addrs, line_words=8, repeats=20000):
    """Grouped-fold invocations per second over one step's address column."""
    from repro.gpu.events import OpKind
    from repro.gpu.warp import BlockState, Warp

    warp = Warp(0, BlockState(0), GpuConfig(num_sms=1, line_words=line_words))
    best = 0.0
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for _ in range(repeats):
            warp.step_mem_txns = 0
            warp._group_cost(OpKind.READ, addrs)
        elapsed = time.perf_counter() - started
        best = max(best, repeats / elapsed)
    return best


class TestHotLoop:
    def test_issue_selection_rate(self, results_dir):
        rate, steps, cycles = _issue_rate()
        scattered = [(lane * 97 + 13) % 4096 for lane in range(32)]
        spin = [7] * 32
        artifact = {
            "issue_steps_per_sec": rate,
            "issue_steps": steps,
            "issue_cycles": cycles,
            "fold_scattered_per_sec": _fold_rate(scattered),
            "fold_spin_probe_per_sec": _fold_rate(spin),
        }
        rendered = "\n".join(
            "%-26s %14.1f" % (key, value) for key, value in artifact.items()
        )
        save_artifact(results_dir, "hotloop", rendered, data=artifact)
        assert rate > 0
