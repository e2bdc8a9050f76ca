"""Spin parking inside the STM runtimes.

The runtimes spin through ``ThreadCtx.spin_until``.  On the plain context
a spinning lane parks and ``Warp.step`` polls it; every context that
intercepts ``gread_l2`` (telemetry timeline, fault or byzantine injector,
sanitizer, multi-GPU link accounting) keeps the generator loop.  Both
paths must produce the same simulation, and the instrumented ones must
never park — their hooks have to see every poll.
"""

import pytest

from repro.faults.byzantine import ByzantinePlan
from repro.gpu.warp import Lane
from repro.harness import configs
from repro.harness.runner import run_workload
from repro.sched.explore import run_under_schedule
from repro.stm.api import EXTENSION_VARIANTS, STM_VARIANTS
from repro.telemetry import Telemetry
from repro.workloads import make_workload

VARIANTS = STM_VARIANTS + EXTENSION_VARIANTS
#: variants whose runtime spins on a metadata word (egpgv waits on its
#: block queues, not a word)
SPINNING = tuple(v for v in VARIANTS if v != "egpgv")

RA = dict(array_size=256, grid=2, block=16, txs_per_thread=2, actions_per_tx=2)


@pytest.fixture
def parks(monkeypatch):
    """Thread ids of every lane that parked, in order."""
    seen = []
    park = Lane.park

    def counting_park(self, *args):
        seen.append(self.tc.tid)
        return park(self, *args)

    monkeypatch.setattr(Lane, "park", counting_park)
    return seen


def _describe(run):
    return {
        "cycles": run.cycles,
        "commits": run.commits,
        "stats": run.stats,
        "kernels": [
            {
                "cycles": k.cycles,
                "sm_cycles": k.sm_cycles,
                "steps": k.steps,
                "mem_txns": k.mem_txns,
                "bandwidth_cycles": k.bandwidth_cycles,
                "threads": k.threads,
                "phases": k.phases.cycles,
                "counters": k.counters.as_dict(),
                "thread_cycles_total": k.thread_cycles_total,
                "thread_cycles_in_tx": k.thread_cycles_in_tx,
            }
            for k in run.kernel_results
        ],
    }


def _run(workload, variant, gpu, telemetry=None):
    return run_workload(
        make_workload(workload, **configs.test_workload_params(workload)),
        variant,
        gpu(),
        num_locks=configs.DEFAULT_NUM_LOCKS,
        stm_overrides=None if variant == "cgl" else configs.egpgv_capacity(),
        telemetry=telemetry,
    )


class TestParkedMatchesGeneratorLoop:
    @pytest.mark.parametrize("gpu", [configs.unit_gpu, configs.bench_gpu],
                             ids=["warp8", "warp32"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_plain_and_timeline_runs_agree(self, variant, gpu, parks):
        parked_lanes = 0
        for workload in ("ra", "ht", "lb"):
            plain = _describe(_run(workload, variant, gpu))
            parked_lanes += len(parks)
            del parks[:]
            looped = _describe(_run(workload, variant, gpu, Telemetry(timeline=True)))
            assert parks == [], "a timeline context parked a lane"
            assert plain == looped, workload
        if variant in SPINNING:
            assert parked_lanes, "the plain runs never parked a lane"


class TestInstrumentedContextsNeverPark:
    def test_plain_context_parks(self, parks):
        out = run_under_schedule("ra", RA, "vbv", policy="rr")
        assert out.failure is None
        assert parks

    def test_armed_fault_injector(self, parks):
        # armed but never firing: the plan still owns the context
        out = run_under_schedule("ra", RA, "vbv", policy="rr",
                                 fault_plan=["stale_read:skip=1000000000"])
        assert out.failure is None
        assert parks == []

    def test_byzantine_injector(self, parks):
        run_under_schedule(
            "ra", RA, "vbv", policy="rr",
            fault_plan=ByzantinePlan(["lie_validation:tids=0+3"]),
            gpu_overrides=dict(max_steps=400_000),
        )
        assert parks == []

    def test_sanitizer(self, parks):
        out = run_under_schedule("ra", RA, "vbv", policy="rr", sanitize=True)
        assert out.failure is None
        assert parks == []

    def test_multigpu_ctx(self, parks):
        out = run_under_schedule("ra", RA, "vbv", policy="rr",
                                 gpu_overrides={"devices": 2, "link_model": "uniform:60"})
        assert out.failure is None
        assert parks == []
