"""The simulator and its harness run on the standard library alone.

The probe runs in a fresh interpreter whose ``sys.meta_path`` starts with
a finder that refuses ``numpy`` (and any submodule) and records every
attempt, so any import of it anywhere on the exercised paths — package
import, one workload cell, a serial sweep, a lane snapshot, a provenance
record — fails the test, even behind a ``try``/``except``.  This
proves the stdlib-only claim without uninstalling anything from the test
environment.
"""

import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = r'''
import json
import sys


attempts = []


class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            attempts.append(name)
            raise ImportError("numpy import refused: %s" % name)
        return None


sys.meta_path.insert(0, RefuseNumpy())

import repro
from repro.expdb.provenance import provenance_snapshot
from repro.gpu import Device
from repro.gpu.config import small_config
from repro.harness import configs
from repro.harness.parallel import JobSpec, run_jobs
from repro.harness.runner import run_workload
from repro.workloads.registry import make_workload

run = run_workload(
    make_workload("ra", **configs.test_workload_params("ra")),
    "hv-sorting", configs.unit_gpu(), num_locks=64,
)

specs = [
    JobSpec(("ra", variant), "ra", configs.test_workload_params("ra"),
            variant, num_locks=64)
    for variant in ("cgl", "hv-sorting")
]
results = run_jobs(specs, jobs=1)

warps = []


def kernel(tc, pool):
    if tc.lane_id == 0:
        warps.append(tc.warp)
    tc.gwrite(pool + tc.tid, tc.tid)
    yield


device = Device(small_config(warp_size=8, num_sms=1))
device.launch(kernel, 1, 16, args=(device.mem.alloc(16, "pool"),))
snapshot = warps[0].lane_snapshot().as_dict()

print(json.dumps({
    "cell_commits": run.commits,
    "sweep_commits": [result.unwrap().commits for result in results],
    "snapshot": snapshot,
    "packages": provenance_snapshot()["packages"],
    "numpy_attempts": attempts,
    "numpy_loaded": "numpy" in sys.modules,
}))
'''


def test_simulator_and_harness_never_import_numpy():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    # a gated ``try: import numpy`` would swallow the refusal, so the
    # finder also records every attempt
    assert report["numpy_attempts"] == []
    assert report["numpy_loaded"] is False
    assert report["cell_commits"] > 0
    assert len(report["sweep_commits"]) == 2
    assert all(commits > 0 for commits in report["sweep_commits"])
    assert report["packages"] == {}
    snapshot = report["snapshot"]
    assert snapshot["lane_id"] == list(range(8))
    assert snapshot["active"] == [False] * 8
    assert all(type(v) is int for v in snapshot["cycles"] + snapshot["pc"])
