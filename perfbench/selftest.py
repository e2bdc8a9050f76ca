"""Self-test of the benchmark at ``test_workload_params`` geometry.

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is printed with its unit
on every workload, untraced and traced; that the multigpu and harness layer
metrics are non-zero only where the prediction table says; that a cell
which fails to verify is counted in ``fail_frac`` instead of aborting the
run; and that a directory without the simulator source gets no result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("spin", "commit", "contended", "sweep")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT, script=RUN):
    """Run the benchmark; return (exit code, table rows, result, stderr)."""
    proc = subprocess.run(
        [sys.executable, script, "--geometry", "test", "--seconds", "1"]
        + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    rows = {}
    for line in lines[1:-1]:
        name, value, unit, samples = line.split()
        rows[name] = (float(value), unit, int(samples))
    return proc.returncode, rows, result, proc.stderr


class BenchmarkSelfTest(unittest.TestCase):

    def check_printed(self, section, rows, result):
        for metric in SPEC[section]:
            name, unit = metric["name"], metric["unit"]
            self.assertIn(name, rows)
            self.assertEqual(rows[name][1], unit, name)
            self.assertGreaterEqual(rows[name][2], 1, name)
            self.assertEqual(result["metrics"][name]["unit"], unit, name)
        self.assertEqual(set(result["metrics"]),
                         {metric["name"] for metric in SPEC[section]})

    def test_end_to_end_metrics_printed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, rows, result, err = bench("--workload", workload,
                                                "--seed", "3", "--trace", "0")
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_printed("end_to_end", rows, result)
                self.assertEqual(rows["fail_frac"][0], 0.0)
                self.assertEqual(rows["verified_frac"][0], 1.0)
                self.assertGreater(rows["host_slowness"][0], 0.0)

    def test_per_layer_metrics_printed_where_predicted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, rows, result, err = bench("--workload", workload,
                                                "--seed", "3", "--trace", "1")
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.check_printed("per_layer", rows, result)
                values = {name: entry["value"]
                          for name, entry in result["metrics"].items()}
                multigpu = [v for n, v in values.items()
                            if n.startswith(("multigpu.", "calls_per_step.multigpu"))]
                harness = [v for n, v in values.items()
                           if n.startswith(("harness.pool", "harness.journal", "expdb."))]
                self.assertEqual(all(multigpu), workload == "contended", multigpu)
                self.assertEqual(any(multigpu), workload == "contended", multigpu)
                self.assertEqual(all(harness), workload == "sweep", harness)
                self.assertEqual(any(harness), workload == "sweep", harness)
                self.assertGreater(values["trace_overhead"], 0.0)
                self.assertGreater(values["harness.import_s"], 0.0)

    def test_failed_verify_is_counted_not_fatal(self):
        code, rows, result, err = bench(
            "--workload", "commit", "--trace", "0",
            "--fault", "dropped_write:region=ra_array,count=8")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])
        self.assertGreater(rows["fail_frac"][0], 0.0)
        self.assertLess(result["metrics"]["verified_frac"]["value"], 1.0)
        self.assertIn("ra/hv-sorting: AssertionError", err)

    def test_no_result_without_the_simulator(self):
        os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench-tmp"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _rows, result, _err = bench(
                "--workload", "spin", "--trace", "0", cwd=bare,
                script=os.path.join(bare, "perfbench", "run.py"))
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
