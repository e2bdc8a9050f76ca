"""Host-speed calibration for the benchmark's timed passes.

The benchmark's host shares its cores: for minutes at a time the same
Python code runs up to twice as slow, and CPU time slows with it, so no
statistic over raw times of one run removes the drift between runs.  A
timed pass therefore samples the host's speed while it runs, on an
interval timer, with two fixed reference kernels that are part of the
benchmark and never change with the simulator: an integer loop and a
generator/object scheduling loop.  A sample is the geometric mean of the
kernels' thread CPU time divided by their time on the reference host, so
1.0 is the reference host's speed and 1.5 a host on which the same code
takes 1.5 times as long.  A pass's times, less the time spent sampling,
divided by the mean of its samples are host seconds at the reference
host's speed.

The kernels are timed in thread CPU time, so a sample taken while other
processes hold the core (a sweep's workers) measures the core's speed,
not the wait for it.
"""

import math
import signal
import time

#: thread CPU seconds each kernel takes on the reference host, a 2-vCPU
#: Xeon VM (median of 200 runs)
REFERENCE_S = {"arith": 0.00030, "objects": 0.00038}
#: seconds between samples: a set-up probe lasts a fraction of a second,
#: a pass several seconds
PROBE_INTERVAL_S = 0.01
PASS_INTERVAL_S = 0.05


def _arith(n):
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


class _Task:
    __slots__ = ("count", "queue", "state")

    def __init__(self):
        self.count = 0
        self.queue = []
        self.state = {}


def _steps(task, n):
    for i in range(n):
        task.count += 1
        task.state[i & 31] = task.state.get(i & 31, 0) + i
        if i % 3 == 0:
            task.queue.append(i)
        elif task.queue:
            task.queue.pop()
        yield i & 7


def _objects(rounds):
    live = [_steps(_Task(), rounds) for _ in range(16)]
    total = 0
    while live:
        still = []
        for gen in live:
            try:
                total += next(gen)
                still.append(gen)
            except StopIteration:
                pass
        live = still
    return total


KERNELS = (("arith", _arith, 3000), ("objects", _objects, 40))


def sample():
    """The host's slowness now, relative to the reference host."""
    log = 0.0
    for name, kernel, size in KERNELS:
        start = time.thread_time()
        kernel(size)
        log += math.log((time.thread_time() - start) / REFERENCE_S[name])
    return math.exp(log / len(KERNELS))


class Calibrator:
    """Samples the host's slowness every ``interval`` seconds on ``SIGALRM``
    in this process's main thread, and keeps the wall seconds it spent doing
    so (``overhead``), which the timed spans subtract.  The timer is not
    inherited by forked children."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.overhead = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append(sample())
        self.overhead += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def snapshot(self):
        """``[mean slowness, samples, overhead seconds]`` so far, after
        taking a sample now if none was taken yet."""
        if not self.samples:
            self._tick(None, None)
        samples = self.samples
        return [sum(samples) / len(samples), len(samples), self.overhead]
