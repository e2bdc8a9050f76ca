"""Host-time attribution for the benchmark's traced passes.

Two instruments, each used in its own pass so neither distorts the other:

* :class:`SpanTracer` wraps the public entry points of each simulator and
  harness layer (``Device.launch``, ``Warp.step``, the ``ThreadCtx`` memory
  ops, the multigpu ctx ops, journal and expdb calls, ...) in timing spans
  kept in memory.  A layer's self time is its spans' duration minus the
  time covered by the spans nested inside them, accumulated online with a
  stack of child-time totals.
* :func:`profile_layers` folds ``cProfile`` self time and call counts into
  the same layer names by module.  The STM runtime's ``tx_*`` operations
  and the workload kernel bodies are generators that ``Warp.step``
  resumes, so a call wrapper would time only their creation; the profile
  is how their share of ``Warp.step``'s self time is measured.

:class:`LaunchClock` is the light instrument of the untraced passes: it
only sums the host time spent inside kernel launches and notes when the
first one began.
"""

import json
import time

#: layers measured by spans
SPAN_LAYERS = (
    "gpu.scheduler",
    "gpu.warp",
    "gpu.thread",
    "multigpu.ctx",
    "stm.runtime",
    "workloads",
    "harness.journal.record",
    "harness.journal.resume",
    "expdb.recorder",
)

#: span layers whose [start, end] intervals are kept: the harness calls a
#: sweep's main process makes while its workers may be running jobs
INTERVAL_LAYERS = SPAN_LAYERS[-3:]

#: what the profile groups self time and calls into: the span layers, with
#: ``gpu.thread.ops`` (the spanned memory ops) split from the rest of
#: ``gpu/thread.py`` and ``workloads.setup`` (spanned set-up and verify)
#: from the kernel bodies, so a profile share can be matched to the part
#: of ``Warp.step``'s self time no span covers
PROFILE_LAYERS = (
    "gpu.scheduler",
    "gpu.warp",
    "gpu.thread.ops",
    "gpu.thread",
    "multigpu.ctx",
    "stm.runtime",
    "workloads.setup",
    "workloads",
    "harness",
    "other",
)

#: the ThreadCtx memory operations (globally-visible ops and shared memory)
MEMORY_OPS = (
    "gread", "gread_l2", "gwrite", "atomic_cas", "atomic_or", "atomic_add",
    "atomic_inc", "atomic_sub", "atomic_exch", "smem_read", "smem_write",
)

_MODULE_LAYERS = (
    ("repro/gpu/scheduler.py", "gpu.scheduler"),
    ("repro/gpu/shards.py", "gpu.scheduler"),
    ("repro/gpu/kernel.py", "gpu.scheduler"),
    ("repro/sched/", "gpu.scheduler"),
    ("repro/multigpu/device.py", "gpu.scheduler"),
    ("repro/multigpu/sequencer.py", "gpu.scheduler"),
    ("repro/multigpu/topology.py", "gpu.scheduler"),
    ("repro/gpu/warp.py", "gpu.warp"),
    ("repro/gpu/", "gpu.thread"),
    ("repro/multigpu/ctx.py", "multigpu.ctx"),
    ("repro/stm/", "stm.runtime"),
    ("repro/workloads/", "workloads"),
    ("repro/harness/", "harness"),
    ("repro/expdb/", "harness"),
    ("repro/telemetry/", "harness"),
)


def function_layer(filename, name):
    """The profile layer of a function, or ``None`` for a helper whose time
    belongs to its caller (builtins, ``repro.common``, the stdlib)."""
    path = filename.replace("\\", "/")
    for marker, layer in _MODULE_LAYERS:
        if marker in path:
            if layer == "gpu.thread" and path.endswith("repro/gpu/thread.py") \
                    and name in MEMORY_OPS:
                return "gpu.thread.ops"
            if layer == "workloads" and name in ("setup", "verify"):
                return "workloads.setup"
            return layer
    return None


def _subclasses_defining(base, name):
    """``base`` and its (transitive) subclasses whose own body defines
    ``name`` — the classes a class-level wrapper must patch."""
    found, todo, seen = [], [base], set()
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        if name in cls.__dict__:
            found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def span_points():
    """``(layer, class, method)`` for every public entry point spanned."""
    from repro.expdb.recorder import SweepRecorder
    from repro.gpu.scheduler import Device
    from repro.gpu.thread import ThreadCtx
    from repro.gpu.warp import Warp
    from repro.harness.journal import SweepJournal
    from repro.multigpu.ctx import make_multigpu_ctx
    from repro.multigpu.device import MultiDevice
    from repro.stm.runtime.base import TmRuntime
    from repro.workloads import Workload, workload_names

    workload_names()  # the registry import defines every workload class
    points = [
        ("gpu.scheduler", Device, "launch"),
        ("gpu.scheduler", MultiDevice, "launch"),
        ("gpu.warp", Warp, "step"),
    ]
    points += [("gpu.thread", ThreadCtx, op) for op in MEMORY_OPS]
    mg_ctx = make_multigpu_ctx(ThreadCtx)
    points += [("multigpu.ctx", mg_ctx, op) for op in MEMORY_OPS
               if op in mg_ctx.__dict__]
    points += [("stm.runtime", cls, "attach")
               for cls in _subclasses_defining(TmRuntime, "attach")]
    for name in ("setup", "verify"):
        points += [("workloads", cls, name)
                   for cls in _subclasses_defining(Workload, name)]
    points += [
        ("harness.journal.record", SweepJournal, "record"),
        ("harness.journal.resume", SweepJournal, "load"),
        ("expdb.recorder", SweepRecorder, "__call__"),
    ]
    return points


class SpanTracer:
    """In-memory span accounting: per-layer self seconds and call counts."""

    def __init__(self):
        self.self_s = [0.0] * len(SPAN_LAYERS)
        self.calls = [0] * len(SPAN_LAYERS)
        # (start, end) of every INTERVAL_LAYERS span, on the monotonic clock
        self.intervals = []
        # child-time accumulator of every open span; [0] is the root
        self._stack = [0.0]

    def reset(self):
        for slot in range(len(SPAN_LAYERS)):
            self.self_s[slot] = 0.0
            self.calls[slot] = 0
        del self.intervals[:]
        del self._stack[1:]
        self._stack[0] = 0.0

    def wrap(self, fn, layer):
        slot = SPAN_LAYERS.index(layer)
        # system-wide, so spans compare with other processes' intervals
        clock = time.monotonic
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[slot] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[slot] += 1

        if layer in INTERVAL_LAYERS:
            plain = span
            intervals = self.intervals

            def span(*args, **kwargs):
                start = clock()
                try:
                    return plain(*args, **kwargs)
                finally:
                    intervals.append((start, clock()))

        return span

    def install(self):
        """Patch every span point for the rest of the process's life."""
        for layer, cls, name in span_points():
            setattr(cls, name, self.wrap(cls.__dict__[name], layer))

    def as_dict(self):
        return {layer: [self.self_s[i], self.calls[i]]
                for i, layer in enumerate(SPAN_LAYERS)}


def profile_layers(profile):
    """Fold a ``cProfile.Profile``'s stats into ``{layer: [self_s, calls]}``.

    Functions of the ``repro`` layers count toward their module's layer.
    Helpers (builtins, ``repro.common``, the stdlib) are charged to the
    layer of each caller, in proportion to what that caller spent in them.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    totals = {layer: [0.0, 0] for layer in PROFILE_LAYERS}
    for (filename, _line, name), (_cc, calls, tottime, _ct, callers) in stats.items():
        layer = function_layer(filename, name)
        if layer is not None:
            totals[layer][0] += tottime
            totals[layer][1] += calls
            continue
        for (caller_file, _l, caller), (_ccc, ncalls, caller_tt, _cct) in callers.items():
            caller_layer = function_layer(caller_file, caller) or "other"
            totals[caller_layer][0] += caller_tt
            totals[caller_layer][1] += ncalls
        if not callers:
            totals["other"][0] += tottime
            totals["other"][1] += calls
    return totals


def spool_append(path, record):
    """Append one JSON line; a single small ``O_APPEND`` write, so the
    lines of concurrent workers never interleave."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record) + "\n")


class LaunchClock:
    """Host seconds spent inside kernel launches, and the first launch's
    start on the system-wide monotonic clock.

    With ``spool`` set to a path, each launch also appends its time there
    as a JSON line, which is how forked sweep workers report theirs.
    ``on_first`` is called at the first launch (the set-up probe stops
    there).  With a ``calibrator`` (:mod:`calibrate`), the time it spent
    sampling inside a launch is left out, and ``first_cal`` holds its
    snapshot at the first launch.
    """

    def __init__(self, calibrator=None):
        self.seconds = 0.0
        self.first = None
        self.first_cal = None
        self.spool = None
        self.on_first = None
        self.calibrator = calibrator
        self._depth = 0

    def _overhead(self):
        return self.calibrator.overhead if self.calibrator is not None else 0.0

    def mark_first(self):
        """Note the first launch (or, on a sweep, the first dispatch)."""
        self.first = time.monotonic()
        if self.calibrator is not None:
            self.first_cal = self.calibrator.snapshot()

    def wrap(self, fn):
        clock = time.perf_counter

        def launch(*args, **kwargs):
            if self.first is None:
                self.mark_first()
                if self.on_first is not None:
                    self.on_first()
            self._depth += 1
            start = clock()
            sampling = self._overhead()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if not self._depth:
                    elapsed = clock() - start - (self._overhead() - sampling)
                    self.seconds += elapsed
                    if self.spool is not None:
                        spool_append(self.spool, {"launch": elapsed})

        return launch

    def install(self, multi=False):
        """Wrap ``Device.launch``, and ``MultiDevice.launch`` when
        ``multi`` (left unimported otherwise, so set-up time stays that of
        a single-device run)."""
        from repro.gpu.scheduler import Device

        classes = [Device]
        if multi:
            from repro.multigpu.device import MultiDevice

            classes.append(MultiDevice)
        for cls in classes:
            cls.launch = self.wrap(cls.__dict__["launch"])
