"""Per-lane thread context: the handle a kernel uses to touch the device.

A kernel is a generator function ``kernel(tc, *args)``.  Every globally
visible operation goes through the :class:`ThreadCtx` methods below and must
be followed by a ``yield`` — the warp-step boundary.  This is the simulator's
contract for lockstep SIMT execution: all active lanes of a warp perform
their step-*k* operations before any lane performs its step-*k+1* operation,
which is exactly the property that produces the intra-warp livelocks and
deadlocks of the paper's section 2.2.

The context also performs two kinds of cycle accounting:

* it appends an operation record to the warp's current step buffer, from
  which the warp computes the throughput cost (divergence groups, coalesced
  memory transactions, serialized atomics) that drives kernel time; and
* it charges a per-lane *latency* cost to the current phase, which feeds the
  paper's Figure 5 single-thread execution-time breakdown.  Costs charged
  inside a transaction are kept in a window so that, on abort, they can be
  reclassified to the "aborted" phase like the paper does.
"""

from repro.common.stats import Counters, PhaseCycles
from repro.gpu.errors import MemoryFault
from repro.gpu.events import OpKind, Phase

# hot-path aliases: one global load instead of a class-attribute lookup per
# recorded operation
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_L2_READ = OpKind.L2_READ


class ThreadCtx:
    """Execution context of one simulated GPU thread (one warp lane)."""

    __slots__ = (
        "tid",
        "lane_id",
        "warp",
        "block",
        "mem",
        "config",
        "phase_cycles",
        "counters",
        "stm",
        "cycles_total",
        "cycles_in_tx",
        "_tx_phase_base",
        "_tx_total_base",
        "_costs",
        "_check_bounds",
        "_phase_map",
        "_words",
        "_words_len",
        "_mem_latency",
        "_l2_read_latency",
        "_atomic_latency",
        "_smem_latency",
        "_fence_latency",
        "_local_meta_cost",
    )

    def __init__(self, tid, lane_id, warp, block, mem, config):
        self.tid = tid
        self.lane_id = lane_id
        self.warp = warp
        self.block = block
        self.mem = mem
        self.config = config
        self.phase_cycles = PhaseCycles()
        self.counters = Counters()
        self.stm = None  # attached by the TM runtime, if any
        self.cycles_total = 0
        self.cycles_in_tx = 0
        self._tx_phase_base = None
        self._tx_total_base = 0
        costs = config.costs
        self._costs = costs
        self._check_bounds = config.check_bounds
        # hot-path aliases: the phase dict, bound memory accessors and
        # per-op latency constants
        self._phase_map = self.phase_cycles.cycles
        # the flat word array itself: GlobalMemory only ever mutates it in
        # place (alloc extends), so reads/writes can index it directly.
        # Allocation is host-side and happens before launch, so the length
        # is constant for the lifetime of this (per-launch) context and the
        # bounds checks can compare against a cached int.
        self._words = mem.words
        self._words_len = len(mem.words)
        self._mem_latency = costs.mem_latency
        self._l2_read_latency = costs.l2_read_latency
        self._atomic_latency = costs.atomic_latency
        self._smem_latency = costs.smem_latency
        self._fence_latency = costs.fence_latency
        self._local_meta_cost = costs.local_meta_cost

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def charge(self, phase, cycles):
        """Attribute ``cycles`` of lane-latency to ``phase``."""
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    def tx_window_begin(self):
        """Start attributing costs to the current transaction attempt.

        The window is a *snapshot*, not a mirror: instead of doubling every
        charge into a per-window dict (two extra dict operations on the
        hottest path in the simulator), remember the per-phase totals and
        the cycle counter here, and let commit/abort recover the attempt's
        costs as batch deltas against the snapshot.  Equivalent because
        every latency charge goes through the phase map, so "charged while
        the window was open" and "phase-map delta since the snapshot" are
        the same set of cycles.
        """
        self._tx_phase_base = dict(self._phase_map)
        self._tx_total_base = self.cycles_total

    def tx_window_commit(self):
        """The attempt committed: keep its costs where they were charged."""
        if self._tx_phase_base is not None:
            self.cycles_in_tx += self.cycles_total - self._tx_total_base
            self._tx_phase_base = None

    def tx_window_abort(self):
        """The attempt aborted: reclassify its costs to the aborted phase."""
        base = self._tx_phase_base
        if base is None:
            return
        self._tx_phase_base = None
        self.cycles_in_tx += self.cycles_total - self._tx_total_base
        phase_map = self._phase_map
        total = 0
        # New phases can only appear during the window, so iterating the
        # current map covers every phase with a non-zero delta; values are
        # rolled back in place (no key insertion mid-iteration).
        for phase, cycles in phase_map.items():
            delta = cycles - base.get(phase, 0)
            if delta:
                phase_map[phase] = cycles - delta
                total += delta
        if total:
            if Phase.ABORTED in phase_map:
                phase_map[Phase.ABORTED] += total
            else:
                phase_map[Phase.ABORTED] = total

    def _record(self, kind, addr, phase):
        warp = self.warp
        warp.step_nops += 1
        if kind is warp.step_kind and phase is warp.step_phase:
            # same issue group as the previous record (the dominant case):
            # append to the cached bucket, no dict lookup, no tuple
            warp.step_cur.append(addr)
            return
        groups = warp.step_groups
        tag = (kind, phase)
        bucket = groups.get(tag)
        if bucket is None:
            groups[tag] = bucket = [addr]
        else:
            bucket.append(addr)
        warp.step_kind = kind
        warp.step_phase = phase
        warp.step_cur = bucket

    def _account(self, kind, addr, phase, cycles):
        """Record one operation and charge its latency in a single call.

        This is :meth:`_record` + :meth:`charge` fused — every
        globally-visible operation funnels through here, so one call frame
        instead of two is a measurable win.
        """
        warp = self.warp
        warp.step_nops += 1
        if kind is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (kind, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = kind
            warp.step_phase = phase
            warp.step_cur = bucket
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    # ------------------------------------------------------------------
    # Globally-visible operations (each must be followed by a yield)
    # ------------------------------------------------------------------
    def gread(self, addr, phase=Phase.NATIVE):
        """Global memory read."""
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _READ is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (_READ, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _READ
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._mem_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        return words[addr]

    def gread_l2(self, addr, phase=Phase.NATIVE):
        """Global memory read served from the L2 cache.

        Used for the STM's global metadata (version locks, sequence locks,
        spin polls): the paper keeps global metadata L2-cached (section
        4.1), so these reads are coherent device-wide but cost an L2 hit
        rather than a DRAM transaction.
        """
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _L2_READ is warp.step_kind and phase is warp.step_phase:
            # joining an existing L2 group: the address is not recorded —
            # the L2 cost fold is flat per group (no coalescing over the
            # address column), so only the group's existence matters
            pass
        else:
            groups = warp.step_groups
            tag = (_L2_READ, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _L2_READ
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._l2_read_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        return words[addr]

    def spin_until(self, addr, phase, mask):
        """Spin on an L2-cached metadata word while ``word & mask``.

        The one spin primitive of the STM runtimes (lock words, the CGL
        global lock, VBV's sequence lock): ``word, polls = yield from
        tc.spin_until(addr, phase, mask)`` returns the first word with no
        ``mask`` bit set and how many polls failed before it, with the same
        operations, charges and step boundaries as :meth:`spin_loop`.

        On this plain context a lane whose first poll fails *parks*: from
        the next step on, :meth:`~repro.gpu.warp.Warp.step` re-reads the
        word itself (:meth:`~repro.gpu.warp.Lane.poll`) instead of resuming
        the lane's generator chain, and settles the polls' latency before
        the generator resumes with the word that passed.  Contexts that
        override :meth:`gread_l2` spin in :meth:`spin_loop` instead, so
        every poll reaches their hook.
        """
        word = self.gread_l2(addr, phase)
        yield
        if not word & mask:
            return word, 0
        lane = self.warp.lanes[self.lane_id]
        lane.park(addr, phase, mask, self.gread_l2(addr, phase))
        yield
        return lane.spin_word, lane.spin_polls

    def spin_loop(self, addr, phase, mask):
        """The generator form of :meth:`spin_until`: one resumption per poll."""
        polls = 0
        while True:
            word = self.gread_l2(addr, phase)
            yield
            if not word & mask:
                return word, polls
            polls += 1

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # a context that intercepts gread_l2 (telemetry timeline, fault
        # injection, sanitizer, multi-GPU link accounting) must see every
        # poll, so it never parks
        if "gread_l2" in cls.__dict__ and "spin_until" not in cls.__dict__:
            cls.spin_until = ThreadCtx.spin_loop

    def gwrite(self, addr, value, phase=Phase.NATIVE):
        """Global memory write."""
        words = self._words
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        warp = self.warp
        warp.step_nops += 1
        if _WRITE is warp.step_kind and phase is warp.step_phase:
            warp.step_cur.append(addr)
        else:
            groups = warp.step_groups
            tag = (_WRITE, phase)
            bucket = groups.get(tag)
            if bucket is None:
                groups[tag] = bucket = [addr]
            else:
                bucket.append(addr)
            warp.step_kind = _WRITE
            warp.step_phase = phase
            warp.step_cur = bucket
        cycles = self._mem_latency
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        words[addr] = value

    def atomic_cas(self, addr, expected, new, phase=Phase.NATIVE):
        """Atomic compare-and-swap; returns the old value."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_cas(addr, expected, new)

    def atomic_or(self, addr, value, phase=Phase.NATIVE):
        """Atomic bitwise-or; returns the old value (Algorithm 3 line 39)."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_or(addr, value)

    def atomic_add(self, addr, value, phase=Phase.NATIVE):
        """Atomic add; returns the old value."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_add(addr, value)

    def atomic_inc(self, addr, phase=Phase.NATIVE):
        """Atomic increment; returns the old value (Algorithm 3 line 41)."""
        return self.atomic_add(addr, 1, phase)

    def atomic_sub(self, addr, value, phase=Phase.NATIVE):
        """Atomic subtract; returns the old value."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_sub(addr, value)

    def atomic_exch(self, addr, value, phase=Phase.NATIVE):
        """Atomic exchange; returns the old value."""
        if self._check_bounds and not 0 <= addr < self._words_len:
            self.mem.check(addr)  # raises with region diagnostics
        self._account(OpKind.ATOMIC, addr, phase, self._atomic_latency)
        return self.mem.atomic_exch(addr, value)

    def smem_read(self, offset, phase=Phase.NATIVE):
        """Read a word of the block's on-chip shared memory.

        Shared memory is a per-block scratchpad (CUDA ``__shared__``):
        near-register latency, no DRAM traffic, but same-bank accesses
        within one warp instruction serialize (bank conflicts).
        """
        smem = self.block.smem
        if not 0 <= offset < len(smem):
            raise MemoryFault(
                "shared-memory offset %d out of bounds (block has %d words; "
                "pass smem_words= to launch)" % (offset, len(smem))
            )
        self._account(OpKind.SMEM, offset, phase, self._smem_latency)
        return smem[offset]

    def smem_write(self, offset, value, phase=Phase.NATIVE):
        """Write a word of the block's on-chip shared memory."""
        smem = self.block.smem
        if not 0 <= offset < len(smem):
            raise MemoryFault(
                "shared-memory offset %d out of bounds (block has %d words; "
                "pass smem_words= to launch)" % (offset, len(smem))
            )
        self._account(OpKind.SMEM, offset, phase, self._smem_latency)
        smem[offset] = value

    def fence(self, phase=Phase.NATIVE):
        """CUDA ``threadfence``: ordering is implicit in the simulator's
        sequentially-consistent interleaving, but the cost is still charged so
        the overhead breakdown accounts for it."""
        self._account(OpKind.FENCE, -1, phase, self._fence_latency)

    def extra_cost(self, cycles, phase=Phase.BUFFERING):
        """Charge ``cycles`` that *sum* across lanes in the warp-step cost.

        Unlike :meth:`work` (parallel ALU, max across lanes), this models
        serialized per-lane overhead such as scattered (uncoalesced) metadata
        traffic: every lane's contribution adds to the step cost.
        """
        self.charge(phase, cycles)
        self.warp.step_extra += cycles

    def scattered_meta_ops(self, count=1, phase=Phase.BUFFERING):
        """``count`` uncoalesced metadata accesses: each one is a full
        memory transaction (latency, SM occupancy, and DRAM bandwidth).

        This is what transaction bookkeeping costs *without* the paper's
        coalesced read-/write-set organization — the ablation's other arm.
        """
        costs = self._costs
        self.charge(phase, costs.mem_latency * count)
        self.warp.step_extra += costs.mem_txn_cost * count
        self.warp.step_mem_txns += count

    def local_op(self, phase=Phase.BUFFERING, count=1):
        """Charge ``count`` local-metadata operations (read-/write-set
        bookkeeping).  Local metadata is cached (paper section 4.1), so this
        does not create a memory transaction record, only cheap cycles."""
        # inlined charge(): local_op is on the STM bookkeeping hot path
        cycles = self._local_meta_cost * count
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles

    def work(self, cycles, phase=Phase.NATIVE):
        """Model ``cycles`` of native (non-memory) computation.

        Lanes of one warp compute in parallel, so the warp-step cost is the
        maximum across lanes, while each lane's own breakdown is charged the
        full amount.
        """
        # inlined charge(): work() is on the compute-kernel hot path
        phase_map = self._phase_map
        if phase in phase_map:
            phase_map[phase] += cycles
        else:
            phase_map[phase] = cycles
        self.cycles_total += cycles
        warp = self.warp
        if cycles > warp.step_work:
            warp.step_work = cycles

    # ------------------------------------------------------------------
    # Warp/block coordination
    # ------------------------------------------------------------------
    def reconverge(self, label):
        """Wait until every unfinished lane of this warp reaches ``label``.

        Models the SIMT reconvergence point after divergent control flow.  A
        lane that never reaches the point (e.g. a spinning loser of the
        Algorithm 1 scheme #1 spinlock) deadlocks the warp, which the
        watchdog turns into a ProgressError.
        """
        warp = self.warp
        generation = warp.reconv_gen
        warp.waiting[self.lane_id] = label
        while warp.reconv_gen == generation:
            yield

    def syncthreads(self):
        """Block-wide barrier (CUDA ``__syncthreads``)."""
        block = self.block
        generation = block.barrier_gen
        block.barrier_waiting += 1
        while block.barrier_gen == generation:
            yield
