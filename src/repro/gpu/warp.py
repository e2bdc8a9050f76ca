"""Lockstep warp execution and the per-step cost model.

A :class:`Warp` owns up to ``warp_size`` lanes, each a Python generator
created from the kernel function.  One call to :meth:`Warp.step` resumes
every active lane exactly once — the simulator's definition of a SIMT warp
step.  Because each lane performs at most one globally-visible operation per
resumption (enforced under ``strict_lockstep``), all step-*k* operations of a
warp happen before any step-*k+1* operation, giving faithful lockstep
semantics: two lanes acquiring locks in reverse orders really do fail
simultaneously, which is the livelock the paper's encounter-time lock-sorting
eliminates.

After resuming the lanes, the warp folds the step's operation records into a
throughput cost (DESIGN.md section 4):

* records are grouped by (operation kind, phase) — distinct groups model
  divergent instructions and each costs one instruction issue;
* read/write groups additionally cost one memory transaction per touched
  ``line_words``-sized line (the coalescing model);
* atomic groups serialize on same-address contention;
* fences and native compute have flat costs.
"""

from repro.gpu.errors import GpuError
from repro.gpu.events import OpKind
from repro.gpu.soa import LaneArrays, distinct_lines, max_bank_conflicts, max_multiplicity
from repro.gpu.thread import ThreadCtx

# cost-fold loop constants (module-level loads are cheaper than attributes)
_READ = OpKind.READ
_WRITE = OpKind.WRITE
_ATOMIC = OpKind.ATOMIC
_FENCE = OpKind.FENCE
_L2_READ = OpKind.L2_READ
_SMEM = OpKind.SMEM

#: The one sentence every lockstep-protocol violation cites, so kernel
#: authors meet identical wording whether they passed a non-generator
#: kernel or performed several globally-visible operations in one
#: resumption (tests/gpu/test_warp_lockstep.py asserts all raise sites
#: share it).
LOCKSTEP_PROTOCOL_HINT = (
    "the lockstep protocol requires exactly one globally-visible operation "
    "per resumption, with a yield at every warp-step boundary"
)


class Lane:
    """One SIMT lane: a kernel generator plus its thread context.

    A lane spinning in :meth:`~repro.gpu.thread.ThreadCtx.spin_until` is
    *parked*: ``spin_addr`` is set and the warp calls :meth:`poll` in place
    of resuming the generator, until the word read in the previous step
    has no ``spin_mask`` bit set.
    """

    __slots__ = (
        "gen",
        "tc",
        "done",
        "warp",
        "slot",
        "spin_addr",
        "spin_mask",
        "spin_phase",
        "spin_word",
        "spin_polls",
        "spin_paid",
        "words",
    )

    def __init__(self, gen, tc, warp):
        self.gen = gen
        self.tc = tc
        self.done = False
        self.warp = warp
        # index of this lane's entry in the warp's active list
        self.slot = len(warp.active)
        self.words = tc._words
        self.spin_addr = None

    def park(self, addr, phase, mask, word):
        """Hand the spin loop to the warp after the lane's first failed
        poll; ``word`` is this step's re-read, made and charged by the
        generator itself."""
        self.spin_addr = addr
        self.spin_mask = mask
        self.spin_phase = phase
        self.spin_word = word
        self.spin_polls = 1
        self.spin_paid = 1
        warp = self.warp
        warp.parked += 1
        warp.active[self.slot] = (self.poll, self)

    def poll(self):
        """One warp-step of a parked lane, called by :meth:`Warp.step` in
        lane order in place of the generator's ``__next__``.

        Tests the word read in the previous step.  While it is still held,
        re-reads it and records the L2 read in the step's issue group
        exactly as ``gread_l2`` does; the latency charge is deferred.
        Once it passes, settles the deferred charges and resumes the
        generator, which returns from ``spin_until`` in this same step.
        """
        if self.spin_word & self.spin_mask:
            self.spin_polls += 1
            addr = self.spin_addr
            phase = self.spin_phase
            warp = self.warp
            warp.step_nops += 1
            if _L2_READ is not warp.step_kind or phase is not warp.step_phase:
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
            self.spin_word = self.words[addr]
            return
        if self.spin_polls != self.spin_paid:
            self.settle()
        self.spin_addr = None
        warp = self.warp
        warp.parked -= 1
        resume = self.gen.__next__
        warp.active[self.slot] = (resume, self)
        resume()

    def settle(self):
        """Charge the polls made since the last settlement to the lane's
        phase map, as if each had gone through ``gread_l2``."""
        owed = self.spin_polls - self.spin_paid
        if owed:
            self.spin_paid = self.spin_polls
            tc = self.tc
            cycles = owed * tc._l2_read_latency
            phase_map = tc._phase_map
            phase = self.spin_phase
            phase_map[phase] = phase_map.get(phase, 0) + cycles
            tc.cycles_total += cycles


class Warp:
    """A lockstep group of lanes.

    Per-step operation records are grouped *incrementally*: ``step_groups``
    maps each ``(kind, phase)`` issue group to its address list, and
    ``step_kind``/``step_phase``/``step_cur`` cache the most recent group so
    that runs of identically-tagged records — the dominant pattern, since
    lanes record in lane order and lockstep lanes mostly issue the same
    instruction — append with two identity compares and no dict lookup or
    tuple allocation.  The cost fold then iterates the already-built groups
    instead of re-grouping a record list.
    """

    __slots__ = (
        "warp_id",
        "block",
        "config",
        "lanes",
        "active",
        "live",
        "step_nops",
        "step_kind",
        "step_phase",
        "step_cur",
        "step_groups",
        "step_work",
        "step_extra",
        "step_mem_txns",
        "waiting",
        "reconv_gen",
        "shared",
        "steps",
        "parked",
        "spin_rep",
        "spin_bulk",
        # cost-model constants hoisted at construction time
        "_strict",
        "_line_words",
        "_smem_banks",
        "_issue_cost",
        "_mem_txn_cost",
        "_mem_pipeline_cost",
        "_atomic_cost",
        "_l2_read_cost",
        "_smem_cost",
        "_fence_cost",
        "_spin_step_cost",
    )

    def __init__(self, warp_id, block, config):
        self.warp_id = warp_id
        self.block = block
        self.config = config
        self.lanes = []
        self.active = []
        self.live = 0
        self.step_nops = 0
        self.step_kind = None
        self.step_phase = None
        self.step_cur = None
        self.step_groups = {}
        self.step_work = 0
        self.step_extra = 0
        self.step_mem_txns = 0
        self.waiting = {}
        self.reconv_gen = 0
        self.shared = {}
        self.steps = 0
        # spin parking: how many lanes are parked, and the whole-warp poll
        # state (a representative lane and the polls taken since the warp
        # started polling as one)
        self.parked = 0
        self.spin_rep = None
        self.spin_bulk = 0
        costs = config.costs
        self._strict = config.strict_lockstep
        self._line_words = config.line_words
        self._smem_banks = config.smem_banks
        self._issue_cost = costs.issue_cost
        self._mem_txn_cost = costs.mem_txn_cost
        self._mem_pipeline_cost = costs.mem_pipeline_cost
        self._atomic_cost = costs.atomic_cost
        self._l2_read_cost = costs.l2_read_cost
        self._smem_cost = costs.smem_cost
        self._fence_cost = costs.fence_cost
        # the cost of a step whose only issue group is one L2 read
        self._spin_step_cost = costs.issue_cost + costs.l2_read_cost

    def add_lane(self, gen, tc):
        """Register a lane; called by the device during launch."""
        lane = Lane(gen, tc, self)
        self.lanes.append(lane)
        # the stepper iterates (resume, lane) pairs, where resume is the
        # generator's bound __next__ (a parked lane's poll while it spins):
        # unpacking plus a direct call is cheaper than per-lane attribute
        # loads and the ``next`` builtin dispatch, and retired lanes are
        # dropped from this list so long-lived divergent warps don't
        # re-scan them
        self.active.append((gen.__next__, lane))
        self.live += 1

    @property
    def lane_ctxs(self):
        """Thread contexts of all lanes (used by warp-level runtimes)."""
        return [lane.tc for lane in self.lanes]

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self):
        """Resume every active lane once.

        Returns ``(cost, finished, mem_txns)``: the step's throughput cost,
        how many lanes retired, and the memory transactions it generated
        (returned directly so the scheduler's issue loop does not need an
        attribute load per step).

        Parked lanes are polled in lane order instead of resumed.  When
        every live lane is parked on the same word with the same mask and
        phase, the step is a whole-warp poll: while the value they all
        read last step is still held, every lane fails its test and
        re-reads one word — one L2 issue group, no generator touched, no
        lane charged until the warp disperses.
        """
        rep = self.spin_rep
        if rep is not None:
            if rep.spin_word & rep.spin_mask:
                self.spin_bulk += 1
                rep.spin_word = rep.words[rep.spin_addr]
                self.steps += 1
                return self._spin_step_cost, 0, 0
            self._spin_disperse()
        self.step_nops = 0
        # a None kind can never match a recorded kind, so resetting it alone
        # invalidates the cached (kind, phase, bucket) triple
        self.step_kind = None
        self.step_groups.clear()
        self.step_work = 0
        self.step_extra = 0
        self.step_mem_txns = 0
        compute_lanes = 0
        strict = self._strict
        finished = 0
        prev_nops = 0
        for resume, lane in self.active:
            # ops-per-resumption is derived from the warp-level record count
            # (step_nops) rather than a per-lane counter: every record-path
            # op bumps step_nops exactly once, so the delta across next() is
            # the lane's op count without a per-lane store + per-op increment
            try:
                resume()
            except StopIteration:
                tc = lane.tc
                lane.done = True
                self.live -= 1
                finished += 1
                self.waiting.pop(tc.lane_id, None)
                nops = self.step_nops
                ops = nops - prev_nops
                prev_nops = nops
                if strict and ops > 1:
                    raise GpuError(
                        "lane %d of warp %d performed %d globally-visible "
                        "operations in one step; %s"
                        % (tc.lane_id, self.warp_id, ops, LOCKSTEP_PROTOCOL_HINT)
                    )
                continue
            nops = self.step_nops
            ops = nops - prev_nops
            prev_nops = nops
            if ops == 0:
                # The final StopIteration resumption is a simulator artifact,
                # not an instruction; only live op-less resumptions count as
                # compute issues.
                compute_lanes += 1
            elif strict and ops > 1:
                raise GpuError(
                    "lane %d of warp %d performed %d globally-visible "
                    "operations in one step; %s"
                    % (lane.tc.lane_id, self.warp_id, ops, LOCKSTEP_PROTOCOL_HINT)
                )
        if finished:
            active = [entry for entry in self.active if not entry[1].done]
            for slot, (_resume, lane) in enumerate(active):
                lane.slot = slot
            self.active = active
        if self.parked == self.live and self.parked:
            self._spin_try_uniform()
        if self.waiting:
            self._maybe_reconverge()
        self.steps += 1
        # Cost fold, inlined from _step_cost (one call per simulated step
        # adds up): lockstep lanes overwhelmingly issue the same
        # instruction, so the records usually form exactly one issue group
        # whose kind and address array are still cached on the warp — that
        # case skips the group-table walk, and an L2 metadata probe (the
        # STM runtimes' spin polls, the single most common instruction in
        # every contended run) resolves to a flat cost without touching
        # the address column at all.
        cost = self.step_work + self.step_extra
        if not self.step_nops:
            if compute_lanes and not cost:
                # A pure bookkeeping step still occupies an issue slot.
                cost = self._issue_cost
            return cost, finished, self.step_mem_txns
        groups = self.step_groups
        if len(groups) == 1:
            kind = self.step_kind
            if kind is _L2_READ:
                return (
                    cost + self._issue_cost + self._l2_read_cost,
                    finished,
                    self.step_mem_txns,
                )
            return (
                cost + self._issue_cost + self._group_cost(kind, self.step_cur),
                finished,
                self.step_mem_txns,
            )
        issue_cost = self._issue_cost
        group_cost = self._group_cost
        for tag, addrs in groups.items():
            cost += issue_cost + group_cost(tag[0], addrs)
        return cost, finished, self.step_mem_txns

    def _spin_try_uniform(self):
        """Enter whole-warp polling if every parked lane spins on the same
        ``(addr, mask, phase)``.  They then also read the same word: each
        read it this step, and no lane of a fully parked warp wrote."""
        active = self.active
        first = active[0][1]
        addr = first.spin_addr
        mask = first.spin_mask
        phase = first.spin_phase
        for _resume, lane in active:
            if (lane.spin_addr != addr or lane.spin_mask != mask
                    or lane.spin_phase is not phase):
                return
        self.spin_rep = first
        self.spin_bulk = 0

    def _spin_disperse(self):
        """Leave whole-warp polling: credit every lane with the polls taken
        as one and the last word read."""
        rep = self.spin_rep
        bulk = self.spin_bulk
        word = rep.spin_word
        self.spin_rep = None
        for _resume, lane in self.active:
            lane.spin_polls += bulk
            lane.spin_word = word

    def _maybe_reconverge(self):
        """Release a reconvergence point once all live lanes reached it."""
        waiting = self.waiting
        if len(waiting) < self.live:
            return
        labels = set(waiting.values())
        if len(labels) == 1:
            self.reconv_gen += 1
            waiting.clear()

    def _group_cost(self, kind, addrs):
        """Cycles charged by one issue group; accumulates ``step_mem_txns``.

        The address array is the struct-of-arrays half of the fold: a flat
        pending-address column per group, reduced in batch (all-same spin
        probes short-circuit on two compares; wider arrays take the
        set/dict reductions in :mod:`repro.gpu.soa`).
        """
        if kind is _L2_READ:
            # L2 hit: flat cost per instruction, no DRAM transaction
            return self._l2_read_cost
        if kind is _READ or kind is _WRITE:
            n = len(addrs)
            if n == 1:
                # single access: one line, full latency
                self.step_mem_txns += 1
                return self._mem_txn_cost
            first = addrs[0]
            if first == addrs[-1] and addrs.count(first) == n:
                lines = 1
            else:
                lines = distinct_lines(addrs, self._line_words)
            self.step_mem_txns += lines
            # first line pays full latency; the rest pipeline behind it
            return self._mem_txn_cost + self._mem_pipeline_cost * (lines - 1)
        if kind is _ATOMIC:
            n = len(addrs)
            if n == 1:
                self.step_mem_txns += 1
                return self._atomic_cost
            first = addrs[0]
            if first == addrs[-1] and addrs.count(first) == n:
                # whole-warp pileup on one word: fully serialized
                self.step_mem_txns += 1
                return self._atomic_cost * n
            deepest, distinct = max_multiplicity(addrs)
            self.step_mem_txns += distinct
            if deepest == 1:
                # all-distinct addresses: no same-address serialization
                return self._atomic_cost
            return self._atomic_cost * deepest
        if kind is _SMEM:
            # bank conflicts: same-bank accesses in one instruction
            # serialize; conflict-free warps pay one shared-memory cycle
            if len(addrs) == 1:
                return self._smem_cost
            return self._smem_cost * max_bank_conflicts(addrs, self._smem_banks)
        if kind is _FENCE:
            return self._fence_cost
        return 0

    def lane_snapshot(self):
        """Struct-of-arrays view of this warp's per-lane state
        (:class:`repro.gpu.soa.LaneArrays`), materialized on demand.
        Parked lanes' deferred poll charges are settled first, so the
        per-lane cycle columns are exact between steps."""
        if self.spin_rep is not None:
            self._spin_disperse()
        for _resume, lane in self.active:
            if lane.spin_addr is not None:
                lane.settle()
        return LaneArrays(self)


class BlockState:
    """Shared state of one thread block: its warps, barrier, scratch dict."""

    __slots__ = (
        "index",
        "warps",
        "block_threads",
        "live_lanes",
        "barrier_gen",
        "barrier_waiting",
        "shared",
        "smem",
    )

    def __init__(self, index, block_threads=0, smem_words=0):
        self.index = index
        self.warps = []
        self.block_threads = block_threads
        self.live_lanes = 0
        self.barrier_gen = 0
        self.barrier_waiting = 0
        self.shared = {}
        # on-chip shared memory (CUDA __shared__), sized at launch
        self.smem = [0] * smem_words

    def maybe_release_barrier(self):
        """Open the block barrier once every live lane arrived."""
        if self.live_lanes and self.barrier_waiting >= self.live_lanes:
            self.barrier_gen += 1
            self.barrier_waiting = 0

    def lane_finished(self):
        """Bookkeeping when a lane of this block retires."""
        self.live_lanes -= 1
        self.maybe_release_barrier()

    def lanes_finished(self, count):
        """Batch form of :meth:`lane_finished` for ``count`` retirements.

        One barrier check after the batch is equivalent to checking after
        every decrement: a waiting lane is live and unfinishable, so
        ``barrier_waiting <= live_lanes`` holds before and after the batch,
        and any intermediate release condition still holds at the end.
        """
        self.live_lanes -= count
        if self.barrier_waiting:
            self.maybe_release_barrier()


def build_block(index, block_threads, first_tid, mem, config, kernel, args, attach,
                smem_words=0, ctx_factory=None):
    """Construct the warps and lane generators of one thread block.

    ``ctx_factory`` substitutes the thread-context class (same constructor
    signature as :class:`ThreadCtx`); the telemetry layer injects its
    charge-mirroring subclass this way instead of instrumenting the
    ThreadCtx hot paths.
    """
    make_ctx = ThreadCtx if ctx_factory is None else ctx_factory
    block = BlockState(index, block_threads, smem_words)
    warp_size = config.warp_size
    num_warps = (block_threads + warp_size - 1) // warp_size
    for warp_idx in range(num_warps):
        warp = Warp(index * num_warps + warp_idx, block, config)
        lanes_in_warp = min(warp_size, block_threads - warp_idx * warp_size)
        for lane_id in range(lanes_in_warp):
            tid = first_tid + warp_idx * warp_size + lane_id
            tc = make_ctx(tid, lane_id, warp, block, mem, config)
            if attach is not None:
                attach(tc)
            gen = kernel(tc, *args)
            if not hasattr(gen, "send"):
                raise GpuError(
                    "kernel %r is not a generator function; %s"
                    % (getattr(kernel, "__name__", kernel), LOCKSTEP_PROTOCOL_HINT)
                )
            warp.add_lane(gen, tc)
        block.warps.append(warp)
        block.live_lanes += lanes_in_warp
    return block
