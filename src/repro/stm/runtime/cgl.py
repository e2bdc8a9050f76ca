"""CGL: the coarse-grained locking baseline (paper section 4.2).

Every transaction body becomes a critical section under one global
spinlock, acquired with Algorithm 1's scheme #3 (diverge on failure — safe
for a single lock).  All critical sections across the whole device
serialize; this is the denominator of every speedup the paper reports.

The CGL "transaction" interface never aborts and writes directly to
memory; ``is_opaque`` stays True.
"""

from repro.gpu.events import Phase
from repro.stm.runtime.base import TmRuntime, TxThread


class CglRuntime(TmRuntime):
    """Single-global-lock critical-section runtime."""

    name = "cgl"

    def __init__(self, device, record_history=False):
        super().__init__(device, record_history)
        self.lock_addr = device.mem.alloc(1, "cgl_lock")
        # Host-side commit sequencing for the oracle: the global lock
        # already totally orders critical sections.
        self._commit_seq = 0

    def make_thread(self, tc):
        return CglTx(self, tc)

    def metric_gauges(self):
        gauges = super().metric_gauges()
        gauges["lock_word"] = self.mem.read(self.lock_addr)
        gauges["commit_seq"] = self._commit_seq
        return gauges


class CglTx(TxThread):
    """One critical section presented through the TxThread interface."""

    def __init__(self, runtime, tc):
        super().__init__(runtime, tc)
        self._reads = []
        self._writes = {}

    def read_entries(self):
        return self._reads

    def write_entries(self):
        return self._writes

    def tx_begin(self):
        """Acquire the global lock (scheme #3: diverge on failure)."""
        tc = self.tc
        runtime = self.runtime
        tc.tx_window_begin()
        self._reads = []
        self._writes = {}
        stats_add = runtime.stats.add
        stats_add("begins")
        lock_addr = runtime.lock_addr
        locks_phase = Phase.LOCKS
        # Spin-loop counters batch into locals and flush once after the
        # lock is acquired: same totals, no per-iteration counter traffic.
        spin_reads = 0
        acquire_failures = 0
        while True:
            # Test-and-test-and-set: spin on a plain read, CAS only when the
            # lock looks free (keeps the atomic unit from serializing every
            # spinning lane every cycle).
            _, polls = yield from tc.spin_until(lock_addr, locks_phase, -1)
            spin_reads += polls
            observed = tc.atomic_cas(lock_addr, 0, 1, locks_phase)
            yield
            if observed == 0:
                if spin_reads:
                    stats_add("lock_spin_reads", spin_reads)
                if acquire_failures:
                    stats_add("lock_acquire_failures", acquire_failures)
                return
            acquire_failures += 1

    def tx_read(self, addr):
        tc = self.tc
        self.runtime.stats.add("tx_reads")
        value = tc.gread(addr, Phase.NATIVE)
        yield
        if addr not in self._writes:
            # Reads that follow an own write observe this section's own
            # update, not pre-section state; history keeps pre-state reads
            # only, which is what the serializability oracle replays.
            self._reads.append((addr, value))
        return value

    def tx_write(self, addr, value):
        tc = self.tc
        self.runtime.stats.add("tx_writes")
        tc.gwrite(addr, value, Phase.NATIVE)
        yield
        self._writes[addr] = value

    def tx_commit(self):
        """Release the global lock; critical sections always 'commit'."""
        tc = self.tc
        runtime = self.runtime
        tc.fence(Phase.COMMIT)
        yield
        tc.gwrite(runtime.lock_addr, 0, Phase.LOCKS)
        yield
        runtime._commit_seq += 1
        runtime.note_commit(self, version=runtime._commit_seq)
        tc.tx_window_commit()
        return True

    def tx_abort(self):
        """Give up a critical section that has not yet written.

        Programs like labyrinth abandon an attempt when they find their plan
        blocked; under CGL that is legal only before any direct write — a
        critical section cannot undo writes, so aborting after one is a
        programming error and raises.
        """
        if self._writes:
            raise RuntimeError(
                "CGL critical section aborted after writing %d words; direct "
                "updates cannot be rolled back" % len(self._writes)
            )
        tc = self.tc
        runtime = self.runtime
        tc.gwrite(runtime.lock_addr, 0, Phase.LOCKS)
        yield
        runtime.note_abort("giveup", tx=self)
        tc.tx_window_abort()
