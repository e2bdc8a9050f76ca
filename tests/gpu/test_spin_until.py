"""``ThreadCtx.spin_until`` in isolation: parking is invisible.

Each kernel below runs twice: once spinning through ``tc.spin_until``
(which parks a lane after its first failed poll, so ``Warp.step`` polls it
without resuming its generator) and once through an inline copy of the
hand-rolled ``gread_l2 -> yield -> test`` loop the runtimes used before.
The two runs must agree on every step cost, every lane's per-phase cycles,
the ``(word, polls)`` each spinner gets back and the warp step at which it
proceeds — and the parked run must actually have parked.
"""

import pytest

from repro.gpu import Device
from repro.gpu.config import small_config
from repro.gpu.errors import LivelockError
from repro.gpu.events import Phase
from repro.gpu.warp import Lane, Warp


def old_spin(tc, addr, phase, mask):
    """The loop ``spin_until`` replaced, verbatim in shape."""
    polls = 0
    while True:
        word = tc.gread_l2(addr, phase)
        yield
        if not word & mask:
            return word, polls
        polls += 1


def parked_spin(tc, addr, phase, mask):
    return tc.spin_until(addr, phase, mask)


def _run(kernel_factory, spin, monkeypatch, grid=1, block=8, warp_size=8, num_sms=1):
    """Launch the kernel built by ``kernel_factory(dev, spin, outcome,
    ctxs)`` and return everything observable about the run."""
    costs = []
    parks = []
    step = Warp.step
    park = Lane.park

    def recording_step(self):
        result = step(self)
        costs.append((self.warp_id, result))
        return result

    def counting_park(self, *args):
        parks.append(self.tc.tid)
        return park(self, *args)

    monkeypatch.setattr(Warp, "step", recording_step)
    monkeypatch.setattr(Lane, "park", counting_park)
    dev = Device(small_config(warp_size=warp_size, num_sms=num_sms))
    outcome = {}
    ctxs = {}
    kernel, args = kernel_factory(dev, spin, outcome, ctxs)
    result = dev.launch(kernel, grid, block, args=args)
    monkeypatch.undo()
    lanes = {
        tid: (dict(tc.phase_cycles.cycles), tc.cycles_total)
        for tid, tc in sorted(ctxs.items())
    }
    return {
        "costs": costs,
        "outcome": dict(sorted(outcome.items())),
        "lanes": lanes,
        "cycles": result.cycles,
        "sm_cycles": result.sm_cycles,
        "steps": result.steps,
        "mem_txns": result.mem_txns,
        "parks": parks,
    }


def _assert_parking_invisible(kernel_factory, monkeypatch, **geometry):
    reference = _run(kernel_factory, old_spin, monkeypatch, **geometry)
    parked = _run(kernel_factory, parked_spin, monkeypatch, **geometry)
    assert reference["parks"] == []
    assert parked["parks"], "the kernel never parked a lane"
    assert parked["outcome"], "no spinner proceeded"
    for key in ("outcome", "lanes", "costs", "cycles", "sm_cycles", "steps", "mem_txns"):
        assert parked[key] == reference[key], key
    return parked


def _holder_kernel(hold_steps, holder_lane=0):
    """``holder_lane`` keeps a held lock for ``hold_steps`` steps and then
    releases it with ``gwrite``; every other lane spins on it."""

    def factory(dev, spin, outcome, ctxs):
        lock = dev.mem.alloc(1, "lock", fill=1)
        scratch = dev.mem.alloc(64)

        def kernel(tc, lock, scratch):
            ctxs[tc.tid] = tc
            if tc.lane_id == holder_lane:
                for i in range(hold_steps):
                    tc.gwrite(scratch + i, i)
                    yield
                tc.gwrite(lock, 0, Phase.LOCKS)
                yield
                return
            word, polls = yield from spin(tc, lock, Phase.LOCKS, 1)
            outcome[tc.tid] = (word, polls, tc.warp.steps)
            tc.gwrite(scratch + 32 + tc.lane_id, polls)
            yield

        return kernel, (lock, scratch)

    return factory


class TestSpinUntilMatchesTheLoop:
    def test_holder_lane_releases_with_gwrite(self, monkeypatch):
        parked = _assert_parking_invisible(_holder_kernel(12), monkeypatch)
        # every spinner failed polls while the holder worked
        assert all(polls > 5 for _word, polls, _step in parked["outcome"].values())

    def test_release_from_earlier_lane_is_seen_in_the_same_step(self, monkeypatch):
        """Lane 3 releases: lanes 4+ poll after it in that step and see the
        free word; lanes 0-2 polled before it and need one more step."""
        parked = _assert_parking_invisible(_holder_kernel(6, holder_lane=3), monkeypatch)
        steps = {tid: step for tid, (_w, _p, step) in parked["outcome"].items()}
        early = {steps[tid] for tid in (0, 1, 2)}
        late = {steps[tid] for tid in (4, 5, 6, 7)}
        assert len(early) == len(late) == 1
        assert early.pop() == late.pop() + 1

    def test_lanes_park_at_different_steps(self, monkeypatch):
        def factory(dev, spin, outcome, ctxs):
            lock = dev.mem.alloc(1, "lock", fill=1)
            scratch = dev.mem.alloc(64)

            def kernel(tc, lock, scratch):
                ctxs[tc.tid] = tc
                if tc.lane_id == 0:
                    for i in range(20):
                        tc.gwrite(scratch + i, i)
                        yield
                    tc.gwrite(lock, 0, Phase.LOCKS)
                    yield
                    return
                # lane i works i steps before spinning
                for i in range(tc.lane_id):
                    tc.gread(scratch + i)
                    yield
                word, polls = yield from spin(tc, lock, Phase.CONSISTENCY, 1)
                outcome[tc.tid] = (word, polls, tc.warp.steps)
                tc.work(3)
                yield

            return kernel, (lock, scratch)

        parked = _assert_parking_invisible(factory, monkeypatch)
        polls = [parked["outcome"][tid][1] for tid in range(1, 8)]
        assert polls == sorted(polls, reverse=True) and len(set(polls)) == 7

    def test_lanes_park_on_different_addresses_and_phases(self, monkeypatch):
        """Even lanes spin on lock A (LOCKS), odd lanes on lock B: B is
        released first, and lanes 5 and 7 wait on B under another phase."""

        def factory(dev, spin, outcome, ctxs):
            locks = dev.mem.alloc(2, "locks", fill=1)
            scratch = dev.mem.alloc(64)
            second = dev.mem.alloc(1, "second")

            def kernel(tc, locks, scratch, second):
                ctxs[tc.tid] = tc
                if tc.lane_id == 0:
                    for i in range(8):
                        tc.gwrite(scratch + i, i)
                        yield
                    tc.gwrite(locks + 1, 0, Phase.LOCKS)
                    yield
                    for i in range(8):
                        tc.gwrite(scratch + i, i)
                        yield
                    tc.gwrite(locks, 0, Phase.LOCKS)
                    yield
                    return
                addr = locks + (tc.lane_id & 1)
                phase = Phase.INIT if tc.lane_id in (5, 7) else Phase.LOCKS
                word, polls = yield from spin(tc, addr, phase, 1)
                outcome[tc.tid] = (word, polls, tc.warp.steps)
                tc.atomic_add(second, 1)
                yield

            return kernel, (locks, scratch, second)

        parked = _assert_parking_invisible(factory, monkeypatch)
        odd = {parked["outcome"][tid][2] for tid in (1, 3, 5, 7)}
        even = {parked["outcome"][tid][2] for tid in (2, 4, 6)}
        assert max(odd) < min(even)

    def test_lane_retires_while_warp_mates_stay_parked(self, monkeypatch):
        """Block 0's lane 0 retires early; its warp-mates stay parked (the
        whole-warp poll) until a lane of block 1 releases the lock."""
        dispersals = []
        disperse = Warp._spin_disperse

        def counting_disperse(self):
            dispersals.append(self.warp_id)
            return disperse(self)

        def factory(dev, spin, outcome, ctxs):
            lock = dev.mem.alloc(1, "lock", fill=1)
            scratch = dev.mem.alloc(64)

            def kernel(tc, lock, scratch):
                ctxs[tc.tid] = tc
                if tc.block.index == 1:
                    if tc.lane_id == 0:
                        for i in range(40):
                            tc.gwrite(scratch + i, i)
                            yield
                        tc.gwrite(lock, 0, Phase.LOCKS)
                        yield
                    return
                if tc.lane_id == 0:
                    tc.gwrite(scratch + 63, 1)
                    yield
                    return
                word, polls = yield from spin(tc, lock, Phase.LOCKS, 1)
                outcome[tc.tid] = (word, polls, tc.warp.steps)
                tc.gwrite(scratch + 48 + tc.lane_id, polls)
                yield

            return kernel, (lock, scratch)

        _assert_parking_invisible(factory, monkeypatch, grid=2, num_sms=1)
        monkeypatch.setattr(Warp, "_spin_disperse", counting_disperse)
        _run(factory, parked_spin, monkeypatch, grid=2, num_sms=1)
        assert dispersals == [0]

    def test_lane_snapshot_mid_spin_sees_every_poll_charged(self, monkeypatch):
        """A snapshot taken while block 0's warp polls as one (block 1
        takes it) settles the deferred charges first."""
        snapshots = []

        def factory(dev, spin, outcome, ctxs):
            lock = dev.mem.alloc(1, "lock", fill=1)
            scratch = dev.mem.alloc(64)
            warps = {}

            def kernel(tc, lock, scratch):
                ctxs[tc.tid] = tc
                if tc.block.index == 0:
                    warps[0] = tc.warp
                    word, polls = yield from spin(tc, lock, Phase.LOCKS, 1)
                    outcome[tc.tid] = (word, polls, tc.warp.steps)
                    return
                if tc.lane_id == 0:
                    for i in range(30):
                        tc.gwrite(scratch + i, i)
                        yield
                        if i in (10, 20):
                            snapshots.append(warps[0].lane_snapshot().as_dict())
                    tc.gwrite(lock, 0, Phase.LOCKS)
                    yield

            return kernel, (lock, scratch)

        reference = _run(factory, old_spin, monkeypatch, grid=2)
        loop_snapshots = snapshots[:]
        del snapshots[:]
        parked = _run(factory, parked_spin, monkeypatch, grid=2)
        assert parked["parks"] and len(snapshots) == 2
        assert snapshots == loop_snapshots
        assert parked["lanes"] == reference["lanes"]
        assert parked["costs"] == reference["costs"]

    @pytest.mark.parametrize("split", ["mask", "phase"])
    def test_whole_warp_poll_needs_one_mask_and_phase(self, split, monkeypatch):
        """Every lane of block 0 parks on one word, but odd lanes test
        another mask (and see the first release) or charge another phase
        (a second issue group): the warp must keep polling per lane."""

        def factory(dev, spin, outcome, ctxs):
            lock = dev.mem.alloc(1, "lock", fill=3)
            scratch = dev.mem.alloc(64)

            def kernel(tc, lock, scratch):
                ctxs[tc.tid] = tc
                if tc.block.index == 1:
                    if tc.lane_id == 0:
                        for value in (2, 0):
                            for i in range(12):
                                tc.gwrite(scratch + i, i)
                                yield
                            tc.gwrite(lock, value, Phase.LOCKS)
                            yield
                    return
                odd = tc.lane_id & 1
                mask = 1 if split == "mask" and odd else 2
                phase = Phase.INIT if split == "phase" and odd else Phase.LOCKS
                word, polls = yield from spin(tc, lock, phase, mask)
                outcome[tc.tid] = (word, polls, tc.warp.steps)
                tc.gwrite(scratch + 48 + tc.lane_id, polls)
                yield

            return kernel, (lock, scratch)

        _assert_parking_invisible(factory, monkeypatch, grid=2)

    def test_free_word_returns_without_parking(self, monkeypatch):
        def factory(dev, spin, outcome, ctxs):
            lock = dev.mem.alloc(1, "lock")

            def kernel(tc, lock):
                ctxs[tc.tid] = tc
                word, polls = yield from spin(tc, lock, Phase.LOCKS, 1)
                outcome[tc.tid] = (word, polls, tc.warp.steps)

            return kernel, (lock,)

        reference = _run(factory, old_spin, monkeypatch)
        parked = _run(factory, parked_spin, monkeypatch)
        assert parked["parks"] == []
        assert parked["outcome"] == reference["outcome"]
        assert parked["lanes"] == reference["lanes"]


def _livelock(spin):
    dev = Device(small_config(warp_size=8, num_sms=2, max_steps=500))
    lock = dev.mem.alloc(1, "lock", fill=1)

    def kernel(tc, lock):
        yield from spin(tc, lock, Phase.LOCKS, 1)

    with pytest.raises(LivelockError) as info:
        dev.launch(kernel, 3, 8, args=(lock,))
    return info.value


class TestWatchdog:
    def test_spinning_forever_is_the_same_livelock(self):
        """Every lane parked forever is still a livelock (not a suspected
        deadlock), at the same step count and with the same snapshot."""
        loop, parked = _livelock(old_spin), _livelock(parked_spin)
        assert type(loop) is type(parked) is LivelockError
        assert loop.steps == parked.steps
        assert loop.snapshot == parked.snapshot
        assert str(loop) == str(parked)
