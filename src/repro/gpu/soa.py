"""Struct-of-arrays lane state and batched cost-fold reductions.

The warp stepper records one *issue group* per distinct (operation kind,
phase) pair of a step; each group's pending addresses accumulate in a flat
array (struct-of-arrays layout: one parallel address array per group
rather than one record object per lane).  This module supplies the batched
reductions the cost fold runs over those arrays, plus an on-demand
:class:`LaneArrays` snapshot of per-lane state as plain lists.

Every reduction is a scalar set/dict fold.  A lockstep issue group holds
at most one address per lane, so it never exceeds the warp width (32 on
the paper's Fermi geometry); at that size a 32-element set fold costs
~1.3 us on CPython 3.11 against ~6 us for a NumPy ``np.unique``
round-trip, which the list-to-array conversion dominates.  The
module therefore needs only the standard library.

The property tests in ``tests/gpu/test_soa_equivalence.py`` check every
reduction against a naive reference on random address arrays, and the
golden-cycle fixtures pin that the fold reproduces the seed simulator
bit-for-bit.
"""


def distinct_lines(addrs, line_words):
    """Number of distinct ``line_words``-sized lines touched by ``addrs``.

    This is the coalescing reduction: one warp instruction's scattered
    addresses collapse into per-line memory transactions.
    """
    return len({addr // line_words for addr in addrs})


def max_multiplicity(addrs):
    """Highest same-address count in ``addrs`` (atomic serialization depth)
    together with the distinct-address count, as ``(max_count, distinct)``."""
    multiplicity = {}
    get = multiplicity.get
    for addr in addrs:
        multiplicity[addr] = get(addr, 0) + 1
    return max(multiplicity.values()), len(multiplicity)


def max_bank_conflicts(addrs, banks):
    """Deepest same-bank pileup of one shared-memory instruction."""
    per_bank = {}
    get = per_bank.get
    for addr in addrs:
        bank = addr % banks
        per_bank[bank] = get(bank, 0) + 1
    return max(per_bank.values())


class LaneArrays:
    """Struct-of-arrays snapshot of one warp's lane state.

    Materialized on demand (diagnostic snapshots via
    :meth:`Warp.lane_snapshot`) rather than maintained per operation: the
    per-op hot path appends to plain group arrays, and this view batches
    the per-lane columns — lane id, active mask, program counter
    (resumptions survived), accumulated latency cycles, cycles inside
    transactions — into parallel Python lists.
    """

    __slots__ = ("lane_id", "active", "pc", "cycles", "in_tx")

    def __init__(self, warp):
        lanes = warp.lanes
        self.lane_id = [lane.tc.lane_id for lane in lanes]
        self.active = [not lane.done for lane in lanes]
        self.pc = [warp.steps] * len(lanes)
        self.cycles = [lane.tc.cycles_total for lane in lanes]
        self.in_tx = [lane.tc.cycles_in_tx for lane in lanes]

    def as_dict(self):
        """JSON-friendly column dump (diagnostic snapshots)."""
        return {
            "lane_id": list(self.lane_id),
            "active": list(self.active),
            "pc": list(self.pc),
            "cycles": list(self.cycles),
            "in_tx": list(self.in_tx),
        }
