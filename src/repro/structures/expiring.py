"""Expiring map: a chaining hash map with time-wheel expiry.

The structure behind every learning/flow table in the paper's NFs (the
bridge's MAC table of Table 4, VigNAT's flow table — whose expiry term
``e`` drives the §5.3 batching finding): entries
are inserted (or refreshed) with a deadline ``now + timeout`` and an
``expire(now)`` sweep removes the ones whose deadline passed.  Deadlines are
indexed in a **time wheel** — a ring of ``wheel_slots`` buckets, one per
time tick — so a sweep only visits the slots between the previous ``now``
and the current one instead of scanning the whole table.

Hand-derived per-operation contract (PCVs: ``w`` wheel slots advanced,
``e`` entries expired, ``t`` chain links inspected):

==========  =========================  ====================
operation   instructions               memory accesses
==========  =========================  ====================
``expire``  ``4 + 3·w + 9·e``          ``2 + w + 4·e``
``put``     ``10 + 6·t``               ``4 + 2·t``
``get``     ``6 + 6·t``                ``2 + 2·t``
==========  =========================  ====================

The wheel must have more slots than the timeout spans ticks
(``wheel_slots > timeout``): every live deadline then lies at most one full
revolution ahead, so a sweep capped at ``wheel_slots`` advanced slots never
misses an expired entry.

**PCVs.**  ``t`` — chain links inspected (bound ``capacity``, as in
:mod:`repro.structures.hashmap`); ``w`` — wheel slots advanced by one
sweep (bound ``wheel_slots``: the advance is capped at one revolution);
``e`` — entries expired by one sweep (bound ``capacity``).

**Worst case.**  All three bounds are attained by one two-phase stream:
insert ``capacity`` colliding keys (a tail refresh then inspects
``t = capacity`` links), and jump time a full revolution past every
deadline (one sweep advances ``w = wheel_slots`` slots and expires
``e = capacity`` entries) — the shape of every ``*_adversarial`` workload
built on this structure.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from repro.core.contract import Metric
from repro.core.pcv import PCV
from repro.core.perfexpr import PerfExpr
from repro.nfil.interpreter import ExternResult, Memory
from repro.structures.base import (
    NOT_FOUND,
    OpSpec,
    Structure,
    bounded_value_constraint,
    linear_cost,
)
from repro.structures.hashmap import ChainingHashMap
from repro.sym.expr import BV

__all__ = ["ExpiringMap"]

_EXPIRE = {
    Metric.INSTRUCTIONS: PerfExpr.from_terms(w=3, e=9, const=4),
    Metric.MEMORY_ACCESSES: PerfExpr.from_terms(w=1, e=4, const=2),
}
_PUT = linear_cost("t", instr=(10, 6), mem=(4, 2))
_GET = linear_cost("t", instr=(6, 6), mem=(2, 2))


class ExpiringMap(Structure):
    """Instrumented expiring map (key -> 64-bit value, time-wheel expiry).

    Args:
        name: instance name; externs are ``{name}_expire`` / ``{name}_put``
            / ``{name}_get``.
        capacity: maximum number of live entries.
        timeout: entries expire ``timeout`` ticks after their last refresh.
        wheel_slots: size of the time wheel; must exceed ``timeout``
            (defaults to ``timeout + 1``).
        buckets: hash buckets of the underlying chaining map.
        value_bound: when given, the symbolic model constrains ``get``
            outputs to ``NOT_FOUND`` or a value below this bound.
    """

    kind = "expiring_map"

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 64,
        timeout: int = 300,
        wheel_slots: Optional[int] = None,
        buckets: Optional[int] = None,
        value_bound: Optional[int] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = timeout
        self.wheel_slots = wheel_slots if wheel_slots is not None else timeout + 1
        if self.wheel_slots <= timeout:
            raise ValueError(f"wheel_slots ({self.wheel_slots}) must exceed timeout ({timeout})")
        self.capacity = capacity
        self.value_bound = value_bound
        self.now = 0
        self._map = ChainingHashMap(f"{name}_inner", capacity=capacity, buckets=buckets)
        self._deadline: Dict[int, int] = {}
        # wheel slot (deadline % wheel_slots) -> keys due in that slot.
        self._wheel: Dict[int, Set[int]] = {}
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        return (
            OpSpec("expire", 1, False, _EXPIRE, ("w", "e"), "sweep entries past their deadline"),
            OpSpec("put", 2, False, _PUT, ("t",), "insert or refresh a key's value and deadline"),
            OpSpec("get", 1, True, _GET, ("t",), "look a key up; NOT_FOUND on miss"),
        )

    def pcvs(self) -> Sequence[PCV]:
        return (
            PCV(
                "w",
                "time-wheel slots advanced by one expiry sweep",
                structure=self.name,
                max_value=self.wheel_slots,
                unit="slots",
            ),
            PCV(
                "e",
                "entries expired by one expiry sweep",
                structure=self.name,
                max_value=self.capacity,
                unit="entries",
            ),
            PCV(
                "t",
                "chain links inspected in one hash-map operation",
                structure=self.name,
                max_value=self.capacity,
                unit="links",
            ),
        )

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        if method == "get":
            return bounded_value_constraint(result, self.value_bound)
        return ()

    # ------------------------------------------------------------------ #
    # Core logic (usable directly by tests and composing code)
    # ------------------------------------------------------------------ #
    def occupancy(self) -> int:
        """Number of live entries."""
        return self._map.occupancy()

    def _unschedule(self, key: int) -> None:
        deadline = self._deadline.pop(key, None)
        if deadline is None:
            return
        slot = self._wheel.get(deadline % self.wheel_slots)
        if slot is not None:
            slot.discard(key)
            if not slot:
                del self._wheel[deadline % self.wheel_slots]

    def insert(self, key: int, value: int, now: Optional[int] = None) -> Tuple[str, int]:
        """Insert or refresh ``key`` at time ``now`` (defaults to the last sweep).

        Passing a ``now`` ahead of the wheel cursor sweeps first: the cursor
        must never skip ticks, or entries due in the skipped slots would
        outlive their deadline by a full wheel revolution.
        """
        if now is not None:
            self.sweep(now)
        status, traversed = self._map.insert(key, value)
        if status != "dropped":
            self._unschedule(key)
            deadline = self.now + self.timeout
            self._deadline[key] = deadline
            self._wheel.setdefault(deadline % self.wheel_slots, set()).add(key)
        return status, traversed

    def sweep(self, now: int) -> Tuple[int, int]:
        """Advance the wheel to ``now``; return ``(slots advanced, expired)``."""
        if now <= self.now:
            return 0, 0
        advanced = min(now - self.now, self.wheel_slots)
        expired = 0
        for tick in range(self.now + 1, self.now + advanced + 1):
            slot = self._wheel.get(tick % self.wheel_slots)
            if not slot:
                continue
            for key in [k for k in slot if self._deadline.get(k, now + 1) <= now]:
                self._unschedule(key)
                self._map.delete(key)
                expired += 1
        self.now = now
        return advanced, expired

    # ------------------------------------------------------------------ #
    # Instrumented extern handlers
    # ------------------------------------------------------------------ #
    def _op_expire(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (now,) = args
        previous = self.now
        advanced, expired = self.sweep(now)
        if advanced == 0:
            # Idle fast path: the wheel cursor did not move.
            touched = [self.slot_addr(0)] if self.record_accesses else ()
            return self.charge("expire", w=0, e=0, discount_instructions=1, touched=touched)
        # While recording, the sweep reports each advanced wheel slot; the
        # per-entry unlink work is covered by the charge() padding.  Wheel
        # slots occupy this instance's own heap region (the chain data
        # lives in the inner map's region), so a sweep and a lookup
        # exercise disjoint lines.
        touched = ()
        if self.record_accesses:
            touched = [
                self.slot_addr(tick % self.wheel_slots)
                for tick in range(previous + 1, previous + advanced + 1)
            ]
        return self.charge("expire", w=advanced, e=expired, touched=touched)

    def _op_put(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        key, value = args
        status, traversed = self.insert(key, value)
        touched = ()
        if self.record_accesses:
            # The chain walk in the inner map, then the new deadline's slot.
            touched = self._map.chain_touched(key, traversed)
            touched.append(self.slot_addr((self.now + self.timeout) % self.wheel_slots))
        if status == "refreshed":
            # Refresh fast path: no link allocation.
            return self.charge(
                "put", t=traversed, discount_instructions=1, touched=touched
            )
        return self.charge("put", t=traversed, touched=touched)

    def _op_get(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (key,) = args
        value, traversed = self._map.lookup(key)
        touched = self._map.chain_touched(key, traversed) if self.record_accesses else ()
        if value is None:
            # Miss fast path: no value copy.
            return self.charge(
                "get", NOT_FOUND, t=traversed, discount_instructions=1, touched=touched
            )
        return self.charge("get", value, t=traversed, touched=touched)
