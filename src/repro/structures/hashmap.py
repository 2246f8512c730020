"""Chaining hash map: the workhorse structure of the Vigor-style library.

Keys hash into a fixed array of buckets; colliding entries chain off the
bucket as a linked list.  Every operation's cost is linear in the number of
chain links it inspects, which is exactly the PCV ``t`` the paper's bridge
and NAT contracts are written over (§2.2, Table 4; the hash-table
traversal bound shows up throughout the §5 evaluation).

Hand-derived per-operation contract (PCV ``t`` = chain links inspected):

=========  ======================  =====================
operation  instructions            memory accesses
=========  ======================  =====================
``get``    ``5 + 6·t``             ``2 + 2·t``
``put``    ``8 + 6·t``             ``3 + 2·t``
``remove`` ``6 + 6·t``             ``2 + 2·t``
=========  ======================  =====================

The concrete handlers charge these formulas at the observed ``t``, minus a
small fast-path discount where the real code does less work (a miss skips
the value copy, a refreshing ``put`` skips the link allocation), so the
contract is a genuine upper bound on the traced executions.

**PCVs.**  ``t`` — chain links inspected by one operation, declared with
``max_value = capacity``: with a fixed allocation, one bucket can hold at
most every stored entry.

**Worst case.**  ``t = capacity`` requires ``capacity`` keys sharing one
bucket — constructible for any geometry by hash search
(:func:`repro.nf.workloads.colliding_keys`), which is how the bridge and
NAT adversarial streams drive their tables' ``t`` to the declared bound.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pcv import PCV
from repro.nfil.interpreter import ExternResult, Memory
from repro.structures.base import (
    NOT_FOUND,
    OpSpec,
    Structure,
    bounded_value_constraint,
    linear_cost,
)
from repro.sym.expr import BV

__all__ = ["ChainingHashMap"]

_GET = linear_cost("t", instr=(5, 6), mem=(2, 2))
_PUT = linear_cost("t", instr=(8, 6), mem=(3, 2))
_REMOVE = linear_cost("t", instr=(6, 6), mem=(2, 2))


class ChainingHashMap(Structure):
    """Instrumented chaining hash map (key -> 64-bit value).

    Args:
        name: instance name; externs are ``{name}_get`` / ``{name}_put`` /
            ``{name}_remove``.
        capacity: maximum number of stored entries; inserts beyond it are
            dropped (the Vigor maps never grow past their allocation).
        buckets: number of hash buckets (defaults to ``capacity``).
        value_bound: when given, the symbolic model constrains ``get``
            outputs to ``NOT_FOUND`` or a value below this bound (e.g. the
            number of switch ports).
    """

    kind = "chaining_hash_map"

    def __init__(
        self,
        name: str,
        *,
        capacity: int = 64,
        buckets: Optional[int] = None,
        value_bound: Optional[int] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.buckets = buckets if buckets is not None else capacity
        if self.buckets <= 0:
            raise ValueError("buckets must be positive")
        self.value_bound = value_bound
        # bucket index -> chain of [key, value] links, head first.
        self._chains: Dict[int, List[List[int]]] = {}
        self._size = 0
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        return (
            OpSpec("get", 1, True, _GET, ("t",), "look a key up; NOT_FOUND on miss"),
            OpSpec("put", 2, False, _PUT, ("t",), "insert or refresh a key"),
            OpSpec("remove", 1, False, _REMOVE, ("t",), "delete a key if present"),
        )

    def pcvs(self) -> Sequence[PCV]:
        return (
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
    # Core map logic (shared with composing structures)
    # ------------------------------------------------------------------ #
    def _hash(self, key: int) -> int:
        return ((key * 2654435761) ^ (key >> 29)) % self.buckets

    def occupancy(self) -> int:
        """Number of stored entries."""
        return self._size

    def keys(self) -> List[int]:
        """All stored keys (diagnostics and composing structures)."""
        return [link[0] for chain in self._chains.values() for link in chain]

    def lookup(self, key: int) -> Tuple[Optional[int], int]:
        """Return ``(value or None, links inspected)``."""
        chain = self._chains.get(self._hash(key), [])
        for traversed, link in enumerate(chain, start=1):
            if link[0] == key:
                return link[1], traversed
        return None, len(chain)

    def insert(self, key: int, value: int) -> Tuple[str, int]:
        """Insert or refresh; return ``(status, links inspected)``.

        ``status`` is ``"refreshed"`` (key existed), ``"inserted"`` (new
        link appended) or ``"dropped"`` — a full map drops brand-new keys,
        matching the fixed-allocation Vigor maps.
        """
        if value == NOT_FOUND:
            raise ValueError("value collides with the NOT_FOUND sentinel")
        chain = self._chains.setdefault(self._hash(key), [])
        for traversed, link in enumerate(chain, start=1):
            if link[0] == key:
                link[1] = value
                return "refreshed", traversed
        if self._size >= self.capacity:
            return "dropped", len(chain)
        chain.append([key, value])
        self._size += 1
        return "inserted", len(chain) - 1

    def delete(self, key: int) -> Tuple[bool, int]:
        """Delete; return ``(removed, links inspected)``."""
        bucket = self._hash(key)
        chain = self._chains.get(bucket, [])
        for traversed, link in enumerate(chain, start=1):
            if link[0] == key:
                chain.remove(link)
                self._size -= 1
                if not chain:
                    del self._chains[bucket]
                return True, traversed
        return False, len(chain)

    def chain_touched(self, key: int, traversed: int) -> List[int]:
        """Addresses one operation touched: bucket head, then chain links.

        Link *i* of bucket *b* lives at a stable pair of slots (key word,
        value word) in the instance's heap region, so re-walking a hot
        bucket re-touches the same cache lines — the locality the cache
        simulator is there to observe.  (Positions are stable per (bucket,
        index), a faithful model of a chain that only ever appends and
        compacts.)  Handlers build the list only while the calling
        structure's :attr:`record_accesses` is on; :class:`ExpiringMap`
        calls it on its inner map under its own flag.
        """
        bucket = self._hash(key)
        base = self.buckets + 2 * bucket * self.capacity
        touched = [self.slot_addr(bucket)]
        for i in range(traversed):
            touched.append(self.slot_addr(base + 2 * i))
            touched.append(self.slot_addr(base + 2 * i + 1))
        return touched

    # ------------------------------------------------------------------ #
    # Instrumented extern handlers
    # ------------------------------------------------------------------ #
    def _op_get(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (key,) = args
        value, traversed = self.lookup(key)
        touched = self.chain_touched(key, traversed) if self.record_accesses else ()
        if value is None:
            # Miss fast path: no value copy.
            return self.charge(
                "get", NOT_FOUND, t=traversed, discount_instructions=1, touched=touched
            )
        return self.charge("get", value, t=traversed, touched=touched)

    def _op_put(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        key, value = args
        status, traversed = self.insert(key, value)
        touched = self.chain_touched(key, traversed) if self.record_accesses else ()
        if status == "refreshed":
            # Refresh fast path: no link allocation.
            return self.charge(
                "put", t=traversed, discount_instructions=1, touched=touched
            )
        return self.charge("put", t=traversed, touched=touched)

    def _op_remove(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (key,) = args
        _, traversed = self.delete(key)
        touched = self.chain_touched(key, traversed) if self.record_accesses else ()
        return self.charge("remove", t=traversed, touched=touched)
