"""Longest-prefix-match trie over 32-bit (IPv4) addresses.

A binary trie: each level tests one address bit (most significant first),
and a lookup walks from the root remembering the value of the deepest node
that carries one.  The cost of a lookup is linear in the number of trie
nodes visited — the PCV ``d``, bounded by 33 (the root plus one node per
address bit), which is the paper's "prefix depth" PCV for LPM routers
(§2.2: PCVs may describe coarse input properties, not just state).

Route insertion is *configuration* (control plane), not a per-packet
operation, so only ``lookup`` is exposed as an extern; ``add_route`` is a
host-side method used to build the FIB before traffic runs.

Hand-derived per-operation contract (PCV ``d`` = trie nodes visited):

==========  ==================  ===================
operation   instructions        memory accesses
==========  ==================  ===================
``lookup``  ``3 + 5·d``         ``1 + 2·d``
==========  ==================  ===================

**PCVs.**  ``d`` — trie nodes visited by one lookup, declared with
``max_value = 33`` (:data:`MAX_DEPTH`): the root plus one node per
address bit, a bound fixed by IPv4 itself rather than by configuration.

**Worst case.**  ``d = 33`` requires a FIB with a route chain covering
every prefix length 1–32 along the looked-up address —
:func:`repro.nf.workloads.router_fib_routes` installs exactly that chain
and the router's adversarial stream routes its tip, so the bound is
provably attained (not just declared).  A miss below an empty root costs
``d = 1``; the miss fast path charges one instruction under the formula
(no next-hop copy), keeping the contract strict.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

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

__all__ = ["LpmTrie"]

ADDRESS_BITS = 32
#: Deepest possible lookup: the root plus one node per address bit.
MAX_DEPTH = ADDRESS_BITS + 1

_LOOKUP = linear_cost("d", instr=(3, 5), mem=(1, 2))


class _Node:
    __slots__ = ("children", "value")

    def __init__(self) -> None:
        self.children: Dict[int, "_Node"] = {}
        self.value: Optional[int] = None


class LpmTrie(Structure):
    """Instrumented binary LPM trie (IPv4 prefix -> 64-bit value).

    Args:
        name: instance name; the lookup extern is ``{name}_lookup``.
        value_bound: when given, the symbolic model constrains lookup
            outputs to ``NOT_FOUND`` or a value below this bound (e.g. the
            number of router ports).
    """

    kind = "lpm_trie"

    def __init__(self, name: str, *, value_bound: Optional[int] = None) -> None:
        self.value_bound = value_bound
        self._root = _Node()
        self._routes = 0
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        return (
            OpSpec(
                "lookup",
                1,
                True,
                _LOOKUP,
                ("d",),
                "longest-prefix match; NOT_FOUND when no prefix covers the address",
            ),
        )

    def pcvs(self) -> Sequence[PCV]:
        return (
            PCV(
                "d",
                "trie nodes visited by one LPM lookup",
                structure=self.name,
                max_value=MAX_DEPTH,
                unit="nodes",
            ),
        )

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        if method == "lookup":
            return bounded_value_constraint(result, self.value_bound)
        return ()

    # ------------------------------------------------------------------ #
    # Control plane (host-side configuration, not traced)
    # ------------------------------------------------------------------ #
    def add_route(self, prefix: int, length: int, value: int) -> None:
        """Install ``value`` for ``prefix/length`` (host byte order)."""
        if not 0 <= length <= ADDRESS_BITS:
            raise ValueError(f"prefix length {length} out of [0, {ADDRESS_BITS}]")
        if not 0 <= prefix < (1 << ADDRESS_BITS):
            raise ValueError(f"prefix {prefix:#x} is not a 32-bit address")
        if value == NOT_FOUND:
            raise ValueError("value collides with the NOT_FOUND sentinel")
        node = self._root
        for level in range(length):
            bit = (prefix >> (ADDRESS_BITS - 1 - level)) & 1
            node = node.children.setdefault(bit, _Node())
        if node.value is None:
            self._routes += 1
        node.value = value

    def route_count(self) -> int:
        """Number of installed prefixes."""
        return self._routes

    # ------------------------------------------------------------------ #
    # Data plane
    # ------------------------------------------------------------------ #
    def lookup(self, address: int) -> Tuple[Optional[int], int]:
        """Return ``(value of the longest match or None, nodes visited)``."""
        node = self._root
        visited = 1
        best = node.value
        for level in range(ADDRESS_BITS):
            bit = (address >> (ADDRESS_BITS - 1 - level)) & 1
            child = node.children.get(bit)
            if child is None:
                break
            node = child
            visited += 1
            if node.value is not None:
                best = node.value
        return best, visited

    def _path_touched(self, address: int, visited: int) -> list:
        """Addresses of the visited trie path, two words per node.

        A node is identified by (level, prefix bits so far), so every
        lookup re-touches the root and the shared top levels — the "hot
        top of the trie" locality the realistic model could only assume.
        Prefixes alias into 512 slots per level to keep the model heap
        inside the instance's region; aliasing is deterministic, so the
        stream stays reproducible.  ``lookup`` builds this list only while
        :attr:`record_accesses` is on: it is two ``slot_addr`` calls per
        visited node, the costliest part of a lookup.
        """
        touched = []
        for level in range(visited):
            prefix = address >> (ADDRESS_BITS - level) if level else 0
            slot = level * 512 + (prefix & 511)
            touched.append(self.slot_addr(2 * slot))
            touched.append(self.slot_addr(2 * slot + 1))
        return touched

    def _op_lookup(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (address,) = args
        address &= (1 << ADDRESS_BITS) - 1
        value, visited = self.lookup(address)
        touched = self._path_touched(address, visited) if self.record_accesses else ()
        if value is None:
            # Miss fast path: no next-hop copy.
            return self.charge(
                "lookup", NOT_FOUND, d=visited, discount_instructions=1, touched=touched
            )
        return self.charge("lookup", value, d=visited, touched=touched)
