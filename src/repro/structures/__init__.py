"""The Vigor-style stateful data-structure library.

Every NF in this repository is split, as in the paper, into stateless NFIL
code and calls into a small library of stateful structures.  Each structure
here ships the three artefacts the BOLT pipeline needs — a concrete
instrumented implementation (an extern handler charging documented cost
formulas), a symbolic model (via :class:`~repro.structures.base.StructureModel`),
and a hand-derived per-operation performance contract.  The symbolic model
and the hand contract both read the structure's :class:`OpSpec` table, so
they agree by construction.

Structures:

* :class:`~repro.structures.hashmap.ChainingHashMap` — hash map with
  chaining (PCV ``t``, chain links inspected).
* :class:`~repro.structures.expiring.ExpiringMap` — hash map with
  time-wheel expiry (PCVs ``w``/``e``/``t``); backs the MAC bridge.
* :class:`~repro.structures.lpm.LpmTrie` — longest-prefix-match trie over
  IPv4 addresses (PCV ``d``, trie depth); backs the LPM router.
* :class:`~repro.structures.portalloc.PortAllocator` — constant-time port
  lease pool (no PCVs); backs the NAT's external-port allocation.
* :class:`~repro.structures.maglev.MaglevTable` — Maglev-style
  consistent-hash lookup table (PCV ``f``, fill iterations per
  repopulation — the library's first control-plane-dominated cost); backs
  the load balancer's backend selection.
* :class:`~repro.structures.sketch.CountMinSketch` — fixed-geometry
  count-min sketch with saturating counters (no PCVs; collisions corrupt
  estimates, never latency); backs the heavy-hitter monitor.

Structure *kinds* document their cost formulas over local PCV symbols;
every *instance* emits them instance-qualified (``fwd.t`` vs ``rev.t``),
so an NF may compose several instances of the same kind — the NAT's
forward and reverse flow tables — without PCV aliasing.
"""

from repro.structures.base import (
    NOT_FOUND,
    OpSpec,
    Structure,
    StructureModel,
    bounded_value_constraint,
    check_extern_collisions,
    linear_cost,
)
from repro.structures.expiring import ExpiringMap
from repro.structures.hashmap import ChainingHashMap
from repro.structures.lpm import LpmTrie
from repro.structures.maglev import MaglevTable, max_fill_iterations
from repro.structures.portalloc import PortAllocator
from repro.structures.sketch import CountMinSketch

__all__ = [
    "NOT_FOUND",
    "ChainingHashMap",
    "CountMinSketch",
    "ExpiringMap",
    "LpmTrie",
    "MaglevTable",
    "OpSpec",
    "PortAllocator",
    "Structure",
    "StructureModel",
    "bounded_value_constraint",
    "check_extern_collisions",
    "linear_cost",
    "max_fill_iterations",
]
