"""Count-min sketch: the heavy-hitter counter behind the monitor NF.

Measurement NFs (the paper's §5 matrix closes with a traffic monitor)
count flows without keeping per-flow state: a count-min sketch maintains
a fixed ``depth × width`` array of saturating counters, hashes each key
into one counter per row, and estimates a key's frequency as the minimum
over its row counters.  The estimate can over-count (row collisions) but
never under-counts — and, crucially for the contract story, *cost never
depends on the data*: every ``update`` touches exactly ``depth``
counters, every ``query`` reads exactly ``depth`` counters, whatever the
key distribution.  Unlike the chaining maps there is no collision chain
to walk — collisions corrupt the *estimate*, not the *latency* — so the
cost shape is deliberately collision-free.

The geometry is explicit configuration (``CountMinSketch("hh", depth=4,
width=64)``); ``depth`` is fixed at construction, so the per-operation
formulas below are constants of the instance, not PCVs.  Counters
saturate at ``counter_max`` instead of wrapping: a flood can pin a
counter to the ceiling (the ``header_flood`` workloads do exactly that)
but can never roll an estimate back to zero.

Hand-derived per-operation contract (no PCVs; constant formulas in the
configured depth ``d``):

===========  ==============  ===============
operation    instructions    memory accesses
===========  ==============  ===============
``update``   ``6 + 5·d``     ``2 + 2·d``
``query``    ``4 + 4·d``     ``1 + d``
===========  ==============  ===============

Per row, ``update`` computes one index hash (2 instructions), loads the
counter (1 access), saturating-increments it (2 instructions), stores it
back (1 access) and folds it into the running minimum (1 instruction);
``query`` does the same minus the increment and the store.  The constant
terms cover argument marshalling and returning the estimate.

**PCVs: none.**  The row walk is a counted loop over the configured
depth — no probe sequence, chain or occupancy can stretch it — so there
is no state-dependent variable to parameterise.  The structure's
contribution to any NF contract is the constant rows above, which is
what lets the monitor's hot/cold classes price identically and the
constant-time audit *prove* indistinguishability as a zero polynomial.

**Worst case.**  Identical to the best case, by construction: both
operations visit exactly ``depth`` counters regardless of history or key
distribution.  The only fast paths are the fully-saturated ``update``
(every row counter already at ``counter_max``: the increment
short-circuits) and the never-seen ``query`` (a zero counter ends the
min-fold early), each one instruction cheaper than the formula.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.contract import Metric
from repro.core.pcv import PCV
from repro.core.perfexpr import PerfExpr
from repro.nfil.interpreter import ExternResult, Memory
from repro.structures.base import OpSpec, Structure, bounded_value_constraint
from repro.sym.expr import BV

__all__ = ["CountMinSketch"]

#: Per-row index salts: large odd multipliers, one per row (cycled when
#: depth exceeds the table).  Distinct rows must hash independently or
#: the sketch degenerates into ``depth`` copies of one row.
_ROW_SALTS = (
    2654435761,
    2246822519,
    3266489917,
    668265263,
    374761393,
    3405691931,
    2909871661,
    1640531527,
)


class CountMinSketch(Structure):
    """Instrumented fixed-geometry count-min sketch with saturating counters.

    Args:
        name: instance name; externs are ``{name}_update`` /
            ``{name}_query``.
        depth: number of hash rows (independent counters per key).
        width: counters per row; collisions within a row over-count.
        counter_max: saturation ceiling of every counter; estimates are
            always in ``[0, counter_max]``.
    """

    kind = "count_min_sketch"

    def __init__(
        self, name: str, *, depth: int = 4, width: int = 64, counter_max: int = 255
    ) -> None:
        if depth < 1:
            raise ValueError("sketch depth must be at least 1")
        if width < 1:
            raise ValueError("sketch width must be at least 1")
        if counter_max < 1:
            raise ValueError("counter ceiling must be at least 1")
        self.depth = depth
        self.width = width
        self.counter_max = counter_max
        self._rows: List[List[int]] = [[0] * width for _ in range(depth)]
        super().__init__(name)

    # ------------------------------------------------------------------ #
    # Contract surface
    # ------------------------------------------------------------------ #
    def ops(self) -> Sequence[OpSpec]:
        update_cost = {
            Metric.INSTRUCTIONS: PerfExpr.constant(6 + 5 * self.depth),
            Metric.MEMORY_ACCESSES: PerfExpr.constant(2 + 2 * self.depth),
        }
        query_cost = {
            Metric.INSTRUCTIONS: PerfExpr.constant(4 + 4 * self.depth),
            Metric.MEMORY_ACCESSES: PerfExpr.constant(1 + self.depth),
        }
        return (
            OpSpec(
                "update",
                1,
                True,
                update_cost,
                (),
                "count one key occurrence; returns the updated estimate",
            ),
            OpSpec("query", 1, True, query_cost, (), "min-over-rows frequency estimate"),
        )

    def pcvs(self) -> Sequence[PCV]:
        return ()

    def result_constraints(self, method: str, result: BV, args: Tuple[BV, ...]) -> Tuple[BV, ...]:
        # Both operations return an estimate in [0, counter_max].
        return bounded_value_constraint(result, self.counter_max + 1)

    # ------------------------------------------------------------------ #
    # Core logic (usable directly by tests and workload builders)
    # ------------------------------------------------------------------ #
    def _index(self, row: int, key: int) -> int:
        salt = _ROW_SALTS[row % len(_ROW_SALTS)]
        mixed = (key * salt) & 0xFFFFFFFFFFFFFFFF
        return (mixed ^ (mixed >> 29) ^ row) % self.width

    def _indices(self, key: int) -> List[int]:
        """``key``'s counter index in each row, row by row.

        A handler computes them once per call and passes them to the
        methods below, so each row is hashed once per call.
        """
        return [self._index(row, key) for row in range(self.depth)]

    def observe(self, key: int, indices: Optional[Sequence[int]] = None) -> int:
        """Count one occurrence of ``key``; returns the updated estimate.

        ``indices`` are ``key``'s :meth:`_indices`, derived when not given.
        """
        if indices is None:
            indices = self._indices(key)
        estimate = self.counter_max
        for counters, index in zip(self._rows, indices):
            counters[index] = min(counters[index] + 1, self.counter_max)
            estimate = min(estimate, counters[index])
        return estimate

    def estimate(self, key: int, indices: Optional[Sequence[int]] = None) -> int:
        """Min-over-rows frequency estimate for ``key`` (never under-counts)."""
        if indices is None:
            indices = self._indices(key)
        return min(counters[index] for counters, index in zip(self._rows, indices))

    def saturated(self, key: int, indices: Optional[Sequence[int]] = None) -> bool:
        """Whether every one of ``key``'s row counters sits at the ceiling."""
        return self.estimate(key, indices) == self.counter_max

    # ------------------------------------------------------------------ #
    # Instrumented extern handlers
    # ------------------------------------------------------------------ #
    def _counter_touched(self, indices: Sequence[int]) -> list:
        """The counter cell at each row's index (the data-independent walk).

        Handlers build it only while :attr:`record_accesses` is on.
        """
        return [self.slot_addr(row * self.width + index) for row, index in enumerate(indices)]

    def _op_update(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (key,) = args
        indices = self._indices(key)
        touched = ()
        if self.record_accesses:
            # The update stores each counter back: same cells, touched twice.
            touched = [addr for addr in self._counter_touched(indices) for _ in range(2)]
        if self.saturated(key, indices):
            # Fully-saturated fast path: the increment short-circuits.
            return self.charge(
                "update", self.counter_max, discount_instructions=1, touched=touched
            )
        return self.charge("update", self.observe(key, indices), touched=touched)

    def _op_query(self, args: Tuple[int, ...], memory: Memory) -> ExternResult:
        (key,) = args
        indices = self._indices(key)
        touched = self._counter_touched(indices) if self.record_accesses else ()
        estimate = self.estimate(key, indices)
        if estimate == 0:
            # Never-seen fast path: a zero counter ends the min-fold early.
            return self.charge("query", 0, discount_instructions=1, touched=touched)
        return self.charge("query", estimate, touched=touched)
