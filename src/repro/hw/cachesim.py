"""Set-associative cache simulation for the simulated hardware backend.

The :class:`~repro.hw.model.RealisticModel` *assumes* a per-structure
cache-hit rate (:data:`~repro.hw.model.DEFAULT_HIT_RATES`); this module
removes the assumption.  A :class:`CacheHierarchy` (L1 + LLC, both
:class:`SetAssociativeCache` instances with true-LRU replacement) consumes
the tracer's per-packet :class:`~repro.nfil.tracer.MemAccess` stream, so
every access is priced at the latency of the level that actually served
it — hit rates are **observed per packet** instead of assumed per kind.

:class:`~repro.hw.model.SimulatedModel` owns one hierarchy per model
instance and keeps it warm across the packets of a replay, which is what
produces a *distribution* of per-packet cycle costs (cold-start packets
miss, steady-state packets hit, conflict patterns sit in between) — which the
bench summarises as report-only per-class p50/p95/p99 tails.

Determinism: the simulator is a pure function of the access stream — no
randomised replacement, no timestamps — so a bench cell's tail numbers
are bit-identical for any ``--workers`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

__all__ = [
    "DEFAULT_L1_GEOMETRY",
    "DEFAULT_LLC_GEOMETRY",
    "CacheGeometry",
    "CacheHierarchy",
    "SetAssociativeCache",
    "geometry_to_json",
]


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache level.

    Attributes:
        sets: number of sets (the index space).
        ways: associativity — lines per set, the LRU stack depth.
        line_size: bytes per line; must be a power of two, since the
            set index is computed by shifting the block address.
    """

    sets: int
    ways: int
    line_size: int = 64

    def __post_init__(self) -> None:
        if self.sets < 1:
            raise ValueError("a cache needs at least one set")
        if self.ways < 1:
            raise ValueError("a cache needs at least one way")
        if self.line_size < 1 or self.line_size & (self.line_size - 1):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")

    @property
    def capacity_bytes(self) -> int:
        """Total bytes the level can hold."""
        return self.sets * self.ways * self.line_size


#: Deliberately small defaults: the reproduction's structures occupy a few
#: KiB each, so a full-size 32 KiB L1 would make every access a hit and
#: the tail distribution degenerate.  A 4 KiB L1 over a 64 KiB LLC keeps
#: cold misses, capacity misses and conflict patterns all observable.
DEFAULT_L1_GEOMETRY = CacheGeometry(sets=32, ways=2, line_size=64)
DEFAULT_LLC_GEOMETRY = CacheGeometry(sets=128, ways=8, line_size=64)


class SetAssociativeCache:
    """One set-associative cache level with true-LRU replacement.

    Each set is a list of line tags ordered LRU-first (index 0 is the
    next victim); :meth:`access` returns whether the address hit and
    updates the recency order either way.  The sets are allocated up
    front, one list per set index.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._line_shift = geometry.line_size.bit_length() - 1
        self._set_count = geometry.sets
        self._ways = geometry.ways
        self._sets: List[List[int]] = [[] for _ in range(geometry.sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch ``addr``; return True on hit.  Misses fill the line."""
        tag = addr >> self._line_shift
        lines = self._sets[tag % self._set_count]
        if lines and lines[-1] == tag:
            # Already the most recently used line: the order stands.
            self.hits += 1
            return True
        if tag in lines:
            lines.remove(tag)
            lines.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(lines) >= self._ways:
            del lines[0]
        lines.append(tag)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Fraction:
        """Observed hit rate so far (0 before any access)."""
        if not self.accesses:
            return Fraction(0)
        return Fraction(self.hits, self.accesses)

    def reset(self) -> None:
        """Drop all cached lines and counters (a cold machine)."""
        for lines in self._sets:
            lines.clear()
        self.hits = 0
        self.misses = 0


class CacheHierarchy:
    """Two-level hierarchy: every access checks L1, then LLC, then DRAM.

    A miss fills the line into every level it missed in (inclusive
    hierarchy), so a re-access promoted by the LLC also warms the L1.
    """

    def __init__(
        self,
        l1: CacheGeometry = DEFAULT_L1_GEOMETRY,
        llc: CacheGeometry = DEFAULT_LLC_GEOMETRY,
    ) -> None:
        self.l1 = SetAssociativeCache(l1)
        self.llc = SetAssociativeCache(llc)

    def access(self, addr: int) -> str:
        """Simulate one access; return the serving level.

        ``"l1"`` — L1 hit; ``"llc"`` — L1 miss served by the LLC;
        ``"dram"`` — missed both levels.
        """
        if self.l1.access(addr):
            return "l1"
        if self.llc.access(addr):
            return "llc"
        return "dram"

    def reset(self) -> None:
        """Cold-start both levels."""
        self.l1.reset()
        self.llc.reset()


def geometry_to_json(geometry: CacheGeometry) -> Dict[str, int]:
    """Serialise one level's shape for bench reports."""
    return {
        "sets": geometry.sets,
        "ways": geometry.ways,
        "line_size": geometry.line_size,
        "capacity_bytes": geometry.capacity_bytes,
    }
