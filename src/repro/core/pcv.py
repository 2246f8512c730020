"""Performance-critical variables (PCVs).

A PCV summarises the influence on performance of anything other than the
packet currently being processed: the state built up by the input history,
the configuration of the NF, or coarse properties of the input itself (such
as the matched prefix length, §2.2 of the paper).

PCVs are the variables in which performance contracts are expressed.  The
paper's bridge contract (Table 4), for instance, is written over the PCVs
``e`` (expired MAC entries), ``c`` (hash collisions), ``t`` (bucket
traversals) and ``o`` (hash-table occupancy).

PCV names come in two forms:

* **local symbols** — a bare identifier such as ``t``, the form a structure
  *kind* documents its cost formulas in;
* **instance-qualified names** — ``{instance}.{symbol}`` such as ``fwd.t``
  vs ``rev.t``, the form every :class:`repro.structures.base.Structure`
  *instance* actually emits.  Qualification is what lets one NF use two
  instances of the same structure kind (a NAT's forward and reverse flow
  tables) without their PCVs aliasing in the contract.

:func:`qualify_name` / :func:`split_name` convert between the two forms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, Optional, Tuple

_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def qualify_name(instance: str, symbol: str) -> str:
    """Return the instance-qualified PCV name ``{instance}.{symbol}``.

    Raises:
        ValueError: either part is not a bare identifier (in particular,
            ``symbol`` must not already be qualified).
    """
    for part in (instance, symbol):
        if not _SYMBOL_RE.match(part):
            raise ValueError(
                f"PCV name part {part!r} must be an identifier "
                "(letters, digits and underscores, not starting with a digit)"
            )
    return f"{instance}.{symbol}"


def split_name(name: str) -> Tuple[Optional[str], str]:
    """Split a PCV name into ``(instance or None, local symbol)``."""
    instance, dot, symbol = name.rpartition(".")
    if not dot:
        return None, name
    return instance, symbol


@dataclass(frozen=True)
class PCV:
    """A single performance-critical variable.

    Attributes:
        name: symbol used inside performance expressions — a local symbol
            (``"e"``) or an instance-qualified name (``"fwd.e"``).
        description: human-readable meaning ("number of expired flows").
        structure: name of the data structure (or library routine) whose
            contract introduced the PCV, if any.
        min_value: smallest value the PCV can take (inclusive).
        max_value: largest value the PCV can take (inclusive), or ``None``
            when the bound depends on NF configuration (e.g. table capacity).
        unit: optional unit ("entries", "iterations", "bits").
    """

    name: str
    description: str = ""
    structure: Optional[str] = None
    min_value: int = 0
    max_value: Optional[int] = None
    unit: str = ""

    def __post_init__(self) -> None:
        instance, symbol = split_name(self.name)
        parts = (symbol,) if instance is None else (instance, symbol)
        if not all(_SYMBOL_RE.match(part) for part in parts):
            raise ValueError(
                f"invalid PCV name: {self.name!r} (expected an identifier or "
                "'instance.symbol', each part using letters, digits and underscores)"
            )
        if self.max_value is not None and self.max_value < self.min_value:
            raise ValueError(
                f"PCV {self.name}: max_value {self.max_value} < min_value {self.min_value}"
            )

    @property
    def instance(self) -> Optional[str]:
        """The owning instance of a qualified name (``None`` when local)."""
        return split_name(self.name)[0]

    @property
    def symbol(self) -> str:
        """The local symbol of the PCV (``"t"`` for both ``t`` and ``fwd.t``)."""
        return split_name(self.name)[1]

    def qualify(self, instance: str) -> "PCV":
        """Return a copy of this PCV namespaced under ``instance``.

        The copy's name becomes ``{instance}.{symbol}`` and its
        ``structure`` field records the owning instance.  Qualifying an
        already-qualified PCV re-homes it under the new instance.
        """
        return replace(
            self, name=qualify_name(instance, self.symbol), structure=instance
        )

    def bounded(self) -> bool:
        """Return True when the PCV has a known finite upper bound."""
        return self.max_value is not None

    def clamp(self, value: int) -> int:
        """Clamp ``value`` into the PCV's declared range."""
        value = max(value, self.min_value)
        if self.max_value is not None:
            value = min(value, self.max_value)
        return value

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


class PCVRegistry:
    """A registry of PCVs used by a contract, a structure or an NF.

    The registry guarantees that two parties that talk about the PCV ``"c"``
    talk about the same variable (same description and bounds); registering
    an incompatible duplicate raises.
    """

    def __init__(self, pcvs: Iterable[PCV] = ()) -> None:
        self._pcvs: Dict[str, PCV] = {}
        for pcv in pcvs:
            self.register(pcv)

    def register(self, pcv: PCV) -> PCV:
        """Register ``pcv``; return the canonical instance.

        Registering a PCV whose name exists already is allowed only if the
        existing definition is identical (same description/bounds) or if the
        existing one has an empty description (in which case it is replaced).
        """
        existing = self._pcvs.get(pcv.name)
        if existing is None:
            self._pcvs[pcv.name] = pcv
            return pcv
        if existing == pcv:
            return existing
        if not existing.description and pcv.description:
            self._pcvs[pcv.name] = pcv
            return pcv
        if not pcv.description:
            return existing
        raise ValueError(f"conflicting definitions for PCV {pcv.name!r}: {existing} vs {pcv}")

    def get(self, name: str) -> PCV:
        """Return the PCV registered under ``name``."""
        return self._pcvs[name]

    def maybe_get(self, name: str) -> Optional[PCV]:
        """Return the PCV registered under ``name`` or ``None``."""
        return self._pcvs.get(name)

    def names(self) -> list[str]:
        """Return the registered names, sorted for deterministic output."""
        return sorted(self._pcvs)

    def merge(self, other: "PCVRegistry") -> "PCVRegistry":
        """Return a new registry containing the PCVs of both registries."""
        merged = PCVRegistry(self._pcvs.values())
        for pcv in other:
            merged.register(pcv)
        return merged

    def default_bounds(self) -> Dict[str, int]:
        """Return ``{name: max_value}`` for every bounded PCV."""
        return {
            name: pcv.max_value
            for name, pcv in self._pcvs.items()
            if pcv.max_value is not None
        }

    def __contains__(self, name: str) -> bool:
        return name in self._pcvs

    def __iter__(self) -> Iterator[PCV]:
        return iter(self._pcvs.values())

    def __len__(self) -> int:
        return len(self._pcvs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PCVRegistry({sorted(self._pcvs)})"
