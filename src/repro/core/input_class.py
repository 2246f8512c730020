"""Input (packet) class specifications.

A performance contract maps *input classes* to performance expressions
(§2.2): "packet with known destination MAC", "packet that triggers
learning", and so on.  An input class is a name and a description; which
concrete inputs belong to it is decided by the symbolic paths its
contract entry carries.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InputClass"]


@dataclass(frozen=True)
class InputClass:
    """One class of inputs a contract entry covers.

    Attributes:
        name: short identifier ("hit", "miss", "short", ...).
        description: human-readable meaning, kept in serialized contracts
            (the goldens).
    """

    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("input class name must not be empty")
