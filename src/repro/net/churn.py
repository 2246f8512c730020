"""Mid-stream churn: control-plane events injected DURING a graph replay.

Deployments are never static: backends drain and return, routes change,
idle flow state expires.  A :class:`ChurnSchedule` pins such events to
packet indices of the replayed stream, so the same (seed, schedule) pair
always produces the same interleaving — the property the determinism
tests and the bit-identical-across-workers bench depend on.

Three event shapes exist, and they deliberately differ in *where* the
cost lands:

* **Injected stimuli** (backend add/remove) go through the traced
  datapath of their node: the LB's repopulation cost (``lb_tbl.f``) must
  appear in a trace and be classified (class ``reconfig``) against the
  node's contract, exactly like the paper's control-plane entries.  No
  link forwards ``reconfig``, so control frames terminate at their node.
* **Host mutations** (route updates) model out-of-band configuration: a
  :class:`~repro.structures.LpmTrie` route install is a control-plane
  RPC in a real router, not a packet, so it mutates state untraced and
  is only recorded in the churn log.  Its *effect* is still observable:
  subsequent packets classify ``routed`` where they classified
  ``no_route``.
* **Time jumps** advance the stream clock past expiry deadlines, so the
  next packet's structure operations sweep expired state (the ``w`` /
  ``e`` PCVs) — churn whose cost is charged to whatever data packet
  happens to arrive after the idle period.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.nf import lb as lb_nf
from repro.nf.workloads import lb_control_stimulus
from repro.structures.lpm import LpmTrie
from repro.traffic.generators import Stimulus

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "backend_add",
    "backend_remove",
    "expiry_jump",
    "route_update",
]


@dataclass(frozen=True)
class ChurnEvent:
    """One control-plane event, fired before stream packet ``at`` replays.

    Attributes:
        at: index of the stream packet this event precedes.
        node: name of the graph node the event targets.
        kind: event kind (``backend_add`` / ``backend_remove`` /
            ``route_update`` / ``expiry_jump``), for logs and reports.
        describe: human-readable summary for the churn log.
        inject: when set, ``inject(time)`` builds a stimulus replayed
            *through the traced datapath* of ``node`` at the stream's
            current clock — the event's cost is classified against the
            node's contract like any packet.
        mutate: when set, called with the target :class:`~repro.net.
            graph.Node` for an untraced host-side state change.
        jump: ticks added to the stream clock (0 for non-time events).
    """

    at: int
    node: str
    kind: str
    describe: str
    inject: Optional[Callable[[int], Stimulus]] = None
    mutate: Optional[Callable[..., None]] = None
    jump: int = 0


@dataclass
class ChurnSchedule:
    """Events of one replay, ordered by stream index (stable within one).

    The schedule is data, not behaviour: building it is deterministic in
    its inputs, so two replays of the same (stream, schedule) pair are
    byte-identical regardless of worker count or wall clock.
    """

    events: List[ChurnEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda event: event.at)
        self._by_index: Dict[int, List[ChurnEvent]] = {}
        for event in self.events:
            self._by_index.setdefault(event.at, []).append(event)

    def __len__(self) -> int:
        return len(self.events)

    def at(self, index: int) -> Sequence[ChurnEvent]:
        """Events firing immediately before stream packet ``index``."""
        return self._by_index.get(index, ())


# --------------------------------------------------------------------------- #
# Event builders
# --------------------------------------------------------------------------- #
def backend_add(at: int, node: str, backend: int) -> ChurnEvent:
    """Activate a backend on an LB node via a traced control frame."""
    return ChurnEvent(
        at=at,
        node=node,
        kind="backend_add",
        describe=f"add backend {backend} at {node}",
        inject=lambda time: lb_control_stimulus(
            lb_nf.CMD_ADD, backend, time, f"churn:add:{backend}"
        ),
    )


def backend_remove(at: int, node: str, backend: int) -> ChurnEvent:
    """Drain a backend on an LB node via a traced control frame."""
    return ChurnEvent(
        at=at,
        node=node,
        kind="backend_remove",
        describe=f"drain backend {backend} at {node}",
        inject=lambda time: lb_control_stimulus(
            lb_nf.CMD_REMOVE, backend, time, f"churn:remove:{backend}"
        ),
    )


def route_update(
    at: int, node: str, prefix: int, length: int, port: int
) -> ChurnEvent:
    """Install a route into a router node's FIB, host-side (untraced)."""

    def mutate(node) -> None:
        for structure in node.harness.structures:
            if isinstance(structure, LpmTrie):
                structure.add_route(prefix, length, port)
                return
        raise ValueError(f"node {node.name!r} has no LpmTrie to route into")

    return ChurnEvent(
        at=at,
        node=node,
        kind="route_update",
        describe=f"route {prefix:#010x}/{length} -> port {port} at {node}",
        mutate=mutate,
    )


def expiry_jump(at: int, node: str, jump: int) -> ChurnEvent:
    """Idle the stream ``jump`` ticks so expiry sweeps fire at ``node``.

    The jump advances the *stream* clock (every node sees it — expiry is
    a property of time, not topology); ``node`` names the hop whose
    sweep the schedule means to provoke, for the churn log.
    """
    return ChurnEvent(
        at=at,
        node=node,
        kind="expiry_jump",
        describe=f"clock +{jump} ticks (expiry sweep at {node})",
        jump=jump,
    )
