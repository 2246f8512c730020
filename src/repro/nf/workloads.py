"""Per-NF workloads: uniform, Zipf, adversarial, scan sweeps and floods.

The generic samplers live in :mod:`repro.traffic.generators`; this module
supplies what only the NF can know — how to turn sampled keys into frames,
and which input state drives each performance-critical variable to the
maximum its registry declares.  Each factory returns a :class:`Workload`
bundling a *fresh* harness from the NF's descriptor (state is part of the
workload: adversarial streams prime it deliberately), the stimulus list
(built on its first read; only the short adversarial streams are built
up front), and — for adversarial streams — the instance-qualified PCV
values the replay must observe for the worst case to count as *hit*:

* **bridge** — the adversarial stream learns ``capacity`` MACs that all
  hash into one bucket of the MAC table (so a tail refresh inspects
  ``bridge_map.t = capacity`` links), then jumps time past a full wheel
  revolution (so one sweep advances ``bridge_map.w = wheel_slots`` slots
  and expires ``bridge_map.e = capacity`` entries).  All three PCVs reach
  their registry bounds.
* **router** — the adversarial FIB nests a route at every prefix length
  1–32 along one address; routing that address visits ``rt.d = 33`` trie
  nodes, the maximum any IPv4 lookup can incur.
* **NAT** — the adversarial stream pins *both* flow tables at once:
  colliding internal flow keys build a maximal forward chain
  (``fwd.t = capacity``), a crafted port pool whose leases collide in the
  reverse table builds a maximal reverse chain (``rev.t = capacity``), a
  brand-new flow against the exhausted pool exercises ``no_ports``, and
  one full-revolution time jump expires both tables in one sweep
  (``fwd.w = rev.w = wheel_slots``, ``fwd.e = rev.e = capacity``).  The
  two ``t`` bounds being separately observable is exactly what
  per-instance PCV namespacing buys.
* **LB** — the adversarial stream pins a *control-plane* bound on top of
  the usual connection-table ones: a backend-churn phase adds
  ``max_backends`` backends whose permutation parameters all collide
  (:func:`colliding_backends`), so the final repopulation performs
  exactly its proven worst-case fill count (``lb_tbl.f`` at bound), then
  colliding flow keys build a maximal connection chain
  (``conn.t = capacity``), a drain exercises ``backend_drained``, a full
  drain exercises ``no_backends``, and one full-revolution time jump
  expires the connection table (``conn.w = wheel_slots``,
  ``conn.e = capacity``).
* **firewall** — the adversarial stream establishes ``capacity``
  colliding outbound flows (one maximal connection chain,
  ``fw_conn.t = capacity``), drains the slot pool into ``conn_full``,
  probes tracked and untracked endpoints from the WAN, trips the egress
  filter, and ends with a full-revolution sweep
  (``fw_conn.w = wheel_slots``, ``fw_conn.e = capacity``).
* **monitor** — the sketch has no PCVs, so the adversarial stream
  instead forces both verdicts deterministically: one flow is flooded
  past the threshold *and* past the counter ceiling (exercising the
  saturated-update fast path), then a fresh flow passes cold.

Beyond the per-NF adversarial streams, every NF gets two cross-cutting
workload families:

* **scan_sweep** — a ZMap-style sweep: every frame comes from (or goes
  to) a *distinct* endpoint, an access pattern the hash-collision
  workloads never produce.  Sweeps fill state tables front to back and
  then keep going: the firewall's slot pool and the NAT's port pool run
  dry mid-stream, driving the at-capacity classes (``conn_full`` /
  ``no_ports``) under a realistic scanner, not a crafted collision.
* **header_flood** — a crafted-header flood: one fixed (or nearly
  fixed) header blasted at line rate, seasoned with runt frames.  Floods
  pin *repetition*-driven state: the monitor's sketch counters saturate
  at their ceiling, the router's deepest route is hammered at
  ``rt.d = 33``, the firewall's default-deny and egress-filter drop
  paths run hot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.nf import firewall as firewall_nf
from repro.nf import lb as lb_nf
from repro.nf import monitor as monitor_nf
from repro.nf import nat as nat_nf
from repro.nf import router as router_nf
from repro.nf.bridge import BRIDGE
from repro.nf.firewall import FIREWALL
from repro.nf.lb import LB
from repro.nf.monitor import MONITOR
from repro.nf.nat import NAT
from repro.nf.replay import NFHarness
from repro.nf.router import ROUTER
from repro.structures import ChainingHashMap, MaglevTable, max_fill_iterations
from repro.structures.lpm import MAX_DEPTH
from repro.traffic.generators import Stimulus, uniform_indices, zipf_indices
from repro.traffic.packets import ethernet_frame, ipv4_frame, mac_bytes, nat_frame

__all__ = [
    "WORKLOAD_NAMES",
    "Workload",
    "bridge_workloads",
    "colliding_backends",
    "colliding_keys",
    "colliding_mac_keys",
    "colliding_ports",
    "firewall_workloads",
    "lb_control_stimulus",
    "lb_data_stimulus",
    "lb_workloads",
    "monitor_workloads",
    "nat_workloads",
    "router_fib_routes",
    "router_workloads",
]


#: The names of the workloads every NF's factory returns, in that order.
WORKLOAD_NAMES = ("uniform", "zipf", "adversarial", "scan_sweep", "header_flood")


@dataclass(frozen=True)
class Workload:
    """One named stimulus stream bound to a fresh NF harness.

    ``build`` makes the stream on the first read of :attr:`stimuli`: a
    bench cell replays one of an NF's five streams, and building the
    others would be most of its set-up.  A build makes each distinct
    frame once, so stimuli with equal frames share one ``bytes`` object
    (and router and monitor streams one stimulus per (frame, note)).
    """

    name: str
    harness: NFHarness
    build: Callable[[], Sequence[Stimulus]]
    #: For adversarial streams: instance-qualified PCV name -> value the
    #: replay must observe (each is that PCV's declared upper bound for
    #: the configured NF), e.g. ``{"fwd.t": 16, "rev.t": 16}``.
    expected_worst: Mapping[str, int] = field(default_factory=dict)

    @cached_property
    def stimuli(self) -> Tuple[Stimulus, ...]:
        """The stimulus stream, built on first access."""
        return tuple(self.build())


# --------------------------------------------------------------------------- #
# Shared by several NFs
# --------------------------------------------------------------------------- #
#: Fixed WAN-side endpoints of the bench traffic (TEST-NET addresses).
WAN_SERVER = 0xC6336401  # 198.51.100.1, the server internal flows talk to
WAN_CLIENT = 0xCB007163  # 203.0.113.99, the client probing leased ports
NAT_PUBLIC = 0xCB007101  # 203.0.113.1, the NAT's public address

#: How many distinct keys (MACs or flows) the uniform and zipf streams
#: sample from, and how many ingress ports the bridge's frames arrive on.
POPULATION = 12
BRIDGE_PORTS = 4


def _flows(rng: random.Random) -> List[Tuple[int, int]]:
    """:data:`POPULATION` random ``(source address, source port)`` flows."""
    return [(rng.randrange(1 << 32), rng.randrange(1024, 1 << 16)) for _ in range(POPULATION)]


def _mixed_pair(
    make_harness: Callable[[], NFHarness],
    rng: random.Random,
    population: int,
    packets: int,
    draw: Callable[[random.Random, int], object],
    mix: Callable[[List[int], List[object], str], List[Stimulus]],
) -> List[Workload]:
    """The uniform and zipf workloads: ``mix(indices, draws, note)``.

    A stream is built in two steps.  The draw step is the only one that
    reads ``rng``: it samples the key indices, then takes ``draw(rng, n)``
    for each packet ``n`` in order.  The frame step, ``mix``, turns the
    indices and draws into stimuli.  Both streams draw from ``rng``,
    uniform first, so building zipf takes uniform's draws, not its
    stimuli, and keeps them for uniform: either stream keeps the draws
    it always had, whichever is read first.
    """
    drawn: Dict[str, Tuple[List[int], List[object]]] = {}

    def build(name: str) -> List[Stimulus]:
        for stream, sample in (("uniform", uniform_indices), ("zipf", zipf_indices)):
            if stream not in drawn:
                indices = sample(rng, population, packets)
                drawn[stream] = indices, [draw(rng, n) for n in range(packets)]
            if stream == name:
                return mix(*drawn[stream], name)

    return [Workload(name, make_harness(), partial(build, name)) for name in ("uniform", "zipf")]


def _frames() -> Callable[..., bytes]:
    """A frame cache for one stream build: ``frame(build, *args, cut=None, **options)``.

    That is ``build(*args, **options)[:cut]``, made on its first request
    (a cut one sliced from the whole frame) and the same ``bytes`` after.
    """
    made: Dict[tuple, bytes] = {}

    def frame(
        build: Callable[..., bytes], *args: object, cut: Optional[int] = None, **options: object
    ) -> bytes:
        key = (build, args, cut, *options.items())
        packet = made.get(key)
        if packet is None:
            whole = build(*args, **options) if cut is None else frame(build, *args, **options)
            packet = made[key] = whole[:cut]
        return packet

    return frame


def _shared() -> Callable[[Stimulus], Stimulus]:
    """``share(stimulus)``: this build's first stimulus with its packet and note.

    Only for stimuli without scalars, which the key leaves out.
    """
    made: Dict[Tuple[bytes, str], Stimulus] = {}
    return lambda stimulus: made.setdefault((stimulus.packet, stimulus.note), stimulus)


def _scan_sweep(
    harness: NFHarness,
    packets: int,
    frame: Callable[[int], bytes],
    scalars: Optional[Callable[[int], Mapping[str, int]]] = None,
    prefix: Callable[[], List[Stimulus]] = list,
) -> Workload:
    """A ZMap-style sweep: after ``prefix()``, frame ``n`` is ``frame(n)``.

    Every NF's ``scan_sweep`` is this loop; they differ only in the
    frame, the scalars, and — for the LB — the backend activation that
    precedes the sweep.  Without ``scalars`` every stimulus keeps the
    shared empty mapping ``Stimulus`` defaults to.
    """

    def stimulus(n: int) -> Stimulus:
        if scalars is None:
            return Stimulus(packet=frame(n), note="scan")
        return Stimulus(packet=frame(n), scalars=scalars(n), note="scan")

    return Workload(
        "scan_sweep",
        harness,
        lambda: prefix() + [stimulus(n) for n in range(packets)],
    )


def _inside_source(n: int) -> bytes:
    """Sweep frame ``n`` from inside: a fresh source endpoint per frame."""
    return nat_frame(0x2D000000 + n, 33333, WAN_SERVER, 80)


# --------------------------------------------------------------------------- #
# Bridge
# --------------------------------------------------------------------------- #
def _bridge_draw(rng: random.Random, n: int) -> Tuple[Optional[int], int]:
    """Packet ``n``'s draws: a truncation length (every 17th), then its port."""
    cut = rng.randrange(0, 13) if n % 17 == 0 else None
    return cut, rng.randrange(BRIDGE_PORTS)


def _bridge_mixed(
    indices: List[int], draws: List[Tuple[Optional[int], int]], macs: List[int], note: str
) -> List[Stimulus]:
    """Turn sampled MAC indices into a frame mix covering every class."""
    frame = _frames()
    stimuli: List[Stimulus] = []
    for n, (index, (cut, in_port)) in enumerate(zip(indices, draws)):
        dst = macs[index]
        if cut is not None:
            packet = frame(mac_bytes, dst, cut=cut)  # truncated frame
        else:
            packet = frame(ethernet_frame, dst, macs[indices[(n * 7 + 3) % len(indices)]])
        stimuli.append(
            Stimulus(packet=packet, scalars={"in_port": in_port, "time": n * 3}, note=note)
        )
    return stimuli


def bridge_workloads(
    *,
    seed: int = 2019,
    capacity: int = 16,
    timeout: int = 50,
    packets: int = 150,
) -> List[Workload]:
    """The bridge's five evaluation workloads (fresh state per stream)."""
    rng = random.Random(seed)
    macs = [rng.randrange(1, 1 << 48) for _ in range(POPULATION)]
    return [
        *_mixed_pair(
            lambda: BRIDGE.harness(capacity=capacity, timeout=timeout),
            rng,
            POPULATION,
            packets,
            _bridge_draw,
            lambda indices, draws, note: _bridge_mixed(indices, draws, macs, note),
        ),
        bridge_adversarial(capacity=capacity, timeout=timeout),
        bridge_scan_sweep(capacity=capacity, timeout=timeout, packets=packets),
        bridge_header_flood(capacity=capacity, timeout=timeout, packets=packets),
    ]


def colliding_keys(
    count: int, *, buckets: int, start: int = 1, stop: int = 1 << 48
) -> List[int]:
    """Find ``count`` keys in ``[start, stop)`` sharing one hash bucket.

    Keys sharing a bucket of a :class:`ChainingHashMap` pile into one
    chain, so an operation on the chain's tail inspects ``count`` links —
    the lever every map-based adversarial stream uses to pin an
    instance's ``t`` PCV to its declared bound.
    """
    probe = ChainingHashMap("probe", capacity=max(count, 1), buckets=buckets)
    target = probe._hash(start)
    matches = (key for key in range(start, stop) if probe._hash(key) == target)
    keys = list(islice(matches, count))
    if len(keys) < count:
        raise RuntimeError("could not find enough colliding keys")
    return keys


def colliding_mac_keys(capacity: int) -> List[int]:
    """Find ``capacity`` 48-bit keys that share one MAC-table bucket.

    The bridge's table chains inside a :class:`ChainingHashMap` with
    ``capacity`` buckets, so these keys build a single maximal chain and a
    tail lookup inspects ``capacity`` links — the declared maximum of the
    table's ``t`` PCV.
    """
    return colliding_keys(capacity, buckets=capacity)


def colliding_ports(capacity: int, *, start: int = 1024) -> List[int]:
    """Find ``capacity`` 16-bit ports that share one reverse-table bucket.

    Used as the NAT's adversarial lease pool: every leased port chains
    into one bucket of the reverse flow table, so refreshing the last
    lease inspects ``capacity`` links (``rev.t`` at its bound).
    """
    return colliding_keys(capacity, buckets=capacity, start=start, stop=1 << 16)


def bridge_adversarial(*, capacity: int = 16, timeout: int = 50) -> Workload:
    """The bridge worst-case stream: every PCV driven to its bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — learn ``capacity`` colliding source MACs (unknown
       destination: each frame floods), building one maximal hash chain.
    2. ``worst_t`` — a frame from the chain's *tail* MAC towards its
       *head* MAC on another port: the learning ``put`` refreshes the
       tail after inspecting ``t = capacity`` links, and the destination
       is known elsewhere, so the frame is forwarded (class ``hit``).
    3. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``w = wheel_slots`` slots and expires
       all ``e = capacity`` entries.
    """
    harness = BRIDGE.harness(capacity=capacity, timeout=timeout)
    table = harness.structures[0]
    wheel_slots = table.wheel_slots
    keys = colliding_mac_keys(capacity)
    unknown = next(k for k in range(1, 1 << 16) if k not in set(keys))
    stimuli: List[Stimulus] = []
    for i, key in enumerate(keys):
        stimuli.append(
            Stimulus(
                packet=ethernet_frame(unknown, key),
                scalars={"in_port": 1, "time": i},
                note="fill",
            )
        )
    fill_end = len(keys) - 1
    stimuli.append(
        Stimulus(
            packet=ethernet_frame(keys[0], keys[-1]),
            scalars={"in_port": 2, "time": fill_end},
            note="worst_t",
        )
    )
    # Latest deadline: the tail refresh at fill_end + timeout.  Jumping
    # past it by a full revolution makes the sweep advance wheel_slots
    # slots and visit every deadline slot.
    doom = fill_end + timeout + wheel_slots + 1
    stimuli.append(
        Stimulus(
            packet=ethernet_frame(unknown, unknown + 1),
            scalars={"in_port": 3, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        lambda: stimuli,
        expected_worst={
            table.pcv_name("t"): capacity,
            table.pcv_name("e"): capacity,
            table.pcv_name("w"): wheel_slots,
        },
    )


def bridge_scan_sweep(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A ZMap-style sweep across the segment: one source MAC per frame.

    Every frame floods (the fixed destination is never learned) while its
    distinct source *is* learned, so the sweep fills the MAC table front
    to back and keeps churning it — the learning path under a scanner,
    with none of the hash collisions the adversarial stream crafts.
    """
    target = 0xBADD00C0FFEE  # swept-towards MAC, never a source
    return _scan_sweep(
        BRIDGE.harness(capacity=capacity, timeout=timeout),
        packets,
        lambda n: ethernet_frame(target, 0x2D0000000000 + n),
        lambda n: {"in_port": n % 4, "time": n},
    )


def bridge_header_flood(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A crafted-header flood: one attacker MAC hammering one victim.

    The victim announces itself, then the attacker blasts the same header
    at it; the victim occasionally answers (keeping its entry warm),
    every 13th frame is a runt, and every 29th arrives on the victim's
    own port — the hairpin the bridge must drop.
    """
    victim, attacker = 0x00AA00000001, 0x00BB00000002

    def stream() -> List[Stimulus]:
        frame = _frames()
        learn = ethernet_frame(0xBADD00C0FFEE, victim)
        stimuli = [Stimulus(packet=learn, scalars={"in_port": 1, "time": 0}, note="learn")]
        for n in range(1, packets):
            in_port = 2
            if n % 13 == 0:
                packet = frame(ethernet_frame, victim, attacker, cut=n % 12)  # runt burst
            elif n % 47 == 1:
                packet = frame(ethernet_frame, attacker, victim)  # victim answers
                in_port = 1
            else:
                packet = frame(ethernet_frame, victim, attacker)
                if n % 29 == 0:
                    in_port = 1  # hairpin onto the victim's own port
            stimuli.append(
                Stimulus(packet=packet, scalars={"in_port": in_port, "time": n}, note="flood")
            )
        return stimuli

    return Workload("header_flood", BRIDGE.harness(capacity=capacity, timeout=timeout), stream)


# --------------------------------------------------------------------------- #
# Router
# --------------------------------------------------------------------------- #
#: The address the adversarial route chain nests along.
CHAIN_ADDRESS = 0x8A3B1CF5


def router_fib_routes() -> List[Tuple[int, int, int]]:
    """The bench FIB: ``(prefix, length, port)`` triples.

    A route at *every* length 1–32 along :data:`CHAIN_ADDRESS` (the
    adversarial chain) plus a few scattered shorter prefixes.  No default
    route, so ``no_route`` traffic exists.
    """
    routes = [(CHAIN_ADDRESS, length, length % router_nf.MAX_PORTS) for length in range(1, 33)]
    routes += [
        (0x0A000000, 8, 40),  # 10.0.0.0/8
        (0x0A140000, 16, 41),  # 10.20.0.0/16
        (0x0A141E00, 24, 42),  # 10.20.30.0/24
        (0x2C000000, 6, 43),  # 44.0.0.0/6
    ]
    return routes


def _router_destinations() -> List[int]:
    """Candidate destinations touching routed, nested and unrouted space."""
    return [
        CHAIN_ADDRESS,  # deepest possible match (/32)
        CHAIN_ADDRESS ^ 0x1,  # walks deep, matches the /31
        CHAIN_ADDRESS ^ 0xFF,  # matches a mid-length nested prefix
        0x0A141E07,  # 10.20.30.7 -> /24
        0x0A140101,  # 10.20.1.1  -> /16
        0x0A636363,  # 10.99.99.99 -> /8
        0x2D010203,  # 45.1.2.3 -> /6
        0x7F000001,  # 127.0.0.1 -> no_route
        0x01020304,  # 1.2.3.4 -> no_route
    ]


def _router_draw(rng: random.Random, n: int) -> Optional[int]:
    """Packet ``n``'s draw: a truncation length (every 13th) or a live TTL."""
    if n % 13 == 0:
        return rng.randrange(0, 34)
    return None if n % 11 == 0 or n % 7 == 0 else 1 + rng.randrange(1, 255)


def _router_mixed(indices: List[int], draws: List[Optional[int]], note: str) -> List[Stimulus]:
    """Turn sampled destination indices into a frame mix for all classes."""
    destinations = _router_destinations()
    frame, share = _frames(), _shared()
    stimuli: List[Stimulus] = []
    for n, (index, drawn) in enumerate(zip(indices, draws)):
        dst = destinations[index % len(destinations)]
        if n % 13 == 0:
            packet = frame(ipv4_frame, dst, cut=drawn)  # truncated frame
        elif n % 11 == 0:
            packet = frame(ipv4_frame, dst, ethertype=(0x86, 0xDD))  # IPv6: dropped
        elif n % 7 == 0:
            packet = frame(ipv4_frame, dst, ttl=1)  # TTL expires here
        else:
            packet = frame(ipv4_frame, dst, ttl=drawn)
        stimuli.append(share(Stimulus(packet=packet, note=note)))
    return stimuli


def router_workloads(*, seed: int = 2019, packets: int = 150) -> List[Workload]:
    """The router's five evaluation workloads (fresh FIB per stream)."""
    rng = random.Random(seed)
    return [
        *_mixed_pair(
            lambda: ROUTER.harness(routes=router_fib_routes()),
            rng,
            len(_router_destinations()),
            packets,
            _router_draw,
            _router_mixed,
        ),
        router_adversarial(),
        router_scan_sweep(packets=packets),
        router_header_flood(packets=packets),
    ]


def router_adversarial() -> Workload:
    """The router worst-case stream: the deepest walk an IPv4 lookup allows.

    The FIB nests a route at every length 1–32 along
    :data:`CHAIN_ADDRESS`; routing that exact address visits the root
    plus one node per bit — ``d = 33``, the registry bound of ``d``.
    """
    stimuli = [
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS), note="worst_d"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS ^ 0x1), note="deep_sibling"),
        Stimulus(packet=ipv4_frame(0x7F000001), note="no_route"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS, ttl=1), note="ttl"),
        Stimulus(packet=ipv4_frame(CHAIN_ADDRESS)[:10], note="short"),
    ]
    harness = ROUTER.harness(routes=router_fib_routes())
    fib = harness.structures[0]
    return Workload(
        "adversarial",
        harness,
        lambda: stimuli,
        expected_worst={fib.pcv_name("d"): MAX_DEPTH},
    )


def router_scan_sweep(*, packets: int = 150) -> Workload:
    """A ZMap-style destination sweep across the IPv4 space.

    Destinations stride through the address space (a golden-ratio walk,
    so consecutive probes land far apart); most find no route, some land
    in the routed prefixes — the FIB under a scanner instead of a traffic
    mix.
    """
    return _scan_sweep(
        ROUTER.harness(routes=router_fib_routes()),
        packets,
        lambda n: ipv4_frame((0x9E3779B1 * (n + 1)) & 0xFFFFFFFF),
    )


def router_header_flood(*, packets: int = 150) -> Workload:
    """A crafted-header flood hammering the FIB's deepest route.

    Two of every three frames carry the chain address with a full TTL —
    each walks all ``rt.d = 33`` trie nodes, so the flood pins the depth
    bound by sheer repetition; the rest arrive with ``ttl = 1`` (an
    expiry flood), and every 31st is a runt.
    """
    harness = ROUTER.harness(routes=router_fib_routes())
    fib = harness.structures[0]

    def stream() -> List[Stimulus]:
        frame, share = _frames(), _shared()
        stimuli: List[Stimulus] = []
        for n in range(packets):
            if n % 31 == 0:
                packet = frame(ipv4_frame, CHAIN_ADDRESS, cut=n % 20)
            elif n % 3 == 0:
                packet = frame(ipv4_frame, CHAIN_ADDRESS, ttl=1)
            else:
                packet = frame(ipv4_frame, CHAIN_ADDRESS, ttl=255)
            stimuli.append(share(Stimulus(packet=packet, note="flood")))
        return stimuli

    return Workload(
        "header_flood",
        harness,
        stream,
        expected_worst={fib.pcv_name("d"): MAX_DEPTH},
    )


# --------------------------------------------------------------------------- #
# NAT
# --------------------------------------------------------------------------- #
def _nat_draw(rng: random.Random, n: int) -> Optional[int]:
    """NAT packet ``n``'s draw: a truncation length or a WAN probe's port."""
    if n % 17 == 0:
        return rng.randrange(0, 37)
    return 1 + rng.randrange(3) if n % 11 != 0 and n % 5 == 0 else None


def _nat_mixed(
    indices: List[int],
    draws: List[Optional[int]],
    flows: List[Tuple[int, int]],
    pool_ports: List[int],
    note: str,
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Most frames are LAN→WAN traffic from the sampled flow (new or
    existing); every 17th is truncated (``short``), every 11th carries a
    non-IPv4 EtherType (``non_ip``), and every 5th is WAN→LAN probing a
    pool port (``external_hit`` once the lease exists, ``external_miss``
    before or after it).
    """
    frame, share = _frames(), _shared()
    stimuli: List[Stimulus] = []
    for n, (index, drawn) in enumerate(zip(indices, draws)):
        src_ip, src_port = flows[index]
        scalars = {"in_port": nat_nf.LAN_PORT, "time": n * 3}
        if n % 17 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, cut=drawn)
        elif n % 11 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 5 == 0:
            port = pool_ports[index % len(pool_ports)]
            packet = frame(nat_frame, WAN_CLIENT, 443, NAT_PUBLIC, port)
            scalars["in_port"] = drawn
        else:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note=note))
    return stimuli


def nat_workloads(
    *,
    seed: int = 2019,
    capacity: int = 16,
    timeout: int = 50,
    packets: int = 150,
) -> List[Workload]:
    """The NAT's five evaluation workloads (fresh state per stream).

    The uniform/Zipf pool holds ``4 * capacity`` sequential ports from
    :data:`repro.nf.nat.PORT_BASE`: leases are never released back (the
    allocator is a lease-for-bench-lifetime pool), so expired flows that
    return consume fresh ports — the head-heavy Zipf stream can genuinely
    run the pool dry, exercising ``no_ports`` under realistic traffic.
    """
    rng = random.Random(seed)
    flows = _flows(rng)
    pool = list(range(nat_nf.PORT_BASE, nat_nf.PORT_BASE + 4 * capacity))
    return [
        *_mixed_pair(
            lambda: NAT.harness(capacity=capacity, timeout=timeout, pool=pool),
            rng,
            POPULATION,
            packets,
            _nat_draw,
            lambda indices, draws, note: _nat_mixed(indices, draws, flows, pool, note),
        ),
        nat_adversarial(capacity=capacity, timeout=timeout),
        nat_scan_sweep(capacity=capacity, timeout=timeout, packets=packets),
        nat_header_flood(capacity=capacity, timeout=timeout, packets=packets),
    ]


def nat_adversarial(*, capacity: int = 16, timeout: int = 50) -> Workload:
    """The NAT worst-case stream: both instances' PCVs driven to bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — ``capacity`` internal flows whose keys collide in the
       forward table are established; the allocator's pool is crafted so
       the leased ports *also* collide in the reverse table.  Both tables
       end up holding one maximal chain each, and the pool is exhausted.
    2. ``worst_t`` — a frame from the *last* established flow: the lookup
       and refresh walk ``fwd.t = capacity`` links, and refreshing its
       lease (the last port inserted) walks ``rev.t = capacity`` links —
       both ``t`` bounds pinned by one packet, separately observable only
       because the PCVs are instance-qualified.
    3. ``no_ports`` — a brand-new flow finds the pool exhausted: dropped.
    4. ``external_hit`` — a WAN frame to the first lease: rewritten and
       forwarded.
    5. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``wheel_slots`` slots and expires all
       ``capacity`` entries in *each* table (``fwd.w``/``fwd.e`` and
       ``rev.w``/``rev.e`` at their bounds); the frame itself probes an
       unleased port and is dropped (``external_miss``).
    """
    pool = colliding_ports(capacity)
    harness = NAT.harness(capacity=capacity, timeout=timeout, pool=pool)
    fwd, rev, _ = harness.structures
    wheel_slots = fwd.wheel_slots
    flows = colliding_keys(capacity, buckets=capacity)
    flow_set = set(flows)
    stimuli: List[Stimulus] = []
    for i, key in enumerate(flows):
        stimuli.append(
            Stimulus(
                packet=nat_frame(key >> 16, key & 0xFFFF, WAN_SERVER, 80),
                scalars={"in_port": nat_nf.LAN_PORT, "time": i},
                note="fill",
            )
        )
    tail = flows[-1]
    stimuli.append(
        Stimulus(
            packet=nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": nat_nf.LAN_PORT, "time": capacity},
            note="worst_t",
        )
    )
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    stimuli.append(
        Stimulus(
            packet=nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": nat_nf.LAN_PORT, "time": capacity},
            note="no_ports",
        )
    )
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, pool[0]),
            scalars={"in_port": 1, "time": capacity},
            note="external_hit",
        )
    )
    # Latest deadline: the refreshes at time `capacity` plus the timeout.
    # Jumping past it by a full revolution makes each table's sweep
    # advance wheel_slots slots and visit every deadline slot.
    doom = capacity + timeout + wheel_slots + 1
    unleased = next(p for p in range(1, 1 << 16) if p not in set(pool))
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, NAT_PUBLIC, unleased),
            scalars={"in_port": 1, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        lambda: stimuli,
        expected_worst={
            fwd.pcv_name("t"): capacity,
            fwd.pcv_name("e"): capacity,
            fwd.pcv_name("w"): wheel_slots,
            rev.pcv_name("t"): capacity,
            rev.pcv_name("e"): capacity,
            rev.pcv_name("w"): wheel_slots,
        },
    )


def nat_scan_sweep(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A ZMap-style sweep from inside: one fresh internal flow per frame.

    Ports are leased for the bench lifetime, so a sweep of distinct
    sources drains the ``4 * capacity`` pool front to back and every
    admission after that is ``no_ports`` — pool exhaustion under a
    realistic scanner, not a crafted collision.
    """
    pool = list(range(nat_nf.PORT_BASE, nat_nf.PORT_BASE + 4 * capacity))
    return _scan_sweep(
        NAT.harness(capacity=capacity, timeout=timeout, pool=pool),
        packets,
        _inside_source,
        lambda n: {"in_port": nat_nf.LAN_PORT, "time": n},
    )


def nat_header_flood(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A WAN-side port-scan flood against the NAT's public address.

    One internal flow establishes a lease, then the flood probes the
    public ports: every 5th probe hits the lease (refreshing it, so it
    never expires mid-flood), the rest probe unleased ports and are
    dropped; every 17th frame is a runt.
    """
    pool = list(range(nat_nf.PORT_BASE, nat_nf.PORT_BASE + 4 * capacity))
    inside_ip, inside_port = 0x0A000063, 40000  # 10.0.0.99, the one real flow

    def stream() -> List[Stimulus]:
        frame = _frames()
        lease = nat_frame(inside_ip, inside_port, WAN_SERVER, 80)
        scalars = {"in_port": nat_nf.LAN_PORT, "time": 0}
        stimuli = [Stimulus(packet=lease, scalars=scalars, note="lease")]
        for n in range(1, packets):
            scalars = {"in_port": 1, "time": n}
            if n % 17 == 0:
                packet = frame(nat_frame, WAN_CLIENT, 443, NAT_PUBLIC, pool[0], cut=n % 12)
            elif n % 5 == 0:
                packet = frame(nat_frame, WAN_CLIENT, 443, NAT_PUBLIC, pool[0])
            else:
                packet = frame(nat_frame, WAN_CLIENT, 443, NAT_PUBLIC, pool[-1] + 1 + (n % 512))
            stimuli.append(Stimulus(packet=packet, scalars=scalars, note="flood"))
        return stimuli

    harness = NAT.harness(capacity=capacity, timeout=timeout, pool=pool)
    return Workload("header_flood", harness, stream)


# --------------------------------------------------------------------------- #
# Load balancer
# --------------------------------------------------------------------------- #
def colliding_backends(count: int, *, table_size: int) -> List[int]:
    """Find ``count`` backend ids whose Maglev permutations are identical.

    Backend ids sharing one ``(offset, skip)`` pair walk the same slot
    permutation, which makes the round-robin fill perform *exactly* its
    proven worst-case iteration count (see
    :func:`repro.structures.max_fill_iterations`) — the lever the LB
    adversarial stream uses to pin ``lb_tbl.f`` to its declared bound.
    """
    probe = MaglevTable("probe", table_size=table_size, max_backends=max(count, 1))
    target = probe.permutation_params(1)
    matches = (
        backend for backend in range(1, 1 << 16) if probe.permutation_params(backend) == target
    )
    ids = list(islice(matches, count))
    if len(ids) < count:
        raise RuntimeError("could not find enough colliding backend ids")
    return ids


def lb_control_stimulus(cmd: int, backend: int, time: int, note: str = "ctrl") -> Stimulus:
    """A control frame: no packet bytes, the command in the scalars.

    Backends arrive through replayed control frames, never host-side: the
    repopulation cost (``lb_tbl.f``) must land in traces for the
    adversarial bound check to observe it.  Public because the
    service-graph churn events (:mod:`repro.net.churn`) inject exactly
    these frames mid-stream.
    """
    return Stimulus(
        packet=b"", scalars={"cmd": cmd, "arg": backend, "time": time}, note=note
    )


def lb_data_stimulus(packet: bytes, time: int, note: str = "data") -> Stimulus:
    """A data frame: ``cmd = CMD_DATA``, the flow in the packet bytes."""
    return Stimulus(
        packet=packet, scalars={"cmd": lb_nf.CMD_DATA, "arg": 0, "time": time}, note=note
    )


def _lb_draw(rng: random.Random, n: int) -> Optional[int]:
    """LB packet ``n``'s draw: a truncation length on every 17th data frame."""
    return rng.randrange(0, 37) if n % 17 == 0 and n % 29 != 14 else None


def _lb_mixed(
    indices: List[int],
    draws: List[Optional[int]],
    flows: List[Tuple[int, int]],
    backends: List[int],
    note: str,
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Starts by activating every backend (``reconfig``), then streams
    LAN-side flows; every 17th frame is truncated (``short``), every 11th
    carries a non-IPv4 EtherType (``non_ip``), and every 29th is a
    control frame alternately draining and re-activating a rotating
    backend — flows bound to the drained backend re-select on their next
    packet (``backend_drained``).
    """
    frame = _frames()
    stimuli: List[Stimulus] = [
        lb_control_stimulus(lb_nf.CMD_ADD, backend, 0, note) for backend in backends
    ]
    churn = 0
    for n, (index, drawn) in enumerate(zip(indices, draws)):
        src_ip, src_port = flows[index]
        time = n * 3
        if n % 29 == 14:
            backend = backends[(churn // 2) % len(backends)]
            cmd = lb_nf.CMD_REMOVE if churn % 2 == 0 else lb_nf.CMD_ADD
            churn += 1
            stimuli.append(lb_control_stimulus(cmd, backend, time, note))
            continue
        if n % 17 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, cut=drawn)
        elif n % 11 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        else:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(lb_data_stimulus(packet, time, note))
    return stimuli


def lb_workloads(
    *,
    seed: int = 2019,
    capacity: int = 16,
    timeout: int = 50,
    packets: int = 150,
    table_size: int = 13,
    max_backends: int = 4,
) -> List[Workload]:
    """The LB's five evaluation workloads (fresh state per stream)."""
    rng = random.Random(seed)
    flows = _flows(rng)
    backends = rng.sample(range(1, 1 << 16), max_backends)
    geometry = dict(table_size=table_size, max_backends=max_backends)
    return [
        *_mixed_pair(
            lambda: LB.harness(capacity=capacity, timeout=timeout, **geometry),
            rng,
            POPULATION,
            packets,
            _lb_draw,
            lambda indices, draws, note: _lb_mixed(indices, draws, flows, backends, note),
        ),
        lb_adversarial(capacity=capacity, timeout=timeout, **geometry),
        lb_scan_sweep(capacity=capacity, timeout=timeout, packets=packets, **geometry),
        lb_header_flood(capacity=capacity, timeout=timeout, packets=packets, **geometry),
    ]


def lb_adversarial(
    *,
    capacity: int = 16,
    timeout: int = 50,
    table_size: int = 13,
    max_backends: int = 4,
) -> Workload:
    """The LB worst-case stream: data-plane *and* control-plane bounds.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``ctrl_fill`` — activate ``max_backends`` backends whose permutation
       parameters all collide: each repopulation performs exactly the
       worst-case fill count for its backend count, and the last one pins
       ``lb_tbl.f`` to its declared (proven-tight) bound.
    2. ``churn`` — drain and re-activate one backend: the removal phase
       the repopulation contract exists for, and the re-add hits the
       ``lb_tbl.f`` bound a second time.
    3. ``fill`` — ``capacity`` flows whose keys collide in the connection
       table are bound, building one maximal chain.
    4. ``worst_t`` — a frame from the *last* bound flow: the affinity
       lookup and refresh walk ``conn.t = capacity`` links.
    5. ``drained`` — the tail flow's backend is drained, then the tail
       flow re-selects and rebinds (class ``backend_drained``).
    6. ``no_backends`` — every remaining backend is drained; a fresh flow
       (select path) and the tail flow (reselect path) are both dropped.
    7. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``conn.w = wheel_slots`` slots and
       expires all ``conn.e = capacity`` affinity entries.
    """
    harness = LB.harness(
        capacity=capacity, timeout=timeout, table_size=table_size, max_backends=max_backends
    )
    tbl, conn = harness.structures
    wheel_slots = conn.wheel_slots
    backends = colliding_backends(max_backends, table_size=table_size)
    flows = colliding_keys(capacity, buckets=capacity)
    flow_set = set(flows)

    stimuli: List[Stimulus] = [
        lb_control_stimulus(lb_nf.CMD_ADD, backend, 0, "ctrl_fill") for backend in backends
    ]
    stimuli.append(lb_control_stimulus(lb_nf.CMD_REMOVE, backends[0], 0, "churn"))
    stimuli.append(lb_control_stimulus(lb_nf.CMD_ADD, backends[0], 0, "churn"))
    for i, key in enumerate(flows, start=1):
        frame = nat_frame(key >> 16, key & 0xFFFF, WAN_SERVER, 80)
        stimuli.append(lb_data_stimulus(frame, i, "fill"))
    tail = flows[-1]
    last = len(flows)
    tail_frame = nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80)
    stimuli.append(lb_data_stimulus(tail_frame, last, "worst_t"))
    # Reconstruct the tail flow's backend on a scratch table (repopulation
    # is deterministic in the active set) and drain exactly that backend.
    scratch = MaglevTable("scratch", table_size=table_size, max_backends=max_backends)
    for backend in backends:
        scratch.add_backend(backend)
    drained = scratch.select(tail)
    stimuli.append(lb_control_stimulus(lb_nf.CMD_REMOVE, drained, last, "drained"))
    stimuli.append(lb_data_stimulus(tail_frame, last, "drained"))
    for backend in backends:
        if backend != drained:
            stimuli.append(lb_control_stimulus(lb_nf.CMD_REMOVE, backend, last, "no_backends"))
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    fresh_frame = nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80)
    stimuli.append(lb_data_stimulus(fresh_frame, last, "no_backends"))
    stimuli.append(lb_data_stimulus(tail_frame, last, "no_backends"))
    # Latest deadline: the rebind at time `last` plus the timeout.  Jumping
    # past it by a full revolution makes the sweep advance wheel_slots
    # slots and visit every deadline slot.
    doom = last + timeout + wheel_slots + 1
    stimuli.append(
        lb_data_stimulus(nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80), doom, "worst_e")
    )
    return Workload(
        "adversarial",
        harness,
        lambda: stimuli,
        expected_worst={
            conn.pcv_name("t"): capacity,
            conn.pcv_name("e"): capacity,
            conn.pcv_name("w"): wheel_slots,
            tbl.pcv_name("f"): max_fill_iterations(max_backends, table_size),
        },
    )


def _lb_scan_backends(max_backends: int) -> List[int]:
    """Deterministic distinct backend ids for the sweep/flood streams."""
    return [101 + 97 * i for i in range(max_backends)]


def lb_scan_sweep(
    *,
    capacity: int = 16,
    timeout: int = 50,
    table_size: int = 13,
    max_backends: int = 4,
    packets: int = 150,
) -> Workload:
    """A ZMap-style sweep through the VIP: one fresh flow per frame.

    Every frame selects and binds a brand-new flow (the ``new_flow``
    path, back to back), churning the connection table without a single
    repeat — affinity buys nothing under a scanner.
    """
    return _scan_sweep(
        LB.harness(
            capacity=capacity, timeout=timeout, table_size=table_size, max_backends=max_backends
        ),
        packets,
        _inside_source,
        lambda n: {"cmd": lb_nf.CMD_DATA, "arg": 0, "time": n},
        prefix=lambda: [
            lb_control_stimulus(lb_nf.CMD_ADD, backend, 0, "ctrl")
            for backend in _lb_scan_backends(max_backends)
        ],
    )


def lb_header_flood(
    *,
    capacity: int = 16,
    timeout: int = 50,
    table_size: int = 13,
    max_backends: int = 4,
    packets: int = 150,
) -> Workload:
    """A crafted-header flood: one flow hammering the VIP at line rate.

    The first data frame binds the flow; every later one rides the
    affinity fast path (``existing_flow``), refreshed far faster than it
    can expire; every 17th frame is a runt.
    """
    harness = LB.harness(
        capacity=capacity, timeout=timeout, table_size=table_size, max_backends=max_backends
    )

    def stream() -> List[Stimulus]:
        stimuli: List[Stimulus] = [
            lb_control_stimulus(lb_nf.CMD_ADD, backend, 0, "ctrl")
            for backend in _lb_scan_backends(max_backends)
        ]
        frame = _frames()
        flow = (0x0A0A0A0A, 55555, WAN_SERVER, 80)
        for n in range(packets):
            cut = n % 12 if n % 17 == 3 else None
            stimuli.append(lb_data_stimulus(frame(nat_frame, *flow, cut=cut), n, "flood"))
        return stimuli

    return Workload("header_flood", harness, stream)


# --------------------------------------------------------------------------- #
# Firewall
# --------------------------------------------------------------------------- #
def _firewall_draw(rng: random.Random, n: int) -> Optional[int]:
    """Firewall packet ``n``'s draw: a truncation length or a WAN probe's port."""
    if n % 17 == 0:
        return rng.randrange(0, 37)
    return 1 + rng.randrange(3) if n % 11 != 0 and n % 23 != 6 and n % 5 == 0 else None


def _firewall_mixed(
    indices: List[int], draws: List[Optional[int]], flows: List[Tuple[int, int]], note: str
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix covering every class.

    Most frames are LAN→WAN traffic from the sampled flow (new or
    established); every 17th is truncated (``short``), every 11th carries
    a non-IPv4 EtherType (``non_ip``), every 23rd is an outbound frame to
    the filtered port (``denied``), and every 5th is a WAN frame probing
    the sampled endpoint (``inbound_established`` once the connection
    exists, ``unsolicited`` before it does or after it expires).
    """
    frame, share = _frames(), _shared()
    stimuli: List[Stimulus] = []
    for n, (index, drawn) in enumerate(zip(indices, draws)):
        src_ip, src_port = flows[index]
        scalars = {"in_port": firewall_nf.LAN_PORT, "time": n * 3}
        if n % 17 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, cut=drawn)
        elif n % 11 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        elif n % 23 == 6:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, firewall_nf.DENY_PORT)
        elif n % 5 == 0:
            packet = frame(nat_frame, WAN_CLIENT, 443, src_ip, src_port)
            scalars["in_port"] = drawn
        else:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(Stimulus(packet=packet, scalars=scalars, note=note))
    return stimuli


def firewall_workloads(
    *,
    seed: int = 2019,
    capacity: int = 16,
    timeout: int = 50,
    packets: int = 150,
) -> List[Workload]:
    """The firewall's five evaluation workloads (fresh state per stream).

    The uniform/Zipf streams run with a generous ``4 * capacity`` slot
    pool so realistic traffic is admitted freely — exhausting the pool
    (and reaching ``conn_full``) is the scan sweep's job, which runs with
    the default ``capacity``-sized pool.
    """
    rng = random.Random(seed)
    flows = _flows(rng)
    slots = range(1, 4 * capacity + 1)
    return [
        *_mixed_pair(
            lambda: FIREWALL.harness(capacity=capacity, timeout=timeout, slots=slots),
            rng,
            POPULATION,
            packets,
            _firewall_draw,
            lambda indices, draws, note: _firewall_mixed(indices, draws, flows, note),
        ),
        firewall_adversarial(capacity=capacity, timeout=timeout),
        firewall_scan_sweep(capacity=capacity, timeout=timeout, packets=packets),
        firewall_header_flood(capacity=capacity, timeout=timeout, packets=packets),
    ]


def firewall_adversarial(*, capacity: int = 16, timeout: int = 50) -> Workload:
    """The firewall worst-case stream: every ``fw_conn`` PCV at its bound.

    Phases (times chosen so nothing expires before the final sweep):

    1. ``fill`` — ``capacity`` outbound flows whose keys collide in the
       connection table are admitted, building one maximal chain and
       draining the (default, ``capacity``-sized) slot pool.
    2. ``worst_t`` — a frame from the *last* established flow: the lookup
       and lease refresh walk ``fw_conn.t = capacity`` links.
    3. ``conn_full`` — a brand-new outbound flow finds no slot: dropped.
    4. ``inbound`` — a WAN frame to the tail endpoint: forwarded
       read-only (``inbound_established``).
    5. ``denied`` — an outbound frame to the filtered port: dropped by
       the egress rule before any table work.
    6. ``unsolicited`` — a WAN frame to an untracked endpoint: dropped.
    7. ``worst_e`` — time jumps beyond a full wheel revolution past every
       deadline: one sweep advances ``fw_conn.w = wheel_slots`` slots and
       expires all ``fw_conn.e = capacity`` connections.
    """
    harness = FIREWALL.harness(capacity=capacity, timeout=timeout)
    conn = harness.structures[0]
    wheel_slots = conn.wheel_slots
    flows = colliding_keys(capacity, buckets=capacity)
    flow_set = set(flows)
    stimuli: List[Stimulus] = []
    for i, key in enumerate(flows):
        stimuli.append(
            Stimulus(
                packet=nat_frame(key >> 16, key & 0xFFFF, WAN_SERVER, 80),
                scalars={"in_port": firewall_nf.LAN_PORT, "time": i},
                note="fill",
            )
        )
    tail = flows[-1]
    stimuli.append(
        Stimulus(
            packet=nat_frame(tail >> 16, tail & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": firewall_nf.LAN_PORT, "time": capacity},
            note="worst_t",
        )
    )
    fresh = next(k for k in range(1, 1 << 16) if k not in flow_set)
    stimuli.append(
        Stimulus(
            packet=nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, 80),
            scalars={"in_port": firewall_nf.LAN_PORT, "time": capacity},
            note="conn_full",
        )
    )
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, tail >> 16, tail & 0xFFFF),
            scalars={"in_port": 1, "time": capacity},
            note="inbound",
        )
    )
    stimuli.append(
        Stimulus(
            packet=nat_frame(fresh >> 16, fresh & 0xFFFF, WAN_SERVER, firewall_nf.DENY_PORT),
            scalars={"in_port": firewall_nf.LAN_PORT, "time": capacity},
            note="denied",
        )
    )
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, fresh >> 16, fresh & 0xFFFF),
            scalars={"in_port": 1, "time": capacity},
            note="unsolicited",
        )
    )
    # Latest deadline: the tail refresh at time `capacity` plus the
    # timeout.  Jumping past it by a full revolution makes the sweep
    # advance wheel_slots slots and visit every deadline slot.
    doom = capacity + timeout + wheel_slots + 1
    stimuli.append(
        Stimulus(
            packet=nat_frame(WAN_CLIENT, 443, fresh >> 16, fresh & 0xFFFF),
            scalars={"in_port": 1, "time": doom},
            note="worst_e",
        )
    )
    return Workload(
        "adversarial",
        harness,
        lambda: stimuli,
        expected_worst={
            conn.pcv_name("t"): capacity,
            conn.pcv_name("e"): capacity,
            conn.pcv_name("w"): wheel_slots,
        },
    )


def firewall_scan_sweep(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A ZMap-style sweep from inside: one fresh source per frame.

    Slots are leased for the bench lifetime, so a sweep of distinct
    sources drains the default ``capacity``-sized pool front to back and
    every admission after that is ``conn_full`` — connection-table
    exhaustion under a realistic scanner, not a crafted collision.
    """
    return _scan_sweep(
        FIREWALL.harness(capacity=capacity, timeout=timeout),
        packets,
        _inside_source,
        lambda n: {"in_port": firewall_nf.LAN_PORT, "time": n},
    )


def firewall_header_flood(
    *, capacity: int = 16, timeout: int = 50, packets: int = 150
) -> Workload:
    """A SYN-flood-shaped blast against the stateful default-deny.

    Most frames are WAN probes of one never-established LAN endpoint
    (``unsolicited``, back to back); every 5th is an outbound frame to
    the filtered port (the egress rule running hot), and every 17th is a
    runt.
    """
    victim_ip, victim_port = 0x0A00002A, 8080  # the probed LAN endpoint

    def stream() -> List[Stimulus]:
        frame = _frames()
        stimuli: List[Stimulus] = []
        for n in range(packets):
            if n % 17 == 0:
                packet = frame(nat_frame, WAN_CLIENT, 443, victim_ip, victim_port, cut=n % 12)
                scalars = {"in_port": 1, "time": n}
            elif n % 5 == 2:
                packet = frame(nat_frame, victim_ip, victim_port, WAN_SERVER, firewall_nf.DENY_PORT)
                scalars = {"in_port": firewall_nf.LAN_PORT, "time": n}
            else:
                packet = frame(nat_frame, WAN_CLIENT, 443 + (n % 7), victim_ip, victim_port)
                scalars = {"in_port": 1 + (n % 3), "time": n}
            stimuli.append(Stimulus(packet=packet, scalars=scalars, note="flood"))
        return stimuli

    return Workload("header_flood", FIREWALL.harness(capacity=capacity, timeout=timeout), stream)


# --------------------------------------------------------------------------- #
# Monitor
# --------------------------------------------------------------------------- #
def _monitor_draw(rng: random.Random, n: int) -> Optional[int]:
    """Monitor packet ``n``'s draw: a truncation length on every 17th."""
    return rng.randrange(0, 37) if n % 17 == 0 else None


def _monitor_mixed(
    indices: List[int], draws: List[Optional[int]], flows: List[Tuple[int, int]], note: str
) -> List[Stimulus]:
    """Turn sampled flow indices into a frame mix.

    Every 17th frame is truncated (``short``), every 11th carries a
    non-IPv4 EtherType (``non_ip``); the rest count their flow in the
    sketch (``cold_flow`` until a flow's estimate crosses the threshold,
    ``hot_flow`` after — which the head of a Zipf stream genuinely does).
    """
    frame, share = _frames(), _shared()
    stimuli: List[Stimulus] = []
    for n, (index, drawn) in enumerate(zip(indices, draws)):
        src_ip, src_port = flows[index]
        if n % 17 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, cut=drawn)
        elif n % 11 == 0:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD))
        else:
            packet = frame(nat_frame, src_ip, src_port, WAN_SERVER, 80)
        stimuli.append(share(Stimulus(packet=packet, note=note)))
    return stimuli


def monitor_workloads(*, seed: int = 2019, packets: int = 150) -> List[Workload]:
    """The monitor's five evaluation workloads (fresh sketch per stream)."""
    rng = random.Random(seed)
    flows = _flows(rng)
    return [
        *_mixed_pair(
            MONITOR.harness,
            rng,
            POPULATION,
            packets,
            _monitor_draw,
            lambda indices, draws, note: _monitor_mixed(indices, draws, flows, note),
        ),
        monitor_adversarial(),
        monitor_scan_sweep(packets=packets),
        monitor_header_flood(packets=packets),
    ]


def monitor_adversarial() -> Workload:
    """The monitor worst-case stream — which *has* no cost worst case.

    The sketch contributes no PCVs, so there is no bound to pin; instead
    the stream deterministically forces every verdict and the structure's
    only fast path: one flow is blasted ``counter_max + 1`` times —
    crossing the threshold (``hot_flow``) and saturating its counters, so
    the final update takes the saturated path — then a fresh flow passes
    cold, a runt and a non-IPv4 frame cover the drop classes.
    """
    harness = MONITOR.harness()
    hot_ip, hot_port = 0xC0A80001, 40001  # 192.168.0.1, the heavy hitter
    hot_frame = nat_frame(hot_ip, hot_port, WAN_SERVER, 80)
    stimuli: List[Stimulus] = [
        Stimulus(packet=hot_frame, note="flood")
        for _ in range(monitor_nf.MON_COUNTER_MAX + 1)
    ]
    stimuli.append(
        Stimulus(packet=nat_frame(0x0A000001, 12001, WAN_SERVER, 80), note="cold")
    )
    stimuli.append(Stimulus(packet=hot_frame[:9], note="short"))
    stimuli.append(
        Stimulus(
            packet=nat_frame(hot_ip, hot_port, WAN_SERVER, 80, ethertype=(0x86, 0xDD)),
            note="non_ip",
        )
    )
    return Workload("adversarial", harness, lambda: stimuli)


def monitor_scan_sweep(*, packets: int = 150) -> Workload:
    """A ZMap-style sweep past the monitor: one fresh source per frame.

    No flow repeats, so early estimates stay cold; a long enough sweep
    still heats the sketch through sheer collision mass — exactly the
    false-positive behaviour a count-min sketch trades for its constant
    cost.
    """
    return _scan_sweep(MONITOR.harness(), packets, _inside_source)


def monitor_header_flood(*, packets: int = 150) -> Workload:
    """A crafted-header flood: one flow blasted at line rate.

    The flow crosses the threshold after ``MON_THRESHOLD`` frames and
    saturates its counters at ``counter_max`` — the flood pins every one
    of its row counters to the ceiling, after which updates ride the
    saturated fast path; every 31st frame is a runt.
    """
    flow = (0xC6336417, 6667, WAN_SERVER, 80)  # the flooding source

    def stream() -> List[Stimulus]:
        frame, share = _frames(), _shared()
        return [
            share(Stimulus(packet=frame(nat_frame, *flow, cut=n % 12), note="runt"))
            if n % 31 == 0
            else share(Stimulus(packet=frame(nat_frame, *flow), note="flood"))
            for n in range(packets)
        ]

    return Workload("header_flood", MONITOR.harness(), stream)


def worst_case_report(
    result_max_pcvs: Mapping[str, int], expected: Mapping[str, int]
) -> Dict[str, Dict[str, object]]:
    """Compare observed PCV maxima against the promised worst case."""
    report: Dict[str, Dict[str, object]] = {}
    for pcv, bound in expected.items():
        observed = result_max_pcvs.get(pcv, 0)
        report[pcv] = {"observed": observed, "bound": bound, "hit": observed >= bound}
    return report
