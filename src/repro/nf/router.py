"""A static LPM (longest-prefix-match) IPv4 router.

The second NF of the reproduction, and the one that exercises the
:class:`repro.structures.LpmTrie` end-to-end: the stateless NFIL code
parses the Ethernet/IPv4 headers and makes exactly one stateful call —
``rt_lookup`` — into the routing trie.  The FIB is *static* configuration
(installed host-side with :meth:`~repro.structures.LpmTrie.add_route`
before traffic runs), so the contract has no expiry or learning terms; its
single PCV is the trie depth ``d``.

Packet layout assumed (classic Ethernet + IPv4, no VLANs):

========  =======================================
offset    field
========  =======================================
12..13    EtherType (0x0800 for IPv4, big-endian)
22        IPv4 TTL
30..33    IPv4 destination address (big-endian)
========  =======================================

Input classes of the generated contract:

===============  ====================================================
``short``        frame shorter than Ethernet + IPv4 headers: dropped
``non_ip``       EtherType is not IPv4: dropped
``ttl_expired``  TTL ≤ 1: dropped (a real router would emit ICMP)
``no_route``     no prefix covers the destination: dropped
``routed``       longest-prefix match found: forwarded
===============  ====================================================

PCV (instance-qualified under the FIB's name, ``rt``): ``rt.d``, the
trie nodes visited by one lookup, bounded by 33 (root + one per bit).

Worst-case workload: :func:`repro.nf.workloads.router_adversarial` — the
FIB nests a route at every prefix length 1–32 along one address, and
routing that address pins ``rt.d`` to 33.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.audit.ct import CONSTANT_TIME, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import NOT_FOUND, LpmTrie
from repro.traffic.packets import ipv4_frame
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "DROP_NO_ROUTE",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_TTL",
    "MAX_PORTS",
    "MIN_IPV4_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "ROUTER",
    "ROUTER_FUNCTION",
    "build_router_module",
    "ipv4_packet",
    "classify_router_path",
    "generate_router_contract",
    "make_routing_table",
]

#: Entry function of the router.
ROUTER_FUNCTION = "router_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet header + minimal IPv4 header.
MIN_IPV4_FRAME = 34
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_IPV4_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: Valid router ports are [0, MAX_PORTS).
MAX_PORTS = 64

#: Drop reason codes returned by the router.
DROP_SHORT = 0xFFF0
DROP_NON_IP = 0xFFF1
DROP_TTL = 0xFFF2
DROP_NO_ROUTE = 0xFFF3


def make_routing_table(routes: Iterable[Tuple[int, int, int]] = ()) -> LpmTrie:
    """Build the router's FIB: an LPM trie storing egress ports.

    ``routes`` are ``(prefix, length, port)`` triples installed host-side
    (static configuration, before traffic runs).
    """
    fib = LpmTrie("rt", value_bound=MAX_PORTS)
    for prefix, length, port in routes:
        fib.add_route(prefix, length, port)
    return fib


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_router_module() -> Module:
    """Build the router NFIL module."""
    module = Module("router")
    table = make_routing_table()
    table.declare(module)

    b = FunctionBuilder(ROUTER_FUNCTION, params=("pkt", "len"))
    short = b.ult(b.param("len"), MIN_IPV4_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "check_ttl", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("check_ttl")
    ttl = b.load(b.add(pkt, 22), size=1)
    alive = b.ugt(ttl, 1)
    b.br(alive, "route", "drop_ttl")

    b.block("drop_ttl")
    b.ret(DROP_TTL)

    b.block("route")
    # Destination IPv4 address, big-endian on the wire.
    b3 = b.load(b.add(pkt, 30), size=1)
    b2 = b.load(b.add(pkt, 31), size=1)
    b1 = b.load(b.add(pkt, 32), size=1)
    b0 = b.load(b.add(pkt, 33), size=1)
    dst = b.or_(
        b.or_(b.shl(b3, 24), b.shl(b2, 16)),
        b.or_(b.shl(b1, 8), b0),
        name="dst",
    )
    out = b.call(table.extern_name("lookup"), dst, name="out")
    known = b.ne(out, NOT_FOUND)
    b.br(known, "forward", "drop_no_route")

    b.block("drop_no_route")
    b.ret(DROP_NO_ROUTE)

    b.block("forward")
    b.ret(out)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet + IPv4 headers; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "ttl_expired": "TTL has reached 1; packet dropped",
    "no_route": "no installed prefix covers the destination; packet dropped",
    "routed": "longest-prefix match found; packet forwarded",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_TTL: "ttl_expired",
    DROP_NO_ROUTE: "no_route",
}


def classify_router_path(path: Path) -> str:
    """Map one explored router path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        return _DROP_CLASSES[path.returned.value]
    return "routed"


ROUTER = NFSpec(
    name="router",
    title="NF: static LPM router",
    function=ROUTER_FUNCTION,
    build_module=build_router_module,
    make_state=make_routing_table,
    classify=classify_router_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    secret_sets=(
        # Both classes walk the trie to the same depth PCV ``d`` and charge
        # identical polynomials: timing reveals *how deep* the lookup went,
        # but not whether a route matched at that depth — the membership
        # bit itself is constant time, and CI keeps proving it.
        SecretClassSet(
            "fib membership at equal depth",
            ("routed", "no_route"),
            "whether a destination prefix exists in the FIB (topology probing)",
            CONSTANT_TIME,
        ),
    ),
)


def generate_router_contract() -> PerformanceContract:
    """Run BOLT end-to-end on the router and return its contract."""
    return ROUTER.contract()


def ipv4_packet(
    dst: Iterable[int] | int,
    *,
    ttl: int = 64,
    ethertype: Tuple[int, int] = (0x08, 0x00),
    payload: int = 16,
) -> bytes:
    """Build a minimal Ethernet+IPv4 frame for tests and demos.

    ``dst`` is the destination address, either as a 32-bit int or as four
    octets.  Kept as the historical per-NF entry point; the layout itself
    lives in :func:`repro.traffic.packets.ipv4_frame`.
    """
    return ipv4_frame(dst, ttl=ttl, ethertype=ethertype, payload=payload)
