"""A connection-tracking stateful firewall.

The fifth NF of the reproduction, closing the Vigor-style matrix's
enforcement column: stateless rule checks plus a connection table.  The
firewall sits between a LAN (ingress device :data:`LAN_PORT`) and the
WAN; outbound traffic is admitted by policy and *remembered*, inbound
traffic is admitted only when it matches a remembered connection — the
classic stateful default-deny.

State, per the :doc:`docs/NF_AUTHORING.md` recipe, lives behind two
library structures:

* ``fw_conn`` — an :class:`~repro.structures.ExpiringMap` tracking
  established connections by internal endpoint (``(ip << 16) | port``);
  idle connections expire after ``timeout`` ticks.
* ``fw_slots`` — a :class:`~repro.structures.PortAllocator` leasing
  connection slots: a new connection must win a slot before it is
  installed, so table exhaustion is an *observable* NFIL branch (the
  allocator returns ``NOT_FOUND``) rather than a silent insert drop —
  mirroring the NAT's port-pool pattern.

The one static rule is an egress filter: outbound frames to destination
port :data:`DENY_PORT` are dropped before any connection-table work
(the classic block-outbound-SMTP policy).  Rule checks are stateless
header compares; only tracking costs state.

Input classes of the generated contract:

========================  =============================================
``short``                 frame shorter than headers + ports: dropped
``non_ip``                EtherType is not IPv4: dropped
``denied``                outbound frame to the filtered port: dropped
``outbound_established``  LAN flow already tracked: lease refreshed,
                          forwarded (the established-flow fast path)
``outbound_new``          LAN flow admitted: slot leased, tracked,
                          forwarded
``conn_full``             LAN flow admitted but the connection table is
                          at capacity (no slot): dropped
``inbound_established``   WAN frame to a tracked endpoint: forwarded
                          (read-only — inbound traffic never refreshes
                          the lease)
``unsolicited``           WAN frame to an untracked endpoint: dropped
                          (stateful default-deny)
========================  =============================================

PCVs (instance-qualified under ``fw_conn``; the slot allocator is
constant-time and contributes none): ``fw_conn.t`` chain links walked,
``fw_conn.e`` entries expired by one sweep, ``fw_conn.w`` wheel slots
advanced.

Worst-case workloads: :func:`repro.nf.workloads.firewall_adversarial`
pins all three bounds via colliding flow keys and a full-revolution
idle jump; :func:`repro.nf.workloads.firewall_scan_sweep` drains the
slot pool with a ZMap-style source sweep, driving every later admission
into ``conn_full``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.audit.ct import CONSTANT_TIME, LEAK, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import NOT_FOUND, ExpiringMap, PortAllocator
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "CONN_NAME",
    "DENY_PORT",
    "DROP_CONN_FULL",
    "DROP_DENIED",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_UNSOLICITED",
    "FIREWALL",
    "FIREWALL_FUNCTION",
    "LAN_PORT",
    "MAX_PORTS",
    "MIN_FW_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "SLOTS_NAME",
    "build_firewall_module",
    "classify_firewall_path",
    "generate_firewall_contract",
    "make_firewall_state",
]

#: Entry function of the firewall.
FIREWALL_FUNCTION = "firewall_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + IPv4 + transport ports (same layout the NAT parses).
MIN_FW_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_FW_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The ingress device id of the protected (LAN) side.
LAN_PORT = 0
#: Valid ingress device ids are [0, MAX_PORTS).
MAX_PORTS = 64

#: The one static egress rule: outbound frames to this destination port
#: are dropped (block-outbound-SMTP, the textbook egress filter).
DENY_PORT = 25

#: Structure instance names (disjoint from every other NF's, so the
#: firewall can share a service graph with the LB/NAT/router).
CONN_NAME = "fw_conn"
SLOTS_NAME = "fw_slots"

#: Drop reason codes returned by the firewall.
DROP_SHORT = 0xFFD0
DROP_NON_IP = 0xFFD1
DROP_DENIED = 0xFFD2
DROP_UNSOLICITED = 0xFFD3
DROP_CONN_FULL = 0xFFD4


def make_firewall_state(
    capacity: int = 64,
    timeout: int = 300,
    *,
    slots: Optional[Iterable[int]] = None,
) -> Tuple[ExpiringMap, PortAllocator]:
    """Build the firewall's state: connection table plus slot pool.

    Args:
        capacity: live-connection capacity of the tracking table.
        timeout: connection-lease timeout in ticks.
        slots: explicit slot-id pool; defaults to ``capacity`` slots
            numbered from 1.  A pool smaller than ``capacity`` makes the
            ``conn_full`` class reachable before the map itself fills.
    """
    conn = ExpiringMap(
        CONN_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16
    )
    if slots is None:
        slots = range(1, capacity + 1)
    pool = PortAllocator(SLOTS_NAME, pool=slots)
    return conn, pool


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_firewall_module() -> Module:
    """Build the firewall NFIL module."""
    module = Module("firewall")
    conn, slots = make_firewall_state()
    for structure in (conn, slots):
        structure.declare(module)

    b = FunctionBuilder(FIREWALL_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(conn.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_FW_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "direction", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("direction")
    outbound = b.eq(b.param("in_port"), LAN_PORT)
    b.br(outbound, "outbound", "inbound")

    # -- LAN -> WAN: policy check, then track ---------------------------- #
    b.block("outbound")
    d1 = b.load(b.add(pkt, 36), size=1)
    d0 = b.load(b.add(pkt, 37), size=1)
    dst_port = b.or_(b.shl(d1, 8), d0, name="dst_port")
    filtered = b.eq(dst_port, DENY_PORT)
    b.br(filtered, "drop_denied", "track")

    b.block("drop_denied")
    b.ret(DROP_DENIED)

    b.block("track")
    s3 = b.load(b.add(pkt, 26), size=1)
    s2 = b.load(b.add(pkt, 27), size=1)
    s1 = b.load(b.add(pkt, 28), size=1)
    s0 = b.load(b.add(pkt, 29), size=1)
    src_ip = b.or_(
        b.or_(b.shl(s3, 24), b.shl(s2, 16)),
        b.or_(b.shl(s1, 8), s0),
        name="src_ip",
    )
    p1 = b.load(b.add(pkt, 34), size=1)
    p0 = b.load(b.add(pkt, 35), size=1)
    src_port = b.or_(b.shl(p1, 8), p0, name="src_port")
    flow = b.or_(b.shl(src_ip, 16), src_port, name="flow")
    state = b.call(conn.extern_name("get"), flow, name="state")
    tracked = b.ne(state, NOT_FOUND)
    b.br(tracked, "refresh", "admit")

    b.block("refresh")
    # Established-flow fast path: refresh the lease, forward.
    b.call(conn.extern_name("put"), flow, state, void=True)
    b.ret(state)

    b.block("admit")
    slot = b.call(slots.extern_name("alloc"), name="slot")
    got = b.ne(slot, NOT_FOUND)
    b.br(got, "install", "drop_full")

    b.block("drop_full")
    b.ret(DROP_CONN_FULL)

    b.block("install")
    b.call(conn.extern_name("put"), flow, slot, void=True)
    b.ret(slot)

    # -- WAN -> LAN: admit only tracked endpoints ------------------------ #
    b.block("inbound")
    a3 = b.load(b.add(pkt, 30), size=1)
    a2 = b.load(b.add(pkt, 31), size=1)
    a1 = b.load(b.add(pkt, 32), size=1)
    a0 = b.load(b.add(pkt, 33), size=1)
    dst_ip = b.or_(
        b.or_(b.shl(a3, 24), b.shl(a2, 16)),
        b.or_(b.shl(a1, 8), a0),
        name="dst_ip",
    )
    q1 = b.load(b.add(pkt, 36), size=1)
    q0 = b.load(b.add(pkt, 37), size=1)
    in_dst_port = b.or_(b.shl(q1, 8), q0, name="in_dst_port")
    key = b.or_(b.shl(dst_ip, 16), in_dst_port, name="key")
    owner = b.call(conn.extern_name("get"), key, name="owner")
    known = b.ne(owner, NOT_FOUND)
    b.br(known, "accept", "drop_unsolicited")

    b.block("drop_unsolicited")
    b.ret(DROP_UNSOLICITED)

    b.block("accept")
    # Read-only: inbound traffic never refreshes the lease — only the
    # internal endpoint's own activity keeps a connection alive.
    b.ret(owner)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "denied": "outbound frame to the filtered port; dropped by policy",
    "outbound_established": "LAN flow already tracked; lease refreshed, forwarded",
    "outbound_new": "LAN flow admitted; slot leased, connection installed, forwarded",
    "conn_full": "LAN flow admitted but the connection table is at capacity; dropped",
    "inbound_established": "WAN frame to a tracked endpoint; forwarded read-only",
    "unsolicited": "WAN frame to an untracked endpoint; dropped (default-deny)",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_DENIED: "denied",
    DROP_UNSOLICITED: "unsolicited",
    DROP_CONN_FULL: "conn_full",
}


def classify_firewall_path(path: Path) -> str:
    """Map one explored firewall path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        return _DROP_CLASSES[path.returned.value]
    called = {call.name for call in path.calls}
    if f"{SLOTS_NAME}_alloc" in called:
        return "outbound_new"
    if f"{CONN_NAME}_put" in called:
        return "outbound_established"
    return "inbound_established"


FIREWALL = NFSpec(
    name="firewall",
    title="NF: connection-tracking firewall",
    function=FIREWALL_FUNCTION,
    build_module=build_firewall_module,
    make_state=make_firewall_state,
    classify=classify_firewall_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    assume={"in_port": MAX_PORTS},
    bench={"capacity": 16, "timeout": 50},
    secret_sets=(
        SecretClassSet(
            "egress rule verdict",
            ("denied", "outbound_new"),
            "whether an outbound destination port is filtered (policy probing "
            "from the LAN: the denied path does no table work)",
            LEAK,
        ),
        SecretClassSet(
            "connection tracking",
            ("outbound_new", "outbound_established"),
            "whether an outbound flow was already tracked (conn-table oracle: "
            "admission allocates a slot the refresh path never touches)",
            LEAK,
        ),
        # The default-deny is deliberately shaped so both inbound paths do
        # one read-only lookup and return a constant: a WAN prober timing
        # the firewall cannot tell a tracked endpoint from an untracked
        # one.  CI keeps proving the polynomials identical.
        SecretClassSet(
            "inbound probe response",
            ("inbound_established", "unsolicited"),
            "whether a WAN-probed endpoint has an active connection (conn-table scan from outside)",
            CONSTANT_TIME,
        ),
    ),
)


def generate_firewall_contract(capacity: int = 64, timeout: int = 300) -> PerformanceContract:
    """Run BOLT end-to-end on the firewall and return its contract."""
    return FIREWALL.contract(capacity=capacity, timeout=timeout)
