"""A VigNAT-style NAT: the first multi-instance NF of the reproduction.

The NAT is the forcing function for per-instance PCV namespacing: it keeps
**two** :class:`~repro.structures.ExpiringMap` instances — the forward
flow table ``fwd`` (internal endpoint → leased external port) and the
reverse table ``rev`` (external port → internal endpoint) — plus a
:class:`~repro.structures.PortAllocator` ``ports`` for the lease pool.
Because every structure instance emits instance-qualified PCVs, the
generated contract distinguishes ``fwd.t`` from ``rev.t`` (and ``fwd.w`` /
``fwd.e`` from ``rev.w`` / ``rev.e``): the two tables' chain walks, expiry
sweeps and adversarial bounds never alias.

State behind externs (the Vigor-style split):

* ``fwd_expire`` / ``fwd_put`` / ``fwd_get`` — forward flow table,
  PCVs ``fwd.w`` / ``fwd.e`` / ``fwd.t``;
* ``rev_expire`` / ``rev_put`` / ``rev_get`` — reverse flow table,
  PCVs ``rev.w`` / ``rev.e`` / ``rev.t``;
* ``ports_alloc`` (and host-side ``ports_release``) — constant-time port
  leasing, no PCVs.

Packet layout assumed (classic Ethernet + IPv4 + L4 ports, no VLANs):

========  =========================================
offset    field
========  =========================================
12..13    EtherType (0x0800 for IPv4, big-endian)
26..29    IPv4 source address (big-endian)
30..33    IPv4 destination address (big-endian)
34..35    L4 source port (big-endian)
36..37    L4 destination port (big-endian)
========  =========================================

Input classes of the generated contract:

=====================  ====================================================
``short``              frame shorter than Ethernet+IPv4+ports: dropped
``non_ip``             EtherType is not IPv4: dropped
``internal_new``       LAN flow without a lease: port allocated, both
                       tables installed, source port rewritten, forwarded
``internal_existing``  LAN flow with a live lease: both leases refreshed,
                       source port rewritten, forwarded
``no_ports``           LAN flow without a lease and the pool exhausted:
                       dropped
``external_hit``       WAN frame to a leased port: leases refreshed,
                       destination rewritten to the internal endpoint,
                       forwarded
``external_miss``      WAN frame to an unleased port: dropped
=====================  ====================================================

Worst-case workload: :func:`repro.nf.workloads.nat_adversarial` pins all
six map PCVs to their registry bounds at once — colliding flow keys build
a maximal ``fwd`` chain, a crafted (colliding) port pool builds a maximal
``rev`` chain, and a full-revolution time jump expires both tables.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.audit.ct import LEAK, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import NOT_FOUND, ExpiringMap, PortAllocator
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "DROP_NO_PORTS",
    "DROP_NON_IP",
    "DROP_SHORT",
    "DROP_UNKNOWN_FLOW",
    "FWD_NAME",
    "LAN_PORT",
    "MAX_PORTS",
    "MIN_NAT_FRAME",
    "NAT",
    "NAT_FUNCTION",
    "NOT_FOUND",
    "PKT_BASE",
    "PORT_BASE",
    "PORTS_NAME",
    "REV_NAME",
    "build_nat_module",
    "classify_nat_path",
    "generate_nat_contract",
    "make_nat_tables",
]

#: Entry function of the NAT.
NAT_FUNCTION = "nat_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + minimal IPv4 header + the two L4 port fields.
MIN_NAT_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_NAT_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The LAN-facing device: frames arriving here are translated outbound.
LAN_PORT = 0
#: Valid device ids are [0, MAX_PORTS).
MAX_PORTS = 64

#: First port of the default lease pool (the IANA dynamic-port floor).
PORT_BASE = 49152

#: Structure instance names (also the PCV namespaces: ``fwd.t``, ``rev.t``).
FWD_NAME = "fwd"
REV_NAME = "rev"
PORTS_NAME = "ports"

#: Drop reason codes returned by the NAT.
DROP_SHORT = 0xFFE0
DROP_NON_IP = 0xFFE1
DROP_NO_PORTS = 0xFFE2
DROP_UNKNOWN_FLOW = 0xFFE3


def make_nat_tables(
    capacity: int = 64,
    timeout: int = 300,
    *,
    pool: Optional[Iterable[int]] = None,
) -> Tuple[ExpiringMap, ExpiringMap, PortAllocator]:
    """Build the NAT's state: forward table, reverse table, port pool.

    Args:
        capacity: live-flow capacity of each flow table.
        timeout: flow-lease timeout in ticks (both tables).
        pool: explicit external-port pool; defaults to ``capacity`` ports
            from :data:`PORT_BASE` up.
    """
    fwd = ExpiringMap(
        FWD_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16
    )
    rev = ExpiringMap(
        REV_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 48
    )
    if pool is None:
        pool = range(PORT_BASE, PORT_BASE + capacity)
    ports = PortAllocator(PORTS_NAME, pool=pool)
    return fwd, rev, ports


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_nat_module() -> Module:
    """Build the NAT NFIL module."""
    module = Module("nat")
    fwd, rev, ports = make_nat_tables()
    for structure in (fwd, rev, ports):
        structure.declare(module)

    b = FunctionBuilder(NAT_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(fwd.extern_name("expire"), b.param("time"), void=True)
    b.call(rev.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_NAT_FRAME)
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
    internal = b.eq(b.param("in_port"), LAN_PORT)
    b.br(internal, "internal", "external")

    # -- LAN -> WAN: translate the source endpoint ----------------------- #
    b.block("internal")
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
    ext = b.call(fwd.extern_name("get"), flow, name="ext")
    leased = b.ne(ext, NOT_FOUND)
    b.br(leased, "refresh", "allocate")

    b.block("refresh")
    b.call(fwd.extern_name("put"), flow, ext, void=True)
    b.call(rev.extern_name("put"), ext, flow, void=True)
    b.store(b.add(pkt, 34), ext, size=2)  # rewrite the source port
    b.ret(ext)

    b.block("allocate")
    fresh = b.call(ports.extern_name("alloc"), name="fresh")
    got = b.ne(fresh, NOT_FOUND)
    b.br(got, "install", "drop_no_ports")

    b.block("drop_no_ports")
    b.ret(DROP_NO_PORTS)

    b.block("install")
    b.call(fwd.extern_name("put"), flow, fresh, void=True)
    b.call(rev.extern_name("put"), fresh, flow, void=True)
    b.store(b.add(pkt, 34), fresh, size=2)  # rewrite the source port
    b.ret(fresh)

    # -- WAN -> LAN: translate the destination endpoint ------------------ #
    b.block("external")
    d1 = b.load(b.add(pkt, 36), size=1)
    d0 = b.load(b.add(pkt, 37), size=1)
    dst_port = b.or_(b.shl(d1, 8), d0, name="dst_port")
    owner = b.call(rev.extern_name("get"), dst_port, name="owner")
    known = b.ne(owner, NOT_FOUND)
    b.br(known, "rewrite", "drop_unknown")

    b.block("drop_unknown")
    b.ret(DROP_UNKNOWN_FLOW)

    b.block("rewrite")
    b.call(rev.extern_name("put"), dst_port, owner, void=True)
    b.call(fwd.extern_name("put"), owner, dst_port, void=True)
    # Rewrite the destination port to the internal endpoint's port (the
    # low 16 bits of the flow id; a 2-byte store keeps exactly those).
    b.store(b.add(pkt, 36), owner, size=2)
    b.ret(owner)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "internal_new": "LAN flow without a lease; port allocated, forwarded",
    "internal_existing": "LAN flow with a live lease; refreshed, forwarded",
    "no_ports": "LAN flow without a lease and the pool exhausted; dropped",
    "external_hit": "WAN frame to a leased port; rewritten, forwarded",
    "external_miss": "WAN frame to an unleased port; dropped",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_NO_PORTS: "no_ports",
    DROP_UNKNOWN_FLOW: "external_miss",
}


def classify_nat_path(path: Path) -> str:
    """Map one explored NAT path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        return _DROP_CLASSES[path.returned.value]
    called = {call.name for call in path.calls}
    if f"{PORTS_NAME}_alloc" in called:
        return "internal_new"
    if f"{FWD_NAME}_get" in called:
        return "internal_existing"
    return "external_hit"


NAT = NFSpec(
    name="nat",
    title="NF: VigNAT-style NAT",
    function=NAT_FUNCTION,
    build_module=build_nat_module,
    make_state=make_nat_tables,
    classify=classify_nat_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    assume={"in_port": MAX_PORTS},
    bench={"capacity": 16, "timeout": 50},
    secret_sets=(
        SecretClassSet(
            "external port scan",
            ("external_hit", "external_miss"),
            "whether an external port maps to an internal host (NAT state oracle)",
            LEAK,
        ),
        SecretClassSet(
            "internal flow novelty",
            ("internal_new", "internal_existing"),
            "whether an internal flow was already active (traffic-pattern recovery)",
            LEAK,
        ),
    ),
)


def generate_nat_contract(capacity: int = 64, timeout: int = 300) -> PerformanceContract:
    """Run BOLT end-to-end on the NAT and return its contract."""
    return NAT.contract(capacity=capacity, timeout=timeout)
