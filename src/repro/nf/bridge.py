"""The MAC learning bridge (the paper's first evaluated NF, Table 4).

This module is the end-to-end proof of the BOLT pipeline.  The stateless
bridge code is written in NFIL — parse the Ethernet MACs, learn the source,
look up the destination, and forward / flood / drop — with all state behind
the three methods of one :class:`repro.structures.ExpiringMap` instance
(``bridge_map_expire`` / ``bridge_map_put`` / ``bridge_map_get``), the
Vigor-style split the paper relies on.

The stateful side comes entirely from :mod:`repro.structures`: the
expiring map supplies the instrumented concrete MAC table
(:func:`make_bridge_table`), the symbolic model
(:class:`~repro.structures.StructureModel`) and the PCV registry, so this
module contains *no* bespoke table implementation.

Input classes of the generated contract:

==========  ==========================================================
``short``   frame shorter than an Ethernet header: dropped unparsed
``miss``    destination MAC unknown: flooded
``hairpin`` destination learned on the ingress port: dropped
``hit``     destination known on another port: forwarded
==========  ==========================================================

PCVs (instance-qualified under the table's name, ``bridge_map``):
``bridge_map.t`` chain links inspected (bound: table capacity),
``bridge_map.w`` wheel slots advanced and ``bridge_map.e`` entries
expired by one sweep (bounds: ``wheel_slots`` / capacity).

Worst-case workload: :func:`repro.nf.workloads.bridge_adversarial` —
``capacity`` colliding MACs build one maximal chain (pins
``bridge_map.t``), then a full-revolution time jump expires everything in
one sweep (pins ``bridge_map.w`` and ``bridge_map.e``).
"""

from __future__ import annotations

from repro.audit.ct import CONSTANT_TIME, LEAK, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import NOT_FOUND, ExpiringMap
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "BRIDGE",
    "BRIDGE_FUNCTION",
    "DROP",
    "FLOOD",
    "MAX_PORTS",
    "NOT_FOUND",
    "PKT_BASE",
    "build_bridge_module",
    "classify_bridge_path",
    "generate_bridge_contract",
    "make_bridge_table",
]

#: Entry function of the bridge.
BRIDGE_FUNCTION = "bridge_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = 16
#: Minimum parseable frame: two MACs + EtherType.
MIN_FRAME = 14

#: Return values of the bridge: flood to all ports / drop the frame.
FLOOD = 0xFFFF
DROP = 0xFFFE
#: Valid switch ports are [0, MAX_PORTS).
MAX_PORTS = 64


def make_bridge_table(capacity: int = 64, timeout: int = 300) -> ExpiringMap:
    """Build the bridge's MAC table: an expiring map storing ports."""
    return ExpiringMap(
        "bridge_map",
        capacity=capacity,
        timeout=timeout,
        value_bound=MAX_PORTS,
    )


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_bridge_module() -> Module:
    """Build the bridge NFIL module."""
    module = Module("bridge")
    table = make_bridge_table()
    table.declare(module)

    b = FunctionBuilder(BRIDGE_FUNCTION, params=("pkt", "len", "in_port", "time"))
    b.call(table.extern_name("expire"), b.param("time"), void=True)
    short = b.ult(b.param("len"), MIN_FRAME)
    b.br(short, "drop_short", "lookup")

    b.block("drop_short")
    b.ret(DROP)

    b.block("lookup")
    pkt = b.param("pkt")
    # 48-bit MACs assembled from a 32-bit and a 16-bit little-endian load.
    d_lo = b.load(pkt, size=4)
    d_hi = b.load(b.add(pkt, 4), size=2)
    dmac = b.or_(d_lo, b.shl(d_hi, 32), name="dmac")
    s_lo = b.load(b.add(pkt, 6), size=4)
    s_hi = b.load(b.add(pkt, 10), size=2)
    smac = b.or_(s_lo, b.shl(s_hi, 32), name="smac")
    b.call(table.extern_name("put"), smac, b.param("in_port"), void=True)
    out = b.call(table.extern_name("get"), dmac, name="out")
    known = b.ne(out, NOT_FOUND)
    b.br(known, "unicast", "flood")

    b.block("flood")
    b.ret(FLOOD)

    b.block("unicast")
    hairpin = b.eq(out, b.param("in_port"))
    b.br(hairpin, "drop_hairpin", "forward")

    b.block("drop_hairpin")
    b.ret(DROP)

    b.block("forward")
    b.ret(out)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than an Ethernet header; dropped unparsed",
    "miss": "destination MAC unknown; frame flooded",
    "hairpin": "destination learned on the ingress port; frame dropped",
    "hit": "destination known on another port; frame forwarded",
}


def classify_bridge_path(path: Path) -> str:
    """Map one explored bridge path to its input class."""
    if len(path.calls) == 1:  # only the expiry call ran: unparseable frame
        return "short"
    if isinstance(path.returned, Const) and path.returned.value == FLOOD:
        return "miss"
    if isinstance(path.returned, Const) and path.returned.value == DROP:
        return "hairpin"
    return "hit"


BRIDGE = NFSpec(
    name="bridge",
    title="NF: MAC learning bridge",
    function=BRIDGE_FUNCTION,
    build_module=build_bridge_module,
    make_state=make_bridge_table,
    classify=classify_bridge_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    assume={"in_port": MAX_PORTS},
    bench={"capacity": 16, "timeout": 50},
    secret_sets=(
        SecretClassSet(
            "mac-table membership",
            ("hit", "miss"),
            "whether the destination MAC has been learned (who is on the LAN)",
            LEAK,
        ),
        SecretClassSet(
            "forwarding decision",
            ("hit", "hairpin"),
            "whether the frame was forwarded or hairpin-dropped",
            CONSTANT_TIME,
        ),
    ),
)


def generate_bridge_contract(capacity: int = 64, timeout: int = 300) -> PerformanceContract:
    """Run BOLT end-to-end on the bridge and return its contract."""
    return BRIDGE.contract(capacity=capacity, timeout=timeout)
