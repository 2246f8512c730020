"""A Maglev-style L4 load balancer: the first NF with control-plane costs.

The LB pairs a :class:`~repro.structures.MaglevTable` ``lb_tbl`` (the
consistent-hash backend selector) with an
:class:`~repro.structures.ExpiringMap` ``conn`` (the flow-affinity
connection table), the composition Google's Maglev uses: the connection
table wins when it has a live, still-active binding; the Maglev table
decides for new flows and for flows whose backend was drained.  It is the
first NF whose contract mixes **per-packet** costs (``conn.t`` chain
walks, constant ``lb_tbl`` lookups) with a **control-plane** cost:
backend add/remove frames repopulate the lookup table, and the
repopulation's fill iterations (``lb_tbl.f``) dominate every other term.

State behind externs:

* ``conn_expire`` / ``conn_put`` / ``conn_get`` — connection table,
  PCVs ``conn.w`` / ``conn.e`` / ``conn.t``;
* ``lb_tbl_lookup`` / ``lb_tbl_active`` — per-packet backend selection,
  constant time, no PCVs;
* ``lb_tbl_add`` / ``lb_tbl_remove`` — control-plane repopulation,
  PCV ``lb_tbl.f``.

Inputs: data frames use the classic Ethernet + IPv4 + L4 layout the NAT
parses (EtherType at 12, source address at 26–29, source port at 34–35);
control frames carry ``cmd`` = :data:`CMD_ADD` / :data:`CMD_REMOVE` and
the backend id in ``arg`` and never touch the packet buffer.

Input classes of the generated contract:

===================  ======================================================
``reconfig``         control frame: backend added or removed, table
                     repopulated (the only class charging ``lb_tbl.f``)
``short``            frame shorter than Ethernet+IPv4+ports: dropped
``non_ip``           EtherType is not IPv4: dropped
``new_flow``         no connection-table entry: backend selected via the
                     Maglev table, affinity installed, forwarded
``existing_flow``    live entry to an active backend: refreshed, forwarded
``backend_drained``  live entry to a drained backend: re-selected via the
                     Maglev table, affinity rebound, forwarded
``no_backends``      selection needed but the table is empty: dropped
===================  ======================================================

Worst-case workload: :func:`repro.nf.workloads.lb_adversarial` pins all
four PCV bounds — colliding flow keys build a maximal connection-table
chain (``conn.t``), a backend-churn phase over backends with *identical
permutations* drives a repopulation to exactly its proven worst case
(``lb_tbl.f``), and a full-revolution time jump expires the whole
connection table in one sweep (``conn.w`` / ``conn.e``).
"""

from __future__ import annotations

from typing import Tuple

from repro.audit.ct import LEAK, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import NOT_FOUND, ExpiringMap, MaglevTable
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "CMD_ADD",
    "CMD_DATA",
    "CMD_REMOVE",
    "CONN_NAME",
    "CTRL_DONE",
    "DROP_NO_BACKENDS",
    "DROP_NON_IP",
    "DROP_SHORT",
    "LB",
    "LB_FUNCTION",
    "MAX_CMD",
    "MIN_LB_FRAME",
    "NOT_FOUND",
    "PKT_BASE",
    "TBL_NAME",
    "build_lb_module",
    "classify_lb_path",
    "generate_lb_contract",
    "make_lb_state",
]

#: Entry function of the load balancer.
LB_FUNCTION = "lb_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + minimal IPv4 header + the two L4 port fields.
MIN_LB_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_LB_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: The ``cmd`` scalar: 0 = data frame, 1/2 = control-plane backend churn.
CMD_DATA = 0
CMD_ADD = 1
CMD_REMOVE = 2
#: Valid commands are [0, MAX_CMD).
MAX_CMD = 3

#: Structure instance names (also the PCV namespaces: ``lb_tbl.f``, ``conn.t``).
TBL_NAME = "lb_tbl"
CONN_NAME = "conn"

#: Drop/acknowledge codes returned by the LB.
DROP_SHORT = 0xFFC0
DROP_NON_IP = 0xFFC1
DROP_NO_BACKENDS = 0xFFC2
CTRL_DONE = 0xFFC8


def make_lb_state(
    capacity: int = 64,
    timeout: int = 300,
    *,
    table_size: int = 13,
    max_backends: int = 4,
) -> Tuple[MaglevTable, ExpiringMap]:
    """Build the LB's state: Maglev lookup table and connection table.

    Args:
        capacity: live-flow capacity of the connection table.
        timeout: flow-affinity timeout in ticks.
        table_size: Maglev lookup slots (prime).
        max_backends: backend pool ceiling (fixes the ``lb_tbl.f`` bound).
    """
    tbl = MaglevTable(
        TBL_NAME, table_size=table_size, max_backends=max_backends, value_bound=1 << 16
    )
    conn = ExpiringMap(CONN_NAME, capacity=capacity, timeout=timeout, value_bound=1 << 16)
    return tbl, conn


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_lb_module() -> Module:
    """Build the load balancer NFIL module."""
    module = Module("lb")
    tbl, conn = make_lb_state()
    for structure in (tbl, conn):
        structure.declare(module)

    b = FunctionBuilder(LB_FUNCTION, params=("pkt", "len", "cmd", "arg", "time"))
    b.call(conn.extern_name("expire"), b.param("time"), void=True)
    is_data = b.eq(b.param("cmd"), CMD_DATA)
    b.br(is_data, "datapath", "control")

    # -- control plane: backend churn repopulates the Maglev table ------- #
    b.block("control")
    is_add = b.eq(b.param("cmd"), CMD_ADD)
    b.br(is_add, "ctrl_add", "ctrl_remove")

    b.block("ctrl_add")
    b.call(tbl.extern_name("add"), b.param("arg"), void=True)
    b.ret(CTRL_DONE)

    b.block("ctrl_remove")
    b.call(tbl.extern_name("remove"), b.param("arg"), void=True)
    b.ret(CTRL_DONE)

    # -- data plane ------------------------------------------------------ #
    b.block("datapath")
    short = b.ult(b.param("len"), MIN_LB_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "parse", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("parse")
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
    cached = b.call(conn.extern_name("get"), flow, name="cached")
    hit = b.ne(cached, NOT_FOUND)
    b.br(hit, "check_alive", "select")

    # Affinity hit: honour it only while the backend still serves traffic.
    b.block("check_alive")
    alive = b.call(tbl.extern_name("active"), cached, name="alive")
    ok = b.ne(alive, 0)
    b.br(ok, "existing", "reselect")

    b.block("existing")
    b.call(conn.extern_name("put"), flow, cached, void=True)
    b.store(b.add(pkt, 0), cached, size=2)  # steer: backend into dst MAC
    b.ret(cached)

    # Affinity to a drained backend: re-select and rebind.
    b.block("reselect")
    fresh = b.call(tbl.extern_name("lookup"), flow, name="fresh")
    refound = b.ne(fresh, NOT_FOUND)
    b.br(refound, "rebind", "drop_no_backends")

    b.block("rebind")
    b.call(conn.extern_name("put"), flow, fresh, void=True)
    b.store(b.add(pkt, 0), fresh, size=2)  # steer: backend into dst MAC
    b.ret(fresh)

    # No affinity: consistent-hash to a backend and install it.
    b.block("select")
    chosen = b.call(tbl.extern_name("lookup"), flow, name="chosen")
    found = b.ne(chosen, NOT_FOUND)
    b.br(found, "bind", "drop_no_backends")

    b.block("bind")
    b.call(conn.extern_name("put"), flow, chosen, void=True)
    b.store(b.add(pkt, 0), chosen, size=2)  # steer: backend into dst MAC
    b.ret(chosen)

    b.block("drop_no_backends")
    b.ret(DROP_NO_BACKENDS)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "reconfig": "control frame; backend added/removed, table repopulated",
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "new_flow": "no affinity; backend selected via the Maglev table, bound",
    "existing_flow": "live affinity to an active backend; refreshed",
    "backend_drained": "affinity to a drained backend; re-selected, rebound",
    "no_backends": "selection needed but no backends are active; dropped",
}

_DROP_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    DROP_NO_BACKENDS: "no_backends",
    CTRL_DONE: "reconfig",
}


def classify_lb_path(path: Path) -> str:
    """Map one explored LB path to its input class."""
    if isinstance(path.returned, Const) and path.returned.value in _DROP_CLASSES:
        return _DROP_CLASSES[path.returned.value]
    called = {call.name for call in path.calls}
    if f"{TBL_NAME}_active" in called and f"{TBL_NAME}_lookup" in called:
        return "backend_drained"
    if f"{TBL_NAME}_active" in called:
        return "existing_flow"
    return "new_flow"


LB = NFSpec(
    name="lb",
    title="NF: Maglev-style load balancer",
    function=LB_FUNCTION,
    build_module=build_lb_module,
    make_state=make_lb_state,
    classify=classify_lb_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    # The command is valid and the backend argument a 16-bit id.
    assume={"cmd": MAX_CMD, "arg": 1 << 16},
    bench={"capacity": 16, "timeout": 50, "table_size": 13, "max_backends": 4},
    secret_sets=(
        SecretClassSet(
            "connection affinity",
            ("new_flow", "existing_flow"),
            "whether a flow already has backend affinity (connection-table oracle)",
            LEAK,
        ),
    ),
)


def generate_lb_contract(
    capacity: int = 64,
    timeout: int = 300,
    *,
    table_size: int = 13,
    max_backends: int = 4,
) -> PerformanceContract:
    """Run BOLT end-to-end on the load balancer and return its contract."""
    return LB.contract(
        capacity=capacity, timeout=timeout, table_size=table_size, max_backends=max_backends
    )
