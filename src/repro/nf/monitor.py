"""A heavy-hitter traffic monitor on a count-min sketch.

The sixth NF of the reproduction, and the one built on
:class:`~repro.structures.CountMinSketch`: every well-formed IPv4 frame
counts its source flow (``(src_ip << 16) | src_port``) in the sketch
``hh``, and the updated estimate is compared against a threshold — flows
at or above it are flagged as heavy hitters, everything else passes
unremarked.

The interesting property is what the contract *doesn't* contain: the
sketch's operations are constant-time by construction (no PCVs — see the
structure's docstring), and the hot/cold branch below is two
single-return blocks of identical shape, so the ``hot_flow`` and
``cold_flow`` entries carry byte-identical cost polynomials.  The
constant-time audit therefore PROVES the pair indistinguishable (a zero
cycle-delta polynomial under every hardware model): an observer timing
the monitor learns nothing about which flows it considers hot.  Contrast
the firewall, whose tracked/untracked classes genuinely leak.

Input classes of the generated contract:

=============  ======================================================
``short``      frame shorter than headers + ports: dropped
``non_ip``     EtherType is not IPv4: dropped
``cold_flow``  estimate below the threshold: passed unremarked
``hot_flow``   estimate at/above the threshold: flagged heavy hitter
=============  ======================================================

PCVs: none — the whole point.  There is consequently no bound for an
adversarial stream to pin; instead the ``header_flood`` workload
saturates the sketch's counters (pinning every estimate to the
``counter_max`` ceiling), exercising the structure's only fast path.
"""

from __future__ import annotations

from repro.audit.ct import CONSTANT_TIME, SecretClassSet
from repro.core.contract import PerformanceContract
from repro.nf.replay import NFSpec
from repro.nfil.builder import FunctionBuilder
from repro.nfil.program import Module
from repro.structures import CountMinSketch
from repro.sym.expr import Const
from repro.sym.paths import Path

__all__ = [
    "FLAG_COLD",
    "FLAG_HOT",
    "DROP_NON_IP",
    "DROP_SHORT",
    "MIN_MON_FRAME",
    "MON_COUNTER_MAX",
    "MON_DEPTH",
    "MON_THRESHOLD",
    "MON_WIDTH",
    "MONITOR",
    "MONITOR_FUNCTION",
    "PKT_BASE",
    "SKETCH_NAME",
    "build_monitor_module",
    "classify_monitor_path",
    "generate_monitor_contract",
    "make_sketch",
]

#: Entry function of the monitor.
MONITOR_FUNCTION = "monitor_process"

#: Where the packet buffer lives in NF memory.
PKT_BASE = 0x1000
#: Ethernet + IPv4 + transport ports (same layout the NAT parses).
MIN_MON_FRAME = 38
#: How many leading packet bytes are made symbolic during analysis.
PKT_SYM_BYTES = MIN_MON_FRAME

#: EtherType 0x0800 (IPv4) as read by a little-endian 16-bit load.
ETHERTYPE_IPV4_LE = 0x0008

#: Structure instance name of the heavy-hitter sketch.
SKETCH_NAME = "hh"

#: Default sketch geometry and flagging threshold.
MON_DEPTH = 4
MON_WIDTH = 64
#: 8-bit saturating counters: a flood pins an estimate here and no
#: further, which is what the ``header_flood`` workloads assert.
MON_COUNTER_MAX = 255
#: Estimates at or above this are flagged as heavy hitters.
MON_THRESHOLD = 32

#: Return codes of the monitor (all paths return a constant verdict).
DROP_SHORT = 0xFFB0
DROP_NON_IP = 0xFFB1
FLAG_COLD = 0xFFB8
FLAG_HOT = 0xFFB9


def make_sketch(
    depth: int = MON_DEPTH,
    width: int = MON_WIDTH,
    *,
    counter_max: int = MON_COUNTER_MAX,
) -> CountMinSketch:
    """Build the monitor's heavy-hitter sketch."""
    return CountMinSketch(SKETCH_NAME, depth=depth, width=width, counter_max=counter_max)


# --------------------------------------------------------------------------- #
# Stateless NFIL code
# --------------------------------------------------------------------------- #
def build_monitor_module() -> Module:
    """Build the monitor NFIL module."""
    module = Module("monitor")
    sketch = make_sketch()
    sketch.declare(module)

    b = FunctionBuilder(MONITOR_FUNCTION, params=("pkt", "len"))
    short = b.ult(b.param("len"), MIN_MON_FRAME)
    b.br(short, "drop_short", "check_ethertype")

    b.block("drop_short")
    b.ret(DROP_SHORT)

    b.block("check_ethertype")
    pkt = b.param("pkt")
    ethertype = b.load(b.add(pkt, 12), size=2)
    is_ip = b.eq(ethertype, ETHERTYPE_IPV4_LE)
    b.br(is_ip, "count", "drop_non_ip")

    b.block("drop_non_ip")
    b.ret(DROP_NON_IP)

    b.block("count")
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
    estimate = b.call(sketch.extern_name("update"), flow, name="estimate")
    cold = b.ult(estimate, MON_THRESHOLD)
    # The two verdict blocks are deliberately identical in shape (one
    # constant return each): hot and cold price the same, which is what
    # the constant-time audit proves as a zero polynomial.
    b.br(cold, "pass_cold", "flag_hot")

    b.block("pass_cold")
    b.ret(FLAG_COLD)

    b.block("flag_hot")
    b.ret(FLAG_HOT)

    module.add_function(b.build())
    return module


# --------------------------------------------------------------------------- #
# The descriptor: everything the shared pipeline needs to know
# --------------------------------------------------------------------------- #
_CLASS_DESCRIPTIONS = {
    "short": "frame shorter than Ethernet+IPv4+ports; dropped unparsed",
    "non_ip": "EtherType is not IPv4; frame dropped",
    "cold_flow": "estimate below the threshold; passed unremarked",
    "hot_flow": "estimate at/above the threshold; flagged heavy hitter",
}

_VERDICT_CLASSES = {
    DROP_SHORT: "short",
    DROP_NON_IP: "non_ip",
    FLAG_COLD: "cold_flow",
    FLAG_HOT: "hot_flow",
}


def classify_monitor_path(path: Path) -> str:
    """Map one explored monitor path to its input class."""
    assert isinstance(path.returned, Const), "every monitor path returns a verdict"
    return _VERDICT_CLASSES[path.returned.value]


MONITOR = NFSpec(
    name="monitor",
    title="NF: heavy-hitter monitor",
    function=MONITOR_FUNCTION,
    build_module=build_monitor_module,
    make_state=make_sketch,
    classify=classify_monitor_path,
    classes=_CLASS_DESCRIPTIONS,
    pkt_base=PKT_BASE,
    sym_bytes=PKT_SYM_BYTES,
    secret_sets=(
        # The count-min sketch is constant-time by construction (no PCVs)
        # and the hot/cold verdict blocks are shape-identical, so the
        # cycle-delta polynomial is literally zero: timing reveals nothing
        # about which flows the monitor considers heavy hitters.
        SecretClassSet(
            "heavy-hitter status",
            ("hot_flow", "cold_flow"),
            "whether a flow is flagged as a heavy hitter (detection-threshold "
            "probing by an attacker pacing their own flows)",
            CONSTANT_TIME,
        ),
    ),
)


def generate_monitor_contract() -> PerformanceContract:
    """Run BOLT end-to-end on the monitor and return its contract."""
    return MONITOR.contract()
