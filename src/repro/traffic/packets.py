"""Packet and header construction helpers for workloads and tests.

The NFs in this repository parse classic Ethernet (and, for the router,
IPv4) headers with constant offsets, so workload generation only needs to
populate the handful of fields the NFIL code actually loads.  Multi-byte
MAC values follow the NFs' little-endian load convention: the bridge
assembles a 48-bit MAC from a 4-byte and a 2-byte little-endian load, so
``mac_bytes(value)`` is ``value.to_bytes(6, "little")``.
"""

from __future__ import annotations

from struct import Struct
from typing import Iterable, Tuple, Union

__all__ = [
    "ETHERNET_HEADER",
    "ETHERTYPE_IPV4",
    "IPV4_MIN_FRAME",
    "NAT_MIN_FRAME",
    "ethernet_frame",
    "ipv4_address",
    "ipv4_frame",
    "mac_bytes",
    "nat_frame",
]

#: Two MACs plus the EtherType.
ETHERNET_HEADER = 14
#: Ethernet header plus a minimal (option-free) IPv4 header.
IPV4_MIN_FRAME = 34
#: Ethernet + IPv4 + the two L4 port fields the NAT reads.
NAT_MIN_FRAME = 38
#: The IPv4 EtherType as the two on-wire bytes.
ETHERTYPE_IPV4: Tuple[int, int] = (0x08, 0x00)

_MAC_MAX = (1 << 48) - 1

# The headers ipv4_frame and nat_frame pack: zeros but for the fields they name.
_IPV4_HEADER = Struct(">12x2s8xB7xI")
_NAT_HEADER = Struct(">12x2s8xB3xIIHH")


def mac_bytes(value: int) -> bytes:
    """Encode a 48-bit MAC in the NFs' little-endian load order."""
    if not 0 <= value <= _MAC_MAX:
        raise ValueError(f"MAC {value:#x} is not a 48-bit value")
    return value.to_bytes(6, "little")


def ethernet_frame(
    dst: Union[int, bytes],
    src: Union[int, bytes],
    *,
    ethertype: Tuple[int, int] = ETHERTYPE_IPV4,
    payload: int = 50,
) -> bytes:
    """Build a minimal Ethernet frame (``dst | src | ethertype | zeros``)."""
    dst_b = mac_bytes(dst) if isinstance(dst, int) else bytes(dst)
    src_b = mac_bytes(src) if isinstance(src, int) else bytes(src)
    if len(dst_b) != 6 or len(src_b) != 6:
        raise ValueError("MACs must be six bytes")
    return dst_b + src_b + bytes(ethertype) + bytes(payload)


def ipv4_address(octets: Iterable[int] | int) -> int:
    """Normalise four octets (or a 32-bit int) into a host-order address."""
    if isinstance(octets, int):
        if not 0 <= octets < (1 << 32):
            raise ValueError(f"address {octets:#x} is not a 32-bit value")
        return octets
    parts = list(octets)
    if len(parts) != 4 or not all(0 <= part <= 0xFF for part in parts):
        raise ValueError(f"bad IPv4 octets: {parts!r}")
    return (parts[0] << 24) | (parts[1] << 16) | (parts[2] << 8) | parts[3]


def ipv4_frame(
    dst: Iterable[int] | int,
    *,
    ttl: int = 64,
    ethertype: Tuple[int, int] = ETHERTYPE_IPV4,
    payload: int = 16,
) -> bytes:
    """Build a minimal Ethernet+IPv4 frame.

    Only the fields the router reads are populated: the EtherType at
    offset 12, the TTL at offset 22 and the big-endian destination address
    at offsets 30–33.
    """
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} out of range")
    address = ipv4_address(dst)
    high, low = ethertype  # a bad EtherType raises the ValueError it always did
    return _IPV4_HEADER.pack(bytearray((high, low)), ttl, address) + bytes(payload)


def nat_frame(
    src: Iterable[int] | int,
    src_port: int,
    dst: Iterable[int] | int,
    dst_port: int,
    *,
    ethertype: Tuple[int, int] = ETHERTYPE_IPV4,
    payload: int = 12,
    ttl: int = 0,
) -> bytes:
    """Build a minimal Ethernet+IPv4+L4 frame for the NAT (and the LB).

    Populates the fields the NAT reads: the EtherType at offset 12, the
    big-endian source/destination addresses at 26–29 / 30–33 and the
    big-endian L4 ports at 34–35 / 36–37.  The TTL at offset 22 defaults
    to zero (the NAT and LB never read it); service-graph streams that
    continue into the router set it explicitly.
    """
    for port in (src_port, dst_port):
        if not 0 <= port < (1 << 16):
            raise ValueError(f"port {port} is not a 16-bit value")
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} out of range")
    high, low = ethertype  # a bad EtherType raises the ValueError it always did
    header = _NAT_HEADER.pack(
        bytearray((high, low)), ttl, ipv4_address(src), ipv4_address(dst), src_port, dst_port
    )
    return header + bytes(payload)
