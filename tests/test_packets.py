"""Frame builders: the same bytes and the same errors as the reference builders.

The references below are the builders as they were written before
``nat_frame`` and ``ipv4_frame`` packed one precompiled header: each
frame is a zeroed ``bytearray`` with the fields the NFs read assigned
one slice at a time.  They are the specification the packed builders
must keep, byte for byte and error message for error message.
"""

import itertools

import pytest

from repro.traffic.packets import (
    ETHERTYPE_IPV4,
    IPV4_MIN_FRAME,
    NAT_MIN_FRAME,
    ethernet_frame,
    ipv4_address,
    ipv4_frame,
    mac_bytes,
    nat_frame,
)


def reference_ethernet_frame(dst, src, *, ethertype=ETHERTYPE_IPV4, payload=50):
    dst_b = mac_bytes(dst) if isinstance(dst, int) else bytes(dst)
    src_b = mac_bytes(src) if isinstance(src, int) else bytes(src)
    if len(dst_b) != 6 or len(src_b) != 6:
        raise ValueError("MACs must be six bytes")
    return dst_b + src_b + bytes(ethertype) + bytes(payload)


def reference_ipv4_frame(dst, *, ttl=64, ethertype=ETHERTYPE_IPV4, payload=16):
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} out of range")
    address = ipv4_address(dst)
    frame = bytearray(IPV4_MIN_FRAME + payload)
    frame[12], frame[13] = ethertype
    frame[22] = ttl
    frame[30:34] = address.to_bytes(4, "big")
    return bytes(frame)


def reference_nat_frame(
    src, src_port, dst, dst_port, *, ethertype=ETHERTYPE_IPV4, payload=12, ttl=0
):
    for port in (src_port, dst_port):
        if not 0 <= port < (1 << 16):
            raise ValueError(f"port {port} is not a 16-bit value")
    if not 0 <= ttl <= 0xFF:
        raise ValueError(f"TTL {ttl} out of range")
    frame = bytearray(NAT_MIN_FRAME + payload)
    frame[12], frame[13] = ethertype
    frame[22] = ttl
    frame[26:30] = ipv4_address(src).to_bytes(4, "big")
    frame[30:34] = ipv4_address(dst).to_bytes(4, "big")
    frame[34:36] = src_port.to_bytes(2, "big")
    frame[36:38] = dst_port.to_bytes(2, "big")
    return bytes(frame)


PORTS = (0, 1, 65535)
TTLS = (0, 1, 255)
ETHERTYPES = (ETHERTYPE_IPV4, (0x86, 0xDD))
PAYLOADS = (0, 12, 50)
#: Both ends of the address space, as ints and as octet tuples.
ADDRESSES = (0, (1 << 32) - 1, (0, 0, 0, 0), (255, 255, 255, 255), (10, 20, 30, 40))
MACS = (0, 1, (1 << 48) - 1, bytes(range(6)))


def test_nat_frame_matches_the_reference_on_an_edge_grid():
    for src, dst, port, ttl, ethertype, payload in itertools.product(
        ADDRESSES, ADDRESSES[:3], PORTS, TTLS, ETHERTYPES, PAYLOADS
    ):
        kwargs = dict(ethertype=ethertype, payload=payload, ttl=ttl)
        expected = reference_nat_frame(src, port, dst, 65535 - port, **kwargs)
        assert nat_frame(src, port, dst, 65535 - port, **kwargs) == expected
    assert nat_frame(1, 2, 3, 4) == reference_nat_frame(1, 2, 3, 4)


def test_ipv4_frame_matches_the_reference_on_an_edge_grid():
    for dst, ttl, ethertype, payload in itertools.product(ADDRESSES, TTLS, ETHERTYPES, PAYLOADS):
        kwargs = dict(ttl=ttl, ethertype=ethertype, payload=payload)
        assert ipv4_frame(dst, **kwargs) == reference_ipv4_frame(dst, **kwargs)
    assert ipv4_frame(7) == reference_ipv4_frame(7)


def test_ethernet_frame_matches_the_reference_on_an_edge_grid():
    for dst, src, ethertype, payload in itertools.product(MACS, MACS, ETHERTYPES, PAYLOADS):
        kwargs = dict(ethertype=ethertype, payload=payload)
        assert ethernet_frame(dst, src, **kwargs) == reference_ethernet_frame(dst, src, **kwargs)
    assert ethernet_frame(1, 2) == reference_ethernet_frame(1, 2)


def _message(build, *args, **kwargs):
    with pytest.raises(ValueError) as raised:
        build(*args, **kwargs)
    return str(raised.value)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1, -1, 2, 80), {}),
        ((1, 80, 2, 65536), {}),
        ((1, 65536, 2, -1), {}),
        ((1, 80, 2, 80), {"ttl": 256}),
        ((1, 80, 2, 80), {"ttl": -1}),
        ((1 << 32, 80, 2, 80), {}),
        ((1, 80, 1 << 32, 80), {}),
        ((-1, 80, 2, 80), {}),
        (((1, 2, 3), 80, 2, 80), {}),
        ((1, 80, (1, 2, 3, 256), 80), {}),
        ((1, 80, 2, 80), {"ethertype": (0x86, 0x100)}),
        ((1, 80, 2, 80), {"ethertype": (0x86,)}),
        ((1, 80, 2, 80), {"ethertype": (0x86, 0xDD, 0)}),
        ((1, 80, 2, 80), {"payload": -39}),
    ],
)
def test_nat_frame_raises_what_the_reference_raises(args, kwargs):
    assert _message(nat_frame, *args, **kwargs) == _message(reference_nat_frame, *args, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1,), {"ttl": 256}),
        ((1,), {"ttl": -1}),
        ((1 << 32,), {}),
        ((-1,), {}),
        (((1, 2, 3),), {}),
        (((1, 2, 3, 256),), {}),
        ((1,), {"ethertype": (0x86, 0x100)}),
        ((1,), {"ethertype": (0x86,)}),
        ((1,), {"payload": -35}),
    ],
)
def test_ipv4_frame_raises_what_the_reference_raises(args, kwargs):
    assert _message(ipv4_frame, *args, **kwargs) == _message(reference_ipv4_frame, *args, **kwargs)


@pytest.mark.parametrize(
    "args",
    [(1 << 48, 1), (1, 1 << 48), (-1, 1), (b"\x00" * 5, 1), (1, b"\x00" * 7)],
)
def test_ethernet_frame_raises_what_the_reference_raises(args):
    assert _message(ethernet_frame, *args) == _message(reference_ethernet_frame, *args)
