"""A minimal libpcap-format capture reader/writer and replay adapters.

Real evaluation traffic rarely starts life as a Python generator: it is
captured on a wire and lands in a ``.pcap`` file.  This module implements
exactly the subset of the classic libpcap container the workloads need —
no external dependency, no nanosecond/pcapng variants:

* 24-byte global header (magic ``0xA1B2C3D4``, version 2.4, snaplen,
  link type), both byte orders accepted on read, little-endian written;
* 16-byte per-record header (``ts_sec``, ``ts_usec``, ``incl_len``,
  ``orig_len``) followed by ``incl_len`` packet bytes.

Two adapters turn a parsed :class:`Capture` into replayable input:

* :func:`capture_ticks` — quantise the record timestamps into the integer
  tick clock the NFs' ``time`` scalar uses (relative to the first packet);
* :func:`sample_capture` — loop a capture up to ``count`` packets with a
  *monotonic* tick clock (each revolution is re-based past the previous
  one), which is how a small checked-in fixture feeds an arbitrarily long
  bench run without time ever flowing backwards.

Synthetic fixtures are generated by ``tools/make_captures.py`` and checked
in (``src/repro/net/captures/``); a test regenerates them and asserts
byte-identity so the binary blobs cannot drift from the builder.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, List, Optional, Tuple

__all__ = [
    "Capture",
    "CapturedPacket",
    "LINKTYPE_ETHERNET",
    "PCAP_MAGIC",
    "PcapFormatError",
    "capture_ticks",
    "read_pcap",
    "sample_capture",
    "write_pcap",
]

#: Classic libpcap magic for microsecond timestamps.
PCAP_MAGIC = 0xA1B2C3D4
#: The only link type the NFs parse (plain Ethernet frames).
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_VERSION = (2, 4)


class PcapFormatError(ValueError):
    """The bytes are not a well-formed classic libpcap capture."""


@dataclass(frozen=True)
class CapturedPacket:
    """One capture record: packet bytes plus the capture timestamp."""

    data: bytes
    ts_sec: int = 0
    ts_usec: int = 0
    #: Original on-wire length; defaults to the captured length.  Larger
    #: values mean the record was truncated to the snap length.
    orig_len: Optional[int] = None

    @property
    def wire_len(self) -> int:
        return len(self.data) if self.orig_len is None else self.orig_len

    @property
    def timestamp_us(self) -> int:
        """The record timestamp in whole microseconds."""
        return self.ts_sec * 1_000_000 + self.ts_usec


@dataclass(frozen=True)
class Capture:
    """A parsed (or to-be-written) capture file."""

    packets: Tuple[CapturedPacket, ...] = ()
    snaplen: int = 65535
    network: int = LINKTYPE_ETHERNET

    def __len__(self) -> int:
        return len(self.packets)


def write_pcap(target: BinaryIO, capture: Capture) -> None:
    """Write a capture to a binary file object in classic little-endian libpcap format.

    Raises:
        PcapFormatError: a record is longer than the capture's snaplen.
    """
    target.write(
        _GLOBAL_HEADER.pack(
            PCAP_MAGIC, _VERSION[0], _VERSION[1], 0, 0, capture.snaplen, capture.network
        )
    )
    for index, packet in enumerate(capture.packets):
        if len(packet.data) > capture.snaplen:
            raise PcapFormatError(
                f"record {index}: {len(packet.data)} bytes exceeds snaplen {capture.snaplen}"
            )
        target.write(
            _RECORD_HEADER.pack(
                packet.ts_sec, packet.ts_usec, len(packet.data), packet.wire_len
            )
        )
        target.write(packet.data)


def read_pcap(blob: bytes) -> Capture:
    """Parse the bytes of a classic libpcap capture (either byte order).

    Raises:
        PcapFormatError: bad magic, unsupported version, or a truncated
            global/record header or record body.
    """
    if len(blob) < _GLOBAL_HEADER.size:
        raise PcapFormatError(f"truncated global header: {len(blob)} bytes")
    magic = struct.unpack_from("<I", blob)[0]
    if magic == PCAP_MAGIC:
        order = "<"
    elif magic == struct.unpack("<I", struct.pack(">I", PCAP_MAGIC))[0]:
        order = ">"
    else:
        raise PcapFormatError(f"bad magic {magic:#010x} (not a classic pcap)")
    header = struct.Struct(order + "IHHiIII")
    record = struct.Struct(order + "IIII")
    _, major, minor, _, _, snaplen, network = header.unpack_from(blob)
    if (major, minor) != _VERSION:
        raise PcapFormatError(f"unsupported pcap version {major}.{minor}")
    packets: List[CapturedPacket] = []
    offset = header.size
    while offset < len(blob):
        if offset + record.size > len(blob):
            raise PcapFormatError(f"truncated record header at byte {offset}")
        ts_sec, ts_usec, incl_len, orig_len = record.unpack_from(blob, offset)
        offset += record.size
        if offset + incl_len > len(blob):
            raise PcapFormatError(
                f"record {len(packets)}: body truncated "
                f"({incl_len} bytes promised, {len(blob) - offset} left)"
            )
        packets.append(
            CapturedPacket(
                data=blob[offset : offset + incl_len],
                ts_sec=ts_sec,
                ts_usec=ts_usec,
                orig_len=orig_len,
            )
        )
        offset += incl_len
    return Capture(packets=tuple(packets), snaplen=snaplen, network=network)


# --------------------------------------------------------------------------- #
# Replay adapters
# --------------------------------------------------------------------------- #
#: Quantisation: 1000 ticks per second (1 tick = 1 ms), which maps typical
#: capture inter-arrival gaps onto the small integer clock the NFs' expiry
#: wheels are dimensioned for.
TICK_HZ = 1000
#: Ticks between the last record of one revolution of a looped capture
#: and the first record of the next.
LOOP_GAP = 2


def capture_ticks(capture: Capture) -> List[int]:
    """Quantise record timestamps into integer ticks since the first record.

    The result is non-decreasing (capture timestamps are expected to be;
    a backwards jump raises, since the NFs' time scalar must never run
    backwards within one stream).
    """
    if not capture.packets:
        return []
    base = capture.packets[0].timestamp_us
    ticks: List[int] = []
    for index, packet in enumerate(capture.packets):
        delta = packet.timestamp_us - base
        if delta < 0:
            raise PcapFormatError(f"record {index}: timestamp runs backwards")
        ticks.append(delta * TICK_HZ // 1_000_000)
    return ticks


def sample_capture(capture: Capture, count: int) -> List[Tuple[bytes, int]]:
    """Loop a capture up to ``count`` frames with a monotonic tick clock.

    Each revolution of the capture is re-based just past the previous
    one's last tick (plus :data:`LOOP_GAP`), so a 32-record fixture can feed a
    10^4-packet bench cell while the ``time`` scalar keeps strictly
    non-decreasing — replaying a capture twice must look like two back-to-
    back captures, not like time travel.

    Returns:
        ``count`` ``(packet bytes, tick)`` pairs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not capture.packets:
        raise ValueError("cannot sample an empty capture")
    base_ticks = capture_ticks(capture)
    revolution = base_ticks[-1] + LOOP_GAP
    frames: List[Tuple[bytes, int]] = []
    offset = 0
    while len(frames) < count:
        for packet, tick in zip(capture.packets, base_ticks):
            frames.append((packet.data, offset + tick))
            if len(frames) == count:
                break
        offset += revolution
    return frames
