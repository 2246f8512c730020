"""The minimal libpcap reader/writer and its replay adapters."""

import importlib.util
import io
import struct
from importlib import resources
from pathlib import Path

import pytest

from repro.traffic.pcap import (
    Capture,
    CapturedPacket,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC,
    PcapFormatError,
    capture_ticks,
    read_pcap,
    sample_capture,
    write_pcap,
)


def _capture():
    return Capture(
        packets=tuple(
            CapturedPacket(
                data=bytes([index]) * (38 + index),
                ts_sec=index // 2,
                ts_usec=(index % 2) * 500_000,
            )
            for index in range(5)
        )
    )


def _pcap_bytes(capture):
    buffer = io.BytesIO()
    write_pcap(buffer, capture)
    return buffer.getvalue()


# --------------------------------------------------------------------------- #
# Round trip and format
# --------------------------------------------------------------------------- #
def test_write_read_round_trip_is_byte_identical():
    blob = _pcap_bytes(_capture())
    parsed = read_pcap(blob)
    assert _pcap_bytes(parsed) == blob
    assert [p.data for p in parsed.packets] == [p.data for p in _capture().packets]
    assert [p.timestamp_us for p in parsed.packets] == [
        p.timestamp_us for p in _capture().packets
    ]
    assert parsed.snaplen == 65535
    assert parsed.network == LINKTYPE_ETHERNET


def test_read_accepts_the_opposite_byte_order():
    capture = _capture()
    blob = struct.pack(">IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET)
    for packet in capture.packets:
        blob += struct.pack(
            ">IIII", packet.ts_sec, packet.ts_usec, len(packet.data), len(packet.data)
        )
        blob += packet.data
    parsed = read_pcap(blob)
    assert [p.data for p in parsed.packets] == [p.data for p in capture.packets]
    assert [p.ts_usec for p in parsed.packets] == [p.ts_usec for p in capture.packets]


def test_read_rejects_bad_magic_and_version():
    with pytest.raises(PcapFormatError, match="bad magic"):
        read_pcap(b"\x00" * 24)
    bad_version = struct.pack("<IHHiIII", PCAP_MAGIC, 1, 0, 0, 0, 65535, 1)
    with pytest.raises(PcapFormatError, match="version"):
        read_pcap(bad_version)


def test_read_rejects_truncation_everywhere():
    blob = _pcap_bytes(_capture())
    with pytest.raises(PcapFormatError, match="truncated global header"):
        read_pcap(blob[:10])
    with pytest.raises(PcapFormatError, match="truncated record header"):
        read_pcap(blob[: 24 + 8])
    with pytest.raises(PcapFormatError, match="body truncated"):
        read_pcap(blob[: 24 + 16 + 5])


def test_write_rejects_records_beyond_snaplen():
    capture = Capture(packets=(CapturedPacket(data=b"\x00" * 100),), snaplen=64)
    with pytest.raises(PcapFormatError, match="snaplen"):
        _pcap_bytes(capture)


def test_truncated_records_keep_their_wire_length():
    capture = Capture(packets=(CapturedPacket(data=b"\x01" * 20, orig_len=1500),))
    parsed = read_pcap(_pcap_bytes(capture))
    assert parsed.packets[0].wire_len == 1500
    assert len(parsed.packets[0].data) == 20


# --------------------------------------------------------------------------- #
# Replay adapters
# --------------------------------------------------------------------------- #
def test_capture_ticks_quantise_relative_to_the_first_record():
    ticks = capture_ticks(_capture())
    # Records are 500 ms apart at the default 1000 Hz tick clock.
    assert ticks == [0, 500, 1000, 1500, 2000]


def test_capture_ticks_reject_backwards_timestamps():
    capture = Capture(
        packets=(
            CapturedPacket(data=b"a", ts_sec=5),
            CapturedPacket(data=b"b", ts_sec=4),
        )
    )
    with pytest.raises(PcapFormatError, match="backwards"):
        capture_ticks(capture)


def test_sample_capture_loops_with_a_monotonic_clock():
    frames = sample_capture(_capture(), 12)
    assert len(frames) == 12
    ticks = [tick for _, tick in frames]
    assert ticks == sorted(ticks)
    # The second revolution replays the same bytes, re-based past the first.
    assert frames[5][0] == frames[0][0]
    assert frames[5][1] > frames[4][1]


# --------------------------------------------------------------------------- #
# Checked-in fixtures
# --------------------------------------------------------------------------- #
def _load_make_captures():
    repo = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_captures", repo / "tools" / "make_captures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checked_in_fixtures_match_their_builders():
    """The binary blobs cannot drift from the code that generates them."""
    make_captures = _load_make_captures()
    assert make_captures.FIXTURES, "no fixtures registered"
    for name in make_captures.FIXTURES:
        checked_in = resources.files("repro.net.captures").joinpath(name).read_bytes()
        assert checked_in == make_captures.fixture_bytes(name), (
            f"{name} drifted from its builder; rerun tools/make_captures.py"
        )
