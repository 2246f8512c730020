#!/usr/bin/env python3
"""Regenerate the stream golden: one sha256 per workload stream.

``tests/golden/streams.json`` pins every workload stream the bench and
the service graphs replay, so a change to a stream builder cannot move a
stimulus by a byte unnoticed.  Each per-NF stream is keyed
``{nf}/{family}/{seed}/{packets}`` and hashed over each stimulus's
packet bytes, sorted scalars and note, plus the stream's
``expected_worst``; each graph workload is keyed the same way and
hashed over its entry frames and its churn events (an injected event is
hashed through the stimulus it builds).  ``tests/test_traffic.py``
recomputes the digests and names every stream that moved; when a
builder changes a stream deliberately, run this script and commit the
refreshed golden alongside it.

Usage::

    PYTHONPATH=src python tools/stream_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.net.workloads import (  # noqa: E402
    lb_nat_fw_router_workloads,
    lb_nat_router_workloads,
)
from repro.nf import NF_MATRIX  # noqa: E402

#: The seeds and per-stream packet counts every stream is pinned at.
SEEDS = (2019, 7)
PACKETS = (150, 2000)
#: Graph name -> its ``(seed, packets)`` workload factory.
GRAPH_FACTORIES = {
    "lb_nat_router": lb_nat_router_workloads,
    "lb_nat_fw_router": lb_nat_fw_router_workloads,
}
GOLDEN = os.path.join(os.path.dirname(__file__), "..", "tests", "golden", "streams.json")


def _digest(records: Iterable[object]) -> str:
    """sha256 over the ``repr`` of each record, one line each."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _stimulus_record(stimulus) -> tuple:
    return (bytes(stimulus.packet), sorted(stimulus.scalars.items()), stimulus.note)


def stream_digests() -> Dict[str, str]:
    """Every pinned stream's key -> its sha256, built afresh."""
    digests: Dict[str, str] = {}
    for seed in SEEDS:
        for packets in PACKETS:
            for spec, factory in NF_MATRIX:
                for workload in factory(seed=seed, packets=packets, **spec.bench):
                    records = [_stimulus_record(s) for s in workload.stimuli]
                    records.append(sorted(workload.expected_worst.items()))
                    digests[f"{spec.name}/{workload.name}/{seed}/{packets}"] = _digest(records)
            for graph, factory in GRAPH_FACTORIES.items():
                for workload in factory(seed, packets):
                    records = [(f.packet, f.time, f.note) for f in workload.stream]
                    records += [
                        (
                            event.at,
                            event.node,
                            event.kind,
                            event.describe,
                            event.jump,
                            event.mutate is not None,
                            _stimulus_record(event.inject(0)) if event.inject else None,
                        )
                        for event in workload.schedule.events
                    ]
                    digests[f"{graph}/{workload.name}/{seed}/{packets}"] = _digest(records)
    return dict(sorted(digests.items()))


def main() -> int:
    digests = stream_digests()
    path = os.path.normpath(GOLDEN)
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=1)
        handle.write("\n")
    print(f"wrote {path} ({len(digests)} streams)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
