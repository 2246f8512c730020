"""Hardware cycle models (the paper's counts-to-cycles mapping, §5).

A :class:`~repro.core.contract.PerformanceContract` bounds instruction and
memory-access counts; this package maps those counts to **cycles** so
predictions can be compared against (simulated) measured executions:

* :class:`ConservativeModel` — worst-case bound: CPI 1, every access a
  DRAM miss.
* :class:`RealisticModel` — simulated testbed: superscalar issue width,
  L1-resident stateless accesses, per-structure cache-hit assumptions.
* :class:`SimulatedModel` — cache simulator: a set-associative L1/LLC
  hierarchy (:mod:`repro.hw.cachesim`) consumes the tracer's per-packet
  address stream, so hit rates are observed per packet instead of
  assumed, and each replay yields a per-packet cycle *distribution*
  (the bench reports its measured p50/p95/p99 per class).

``model.derive(contract)`` returns a contract with a ``cycles`` column;
``model.measure(trace)`` prices a concrete execution under the same
assumptions.  The bench harness (``python -m repro.cli bench``) asserts
measured ≤ predicted for every replayed packet under all three models.
"""

from repro.hw.cachesim import (
    DEFAULT_L1_GEOMETRY,
    DEFAULT_LLC_GEOMETRY,
    CacheGeometry,
    CacheHierarchy,
    SetAssociativeCache,
    geometry_to_json,
)
from repro.hw.model import (
    DEFAULT_HIT_RATES,
    ConservativeModel,
    CycleModel,
    HwSpec,
    RealisticModel,
    SimulatedModel,
    model_to_json,
    spec_to_json,
)

__all__ = [
    "DEFAULT_HIT_RATES",
    "DEFAULT_L1_GEOMETRY",
    "DEFAULT_LLC_GEOMETRY",
    "CacheGeometry",
    "CacheHierarchy",
    "ConservativeModel",
    "CycleModel",
    "HwSpec",
    "RealisticModel",
    "SetAssociativeCache",
    "SimulatedModel",
    "geometry_to_json",
    "model_to_json",
    "spec_to_json",
]
