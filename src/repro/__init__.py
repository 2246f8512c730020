"""repro — a reproduction of "Performance Contracts for Software Network Functions".

The package re-implements, in pure Python, the BOLT system presented at
NSDI 2019 together with the substrates it depends on:

* :mod:`repro.core` — performance contracts, the BOLT contract generator
  (Algorithm 2), contract composition for NF chains, the Distiller, and
  contract rendering.
* :mod:`repro.sym` — a from-scratch symbolic-execution engine (expressions,
  solver, symbolic state, path exploration) used by BOLT to enumerate
  feasible paths through the stateless NF code.
* :mod:`repro.nfil` — the NF intermediate language in which the NFs of this
  repository are written (register machine with branches, loads/stores and
  calls), plus a concrete interpreter that doubles as the instruction tracer
  (the role Intel Pin plays in the paper).
* :mod:`repro.structures` — the Vigor-style stateful data-structure
  library (chaining hash map, time-wheel expiring map, LPM trie); each
  structure ships an instrumented concrete implementation, a symbolic
  model, and a hand-derived per-operation contract, all read from one
  cost table.
* :mod:`repro.nf` — the six network functions under analysis (bridge,
  router, NAT, load balancer, firewall, monitor), all assembled from the
  structure library, each declared once as an ``NFSpec`` descriptor from
  which its contract and replay harness are generated, plus their
  evaluation workloads.
* :mod:`repro.hw` — hardware cycle models mapping contract
  instruction/memory counts to cycle predictions: a conservative
  worst-case model and a realistic model with per-structure cache-hit
  assumptions.
* :mod:`repro.traffic` — packet helpers, uniform/Zipf/adversarial workload
  generation, and the measured-vs-predicted replayer behind
  ``python -m repro.cli bench``.

Follow-on layers tracked in ROADMAP.md (more NFs, distiller deepening,
scale/perf work) will register here as they land.
"""

from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.perfexpr import PerfExpr
from repro.core.pcv import PCV, PCVRegistry
from repro.core.bolt import generate_contract
from repro.core.distiller import Distiller
from repro.core.input_class import InputClass

__all__ = [
    "ContractEntry",
    "Distiller",
    "InputClass",
    "Metric",
    "PCV",
    "PCVRegistry",
    "PerfExpr",
    "PerformanceContract",
    "generate_contract",
]

__version__ = "1.9.0"
