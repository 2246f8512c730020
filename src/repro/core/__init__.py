"""Core of the reproduction: performance contracts and the BOLT tool-chain.

The sub-modules mirror the structure of the paper:

* :mod:`repro.core.pcv` — performance-critical variables (PCVs), §2.3.
* :mod:`repro.core.perfexpr` — symbolic performance expressions over PCVs.
* :mod:`repro.core.contract` — the performance-contract construct, §2.2.
* :mod:`repro.core.input_class` — input (packet) class specifications.
* :mod:`repro.core.bolt` — the BOLT contract generator, §3 (Algorithm 2).
* :mod:`repro.core.composition` — contracts for chains of NFs, §3.4.
* :mod:`repro.core.distiller` — the BOLT Distiller, §4.
* :mod:`repro.core.diff` — contract serialization and golden diffing.
* :mod:`repro.core.report` — human-readable rendering of contracts.
"""

from repro.core.pcv import PCV, PCVRegistry, qualify_name, split_name
from repro.core.perfexpr import PerfExpr
from repro.core.contract import (
    ContractEntry,
    Metric,
    PerformanceContract,
    effective_bounds,
    upper_envelope,
)
from repro.core.input_class import InputClass
from repro.core.bolt import Bolt, BoltConfig
from repro.core.composition import (
    compose_graph_contracts,
    naive_add_contracts,
    route_class_name,
)
from repro.core.distiller import Distiller, DistillerReport, explain_term, resolve_pcv
from repro.core.diff import (
    ContractDiff,
    contract_from_json,
    contract_to_json,
    diff_contracts,
    dump_contract,
    load_contract,
)
from repro.core.report import format_contract, format_table

__all__ = [
    "Bolt",
    "BoltConfig",
    "ContractDiff",
    "ContractEntry",
    "Distiller",
    "DistillerReport",
    "InputClass",
    "Metric",
    "PCV",
    "PCVRegistry",
    "PerfExpr",
    "PerformanceContract",
    "compose_graph_contracts",
    "contract_from_json",
    "contract_to_json",
    "diff_contracts",
    "dump_contract",
    "effective_bounds",
    "explain_term",
    "format_contract",
    "format_table",
    "load_contract",
    "naive_add_contracts",
    "resolve_pcv",
    "qualify_name",
    "route_class_name",
    "split_name",
    "upper_envelope",
]
