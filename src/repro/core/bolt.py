"""The BOLT contract generator (§3, Algorithm 2 of the paper).

BOLT derives a performance contract for an NF in three steps, all run by
:func:`generate_contract`:

1. **Explore** — symbolically execute the stateless NF code with the
   stateful data structures replaced by their symbolic models
   (:class:`repro.sym.engine.SymbolicEngine`).  Each resulting
   :class:`~repro.sym.paths.Path` carries its exact stateless
   instruction/memory counts and one :class:`~repro.sym.paths.CallRecord`
   per stateful call.
2. **Cost** — for every path and metric, sum the (constant) stateless cost
   with the PCV-parameterised contract terms of each stateful call,
   yielding one :class:`~repro.core.perfexpr.PerfExpr` per path.
3. **Merge** — group paths into input classes (via the NF's classifier)
   and merge each group with
   :func:`~repro.core.contract.upper_envelope`, producing one contract
   entry per class.  The merged entry keeps its paths, so concrete
   executions can be classified and cross-checked later.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.contract import (
    COUNT_METRICS,
    ContractEntry,
    Metric,
    PerformanceContract,
    upper_envelope,
)
from repro.core.input_class import InputClass
from repro.core.pcv import PCVRegistry
from repro.core.perfexpr import PerfExpr
from repro.nfil.program import Module
from repro.sym.engine import SymbolicEngine, SymbolicModel
from repro.sym.expr import BV
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory

__all__ = ["generate_contract"]


def _path_cost(path: Path, metric: Metric) -> PerfExpr:
    """Stateless constant cost + the contract terms of each call."""
    if metric is Metric.INSTRUCTIONS:
        total = PerfExpr.constant(path.instructions)
    else:
        total = PerfExpr.constant(path.memory_accesses)
    for call in path.calls:
        term = call.cost.get(metric)
        if term is not None:
            total = total + PerfExpr.coerce(term)
    return total


def generate_contract(
    module: Module,
    function: str,
    args: Sequence[Union[BV, int]],
    *,
    model: SymbolicModel,
    registry: PCVRegistry,
    classify: Callable[[Path], str],
    classes: Mapping[str, str],
    memory: Optional[SymbolicMemory] = None,
    constraints: Sequence[BV] = (),
) -> PerformanceContract:
    """Explore ``function``, cost each path and merge the paths into classes.

    Args:
        module: the NF's NFIL module.
        function: the entry function to analyse.
        args: symbolic initial values, one per function parameter.
        model: the symbolic model standing in for every extern.
        registry: the PCVs the contract is written over.
        classify: maps each explored path to its input class's name.
        classes: input class name -> description; a name ``classify``
            returns that is not declared here raises ``KeyError``.
        memory: initial symbolic memory (symbolic packet buffer etc.).
        constraints: initial assumptions on the inputs.
    """
    paths = SymbolicEngine(module, model=model).explore(
        function, args, memory=memory, constraints=constraints
    )
    groups: Dict[str, List[Path]] = {}
    for path in paths:
        groups.setdefault(classify(path), []).append(path)
    contract = PerformanceContract(function, registry=registry)
    for name in sorted(groups):
        group = groups[name]
        contract.add_entry(
            ContractEntry(
                input_class=InputClass(name, classes[name]),
                exprs={
                    metric: upper_envelope(_path_cost(path, metric) for path in group)
                    for metric in COUNT_METRICS
                },
                paths=tuple(group),
            )
        )
    return contract
