"""Cycle models: mapping contract metrics to hardware cycle predictions.

BOLT's contracts bound the two quantities binary instrumentation can count
exactly — dynamic instructions and memory accesses.  To talk about *time*
(the paper's §5 evaluation compares predicted against measured cycles on an
x86 testbed), those counts must pass through a hardware model.  This module
provides the three models the reproduction's evaluation loop uses:

* :class:`ConservativeModel` — the worst-case bound: every instruction
  retires alone (CPI 1) and every memory access misses all caches and pays
  the full DRAM latency.  No real execution on the modelled hardware can
  exceed it.
* :class:`RealisticModel` — the simulated-testbed model: a superscalar
  issue width amortises instructions, stateless accesses (packet buffer,
  locals) hit the L1, and each stateful structure gets a per-structure
  cache-hit assumption that blends L1 and DRAM latency (a hash chain walk
  has worse locality than an LPM trie's hot top levels).
* :class:`SimulatedModel` — the cache-simulator model: no hit-rate
  assumptions at all.  It replays the tracer's per-packet address stream
  through a set-associative L1/LLC hierarchy
  (:mod:`repro.hw.cachesim`) and prices every access at the latency of
  the level that actually served it, so hit rates are *observed* per
  packet.  Its prediction side still prices every access at DRAM, which
  keeps measured ≤ predicted sound; the observed per-packet costs are
  what the bench's report-only p50/p95/p99 tails summarise.

All three models expose the same two sides:

* **predict** — :meth:`CycleModel.cycles_expr` turns one contract entry's
  instruction/memory expressions into a cycle :class:`PerfExpr` over the
  same PCVs; :meth:`CycleModel.derive` does it for a whole contract,
  producing a new :class:`PerformanceContract` with a ``cycles`` column
  that renders and distils like any other.  Evaluating that expression
  at the PCV upper bounds gives the worst-case cycle envelope.
* **measure** — :meth:`CycleModel.measure` prices one traced concrete
  execution (an :class:`~repro.nfil.tracer.ExecutionTrace`) under the same
  assumptions, attributing each extern call's accesses to its structure;
  :meth:`CycleModel.compile_measure` is its integer-arithmetic form for
  the replay hot loop.

Soundness of measured ≤ predicted: every per-unit price is non-negative
and *predict* prices each memory term at the **maximum** latency of any
party that could have produced it (the constant term at the max over the
stateless price and every structure's price, PCV terms at their owning
structure's price), while *measure* prices each access at its actual
producer's latency.  Since the contract's counts bound the traced counts
per attribution class (the PR 1/2 replay invariant), the priced sums
preserve the inequality packet by packet — which is exactly what
``python -m repro.cli bench`` asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.contract import ContractEntry, Metric, PerformanceContract
from repro.core.pcv import PCVRegistry
from repro.core.perfexpr import Monomial, Number, PerfExpr
from repro.hw.cachesim import (
    DEFAULT_L1_GEOMETRY,
    DEFAULT_LLC_GEOMETRY,
    CacheGeometry,
    CacheHierarchy,
    geometry_to_json,
)
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure

__all__ = [
    "ConservativeModel",
    "CycleModel",
    "DEFAULT_HIT_RATES",
    "HwSpec",
    "RealisticModel",
    "SimulatedModel",
    "model_to_json",
    "spec_to_json",
]


def _as_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**6)


@dataclass(frozen=True)
class HwSpec:
    """The latency parameters of the modelled machine.

    Defaults approximate a commodity server core: a 2-wide sustainable
    issue width, a 4-cycle L1 hit, a 30-cycle LLC hit and a 100-cycle
    DRAM round trip.

    Attributes:
        name: human-readable machine name (lands in bench reports).
        issue_width: instructions the realistic model retires per cycle.
        l1_latency: cycles per L1-hit memory access.
        dram_latency: cycles per full-miss memory access.
        llc_latency: cycles per access served by the last-level cache
            (only the simulated model distinguishes this level).
    """

    name: str = "commodity-x86"
    issue_width: int = 2
    l1_latency: int = 4
    dram_latency: int = 100
    llc_latency: int = 30

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError("issue_width must be at least 1")
        if not 0 < self.l1_latency <= self.llc_latency <= self.dram_latency:
            raise ValueError(
                "latencies must satisfy 0 < l1_latency <= llc_latency <= dram_latency"
            )


#: Default cache-hit assumptions per structure *kind*, used by the
#: realistic model when no per-instance override is given.  A hash chain
#: walk touches scattered links (cold-ish); an LPM trie's top levels are
#: shared by every lookup and stay resident; a port allocator's free
#: list, a Maglev table's lookup array and a count-min sketch's counter
#: rows are each one small, hot array.
DEFAULT_HIT_RATES: Dict[str, Fraction] = {
    "chaining_hash_map": Fraction(9, 10),
    "expiring_map": Fraction(9, 10),
    "lpm_trie": Fraction(19, 20),
    "port_allocator": Fraction(19, 20),
    "maglev_table": Fraction(19, 20),
    "count_min_sketch": Fraction(19, 20),
}


class CycleModel:
    """Base class of cycle models; subclasses fix the pricing policy.

    A pricing policy is three per-unit prices, all in cycles:

    * :meth:`instruction_cycles` — per retired dynamic instruction,
    * :meth:`stateless_access_cycles` — per memory access of the stateless
      NFIL code,
    * :meth:`structure_access_cycles` — per memory access performed inside
      a given stateful structure (``None`` means "unknown producer" and
      must be priced at the worst latency).
    """

    #: Short model name used in bench reports and derived contract names.
    name: str = "cycle_model"

    #: True when :meth:`measure` needs the tracer's per-access address
    #: stream (``ExecutionTrace.accesses``), not just the counts.  The
    #: replayer enables address recording iff any active model sets this.
    requires_access_stream: bool = False

    def __init__(self, spec: Optional[HwSpec] = None) -> None:
        self.spec = spec if spec is not None else HwSpec()

    # -- pricing policy (overridden by subclasses) ----------------------- #
    def instruction_cycles(self) -> Fraction:
        """Cycles charged per dynamic instruction."""
        raise NotImplementedError

    def stateless_access_cycles(self) -> Fraction:
        """Cycles charged per stateless memory access."""
        raise NotImplementedError

    def structure_access_cycles(self, structure: Optional[Structure]) -> Fraction:
        """Cycles charged per memory access inside ``structure``."""
        raise NotImplementedError

    # -- prediction side ------------------------------------------------- #
    def _monomial_access_cycles(
        self, monomial: Monomial, registries: Sequence[Tuple[Structure, PCVRegistry]]
    ) -> Fraction:
        """Price one memory-expression monomial.

        The constant term may mix stateless accesses with the constant
        base cost of any structure call, so it is priced at the maximum
        over all candidate producers.  A PCV monomial is produced by the
        structure(s) owning the PCV; a PCV owned by no known structure is
        priced at the unknown-producer worst case.
        """
        if not monomial:
            prices = [self.stateless_access_cycles()]
            prices.extend(self.structure_access_cycles(s) for s, _ in registries)
            return max(prices)
        owners = [s for s, registry in registries if any(name in registry for name in monomial)]
        if not owners:
            return self.structure_access_cycles(None)
        return max(self.structure_access_cycles(s) for s in owners)

    def cycles_expr(
        self, entry: ContractEntry, *, structures: Sequence[Structure] = ()
    ) -> PerfExpr:
        """Derive one entry's cycle expression over its PCVs."""
        expr = entry.expr(Metric.INSTRUCTIONS).scaled(self.instruction_cycles())
        registries = [(structure, structure.registry()) for structure in structures]
        for monomial, coeff in entry.expr(Metric.MEMORY_ACCESSES).terms.items():
            price = self._monomial_access_cycles(monomial, registries)
            expr += PerfExpr({monomial: coeff * price})
        return expr

    def derive(
        self, contract: PerformanceContract, *, structures: Sequence[Structure] = ()
    ) -> PerformanceContract:
        """Return ``contract`` extended with a derived ``cycles`` column.

        The derived contract keeps the original entries' instruction and
        memory expressions (and their symbolic paths), so it classifies,
        renders and distils exactly like the input contract.
        """
        derived = PerformanceContract(
            f"{contract.nf_name}@{self.name}", registry=contract.registry
        )
        for entry in contract.entries:
            exprs = dict(entry.exprs)
            exprs[Metric.CYCLES] = self.cycles_expr(entry, structures=structures)
            derived.add_entry(
                ContractEntry(input_class=entry.input_class, exprs=exprs, paths=entry.paths)
            )
        return derived

    # -- measurement side ------------------------------------------------ #
    @staticmethod
    def call_owners(structures: Sequence[Structure]) -> Dict[str, Structure]:
        """Map every extern name to the structure instance serving it.

        Resolution is by exact extern name (each operation's
        ``extern_name``), never by name prefix — with instances named,
        say, ``fib`` and ``fib_cache``, a prefix match would silently
        misattribute ``fib_cache_lookup`` accesses to ``fib``.
        """
        owners: Dict[str, Structure] = {}
        for structure in structures:
            for op in structure.ops():
                owners[structure.extern_name(op.method)] = structure
        return owners

    def measure(
        self, trace: ExecutionTrace, *, structures: Sequence[Structure] = ()
    ) -> Fraction:
        """Price one traced concrete execution under this model.

        Every dynamic instruction (stateless and extern) pays
        :meth:`instruction_cycles`; stateless accesses pay the stateless
        price; each extern call's accesses pay its owning structure's
        price (worst-case price when the owner is unknown).
        """
        owners = self.call_owners(structures)
        cycles = Fraction(trace.total_instructions()) * self.instruction_cycles()
        cycles += Fraction(trace.memory_accesses) * self.stateless_access_cycles()
        for call in trace.extern_calls:
            owner = owners.get(call.name)
            cycles += Fraction(call.memory_accesses) * self.structure_access_cycles(owner)
        return cycles

    def price_denominator(self, structures: Sequence[Structure] = ()) -> int:
        """LCM of the denominators of every per-unit price this model uses.

        Any multiple of this value is a valid ``scale`` for
        :meth:`compile_measure`.
        """
        value = math.lcm(
            self.instruction_cycles().denominator,
            self.stateless_access_cycles().denominator,
            self.structure_access_cycles(None).denominator,
        )
        for structure in structures:
            value = math.lcm(value, self.structure_access_cycles(structure).denominator)
        return value

    def _pricer(self, structures: Sequence[Structure], scale: int) -> Callable[[Fraction], int]:
        """``price -> price * scale`` as an exact int; ValueError if a fraction remains."""

        def price(value: Fraction) -> int:
            scaled = value * scale
            if scaled.denominator != 1:
                raise ValueError(
                    f"scale {scale} does not clear price {value} (need a "
                    f"multiple of {self.price_denominator(structures)})"
                )
            return scaled.numerator

        return price

    def compile_measure(
        self, structures: Sequence[Structure] = (), *, scale: int = 1
    ) -> Callable[[ExecutionTrace], int]:
        """Compile :meth:`measure` into ``f(trace) -> cycles * scale`` (int).

        Per-unit prices are resolved and scaled to exact integers once;
        the returned closure prices a trace with plain integer arithmetic,
        which is what lets the replayer check measured ≤ predicted per
        packet without any ``Fraction`` work in the hot loop.  ``scale``
        must be a multiple of :meth:`price_denominator` (``ValueError``
        otherwise).
        """
        price = self._pricer(structures, scale)
        instruction = price(self.instruction_cycles())
        stateless = price(self.stateless_access_cycles())
        unknown = price(self.structure_access_cycles(None))
        owners = self.call_owners(structures)
        by_extern = {
            name: price(self.structure_access_cycles(structure))
            for name, structure in owners.items()
        }

        def measure(trace: ExecutionTrace, _get=by_extern.get) -> int:
            cycles = (
                trace.total_instructions() * instruction
                + trace.memory_accesses * stateless
            )
            for call in trace.extern_calls:
                cycles += call.memory_accesses * _get(call.name, unknown)
            return cycles

        return measure


class ConservativeModel(CycleModel):
    """Worst-case pricing: CPI 1, every memory access a full DRAM miss.

    Nothing on the modelled machine can run slower, so the derived cycle
    column is a hard bound whatever the cache behaviour turns out to be.
    """

    name = "conservative"

    def instruction_cycles(self) -> Fraction:
        return Fraction(1)

    def stateless_access_cycles(self) -> Fraction:
        return Fraction(self.spec.dram_latency)

    def structure_access_cycles(self, structure: Optional[Structure]) -> Fraction:
        return Fraction(self.spec.dram_latency)


class RealisticModel(CycleModel):
    """Simulated-testbed pricing with per-structure cache-hit assumptions.

    Instructions amortise over the issue width; stateless accesses (packet
    buffer, locals) hit the L1; an access inside structure *s* pays the
    blend ``hit(s)·l1 + (1 − hit(s))·dram``.  Hit rates resolve per
    instance name first, then per structure kind; a structure of a kind
    with no declared rate is a hard error (``KeyError``) — silently
    pricing a new structure as all-DRAM hid real modelling gaps, and the
    fix is one line: declare a rate, or use :class:`SimulatedModel`,
    which observes locality instead of assuming it.

    Args:
        spec: machine parameters (defaults to :class:`HwSpec`).
        hit_rates: overrides/extensions of :data:`DEFAULT_HIT_RATES`,
            keyed by structure instance name or kind; values in [0, 1].
    """

    name = "realistic"

    def __init__(
        self,
        spec: Optional[HwSpec] = None,
        *,
        hit_rates: Optional[Mapping[str, Union[float, Fraction]]] = None,
    ) -> None:
        super().__init__(spec)
        rates: Dict[str, Fraction] = dict(DEFAULT_HIT_RATES)
        for key, rate in (hit_rates or {}).items():
            rates[key] = _as_fraction(rate)
        for key, rate in rates.items():
            if not 0 <= rate <= 1:
                raise ValueError(f"hit rate for {key!r} must be in [0, 1], got {rate}")
        self.hit_rates = rates

    def hit_rate(self, structure: Optional[Structure]) -> Fraction:
        """Resolve the cache-hit assumption for one structure.

        ``None`` (unknown producer) is priced all-miss, but a *known*
        structure whose kind has no declared rate raises ``KeyError``:
        new structures must declare their locality (or the bench must
        run them under the simulator) rather than be silently priced as
        all-DRAM with no signal that the model is incomplete.
        """
        if structure is None:
            return Fraction(0)
        if structure.name in self.hit_rates:
            return self.hit_rates[structure.name]
        if structure.kind in self.hit_rates:
            return self.hit_rates[structure.kind]
        raise KeyError(
            f"no cache-hit rate declared for structure {structure.name!r} of kind "
            f"{structure.kind!r}: pass hit_rates={{{structure.kind!r}: ...}} to "
            "RealisticModel, or price it under SimulatedModel, which observes "
            "hit rates instead of assuming them"
        )

    def instruction_cycles(self) -> Fraction:
        return Fraction(1, self.spec.issue_width)

    def stateless_access_cycles(self) -> Fraction:
        return Fraction(self.spec.l1_latency)

    def structure_access_cycles(self, structure: Optional[Structure]) -> Fraction:
        rate = self.hit_rate(structure)
        return rate * self.spec.l1_latency + (1 - rate) * self.spec.dram_latency


class SimulatedModel(CycleModel):
    """Cache-simulator pricing: hit rates observed, never assumed.

    The measurement side replays the trace's recorded address stream
    through a set-associative L1/LLC :class:`~repro.hw.cachesim.CacheHierarchy`
    and prices each access at the latency of the level that served it
    (l1 / llc / dram).  The hierarchy is **stateful across packets** —
    that warm/cold history is precisely what turns a replay into a
    per-packet latency *distribution* rather than one blended number.

    The prediction side prices every memory access at DRAM and
    instructions at ``1/issue_width``: since every simulated access costs
    at most ``dram_latency``, measured ≤ predicted holds packet by packet
    whatever the cache does.  Accesses the trace counted but did not
    record addresses for (address recording off, or an extern that
    reports counts only) are priced at DRAM — the shortfall can only
    overprice the measurement, never unsound-underprice it.

    Args:
        spec: machine parameters (defaults to :class:`HwSpec`).
        l1: L1 geometry (defaults to
            :data:`~repro.hw.cachesim.DEFAULT_L1_GEOMETRY`).
        llc: LLC geometry (defaults to
            :data:`~repro.hw.cachesim.DEFAULT_LLC_GEOMETRY`).
    """

    name = "simulated"
    requires_access_stream = True

    def __init__(
        self,
        spec: Optional[HwSpec] = None,
        *,
        l1: CacheGeometry = DEFAULT_L1_GEOMETRY,
        llc: CacheGeometry = DEFAULT_LLC_GEOMETRY,
    ) -> None:
        super().__init__(spec)
        self.hierarchy = CacheHierarchy(l1, llc)

    def reset(self) -> None:
        """Cold-start the cache hierarchy (fresh replay, fresh machine)."""
        self.hierarchy.reset()

    def instruction_cycles(self) -> Fraction:
        return Fraction(1, self.spec.issue_width)

    def stateless_access_cycles(self) -> Fraction:
        # Prediction-side price only: the measurement side prices each
        # access at its simulated level, which never exceeds this.
        return Fraction(self.spec.dram_latency)

    def structure_access_cycles(self, structure: Optional[Structure]) -> Fraction:
        return Fraction(self.spec.dram_latency)

    def _level_prices(self) -> Dict[str, Fraction]:
        return {
            "l1": Fraction(self.spec.l1_latency),
            "llc": Fraction(self.spec.llc_latency),
            "dram": Fraction(self.spec.dram_latency),
        }

    def measure(
        self, trace: ExecutionTrace, *, structures: Sequence[Structure] = ()
    ) -> Fraction:
        """Price one traced execution by simulating its address stream.

        Mutates the hierarchy: replaying the same trace twice gives the
        second run the first run's warm caches.  Call :meth:`reset` for
        a cold machine.
        """
        prices = self._level_prices()
        access = self.hierarchy.access
        cycles = Fraction(trace.total_instructions()) * self.instruction_cycles()
        for mem in trace.accesses:
            cycles += prices[access(mem.addr)]
        counted = trace.memory_accesses + sum(
            call.memory_accesses for call in trace.extern_calls
        )
        shortfall = counted - len(trace.accesses)
        if shortfall > 0:
            cycles += Fraction(shortfall * self.spec.dram_latency)
        return cycles

    def compile_measure(
        self, structures: Sequence[Structure] = (), *, scale: int = 1
    ) -> Callable[[ExecutionTrace], int]:
        """Integer-arithmetic :meth:`measure` (same statefulness caveat)."""
        price = self._pricer(structures, scale)
        instruction = price(self.instruction_cycles())
        levels = {name: price(value) for name, value in self._level_prices().items()}
        dram = levels["dram"]
        hierarchy_access = self.hierarchy.access

        def measure(trace: ExecutionTrace, _levels=levels) -> int:
            cycles = trace.total_instructions() * instruction
            counted = trace.memory_accesses
            for mem in trace.accesses:
                cycles += _levels[hierarchy_access(mem.addr)]
            for call in trace.extern_calls:
                counted += call.memory_accesses
            shortfall = counted - len(trace.accesses)
            if shortfall > 0:
                cycles += shortfall * dram
            return cycles

        return measure


def spec_to_json(spec: HwSpec) -> Dict[str, object]:
    """Serialise a spec for bench reports."""
    return {
        "name": spec.name,
        "issue_width": spec.issue_width,
        "l1_latency": spec.l1_latency,
        "llc_latency": spec.llc_latency,
        "dram_latency": spec.dram_latency,
    }


def model_to_json(model: CycleModel) -> Dict[str, object]:
    """Serialise a model's pricing policy for bench reports."""
    payload: Dict[str, object] = {
        "model": model.name,
        "spec": spec_to_json(model.spec),
        "cycles_per_instruction": str(model.instruction_cycles()),
        "stateless_access_cycles": str(model.stateless_access_cycles()),
    }
    if isinstance(model, RealisticModel):
        payload["hit_rates"] = {k: str(v) for k, v in sorted(model.hit_rates.items())}
    if isinstance(model, SimulatedModel):
        payload["caches"] = {
            "l1": geometry_to_json(model.hierarchy.l1.geometry),
            "llc": geometry_to_json(model.hierarchy.llc.geometry),
        }
    return payload
