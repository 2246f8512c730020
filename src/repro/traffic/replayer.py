"""The MoonGen-role replayer: measured-vs-predicted curves per workload.

The paper validates contracts by replaying traffic through the
instrumented NF and checking every execution against the prediction of
the contract entry it falls into (§3.2, §5).  :class:`Replayer` automates
that loop over a stimulus stream:

1. run the stimulus through the NF harness (concrete interpreter + tracer),
2. match the execution to a contract entry: the first entry one of whose
   path conditions holds on the execution's replay environment
   (:func:`repro.nf.replay.replay_env`),
3. evaluate the entry at the observed PCVs → the floor of its predicted
   instruction and memory counts, and through each
   :class:`~repro.hw.CycleModel` → predicted cycles,
4. price the trace under the same models → "measured" cycles,
5. record any violation: measured > predicted, a PCV observed above its
   declared bound, or a PCV the contract does not declare.

The result aggregates per input class and renders as the
measured-vs-predicted table ``python -m repro.cli bench`` prints, and
serialises to the ``BENCH_*.json`` schema CI archives.

The loop is built for throughput: everything that depends only on the
(harness, contract, models) triple is compiled once, at construction,
into straight-line work over what the run produced.

* Step 2 is one generated function of the stimulus and its trace
  (:func:`repro.sym.expr.compile_first_match`): it reads each ``pkt[i]``,
  scalar and ``{extern}#{i}`` symbol in place, through the source the
  harness renders for it (:meth:`repro.nf.replay.NFHarness.replay_reads`),
  so no environment is built per packet.
* Step 3 is one generated function per entry, returning its two count
  bounds and every model's scaled cycle prediction from the observed PCVs
  (:meth:`repro.core.perfexpr.PerfExpr.floor_source` and
  :meth:`~repro.core.perfexpr.PerfExpr.scaled_source`).
* Step 4 is each model's :meth:`~repro.hw.model.CycleModel.compile_measure`;
  the cache-simulating model walks a trace's whole address list in one
  call.
* Step 5 is one generated comparison of every measured column against
  its prediction; the violation messages are built only when it fails
  or the binding has a PCV problem.

Outcomes keep their counts and cycles as integer tuples — cycles in units
of ``1/cycle_scale`` — and show them as read-only mappings on demand;
``Fraction`` cycles are made only when a report is rendered.

A run has few distinct PCV bindings, predictions and measurements (a
class and a handful of PCVs price an execution, §3), so each replayer
hash-conses what its outcomes hold: one read-only PCV mapping per
distinct binding, one prediction per binding and matched entry, one
measured tuple per distinct value.  What depends only on the binding —
the entry program, the PCV-limit scan and the ``max_pcvs`` fold — runs
once per binding, the one the trace folds as it records each call.  The
tables grow with distinct values, not packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.core.contract import COUNT_METRICS, ContractEntry, Metric, PerformanceContract
from repro.core.perfexpr import PerfExpr
from repro.core.report import format_table
from repro.hw.model import CycleModel
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure
from repro.sym.expr import BV, compile_first_match
from repro.traffic.generators import Stimulus

__all__ = [
    "ClassSummary",
    "Filing",
    "NFTarget",
    "PacketOutcome",
    "Replayer",
    "ReplayResult",
    "TAIL_PERCENTILES",
    "row_table",
]

#: The percentiles of each report row's measured cycle tails.
TAIL_PERCENTILES = (50, 95, 99)


def _nearest_rank(ordered: Sequence[int], percentile: int) -> int:
    """Nearest-rank percentile of an ascending-sorted, non-empty sample set.

    ``index = ceil(percentile·n/100) − 1`` — exact integer arithmetic, no
    interpolation, so percentile values are always members of the sample
    population and stay exact in the scaled-integer domain.
    """
    return ordered[-(-percentile * len(ordered) // 100) - 1]


class NFTarget(Protocol):
    """What the replayer needs from an NF harness.

    :class:`repro.nf.replay.NFHarness` is the canonical implementation.
    """

    name: str
    structures: Tuple[Structure, ...]

    def run(self, stimulus: Stimulus) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute one stimulus; return (NF return value, trace)."""
        ...

    def replay_reads(self) -> Tuple[Callable[[str], str], Sequence[str]]:
        """``(read, prologue)``: each symbol's value as source over ``stimulus`` and ``trace``."""
        ...


# --------------------------------------------------------------------------- #
# Outcomes and their aggregates
# --------------------------------------------------------------------------- #
def _counts(values: Tuple[int, ...]) -> Mapping[Metric, int]:
    return MappingProxyType(dict(zip(COUNT_METRICS, values)))


class Scored:
    """Read-only views of an outcome's ``measured_values`` and ``predicted_values``.

    Both hold ``(instructions, memory accesses, *cycles)``: counts as
    plain integers, then one cycle value per model of ``models``, an exact
    integer in units of ``1/cycle_scale`` cycles.  An execution no entry
    covers has its two measured counts only.  Outcomes share these tuples
    and their ``pcvs``, a read-only mapping, with other outcomes (see the
    module docstring), so none is written after it is built.
    """

    __slots__ = ()

    @property
    def measured(self) -> Mapping[Metric, int]:
        """Measured instructions, then memory accesses."""
        return _counts(self.measured_values)

    @property
    def predicted(self) -> Mapping[Metric, int]:
        """Predicted (floored) instructions, then memory accesses; empty if unclassified."""
        return _counts(self.predicted_values)

    @property
    def cycles_scaled(self) -> Mapping[str, Tuple[int, int]]:
        """model name -> (measured, predicted) in scaled-integer cycles, in model order."""
        measured, predicted = self.measured_values, self.predicted_values
        if not predicted:
            return MappingProxyType({})
        return MappingProxyType(
            {model: (measured[k], predicted[k]) for k, model in enumerate(self.models, 2)}
        )

    @property
    def cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (measured cycles, predicted cycles), as ``Fraction`` pairs."""
        scale = self.cycle_scale
        return {
            model: (Fraction(measured, scale), Fraction(predicted, scale))
            for model, (measured, predicted) in self.cycles_scaled.items()
        }

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(slots=True)
class PacketOutcome(Scored):
    """Measured-vs-predicted record of one replayed stimulus (see :class:`Scored`).

    Scoring a packet builds no mapping or ``Fraction``; the views build
    them on demand.  ``pcvs`` is the observed binding, a read-only mapping
    shared by every outcome of the replayer that observed the same one.
    """

    index: int
    note: str
    class_name: Optional[str]
    pcvs: Mapping[str, int]
    measured_values: Tuple[int, ...]
    predicted_values: Tuple[int, ...]
    models: Tuple[str, ...]
    violations: Tuple[str, ...]
    cycle_scale: int


class ClassSummary:
    """One report row: every outcome filed under one class.

    The class is an NF input class, a graph hop's input class, or a
    route, which is a class of the composed contract.  Absorbing an
    outcome keeps it; the column maxima (from 0) and each model's measured
    cycle tails are derived together on the first read after an absorb.
    Every outcome one row absorbs comes from one replayer — all classified
    or all not — so all share its models, scale and value layout.  Values
    stay scaled integers until :attr:`max_cycles` and :meth:`to_json`
    convert them for a report.

    Tails are nearest-rank percentiles over the row's complete observed
    population, for the report only.  No envelope is checked: each packet
    is already held to measured ≤ predicted, and pointwise dominance
    implies dominance at every sorted rank, so a percentile check could
    never fail on its own.
    """

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name
        self.outcomes: List[Scored] = []
        self._derived: Tuple[int, List[int], List[int], Dict[str, Dict[int, int]]] = (0, [], [], {})

    def absorb(self, outcome: Scored) -> None:
        self.outcomes.append(outcome)

    @property
    def packets(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> int:
        """How many absorbed outcomes have a violation."""
        return sum(1 for outcome in self.outcomes if outcome.violations)

    @property
    def models(self) -> Tuple[str, ...]:
        return self.outcomes[-1].models if self.outcomes else ()

    @property
    def cycle_scale(self) -> int:
        return self.outcomes[-1].cycle_scale if self.outcomes else 1

    def _derive(self) -> Tuple[int, List[int], List[int], Dict[str, Dict[int, int]]]:
        """``(outcomes, measured maxima, predicted maxima, tails)`` over the absorbed outcomes."""
        outcomes = self.outcomes
        if self._derived[0] != len(outcomes):
            measured = list(zip(*(outcome.measured_values for outcome in outcomes)))
            predicted = zip(*(outcome.predicted_values for outcome in outcomes))
            tails: Dict[str, Dict[int, int]] = {}
            for model, column in zip(self.models, measured[2:]):
                ordered = sorted(column)
                tails[model] = {p: _nearest_rank(ordered, p) for p in TAIL_PERCENTILES}
            self._derived = (
                len(outcomes),
                [max(0, *column) for column in measured],
                [max(0, *column) for column in predicted],
                tails,
            )
        return self._derived

    @property
    def max_measured(self) -> Dict[Metric, int]:
        return dict(zip(COUNT_METRICS, self._derive()[1]))

    @property
    def max_predicted(self) -> Dict[Metric, int]:
        return dict(zip(COUNT_METRICS, self._derive()[2]))

    @property
    def max_cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (largest measured, largest predicted) cycles."""
        _, measured, predicted, _ = self._derive()
        if not predicted:
            return {}
        scale = self.cycle_scale
        return {
            model: (Fraction(measured[k], scale), Fraction(predicted[k], scale))
            for k, model in enumerate(self.models, 2)
        }

    @property
    def cycle_tails(self) -> Dict[str, Dict[int, int]]:
        """model name -> {percentile: measured cycles} (scaled); empty without cycles."""
        return self._derive()[3]

    def to_json(self) -> Dict[str, object]:
        """The row's record in the ``BENCH_*.json`` report."""
        record: Dict[str, object] = {
            "packets": self.packets,
            "violations": self.violations,
            "max_measured": {str(m): v for m, v in self.max_measured.items()},
            "max_predicted": {str(m): v for m, v in self.max_predicted.items()},
            "max_cycles": {
                model: {"measured": float(meas), "predicted": float(pred)}
                for model, (meas, pred) in self.max_cycles.items()
            },
        }
        if self.cycle_tails:
            scale = self.cycle_scale
            record["cycle_tails"] = {
                model: {
                    **{f"p{p}": tails[p] / scale for p in TAIL_PERCENTILES},
                    "max": float(self.max_cycles[model][0]),
                }
                for model, tails in self.cycle_tails.items()
            }
        return record


def row_table(label: str, rows: Mapping[str, ClassSummary]) -> str:
    """The measured-vs-predicted table of ``rows``, in name order under ``label``."""
    models = sorted({model for row in rows.values() for model in row.max_cycles})
    headers = [label, "packets", "instr max meas≤pred", "mem max meas≤pred"]
    headers += [f"{model} cycles" for model in models]
    lines: List[List[str]] = []
    for name in sorted(rows):
        row = rows[name]
        measured, predicted, cycles = row.max_measured, row.max_predicted, row.max_cycles
        line = [name, str(row.packets)]
        line += [f"{measured.get(m, 0)} ≤ {predicted.get(m, 0)}" for m in COUNT_METRICS]
        for model in models:
            meas, pred = cycles.get(model, (Fraction(0), Fraction(0)))
            line.append(f"{float(meas):.0f} ≤ {float(pred):.0f}")
        lines.append(line)
    return format_table(headers, lines)


@dataclass
class ReplayResult:
    """Everything one workload replay produced."""

    nf_name: str
    workload: str
    outcomes: List[PacketOutcome]
    summaries: Dict[str, ClassSummary]
    #: Largest observation of each PCV across the whole workload.
    max_pcvs: Dict[str, int]
    #: Worst-case cycle envelopes per model (PCV bounds, all entries).
    envelopes: Dict[str, Fraction]

    @property
    def packets(self) -> int:
        return len(self.outcomes)

    @property
    def violations(self) -> List[str]:
        return [m for outcome in self.outcomes for m in outcome.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def classes_seen(self) -> List[str]:
        return sorted(self.summaries)

    def table(self) -> str:
        """Render the per-class measured-vs-predicted summary table."""
        title = f"{self.nf_name} / {self.workload}: {self.packets} packets, "
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return title + "\n" + row_table("input class", self.summaries)

    def to_json(self) -> Dict[str, object]:
        """Serialise for the ``BENCH_*.json`` report."""
        return {
            "packets": self.packets,
            "ok": self.ok,
            "violations": self.violations[:20],
            "classes": {name: summary.to_json() for name, summary in self.summaries.items()},
            "max_pcvs": dict(self.max_pcvs),
            "cycle_envelopes": {model: float(v) for model, v in self.envelopes.items()},
        }


#: A compiled contract entry: observed PCVs -> its prediction.
_Program = Callable[[Mapping[str, int]], Tuple[int, ...]]


def _entry_program(entry: ContractEntry, cycle_exprs: Sequence[PerfExpr], scale: int) -> _Program:
    """Compile ``f(observed PCVs) -> (instructions, memory accesses, *cycles)``.

    The counts are the floors of the entry's expressions and the cycles
    each model's expression times ``scale``; a PCV the execution did not
    observe reads 0.
    """
    reads: Dict[str, str] = {}

    def read(name: str) -> str:
        return reads.setdefault(name, f"p{len(reads)}")

    values = [entry.expr(metric).floor_source(read) for metric in COUNT_METRICS]
    values += [expr.scaled_source(scale, read) for expr in cycle_exprs]
    lines = ["def program(pcvs):", "    get = pcvs.get"]
    lines += [f"    {local} = get({name!r}, 0)" for name, local in reads.items()]
    lines.append(f"    return ({', '.join(values)},)")
    namespace: Dict[str, object] = {}
    exec("\n".join(lines), namespace)  # noqa: S102 - generated from the contract's terms
    return namespace["program"]


def _measure_program(
    measures: Sequence[Callable[[ExecutionTrace], int]]
) -> Callable[[ExecutionTrace], Tuple[int, ...]]:
    """Compile ``f(trace) -> (instructions, memory accesses, *each model's cycles)``."""
    calls = "".join(f"m{k}(trace), " for k in range(len(measures)))
    source = f"lambda trace: (trace.total_instructions(), trace.total_memory_accesses(), {calls})"
    return eval(source, {f"m{k}": measure for k, measure in enumerate(measures)})  # noqa: S307


class _Binding:
    """One distinct PCV binding a replayer observed, and what it alone decides.

    ``pcvs`` is the read-only mapping every outcome with this binding
    shares; ``problems`` names each undeclared or over-bound PCV, in
    observed order, as the tail of its violation message; ``predictions``
    maps an entry's index to its prediction at this binding.
    """

    __slots__ = ("pcvs", "problems", "predictions")

    def __init__(self, observed: Dict[str, int], limits: Mapping[str, float]) -> None:
        self.pcvs: Mapping[str, int] = MappingProxyType(observed)
        problems: List[str] = []
        for name, value in observed.items():
            limit = limits.get(name)
            if limit is None:
                problems.append(f"PCV {name} observed at {value} is not declared by the contract")
            elif value > limit:
                problems.append(
                    f"PCV {name} observed at {value} exceeds its declared bound {limit}"
                )
        self.problems = tuple(problems)
        self.predictions: Dict[int, Tuple[int, ...]] = {}


class Replayer:
    """Replays workloads through an NF and scores them against its contract.

    Args:
        harness: the NF under test (module + instrumented state + glue).
        contract: the generated contract predictions are read from.
        models: hardware models to derive/price cycles with; counts are
            always checked even with no models.
    """

    def __init__(
        self,
        harness: NFTarget,
        contract: PerformanceContract,
        *,
        models: Sequence[CycleModel] = (),
    ) -> None:
        self.harness = harness
        self.contract = contract
        self.models = tuple(models)
        # A cache-simulating model prices the per-access address stream;
        # switch the harness's (off-by-default) recording on for it.
        if any(model.requires_access_stream for model in self.models) and hasattr(
            harness, "record_accesses"
        ):
            harness.record_accesses = True
        #: Every PCV the contract uses, at zero: where a replay's maxima start.
        self._zero_pcvs = {name: 0 for name in contract.variables()}
        # Harness, contract and models are fixed here, so derive each
        # entry's cycle expression once per model; the worst-case envelopes
        # are the same expressions at the registry's bounds.
        structures = tuple(harness.structures)
        cycle_exprs: List[List[PerfExpr]] = [
            [model.cycles_expr(entry, structures=structures) for entry in contract.entries]
            for model in self.models
        ]
        bounds = contract.registry.default_bounds()
        self._envelopes: Dict[str, Fraction] = {
            model.name: max([Fraction(0), *(expr.upper_bound(bounds) for expr in exprs)])
            for model, exprs in zip(self.models, cycle_exprs)
        }
        #: Every declared PCV's bound (unbounded: infinite).  An observed
        #: PCV above its bound, or not declared at all, is a violation even
        #: when the class bound evaluated at it holds.
        self._pcv_limits: Dict[str, float] = {
            pcv.name: math.inf if pcv.max_value is None else pcv.max_value
            for pcv in contract.registry
        }
        # Cycles: one global scale clears every model price and every
        # derived cycle coefficient, so measured/predicted stay exact
        # integers and compare without Fraction arithmetic.
        scale = 1
        for model, exprs in zip(self.models, cycle_exprs):
            scale = math.lcm(scale, model.price_denominator(structures))
            for expr in exprs:
                scale = math.lcm(scale, expr.denominator_lcm())
        #: The denominator of every scaled cycle value this replayer records.
        self.cycle_scale = scale
        self._model_names = tuple(model.name for model in self.models)
        self._measure = _measure_program(
            [model.compile_measure(structures, scale=scale) for model in self.models]
        )
        # The green path: every column measured <= predicted, in one call.
        checks = " and ".join(f"m[{k}] <= p[{k}]" for k in range(2 + len(self.models)))
        self._within = eval(f"lambda m, p: {checks}")  # noqa: S307 - from the column count
        # Classification: one conjunction per path (an entry without paths
        # gets the empty one, which always holds), in entry order — the
        # first that holds names the execution's entry; ``_scorers`` pairs
        # each with its entry's index, class name and program.
        conjunctions: List[Sequence[BV]] = []
        self._scorers: List[Tuple[int, str, _Program]] = []
        for index, entry in enumerate(contract.entries):
            scorer = (
                index,
                entry.input_class.name,
                _entry_program(entry, [exprs[index] for exprs in cycle_exprs], scale),
            )
            for constraints in [path.constraints for path in entry.paths] or [()]:
                conjunctions.append(constraints)
                self._scorers.append(scorer)
        read, prologue = harness.replay_reads()
        self._first_match: Callable[[Stimulus, ExecutionTrace], Optional[int]]
        self._first_match = compile_first_match(
            conjunctions, params="stimulus, trace", read=read, prologue=prologue
        )
        #: The hash-consing tables: each distinct binding, keyed by its
        #: ``(name, value)`` pairs in observed order, and each distinct
        #: measured tuple.  They grow with distinct values, not packets.
        self._bindings: Dict[Tuple[Tuple[str, int], ...], _Binding] = {}
        self._measurements: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def classify(self, stimulus: Stimulus, trace: ExecutionTrace) -> Optional[str]:
        """The input class of an executed stimulus, or None when no entry covers it.

        It is the first entry, in contract order, one of whose paths holds
        on the execution's replay environment (an entry without paths
        covers every execution).
        """
        matched = self._first_match(stimulus, trace)
        return None if matched is None else self._scorers[matched][1]

    def score(self, stimulus: Stimulus, index: int = 0) -> PacketOutcome:
        """Run ONE stimulus and score it against the contract.

        This is the per-packet primitive :meth:`replay` iterates — and
        what the service-graph replayer (:mod:`repro.net`) calls per hop,
        where each hop of a packet's journey is scored against that NF's
        own contract.  Violations are recorded on the outcome, never
        raised (the messages are built only when a check fails).  The
        outcome's ``pcvs`` and ``measured_values`` are shared, read-only,
        with every outcome of this replayer that has equal ones, and its
        ``predicted_values`` with every outcome of the same binding and
        entry.
        """
        _, trace = self.harness.run(stimulus)
        matched = self._first_match(stimulus, trace)
        observed = trace.binding
        key = tuple(observed.items())
        binding = self._bindings.get(key)
        if binding is None:
            binding = self._bindings[key] = _Binding(dict(observed), self._pcv_limits)
        if matched is None:
            measured = (trace.total_instructions(), trace.total_memory_accesses())
            return PacketOutcome(
                index,
                stimulus.note,
                None,
                binding.pcvs,
                self._measurements.setdefault(measured, measured),
                (),
                self._model_names,
                (f"packet {index}: no contract entry covers the execution",),
                self.cycle_scale,
            )
        entry, class_name, program = self._scorers[matched]
        predicted = binding.predictions.get(entry)
        if predicted is None:
            predicted = binding.predictions[entry] = program(observed)
        measured = self._measure(trace)
        measured = self._measurements.setdefault(measured, measured)
        violations: Tuple[str, ...] = ()
        if binding.problems or not self._within(measured, predicted):
            violations = self._violations(index, class_name, binding.problems, measured, predicted)
        return PacketOutcome(
            index,
            stimulus.note,
            class_name,
            binding.pcvs,
            measured,
            predicted,
            self._model_names,
            violations,
            self.cycle_scale,
        )

    def _violations(
        self,
        index: int,
        class_name: str,
        problems: Tuple[str, ...],
        measured: Tuple[int, ...],
        predicted: Tuple[int, ...],
    ) -> Tuple[str, ...]:
        """Every check one classified execution fails, in report order.

        ``problems`` are its binding's PCV-limit failures, found once per
        binding; the count and cycle comparisons are made here.
        """
        messages: List[str] = []
        for problem in problems:
            messages.append(f"packet {index} ({class_name}): {problem}")
        for k, (value, bound) in enumerate(zip(measured, predicted)):
            if value <= bound:
                continue
            if k < 2:
                messages.append(
                    f"packet {index} ({class_name}): measured {COUNT_METRICS[k]} {value} "
                    f"exceeds predicted {bound}"
                )
            else:
                scale = self.cycle_scale
                messages.append(
                    f"packet {index} ({class_name}): {self._model_names[k - 2]} measured "
                    f"{value / scale:.1f} cycles exceeds predicted {bound / scale:.1f}"
                )
        return tuple(messages)

    def replay(self, stimuli: Iterable[Stimulus], *, workload: str = "workload") -> ReplayResult:
        """Run every stimulus; never raises on a violation — records it."""
        outcomes: List[PacketOutcome] = []
        filing = Filing(self)
        file = filing.file
        score = self.score
        for index, stimulus in enumerate(stimuli):
            outcome = score(stimulus, index)
            outcomes.append(outcome)
            file(outcome)
        return ReplayResult(
            nf_name=self.harness.name,
            workload=workload,
            outcomes=outcomes,
            summaries=filing.rows,
            max_pcvs=filing.max_pcvs,
            envelopes=dict(self._envelopes),
        )


class Filing:
    """Where one replay files the outcomes of one replayer.

    Each outcome goes under the row of its input class (``<unclassified>``
    when no entry covers it).  ``max_pcvs`` starts from every PCV the
    replayer's contract uses, at zero, and folds each distinct binding
    once: the replayer's outcomes share one mapping per binding.
    """

    __slots__ = ("rows", "max_pcvs", "_folded")

    def __init__(self, replayer: Replayer) -> None:
        self.rows: Dict[str, ClassSummary] = {}
        self.max_pcvs: Dict[str, int] = dict(replayer._zero_pcvs)
        self._folded: Set[int] = set()

    def file(self, outcome: PacketOutcome) -> None:
        """File ``outcome`` under its row, and fold its binding if it is new."""
        key = outcome.class_name if outcome.class_name is not None else "<unclassified>"
        row = self.rows.get(key)
        if row is None:
            row = self.rows[key] = ClassSummary(key)
        row.absorb(outcome)
        pcvs = outcome.pcvs
        if id(pcvs) not in self._folded:
            self._folded.add(id(pcvs))
            max_pcvs = self.max_pcvs
            for name, value in pcvs.items():
                if value > max_pcvs.get(name, 0):
                    max_pcvs[name] = value
