"""The MoonGen-role replayer: measured-vs-predicted curves per workload.

The paper validates contracts by replaying traffic through the
instrumented NF and checking every execution against the prediction of
the contract entry it falls into (§3.2, §5).  :class:`Replayer` automates
that loop over a stimulus stream:

1. run the stimulus through the NF harness (concrete interpreter + tracer),
2. match the trace back to a contract entry (via the replay environment),
3. evaluate the entry at the observed PCVs → predicted instruction and
   memory counts, and through each :class:`~repro.hw.CycleModel` →
   predicted cycles,
4. price the trace under the same models → "measured" cycles,
5. record any violation of measured ≤ predicted.

The result aggregates per input class and renders as the
measured-vs-predicted table ``python -m repro.cli bench`` prints, and
serialises to the ``BENCH_*.json`` schema CI archives.

The loop is built for throughput: everything that depends only on the
(harness, contract, models) triple is resolved at construction time —
path predicates compile to closures (:func:`repro.sym.expr.
compile_conjunction`), contract polynomials and cycle pricing compile to
scaled-integer evaluators (:meth:`repro.core.perfexpr.PerfExpr.
compile_scaled`, :meth:`repro.hw.model.CycleModel.compile_measure`) — so
the per-packet work is one interpreter run plus straight-line integer
arithmetic.  Outcomes and per-class maxima keep cycles as scaled
integers; they convert to :class:`~fractions.Fraction` only when a report
is rendered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.core.contract import Metric, PerformanceContract
from repro.core.perfexpr import PerfExpr
from repro.core.report import format_table
from repro.hw.model import CycleModel
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure
from repro.sym.expr import compile_conjunction
from repro.traffic.generators import Stimulus

__all__ = [
    "ClassSummary",
    "NFTarget",
    "PacketOutcome",
    "Replayer",
    "ReplayResult",
    "TAIL_PERCENTILES",
]

#: The percentiles of the measured per-class cycle tails in the report.
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

    def env(self, stimulus: Stimulus, trace: ExecutionTrace) -> Dict[str, int]:
        """Build the symbol assignment the execution corresponds to."""
        ...


@dataclass(frozen=True)
class PacketOutcome:
    """Measured-vs-predicted record of one replayed stimulus.

    Cycles are stored exactly, as integers in units of ``1/cycle_scale``
    cycles; :attr:`cycles` turns them into ``Fraction`` pairs on demand,
    so scoring a packet builds none.
    """

    index: int
    note: str
    class_name: Optional[str]
    pcvs: Mapping[str, int]
    measured: Mapping[Metric, int]
    predicted: Mapping[Metric, int]
    violations: Tuple[str, ...]
    #: model name -> (measured, predicted) in scaled-integer cycles; the
    #: measured values are the samples the tail percentiles aggregate over.
    cycles_scaled: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    #: The denominator of every ``cycles_scaled`` value.
    cycle_scale: int = 1

    @property
    def cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (measured cycles, predicted cycles)."""
        scale = self.cycle_scale
        return {
            model: (Fraction(measured, scale), Fraction(predicted, scale))
            for model, (measured, predicted) in self.cycles_scaled.items()
        }

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ClassSummary:
    """Aggregate over every packet that fell into one input class.

    Cycle maxima stay scaled integers (``max_cycles_scaled``, in units of
    ``1/cycle_scale`` cycles, the scale of the absorbed outcomes);
    :attr:`max_cycles` converts them when a report is rendered.
    """

    class_name: str
    packets: int = 0
    max_measured: Dict[Metric, int] = field(default_factory=dict)
    max_predicted: Dict[Metric, int] = field(default_factory=dict)
    #: model name -> (largest measured, largest predicted), scaled.
    max_cycles_scaled: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    cycle_scale: int = 1
    violations: int = 0
    #: model name -> measured per-packet cycle samples (scaled integers).
    cycle_samples: Dict[str, List[int]] = field(default_factory=dict)
    #: model name -> {percentile: measured value} (scaled), filled by
    #: :meth:`compute_tails` once the class population is complete.
    cycle_tails: Dict[str, Dict[int, int]] = field(default_factory=dict)

    @property
    def max_cycles(self) -> Dict[str, Tuple[Fraction, Fraction]]:
        """model name -> (largest measured, largest predicted) cycles."""
        scale = self.cycle_scale
        return {
            model: (Fraction(measured, scale), Fraction(predicted, scale))
            for model, (measured, predicted) in self.max_cycles_scaled.items()
        }

    def absorb(self, outcome: PacketOutcome) -> None:
        self.packets += 1
        if outcome.violations:
            self.violations += 1
        max_measured, max_predicted = self.max_measured, self.max_predicted
        for metric, value in outcome.measured.items():
            max_measured[metric] = max(max_measured.get(metric, 0), value)
        for metric, value in outcome.predicted.items():
            max_predicted[metric] = max(max_predicted.get(metric, 0), value)
        self.cycle_scale = outcome.cycle_scale
        max_cycles, samples = self.max_cycles_scaled, self.cycle_samples
        for model, (measured, predicted) in outcome.cycles_scaled.items():
            prev = max_cycles.get(model, (0, 0))
            max_cycles[model] = (max(prev[0], measured), max(prev[1], predicted))
            samples.setdefault(model, []).append(measured)

    def compute_tails(self) -> None:
        """Aggregate the measured per-packet samples into report-only tails.

        Percentiles are nearest-rank over the class's complete observed
        packet population.  No envelope is checked: each packet is already
        held to measured ≤ predicted, and pointwise dominance implies
        dominance at every sorted rank, so a percentile check could never
        fail on its own.
        """
        for model, samples in self.cycle_samples.items():
            ordered = sorted(samples)
            self.cycle_tails[model] = {
                p: _nearest_rank(ordered, p) for p in TAIL_PERCENTILES
            }

    def to_json(self) -> Dict[str, object]:
        """The class's record in the ``BENCH_*.json`` report.

        ``cycle_tails`` appears only once :meth:`compute_tails` has filled
        them.
        """
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
        models = sorted({model for s in self.summaries.values() for model in s.max_cycles})
        headers = ["input class", "packets", "instr max meas≤pred", "mem max meas≤pred"]
        headers += [f"{model} cycles" for model in models]
        rows: List[List[str]] = []
        for name in sorted(self.summaries):
            summary = self.summaries[name]
            row = [name, str(summary.packets)]
            for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES):
                row.append(
                    f"{summary.max_measured.get(metric, 0)} ≤ "
                    f"{summary.max_predicted.get(metric, 0)}"
                )
            for model in models:
                measured, predicted = summary.max_cycles.get(model, (Fraction(0), Fraction(0)))
                row.append(f"{float(measured):.0f} ≤ {float(predicted):.0f}")
            rows.append(row)
        title = f"{self.nf_name} / {self.workload}: {self.packets} packets, "
        title += "no violations" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return title + "\n" + format_table(headers, rows)

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


#: A contract entry compiled for scoring: class name, ``(metric, count
#: program)`` pairs, and one scaled cycle program per model.
_EntryProgram = Tuple[
    str,
    Tuple[Tuple[Metric, Callable[[Mapping[str, int]], int]], ...],
    Tuple[Callable[[Mapping[str, int]], int], ...],
]


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
        # Entries charge PCVs their path never observed at zero.
        self._zero_pcvs = {name: 0 for name in contract.variables()}
        # Harness, contract and models are fixed here, so derive each
        # entry's cycle expression once; the worst-case envelopes are the
        # same expressions at the registry's bounds.
        structures = tuple(harness.structures)
        cycle_exprs: Dict[str, Dict[str, PerfExpr]] = {
            model.name: {
                entry.input_class.name: model.cycles_expr(entry, structures=structures)
                for entry in contract.entries
            }
            for model in self.models
        }
        bounds = contract.registry.default_bounds()
        #: Every PCV's declared bound: an observation above it is a
        #: violation even when the class bound evaluated at it holds.
        self._pcv_bounds = bounds
        self._envelopes: Dict[str, Fraction] = {
            name: max([Fraction(0), *(expr.upper_bound(bounds) for expr in exprs.values())])
            for name, exprs in cycle_exprs.items()
        }
        # ---- batched-replay programs (built once, run per packet) ---- #
        # Cycles: one global scale clears every model price and every
        # derived cycle coefficient, so measured/predicted stay exact
        # integers and compare without Fraction arithmetic.
        scale = 1
        for model in self.models:
            scale = math.lcm(scale, model.price_denominator(structures))
            for expr in cycle_exprs[model.name].values():
                scale = math.lcm(scale, expr.denominator_lcm())
        #: The denominator of every scaled cycle value this replayer records.
        self.cycle_scale = scale
        self._measures: List[Tuple[str, Callable[[ExecutionTrace], int]]] = [
            (model.name, model.compile_measure(structures, scale=scale)) for model in self.models
        ]
        # Classification: the flattened (compiled predicate, entry program)
        # list preserves `contract.classify` order — first entry whose class
        # predicate (or any of whose paths) matches wins.  An entry's
        # program is its class name, its count predictions and one scaled
        # cycle prediction per model.  A count prediction is floor(expr):
        # measured counts are integers, so ``measured ≤ floor(expr)`` is
        # exactly ``measured ≤ expr`` (a ceiling would let a fractional
        # bound pass one count too many).
        self._classify_program: List[Tuple[Callable[[Mapping[str, int]], bool], _EntryProgram]]
        self._classify_program = []
        for entry in contract.entries:
            name = entry.input_class.name
            program: _EntryProgram = (
                name,
                tuple(
                    (metric, entry.expr(metric).compile_floor())
                    for metric in (Metric.INSTRUCTIONS, Metric.MEMORY_ACCESSES)
                ),
                tuple(
                    cycle_exprs[model.name][name].compile_scaled(scale) for model in self.models
                ),
            )
            if entry.paths:
                for path in entry.paths:
                    self._classify_program.append((compile_conjunction(path.constraints), program))
            else:
                self._classify_program.append((entry.input_class.matches, program))

    def score(self, stimulus: Stimulus, index: int = 0) -> PacketOutcome:
        """Run ONE stimulus and score it against the contract.

        This is the per-packet primitive :meth:`replay` iterates — and
        what the service-graph replayer (:mod:`repro.net`) calls per hop,
        where each hop of a packet's journey is scored against that NF's
        own contract.  Violations are recorded on the outcome, never
        raised.
        """
        _, trace = self.harness.run(stimulus)
        env = self.harness.env(stimulus, trace)
        program = None
        for predicate, candidate in self._classify_program:
            if predicate(env):
                program = candidate
                break
        violations: List[str] = []
        measured: Dict[Metric, int] = {
            Metric.INSTRUCTIONS: trace.total_instructions(),
            Metric.MEMORY_ACCESSES: trace.total_memory_accesses(),
        }
        predicted: Dict[Metric, int] = {}
        cycles_scaled: Dict[str, Tuple[int, int]] = {}
        observed = trace.pcv_bindings()
        if program is None:
            violations.append(f"packet {index}: no contract entry covers the execution")
            class_name = None
        else:
            class_name, count_programs, cycle_programs = program
            pcv_bounds = self._pcv_bounds
            for name, value in observed.items():
                if name in pcv_bounds and value > pcv_bounds[name]:
                    violations.append(
                        f"packet {index} ({class_name}): PCV {name} observed at "
                        f"{value} exceeds its declared bound {pcv_bounds[name]}"
                    )
            bindings = dict(self._zero_pcvs)
            bindings.update(observed)
            for metric, evaluate_count in count_programs:
                bound = predicted[metric] = evaluate_count(bindings)
                if measured[metric] > bound:
                    violations.append(
                        f"packet {index} ({class_name}): measured {metric} "
                        f"{measured[metric]} exceeds predicted {bound}"
                    )
            cycle_scale = self.cycle_scale
            for (model_name, measure), predict in zip(self._measures, cycle_programs):
                measured_scaled = measure(trace)
                predicted_scaled = predict(bindings)
                cycles_scaled[model_name] = (measured_scaled, predicted_scaled)
                if measured_scaled > predicted_scaled:
                    violations.append(
                        f"packet {index} ({class_name}): {model_name} measured "
                        f"{measured_scaled / cycle_scale:.1f} cycles exceeds predicted "
                        f"{predicted_scaled / cycle_scale:.1f}"
                    )
        return PacketOutcome(
            index=index,
            note=stimulus.note,
            class_name=class_name,
            pcvs=observed,
            measured=measured,
            predicted=predicted,
            violations=tuple(violations),
            cycles_scaled=cycles_scaled,
            cycle_scale=self.cycle_scale,
        )

    def replay(self, stimuli: Iterable[Stimulus], *, workload: str = "workload") -> ReplayResult:
        """Run every stimulus; never raises on a violation — records it."""
        outcomes: List[PacketOutcome] = []
        summaries: Dict[str, ClassSummary] = {}
        max_pcvs: Dict[str, int] = dict(self._zero_pcvs)
        score = self.score
        for index, stimulus in enumerate(stimuli):
            outcome = score(stimulus, index)
            for name, value in outcome.pcvs.items():
                if value > max_pcvs.get(name, 0):
                    max_pcvs[name] = value
            outcomes.append(outcome)
            key = outcome.class_name if outcome.class_name is not None else "<unclassified>"
            summary = summaries.get(key)
            if summary is None:
                summary = summaries[key] = ClassSummary(key)
            summary.absorb(outcome)
        for summary in summaries.values():
            summary.compute_tails()
        return ReplayResult(
            nf_name=self.harness.name,
            workload=workload,
            outcomes=outcomes,
            summaries=summaries,
            max_pcvs=max_pcvs,
            envelopes=dict(self._envelopes),
        )

