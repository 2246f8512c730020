"""One pipeline for every NF: its descriptor, contract and replay harness.

The paper runs the same steps on every NF: symbolically execute the
stateless code over the data-structure models, classify the paths into
input classes, then check traced executions against the result.  An NF
therefore declares only what it knows — an :class:`NFSpec` — and the
descriptor's generic methods do the rest: :meth:`NFSpec.contract` runs
:func:`~repro.core.bolt.generate_contract`, :meth:`NFSpec.harness` wires
a fresh instance for replay.

Every NF replays the same way: the packet bytes map onto the ``pkt[i]``
byte symbols of the symbolic initial state, the scalar inputs map onto
their parameter symbols, and each value-returning extern call maps onto
the model-output symbol ``"{extern}#{index}"`` (the symbolic engine and
the concrete tracer number extern calls identically); see
:func:`replay_env`.

:class:`NFHarness` packages the replay convention into the object the
:class:`repro.traffic.replayer.Replayer` drives: it owns the interpreter,
writes each stimulus packet into NF memory and builds the argument list
from the NF's declared scalar order.  :func:`replay_env` (and
:meth:`NFHarness.env`) remain the definition of the environment that
matches an execution back to a symbolic path, and the tests' oracle.
The replay hot path builds no environment: :meth:`NFHarness.replay_reads`
renders the same bindings as Python source, from which the replayer
compiles a classifier that reads each value in place.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.bolt import generate_contract
from repro.core.contract import PerformanceContract
from repro.nfil.interpreter import ExternHandler, Interpreter, Memory
from repro.nfil.program import Module
from repro.nfil.tracer import ExecutionTrace
from repro.structures.base import Structure, StructureModel, check_extern_collisions
from repro.sym import expr as E
from repro.sym.expr import BV, Const, Sym
from repro.sym.paths import Path
from repro.sym.state import SymbolicMemory
from repro.traffic.generators import Stimulus

if TYPE_CHECKING:
    from repro.audit.ct import SecretClassSet

__all__ = ["NFHarness", "NFSpec", "replay_env"]

#: The symbol names :func:`replay_env` binds from the packet and the trace.
_PACKET_BYTE = re.compile(r"pkt\[(0|[1-9][0-9]*)\]")
_EXTERN_OUTPUT = re.compile(r"(.+)#(0|[1-9][0-9]*)")


def replay_env(
    packet: bytes,
    sym_bytes: int,
    trace: ExecutionTrace,
    **scalars: int,
) -> Dict[str, int]:
    """Build the symbol assignment a concrete execution corresponds to.

    Args:
        packet: the concrete packet buffer (only the first ``sym_bytes``
            bytes were symbolic during analysis).
        sym_bytes: how many leading packet bytes the NF made symbolic.
        trace: the execution's trace; extern results become the
            ``"{extern}#{index}"`` model-output bindings.
        **scalars: concrete values of the NF's scalar inputs, keyed by
            their symbol names (e.g. ``len=60, in_port=3``).
    """
    env: Dict[str, int] = {f"pkt[{i}]": byte for i, byte in enumerate(packet[:sym_bytes])}
    env.update(scalars)
    for call in trace.extern_calls:
        if call.result is not None:
            env[f"{call.name}#{call.index}"] = call.result
    return env


class NFHarness:
    """One NF wired for concrete replay: module, state, and input layout.

    Args:
        name: NF name used in replay results and bench reports.
        module: the NF's NFIL module, which the interpreter validates.
        function: entry function to invoke per stimulus.
        handler: the extern handler backing the NF's state (usually a
            :class:`~repro.structures.base.Structure` or a merge of them).
        structures: the structure instances behind ``handler`` — the
            hardware models use them to attribute extern memory accesses.
        pkt_base: address the packet buffer is written to.
        sym_bytes: how many leading packet bytes were symbolic during
            contract generation (the replay environment covers exactly
            those).
        scalar_order: the function's scalar parameters in call order,
            following the packet pointer (e.g. ``("len", "in_port",
            "time")``).  A stimulus that omits ``len`` gets the literal
            packet length.
        capture_output: when True, each :meth:`run` also reads the packet
            buffer back out of NF memory into :attr:`last_packet` — the
            post-rewrite bytes a downstream hop of a service graph
            receives.  Off by default: single-NF replay never looks at
            the egress bytes and the copy would cost on the bench's hot
            loop.
    """

    def __init__(
        self,
        name: str,
        module: Module,
        function: str,
        *,
        handler: ExternHandler,
        structures: Tuple[Structure, ...] = (),
        pkt_base: int,
        sym_bytes: int,
        scalar_order: Tuple[str, ...] = ("len",),
        capture_output: bool = False,
    ) -> None:
        self.name = name
        self.module = module
        self.function = function
        self.handler = handler
        # Refuse ambiguous extern manglings up front (`a_b`+`c` vs `a`+`b_c`):
        # a collision here would cross-wire cost attribution silently.
        check_extern_collisions(structures)
        self.structures = structures
        self.pkt_base = pkt_base
        self.sym_bytes = sym_bytes
        self.scalar_order = scalar_order
        self.capture_output = capture_output
        #: Egress packet bytes of the last :meth:`run` (post NF rewrites);
        #: only populated when ``capture_output`` is on.
        self.last_packet: bytes = b""
        self.record_accesses = False
        self._interpreter = Interpreter(module, handler=handler)

        def arguments(packet: bytes, scalars: Mapping[str, int]) -> List[int]:
            # The packet base, then each scalar as scalars_for resolves it
            # (a missing one raises a bare KeyError).
            args = [pkt_base]
            for name in scalar_order:
                args.append(scalars[name] if name != "len" or name in scalars else len(packet))
            return args

        self._arguments = arguments

    @property
    def record_accesses(self) -> bool:
        """Whether :meth:`run` materialises the per-access address stream.

        That is ``ExecutionTrace.accesses``, with the addresses each
        structure call touched.  Off by default — counts are all plain
        replay needs — and switched on by the replayer when a
        cache-simulating hardware model is in the model set.  Setting it
        writes through to every structure in :attr:`structures`, whose
        handlers build their address lists only while it is on.
        """
        return self._record_accesses

    @record_accesses.setter
    def record_accesses(self, on: bool) -> None:
        self._record_accesses = on
        for structure in self.structures:
            structure.record_accesses = on

    def scalars_for(self, stimulus: Stimulus) -> Dict[str, int]:
        """Resolve the stimulus scalars, defaulting ``len`` to the buffer."""
        # copy(), not dict(): dict() of the shared empty mappingproxy is several times slower.
        scalars = stimulus.scalars.copy()
        if "len" in self.scalar_order:
            scalars.setdefault("len", len(stimulus.packet))
        missing = [name for name in self.scalar_order if name not in scalars]
        if missing:
            raise KeyError(f"{self.name}: stimulus missing scalars {missing}")
        return scalars

    def run(self, stimulus: Stimulus) -> Tuple[Optional[int], ExecutionTrace]:
        """Execute one stimulus against the live NF state.

        The packet becomes the window of a fresh memory; a missing scalar
        raises :meth:`scalars_for`'s ``KeyError``.
        """
        packet = stimulus.packet
        try:
            args = self._arguments(packet, stimulus.scalars)
        except KeyError:
            self.scalars_for(stimulus)
            raise
        trace = ExecutionTrace(record_accesses=self._record_accesses)
        memory = Memory(self.pkt_base, packet)
        result = self._interpreter.run(self.function, args, memory=memory, trace=trace)
        if self.capture_output:
            self.last_packet = memory.read_bytes(self.pkt_base, len(packet))
        return result

    def env(self, stimulus: Stimulus, trace: ExecutionTrace) -> Dict[str, int]:
        """Build the replay environment of one executed stimulus."""
        scalars = self.scalars_for(stimulus)
        return replay_env(stimulus.packet, self.sym_bytes, trace, **scalars)

    def replay_reads(self) -> Tuple[Callable[[str], str], Tuple[str, ...]]:
        """The replay environment as Python source over ``stimulus`` and ``trace``.

        Returns ``(read, prologue)`` for a generated function of
        ``(stimulus, trace)`` (:func:`repro.sym.expr.compile_first_match`):
        ``read(name)`` is the source of the value :meth:`env` binds symbol
        ``name`` to, and the ``prologue`` lines run before the reads.

        * ``pkt[i]`` — byte ``i`` when ``i < min(len(packet), sym_bytes)``,
          else 0 (the prologue pads a short packet with zeros);
        * ``{name}#{i}`` — call ``i``'s result when that call exists, is
          named ``name`` and returned a value, else 0;
        * any other symbol — its scalar, ``len`` defaulted as by
          :meth:`scalars_for`, else 0.
        """
        width = self.sym_bytes

        def read(name: str) -> str:
            byte = _PACKET_BYTE.fullmatch(name)
            if byte is not None:
                index = int(byte.group(1))
                return f"pkt[{index}]" if index < width else "0"
            output = _EXTERN_OUTPUT.fullmatch(name)
            if output is not None:
                extern, index = output.group(1), int(output.group(2))
                found = f"len(calls) > {index} and calls[{index}].name == {extern!r}"
                return f"calls[{index}].result or 0 if {found} else 0"
            if name == "len" and "len" in self.scalar_order:
                return "scalars.get('len', len(stimulus.packet))"
            return f"scalars.get({name!r}, 0)"

        prologue = (
            "pkt = stimulus.packet",
            f"if len(pkt) < {width}: pkt = pkt.ljust({width}, b'\\0')",
            "scalars = stimulus.scalars",
            "calls = trace.extern_calls",
        )
        return read, prologue


@dataclass(frozen=True)
class NFSpec:
    """Everything one NF declares; contracts and harnesses derive from it.

    Attributes:
        name: short NF name (harness name, bench report key, CLI row).
        title: section title the smoke and bench runs print.
        function: the NFIL entry function; its params are ``pkt`` followed
            by the NF's scalar inputs, in call order.
        build_module: builds the NF's NFIL module; the harness's interpreter
            and the contract's symbolic engine each validate it.
        make_state: builds the NF's structure instances — one structure
            or a tuple of them — from keyword geometry (``capacity``,
            ``timeout``, ...); keywords it does not take are errors.
        classify: maps one explored path to its input class's name.
        classes: every input class the NF has, with its description; the
            contract and the bench workloads must keep covering them all.
        pkt_base: address the packet buffer is written to.
        sym_bytes: how many leading packet bytes are symbolic during
            analysis (the replay environment covers exactly those).
        assume: scalar input -> exclusive upper bound, assumed during
            analysis (``in_port < MAX_PORTS``), in constraint order.
        bench: the ``make_state`` keywords of the bench geometry, used by
            the bench, the regression gates and the service graphs.
        secret_sets: class sets whose distinction encodes a secret, each
            with its declared expectation, for ``ct-audit``.
    """

    name: str
    title: str
    function: str
    build_module: Callable[[], Module]
    make_state: Callable[..., Union[Structure, Tuple[Structure, ...]]]
    classify: Callable[[Path], str]
    classes: Mapping[str, str]
    pkt_base: int
    sym_bytes: int
    assume: Mapping[str, int] = field(default_factory=dict)
    bench: Mapping[str, object] = field(default_factory=dict)
    secret_sets: Tuple[SecretClassSet, ...] = ()

    def structures(self, **state: object) -> Tuple[Structure, ...]:
        """Fresh structure instances, as ``make_state(**state)`` builds them."""
        made = self.make_state(**state)
        return made if isinstance(made, tuple) else (made,)

    def _scalars(self, module: Module) -> List[str]:
        """The entry function's scalar params: everything after ``pkt``."""
        return module.get_function(self.function).param_names()[1:]

    def symbolic_inputs(self, module: Module) -> Tuple[List[BV], SymbolicMemory, List[BV]]:
        """``(args, memory, constraints)`` of one call of ``module``'s entry function.

        The packet bytes are fresh symbols ``pkt[i]`` at :attr:`pkt_base`,
        each scalar param is the symbol of its own name, and every
        :attr:`assume` bound becomes an unsigned ``<`` constraint.
        """
        memory = SymbolicMemory()
        memory.write_symbolic(self.pkt_base, self.sym_bytes, "pkt")
        scalars = {name: Sym(name, 64) for name in self._scalars(module)}
        args: List[BV] = [Const(self.pkt_base, 64), *scalars.values()]
        constraints = [
            E.ult(scalars[name], Const(bound, 64)) for name, bound in self.assume.items()
        ]
        return args, memory, constraints

    def contract(self, **geometry: object) -> PerformanceContract:
        """Run Bolt end-to-end on the NF at ``make_state(**geometry)``."""
        model = StructureModel(*self.structures(**geometry))
        module = self.build_module()
        args, memory, constraints = self.symbolic_inputs(module)
        return generate_contract(
            module,
            self.function,
            args,
            model=model,
            registry=model.registry(),
            classify=self.classify,
            classes=self.classes,
            memory=memory,
            constraints=constraints,
        )

    def harness(self, **state: object) -> NFHarness:
        """A fresh NF over ``make_state(**state)``, wired for replay.

        Every structure's handlers merge into one dispatch table; the
        merge (and :class:`NFHarness` itself) rejects ambiguous extern
        manglings.
        """
        structures = self.structures(**state)
        handler = ExternHandler()
        for structure in structures:
            handler.merge(structure)
        module = self.build_module()
        return NFHarness(
            self.name,
            module,
            self.function,
            handler=handler,
            structures=structures,
            pkt_base=self.pkt_base,
            sym_bytes=self.sym_bytes,
            scalar_order=tuple(self._scalars(module)),
        )
