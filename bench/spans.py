"""Per-layer spans and counters for the benchmark's traced pass.

The traced pass wraps *instance* attributes of the public calls at each
layer boundary (``Replayer.score``, ``NFHarness.run``/``env``, the extern
handler's ``handle``, ``Structure.charge``, ``CacheHierarchy.access``, the
replay loops) and never a class attribute, so :meth:`LayerTracer.close`
restores every object exactly and nothing outside the pass sees a wrapper.

Each wrapped call is one span (layer, start, end, parent).  Spans are kept
in memory as per-layer aggregates, folded in as each span closes — calls,
total time, and self time (the span minus the part its child spans cover)
— because a traced pass closes millions of spans.  Counters are taken at
the same boundaries from the trace each execution returns.  Bookkeeping
done after a span closes is credited to the parent as child time, so it
inflates no layer's self time.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple


class LayerTracer:
    """Wraps layer boundaries and aggregates their spans and counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.hierarchies: List[object] = []
        # Child-time accumulators of the open spans, innermost last.
        self._stack: List[List[int]] = []
        self._patched: List[Tuple[object, str]] = []
        self._gc_started = 0

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _close(self, layer: str, elapsed: int, children: int) -> None:
        self.calls[layer] += 1
        self.total_ns[layer] += elapsed
        self.self_ns[layer] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around a block (the set-up layers)."""
        children = [0]
        self._stack.append(children)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._stack.pop()
            self._close(layer, elapsed, children[0])

    def wrap(
        self,
        obj: object,
        attr: str,
        layer: str,
        after: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper on the instance.

        ``after(args, kwargs, result)`` runs once the span has closed; its
        time is credited to the parent span as child time.
        """
        inner = getattr(obj, attr)
        stack = self._stack
        close = self._close
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            start = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(layer, elapsed, children[0])
            if after is not None:
                start = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - start
            return result

        setattr(obj, attr, traced)
        self._patched.append((obj, attr))

    # ------------------------------------------------------------------ #
    # Instrumentation of the benchmark's objects
    # ------------------------------------------------------------------ #
    def instrument_models(self, models) -> None:
        """Wrap each cache simulator; call before a replayer compiles the models."""
        for model in models:
            hierarchy = getattr(model, "hierarchy", None)
            if hierarchy is not None:
                self.wrap(hierarchy, "access", "cachesim")
                self.hierarchies.append(hierarchy)

    def instrument_replayer(self, replayer) -> None:
        """Wrap one single-NF replayer's scoring, harness and structures."""
        harness = replayer.harness
        labels = {
            structure.extern_name(op.method): f"structures.calls.{structure.kind}.{op.method}"
            for structure in harness.structures
            for op in structure.ops()
        }
        counts = self.counts

        def count_trace(args, kwargs, result) -> None:
            trace = result[1]
            counts["interpreter.steps"] += trace.instructions
            for category, n in trace.category_counts.items():
                counts[f"interpreter.steps.{category}"] += n
            counts["tracer.accesses"] += trace.memory_accesses
            for call in trace.extern_calls:
                counts[labels[call.name]] += 1
                counts["structures.calls"] += 1
                counts["structures.accesses"] += call.memory_accesses

        def count_charge(args, kwargs, result) -> None:
            touched = len(kwargs.get("touched", ()))
            accesses = result.memory_accesses
            counts["charge.accesses"] += accesses
            if touched < accesses:
                counts["charge.padded"] += accesses - touched
            elif touched > accesses:
                counts["charge.truncated"] += 1

        self.wrap(replayer, "score", "score")
        self.wrap(harness, "run", "run", after=count_trace)
        self.wrap(harness, "env", "env")
        self.wrap(harness.handler, "handle", "handle")
        for structure in harness.structures:
            self.wrap(structure, "charge", "charge", after=count_charge)

    def instrument(self, cells) -> None:
        """Wrap every layer boundary of a pass's cells."""
        for cell in cells:
            self.wrap(cell.replayer, "replay", "replay")
            hops = cell.replayer.replayers.values() if cell.is_graph else [cell.replayer]
            for replayer in hops:
                self.instrument_replayer(replayer)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.calls["python.gc"] += 1
            self.total_ns["python.gc"] += time.perf_counter_ns() - self._gc_started

    @contextlib.contextmanager
    def gc_watch(self):
        """Time the collector's pauses inside the block."""
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def close(self) -> None:
        """Remove every wrapper, restoring the class attributes underneath."""
        for obj, attr in reversed(self._patched):
            delattr(obj, attr)
        self._patched.clear()
