"""One benchmark run of one workload, in the current process.

``python bench/run.py`` executes :func:`measure` in a fresh subprocess per
run.  A run is made of whole *passes* — set up every cell of the workload,
then replay them all — repeated until the replay time reaches the
requested seconds (at least one pass).  Every pass must produce the same
outcome digest.  Set-up is timed at least :data:`SETUP_ROUNDS` times and
its median reported.  A traced run ends with one more pass under
:class:`spans.LayerTracer`; its digest must equal the untraced one.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from typing import Dict, List, Optional

import workloads
from spans import LayerTracer

#: Set-up is timed at least this many times per run; the median is reported.
SETUP_ROUNDS = 3
#: Interpreter step categories always reported, even when a workload runs none.
STEP_CATEGORIES = ("alu", "cmp", "branch", "load", "store", "call", "ret")


def _nearest_rank(ordered: List[int], percentile: int) -> int:
    return ordered[-(-percentile * len(ordered) // 100) - 1]


def _time_scores(cell, sink) -> None:
    """Shadow each replayer's ``score`` on the instance with a wall-clock timer."""
    replayers = cell.replayer.replayers.values() if cell.is_graph else [cell.replayer]
    for replayer in replayers:

        def timed(stimulus, index=0, _score=replayer.score, _clock=time.perf_counter_ns):
            start = _clock()
            outcome = _score(stimulus, index)
            sink(_clock() - start)
            return outcome

        replayer.score = timed


def _outcome_key(outcome) -> bytes:
    return repr(
        (
            outcome.class_name,
            tuple(outcome.measured.values()),
            tuple(outcome.predicted.values()),
            tuple(sorted(outcome.cycles_scaled.items())),
        )
    ).encode()


def check_pass(cells, results) -> Dict[str, object]:
    """Score a pass's outputs: failed packets, missed classes, outcome digest.

    A packet fails when it has any violation or an execution no contract
    class covers.  The digest is a sha256 over every outcome's class,
    measured and predicted counts and scaled cycles (per hop, with the
    route name, for the graph) and each cell's ``max_pcvs``.
    """
    digest = hashlib.sha256()
    packets = failed = executions = state_hits = churn = 0
    problems: List[str] = []
    for cell, result in zip(cells, results):
        digest.update(cell.name.encode())
        if cell.is_graph:
            for outcome in result.outcomes:
                failed += bool(outcome.violations) or outcome.route_name is None
                digest.update(repr(outcome.route_name).encode())
                for node, hop in outcome.hops:
                    digest.update(node.encode() + _outcome_key(hop))
                    state_hits += hop.class_name in workloads.STATE_HIT_CLASSES
            for node, outcome in result.control_outcomes:
                digest.update(node.encode() + _outcome_key(outcome))
            seen = result.hop_classes_seen()
            executions += result.hop_executions
            churn += len(result.churn_log)
        else:
            for outcome in result.outcomes:
                failed += bool(outcome.violations) or outcome.class_name is None
                digest.update(_outcome_key(outcome))
                state_hits += outcome.class_name in workloads.STATE_HIT_CLASSES
            seen = {cell.name.split("/")[0]: result.classes_seen()}
            executions += result.packets
        digest.update(repr(sorted(result.max_pcvs.items())).encode())
        packets += result.packets
        problems += [f"{cell.name}: {message}" for message in result.violations[:3]]
        for node, expected in sorted(cell.expected.items()):
            missing = sorted(expected - set(seen.get(node, ())))
            if missing:
                problems.append(f"{cell.name}: {node} never exercised classes {missing}")
    return {
        "packets": packets,
        "failed": failed,
        "executions": executions,
        "state_hits": state_hits,
        "churn_events": churn,
        "digest": digest.hexdigest(),
        "problems": problems,
    }


def layer_metrics(
    tracer: LayerTracer, cells, check, replay_ns: int, untraced_pps: float
) -> Dict[str, float]:
    """Per-layer numbers of one traced pass, per execution unless the name says otherwise.

    An execution is one ``Replayer.score`` call (one hop on the graph);
    ``replayer.aggregate_us`` is per entry packet, and on the graph it is
    ``GraphReplayer.replay``'s own time: the composed end-to-end check,
    forwarding and aggregation.  ``trace.overhead_frac`` compares the
    traced pass's packet rate with the untraced passes' ``untraced_pps``.
    """
    execs = check["executions"]
    packets = check["packets"]
    counts = tracer.counts
    us = 1e3 * execs
    hierarchies = tracer.hierarchies
    l1_accesses = sum(h.l1.accesses for h in hierarchies)
    llc_accesses = sum(h.llc.accesses for h in hierarchies)
    contracts = []
    routes = 0
    for cell in cells:
        if cell.is_graph:
            contracts += [node.contract for node in cell.replayer.graph.nodes.values()]
            routes += len(cell.replayer.composed.entries)
        else:
            contracts.append(cell.replayer.contract)
    layers = {
        "workloads.build_s": tracer.total_ns["workloads.build"] / 1e9,
        "bolt.contract_s": tracer.total_ns["bolt.contract"] / 1e9,
        "bolt.paths": sum(len(entry.paths) for c in contracts for entry in c.entries),
        "replayer.compile_s": tracer.total_ns["replayer.compile"] / 1e9,
        "net.routes": routes,
        "interpreter.self_us": tracer.self_ns["run"] / us,
        "interpreter.steps": counts["interpreter.steps"] / execs,
        "tracer.accesses": counts["tracer.accesses"] / execs,
        "structures.self_us": tracer.self_ns["handle"] / us,
        "structures.calls": counts["structures.calls"] / execs,
        "structures.accesses": counts["structures.accesses"] / execs,
        "charge.us": tracer.total_ns["charge"] / us,
        "charge.padded_frac": counts["charge.padded"] / max(counts["charge.accesses"], 1),
        "charge.truncated": counts["charge.truncated"],
        "harness.env_us": tracer.total_ns["env"] / us,
        "cachesim.us": tracer.total_ns["cachesim"] / us,
        "cachesim.accesses": l1_accesses / execs,
        "cachesim.l1_hit_frac": sum(h.l1.hits for h in hierarchies) / max(l1_accesses, 1),
        "cachesim.llc_hit_frac": sum(h.llc.hits for h in hierarchies) / max(llc_accesses, 1),
        "replayer.score_self_us": tracer.self_ns["score"] / us,
        "replayer.aggregate_us": tracer.self_ns["replay"] / (1e3 * packets),
        "net.hops": execs / packets,
        "net.churn_events": check["churn_events"],
        "classes.state_hit_frac": check["state_hits"] / execs,
        "python.gc_us": tracer.total_ns["python.gc"] / us,
        "python.gc_collections": tracer.calls["python.gc"],
        "trace.overhead_frac": 1 - packets / (replay_ns / 1e9) / untraced_pps,
    }
    breakdown = {f"interpreter.steps.{category}" for category in STEP_CATEGORIES}
    breakdown |= {n for n in counts if n.startswith(("interpreter.steps.", "structures.calls."))}
    for name in sorted(breakdown):
        layers[name] = counts[name] / execs
    return layers


def _setup(spec, seed: int, packets: int, setup_s: List[float], tracer=None):
    start = time.perf_counter()
    cells = workloads.setup(spec, seed, packets, tracer)
    setup_s.append(time.perf_counter() - start)
    return cells


def measure(name: str, seed: int, packets: Optional[int], seconds: float, traced: bool):
    """One run of workload ``name`` (``packets`` per cell, default as in bench).

    Returns the run's JSON-ready record.
    """
    spec = workloads.WORKLOADS[name]
    packets = packets or workloads.PACKETS
    exec_ns: List[int] = []
    setup_s: List[float] = []
    replay_ns = 0
    checks: List[Dict[str, object]] = []
    while not checks or replay_ns < seconds * 1e9:
        cells = _setup(spec, seed, packets, setup_s)
        for cell in cells:
            _time_scores(cell, exec_ns.append)
        results = []
        for cell in cells:
            start = time.perf_counter_ns()
            results.append(cell.replay())
            replay_ns += time.perf_counter_ns() - start
        checks.append(check_pass(cells, results))
        del cells, results
        gc.collect()
    while len(setup_s) < SETUP_ROUNDS:
        _setup(spec, seed, packets, setup_s)
        gc.collect()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = sum(check["packets"] for check in checks)
    failed = sum(check["failed"] for check in checks)
    problems = [problem for check in checks for problem in check["problems"]]
    if len({check["digest"] for check in checks}) > 1:
        problems.append("outcome digest differs between passes")
    exec_ns.sort()
    pkts_per_s = attempted / (replay_ns / 1e9)
    record = {
        "workload": name,
        "packets_per_cell": packets,
        "passes": len(checks),
        "attempted": attempted,
        "failed": failed,
        "digest": checks[0]["digest"],
        "setup_samples_s": setup_s,
        "exec_samples": len(exec_ns),
        "metrics": {
            "pkts_per_s": pkts_per_s,
            "exec_us_p50": statistics.median(exec_ns) / 1e3,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "failed_frac": failed / attempted,
        },
    }
    if traced:
        tracer = LayerTracer()
        try:
            cells = _setup(spec, seed, packets, [], tracer)
            tracer.instrument(cells)
            start = time.perf_counter_ns()
            with tracer.gc_watch():
                results = [cell.replay() for cell in cells]
            traced_ns = time.perf_counter_ns() - start
        finally:
            tracer.close()
        check = check_pass(cells, results)
        problems += check["problems"]
        if check["digest"] != record["digest"]:
            problems.append("outcome digest differs between the traced and untraced passes")
        record["layers"] = layer_metrics(tracer, cells, check, traced_ns, pkts_per_s)
        record["layers"]["replayer.score_us_p99"] = _nearest_rank(exec_ns, 99) / 1e3
    record["problems"] = problems[:20]
    record["correct"] = failed == 0 and not problems
    return record
