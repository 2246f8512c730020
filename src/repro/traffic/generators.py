"""Workload shapes: uniform, zipf and adversarial stimulus streams.

The paper's evaluation (§5) stresses each NF with workloads chosen to
exercise every contract entry, including adversarially constructed traffic
that drives the performance-critical variables to their bounds.  This
module provides the NF-agnostic half of that story:

* :class:`Stimulus` — one packet plus the scalar inputs of an invocation;
* :func:`uniform_indices` / :func:`zipf_indices` — deterministic (seeded)
  key samplers over a fixed population, uniform or Zipf-skewed;
* adversarial streams are *NF-specific* — they must know which input
  state drives a PCV to its maximum — and live next to each NF in
  :mod:`repro.nf.workloads`, built from these primitives.

Everything is deterministic under a caller-provided :class:`random.Random`
so benches are reproducible run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import List, Mapping

__all__ = ["Stimulus", "uniform_indices", "zipf_indices", "zipf_weights"]


_NO_SCALARS: Mapping[str, int] = MappingProxyType({})


@dataclass(frozen=True, slots=True)
class Stimulus:
    """One NF invocation: the packet buffer plus named scalar inputs.

    A stimulus and its scalars are read-only: stimuli share frames, and
    every stimulus built without scalars shares one empty mapping.

    Attributes:
        packet: concrete packet bytes (may be truncated/short on purpose).
        scalars: the NF's non-packet inputs by symbol name (``in_port``,
            ``time``, ...).  ``len`` defaults to ``len(packet)`` when the
            harness builds the argument list.
        note: free-form tag ("fill", "worst_t", ...) carried into results
            for debugging and for adversarial worst-case bookkeeping.
    """

    packet: bytes
    scalars: Mapping[str, int] = field(default_factory=lambda: _NO_SCALARS)
    note: str = ""


def uniform_indices(rng: random.Random, population: int, count: int) -> List[int]:
    """Sample ``count`` indices uniformly from ``range(population)``."""
    if population <= 0:
        raise ValueError("population must be positive")
    return [rng.randrange(population) for _ in range(count)]


def zipf_weights(population: int, s: float = 1.2) -> List[float]:
    """Return the (unnormalised) Zipf weights ``1 / rank**s``."""
    if population <= 0:
        raise ValueError("population must be positive")
    if s <= 0:
        raise ValueError("the Zipf exponent must be positive")
    return [1.0 / (rank**s) for rank in range(1, population + 1)]


def zipf_indices(
    rng: random.Random, population: int, count: int, *, s: float = 1.2
) -> List[int]:
    """Sample ``count`` indices Zipf-distributed over ``range(population)``.

    Index 0 is the hottest key.  The skew matches real traffic far better
    than uniform sampling: a handful of flows dominate, the tail stays
    cold — which keeps hot hash chains short but still occasionally walks
    the long ones.
    """
    weights = zipf_weights(population, s)
    return rng.choices(range(population), weights=weights, k=count)
