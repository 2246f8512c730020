"""Shared fixtures for the suite.

Contract generation is the expensive step (symbolic execution of every
structure operation per input class); the session-scoped fixtures below
run it once and share the results between the diff, audit and property
test files, which would otherwise each regenerate the same four NF
contracts plus the composed graph contract.
"""

import pytest

from repro import cli
from repro.nf import NF_MATRIX


@pytest.fixture(scope="session")
def gate_targets():
    """``name -> (contract, structures)`` for every gated target.

    Exactly what ``contract-diff``/``ct-audit`` regenerate: the four NFs'
    bench-geometry contracts plus the lb_nat_router graph's composed
    contract, each with the live structure instances behind its PCVs.
    """
    return {
        name: (contract, structures)
        for name, contract, structures in cli._gate_targets()
    }


@pytest.fixture(scope="session")
def nf_specs():
    """``name -> (NFSpec, workloads factory)`` for the registered NF matrix."""
    return {row[0].name: row for row in NF_MATRIX}
