#!/usr/bin/env python
"""Docs-consistency check: the documentation must track the registries.

Run by the CI ``docs-check`` job (and directly: ``python
tools/check_docs.py``).  Six guarantees:

1. **Coverage** — every NF in :data:`repro.nf.NF_MATRIX` and every
   structure class in :func:`repro.cli.smoke_structures` (i.e. everything
   the CLI smoke output lists) has a section in ``docs/CONTRACTS.md``,
   and every NF appears in ``docs/ARCHITECTURE.md``'s module map.
2. **Hardware** — every bench cycle model is discussed in
   ``docs/CONTRACTS.md``; the cache-simulator backend additionally keeps
   the ``repro.hw.cachesim`` module-map row alive.
3. **Graphs** — every service graph in :data:`repro.cli.GRAPH_MATRIX`
   has a section in ``docs/SERVICE_GRAPHS.md`` naming each of its hop
   NFs, and the authoring guides cross-link each other so the layering
   story stays navigable.
4. **CLI** — every subcommand registered in :data:`repro.cli.SUBCOMMANDS`
   (``smoke``, ``bench``, ``graph``, ``contract-diff``, ``ct-audit``, …)
   has a README line naming it in backticks together with backticked
   exit codes, so the exit-code semantics CI scripts rely on stay
   documented.
5. **Quickstart** — the fenced ``python`` code blocks of the README run
   verbatim, in order, in one shared namespace (they build on each
   other), so the copy-pasteable quickstart cannot rot.
6. **API names** — every backticked dotted ``repro.…`` name in the
   README and ``docs/*.md`` imports as a module or resolves as an
   attribute of one, so a deleted or renamed API cannot linger in prose.

Exits non-zero with one line per failure.
"""

from __future__ import annotations

import importlib
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cli import (  # noqa: E402
    GRAPH_MATRIX,
    SUBCOMMANDS,
    _bench_models,
    smoke_structures,
)
from repro.nf import NF_MATRIX  # noqa: E402


#: A backticked dotted name under the package, e.g. `repro.nf.NF_MATRIX`.
API_NAME = re.compile(r"`(repro(?:\.\w+)+)`")


def python_blocks(markdown: str) -> list[str]:
    """Extract the contents of ```python fenced blocks, in order."""
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


def check_contract_docs(failures: list[str]) -> None:
    contracts = (REPO / "docs" / "CONTRACTS.md").read_text(encoding="utf-8")
    architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    for structure in smoke_structures():
        cls = type(structure).__name__
        if f"`{cls}`" not in contracts:
            failures.append(
                f"docs/CONTRACTS.md: no section for structure {cls} "
                "(smoke renders its contract; document its cost table)"
            )
    for spec, _ in NF_MATRIX:
        # Every NF needs a contract discussion and a module-map presence.
        if not re.search(rf"\b{re.escape(spec.name)}\b", contracts, flags=re.IGNORECASE):
            failures.append(
                f"docs/CONTRACTS.md: no section for NF {spec.name!r} "
                "(the bench runs it; document its contract)"
            )
        # The module map lists NF modules as `repro.nf.bridge` / `router`
        # / `nat` / `lb`; normalise the backtick-slash styling away.
        flat = architecture.replace("`", "").replace(" / ", " ")
        if f"repro.nf.{spec.name}" not in flat and f" {spec.name} " not in flat:
            failures.append(
                f"docs/ARCHITECTURE.md: NF {spec.name!r} missing from the module map"
            )
        missing = [name for name in sorted(spec.classes) if f"`{name}`" not in contracts]
        if missing:
            failures.append(
                f"docs/CONTRACTS.md: NF {spec.name!r} input classes never mentioned: {missing}"
            )


def check_hw_docs(failures: list[str]) -> None:
    """The hardware-model registry drives the docs like the NF one does.

    Every bench cycle model must be discussed in ``docs/CONTRACTS.md``;
    as long as an access-stream-driven model (the cache-simulator
    backend) is registered, the simulator module must appear in
    ``docs/ARCHITECTURE.md``'s module map.
    """
    contracts = (REPO / "docs" / "CONTRACTS.md").read_text(encoding="utf-8")
    architecture = (REPO / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    models = _bench_models()
    for model in models:
        if not re.search(rf"\b{re.escape(model.name)}\b", contracts, flags=re.IGNORECASE):
            failures.append(
                f"docs/CONTRACTS.md: hardware model {model.name!r} never discussed "
                "(the bench prices with it; document its assumptions)"
            )
    if any(model.requires_access_stream for model in models) and (
        "repro.hw.cachesim" not in architecture.replace("`", "")
    ):
        failures.append(
            "docs/ARCHITECTURE.md: repro.hw.cachesim missing from the module map "
            "(it backs the simulated model)"
        )


def check_graph_docs(failures: list[str]) -> None:
    guide = (REPO / "docs" / "SERVICE_GRAPHS.md").read_text(encoding="utf-8")
    for spec in GRAPH_MATRIX:
        if f"`{spec.name}`" not in guide:
            failures.append(
                f"docs/SERVICE_GRAPHS.md: no section for graph {spec.name!r} "
                "(the bench runs it; document its topology)"
            )
            continue
        # The guide must name every hop NF the graph deploys — the
        # workload factory carries the authoritative topology.
        graph = spec.bench_workloads(0, 1)[0].graph
        missing = [name for name in graph.hop_names() if f"`{name}`" not in guide]
        if missing:
            failures.append(
                f"docs/SERVICE_GRAPHS.md: graph {spec.name!r} hop NFs never mentioned: {missing}"
            )
    # The authoring guides must cross-link: graph authors arrive from the
    # NF and structure guides, and vice versa.
    for doc in ("NF_AUTHORING.md", "STRUCTURES.md"):
        text = (REPO / "docs" / doc).read_text(encoding="utf-8")
        if "SERVICE_GRAPHS.md" not in text:
            failures.append(f"docs/{doc}: missing cross-link to SERVICE_GRAPHS.md")
    for doc in ("NF_AUTHORING.md", "STRUCTURES.md"):
        if doc not in guide:
            failures.append(f"docs/SERVICE_GRAPHS.md: missing cross-link to {doc}")


def check_cli_docs(failures: list[str]) -> None:
    """Every CLI subcommand needs a README row with exit-code semantics.

    A row qualifies when one README line carries the backticked
    subcommand name *and* at least one backticked exit code digit
    (``0``/``1``/``2``) — the table format the "CLI subcommands" section
    uses.  Registering a subcommand in ``repro.cli.SUBCOMMANDS`` without
    documenting it fails this check.
    """
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    lines = readme.splitlines()
    for name, _semantics in SUBCOMMANDS:
        documented = any(
            f"`{name}`" in line and re.search(r"`[0-2]`", line) for line in lines
        )
        if not documented:
            failures.append(
                f"README.md: no line documents subcommand `{name}` with its "
                "backticked exit codes (see the CLI subcommands table)"
            )


def check_readme_quickstart(failures: list[str]) -> None:
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = python_blocks(readme)
    if not blocks:
        failures.append("README.md: no fenced python quickstart blocks found")
        return
    namespace: dict = {}
    for index, block in enumerate(blocks):
        sink = io.StringIO()
        try:
            with redirect_stdout(sink):
                exec(compile(block, f"README.md#python-block-{index}", "exec"), namespace)
        except Exception as error:  # noqa: BLE001 - report and keep checking
            failures.append(f"README.md python block {index} failed: {error!r}")
            return  # later blocks build on this namespace; stop here
    print(f"README quickstart: {len(blocks)} python blocks ran verbatim")


def resolves(name: str) -> bool:
    """True when ``name`` imports as a module or is an attribute path on one."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


def check_api_names(failures: list[str], markdown: str, source: str) -> int:
    """Fail every backticked ``repro.…`` name in ``markdown`` that does not resolve.

    Returns how many distinct names were checked.
    """
    names = sorted(set(API_NAME.findall(markdown)))
    for name in names:
        if not resolves(name):
            failures.append(f"{source}: `{name}` is neither a module nor an attribute of one")
    return len(names)


def main() -> int:
    failures: list[str] = []
    check_contract_docs(failures)
    check_hw_docs(failures)
    check_graph_docs(failures)
    check_cli_docs(failures)
    check_readme_quickstart(failures)
    api_names = sum(
        check_api_names(failures, path.read_text(encoding="utf-8"), str(path.relative_to(REPO)))
        for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    )
    structures = ", ".join(sorted({type(s).__name__ for s in smoke_structures()}))
    models = ", ".join(model.name for model in _bench_models())
    print(f"checked hardware models: {models}")
    nfs = ", ".join(spec.name for spec, _ in NF_MATRIX)
    graphs = ", ".join(spec.name for spec in GRAPH_MATRIX)
    subcommands = ", ".join(name for name, _ in SUBCOMMANDS)
    print(f"checked structures: {structures}")
    print(f"checked NFs: {nfs}")
    print(f"checked graphs: {graphs}")
    print(f"checked subcommands: {subcommands}")
    print(f"checked API names: {api_names}")
    for failure in failures:
        print(f"FAIL: {failure}")
    print("DOCS CHECK FAILED" if failures else "DOCS CHECK OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
