"""The package layering, read from the source.

Bottom first: nfil < sym < core < structures < hw < traffic < audit < nf
< net < cli.  Each package may import itself and the packages below it,
never one above.  The check parses every module with :mod:`ast` instead of
importing it: ``repro/__init__.py`` imports ``repro.core``, so at runtime
every module sees ``repro.core`` loaded, and an import-time check could
not tell a violation from the facade's own imports.
"""

import ast
from pathlib import Path

import repro

LAYERS = ("nfil", "sym", "core", "structures", "hw", "traffic", "audit", "nf", "net", "cli")
PACKAGE = Path(repro.__file__).parent


def _repro_imports(tree: ast.AST, package: list):
    """Yield ``(line, module)`` for every ``repro`` import in ``tree``.

    ``package`` is the importing module's package, e.g. ``["repro", "nfil"]``,
    against which relative imports resolve.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = base + (node.module.split(".") if node.module else [])
            # ``from repro import sym`` names its layer in the imported name.
            names = [module + [alias.name] for alias in node.names]
        else:
            continue
        for parts in names:
            if parts[0] == "repro":
                yield node.lineno, ".".join(parts[:2])


def test_each_package_imports_only_packages_below_it():
    violations = []
    scanned = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(PACKAGE)
        if relative == Path("__init__.py"):
            continue  # the facade re-exports repro.core and sits outside the layers
        layer = relative.parts[0].removesuffix(".py")
        scanned.add(layer)
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        package = ["repro", *relative.parts[:-1]]
        for line, module in _repro_imports(tree, package):
            imported = module.removeprefix("repro.")
            if imported not in LAYERS or LAYERS.index(imported) > LAYERS.index(layer):
                violations.append(f"repro/{relative}:{line}: {layer} imports {module}")
    assert scanned == set(LAYERS), f"unlayered packages: {sorted(scanned - set(LAYERS))}"
    assert not violations, "imports against the layering:\n" + "\n".join(violations)
