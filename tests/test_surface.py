"""Every public name has a caller: ROADMAP item 8's rule for the package surface.

A name exported from ``cantordim/__init__.py`` must be used somewhere in
``src/`` other than inside its own definition, or by the benchmark in
``perfbench/``.  The only exceptions are the reference implementations the
tests compare the pipelines against and the helpers that open ROADMAP items
will call, listed in ``KEEP``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cantordim"

KEEP = {
    # reference implementations (ROADMAP item 8)
    "billingsley_ratio",
    "cylinder_measure_log",
    "log_prefix_product",
    "faithfulness_ratio",
    # helpers of the certificate and cover-gap items (ROADMAP items 4 and 6)
    "count_cylinders",
    "iter_digit_strings",
    "StirlingBounds",
    "stirling_log_factorial",
    "envelope_ratio_bound",
    "envelope_bound_monotone_from",
}


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used_names(tree: ast.AST, inside: frozenset = frozenset()) -> set[str]:
    """Names read anywhere in ``tree``, leaving out reads within a definition
    of the same name (a recursive call is not a caller)."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        scope = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        found |= _used_names(node, scope)
    return found


def _src_uses() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def _perfbench_text() -> str:
    return "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py")))


def test_every_export_has_a_caller_or_is_kept():
    used = _src_uses()
    bench = _perfbench_text()
    orphans = sorted(
        name
        for name in _exports() - KEEP
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", bench)
    )
    assert orphans == [], f"exported but never called: {orphans}"


def test_keep_list_names_are_exported():
    # a stale entry would hide nothing, but it would misstate the kept surface
    assert KEEP <= _exports()



def _imports_libmp(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.startswith("mpmath.libmp") or (
                module == "mpmath" and any(alias.name == "libmp" for alias in node.names)
            ):
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("mpmath.libmp") for alias in node.names):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "libmp":
            return True
    return False


def test_only_the_precision_module_reaches_into_libmp():
    # the raw-value kernel and its operations live in precision.py; every
    # other module takes them from there
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if _imports_libmp(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert importers == ["precision.py"]
