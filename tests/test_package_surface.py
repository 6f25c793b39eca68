"""Every public function and method of the package is used by the package.

A public top-level function, or a public method of a top-level class, in
``src/blockvd`` must be referenced by name somewhere in the package (a
call, an attribute load or an import) or stand on the short list below of
documented entry points that nothing inside the package calls.  A helper
that only the tests use belongs in the tests.
"""

import ast

from conftest import SRC

PACKAGE = SRC / "blockvd"

# module.qualified name -> why it stays public although the package does
# not call it
ENTRY_POINTS = {
    "_dpcore.Engine.view": "README: the way to read a walked table's gh in vertex ids",
    "characteristics.compute_characteristics": "acceptance criterion 6 reads it",
    "characteristics.respects": "acceptance criterion 6 reads it",
    "repset.reduce_connected": "acceptance criteria read the one-bucket reduction",
    "graph.Graph.has_edge": "core graph type API",
    "families.Pattern.has_edge": "core pattern type API",
    "partitions.Partition.singletons": "core partition type API",
}


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def public_definitions() -> dict[str, str]:
    """Each public top-level function and public method of a top-level
    class, as module.qualified name -> the bare name a caller uses."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_function(node) and not node.name.startswith("_"):
                out[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if _is_function(item) and not item.name.startswith("_"):
                        out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return out


def referenced_names() -> set[str]:
    """Every name the package loads, reads as an attribute or imports."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_function_is_used_or_a_listed_entry_point():
    used = referenced_names()
    unused = sorted(
        qual for qual, name in public_definitions().items()
        if name not in used and qual not in ENTRY_POINTS
    )
    assert unused == [], "move test-only helpers into the tests that use them"


def test_every_listed_entry_point_exists():
    assert set(ENTRY_POINTS) <= set(public_definitions())
