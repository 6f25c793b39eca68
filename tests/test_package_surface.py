"""Every function and method of the package is used by the package.

A top-level function, or a method of a top-level class, in ``src/blockvd``
must be referenced by name somewhere in the package (a call, an attribute
load or an import).  A public one may instead stand on the short list
below of documented entry points that nothing inside the package calls,
and a name leaves that list once the package calls it.
A helper that only the tests use belongs in the tests, and a private
helper that the package stopped calling belongs nowhere.  Dunder methods
are called by the language, not by name, and are left out.

Likewise every name a module imports must be read in that module or
listed in its ``__all__``: an import that code moved elsewhere left
behind only hides where a name really lives.

The solver's modules hold only what a solve, the oracle, the file formats
or the CLI reads: every function and method of ``SOLVER_MODULES`` must be
referenced from a package module other than the spec-level ones
(``SPEC_MODULES``), which hold the reference code the acceptance
criteria check the solver against.
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
}

SOLVER_MODULES = ("graph", "families", "partitions", "repset")
SPEC_MODULES = ("characteristics", "selfcheck")

# module.qualified name in SOLVER_MODULES -> why it stays although only
# spec code, the tests or the benchmark read it
SOLVER_ONLY_EXCEPTIONS = {
    "graph.Graph.vertices": "perfbench/workloads.py reads it",
}


def _is_function(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def definitions() -> dict[str, str]:
    """Each top-level function and method of a top-level class, dunders
    left out, as module.qualified name -> the bare name a caller uses."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _is_function(node):
                out[f"{path.stem}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if _is_function(item):
                        out[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return {qual: name for qual, name in out.items() if not name.startswith("__")}


def referenced_names(skip: tuple[str, ...] = ()) -> set[str]:
    """Every name the package loads, reads as an attribute or imports,
    outside the modules named in skip."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem in skip:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def unused_definitions() -> dict[str, str]:
    """The definitions that the package never references by name."""
    used = referenced_names()
    return {qual: name for qual, name in definitions().items() if name not in used}


def test_every_public_function_is_used_or_a_listed_entry_point():
    unused = sorted(
        qual for qual, name in unused_definitions().items()
        if not name.startswith("_") and qual not in ENTRY_POINTS
    )
    assert unused == [], "move test-only helpers into the tests that use them"


def test_every_private_helper_is_used_by_the_package():
    unused = sorted(qual for qual, name in unused_definitions().items() if name.startswith("_"))
    assert unused == [], "delete the helpers the package no longer calls"


def test_every_listed_entry_point_exists():
    assert set(ENTRY_POINTS) <= set(definitions())


def test_no_listed_entry_point_is_used_by_the_package():
    used = referenced_names()
    stale = sorted(qual for qual in ENTRY_POINTS if qual.rsplit(".", 1)[1] in used)
    assert stale == [], "drop it from ENTRY_POINTS"


def test_solver_modules_hold_only_what_the_solver_reads():
    """A function or method of a solver module that only the spec
    modules, the tests or the benchmark read belongs in
    ``characteristics`` (spec code) or nowhere.

    The rule matches bare names, so a definition whose name something
    else off the spec path also carries passes unseen: it cannot tell
    ``Pattern.neighbors`` from ``Graph.neighbors``, for one.  Such a
    definition has to be moved by hand."""
    used = referenced_names(skip=SPEC_MODULES)
    spec_only = sorted(
        qual for qual, name in definitions().items()
        if qual.split(".", 1)[0] in SOLVER_MODULES and name not in used
    )
    assert spec_only == sorted(SOLVER_ONLY_EXCEPTIONS), "move it into characteristics"


def unused_imports() -> list[str]:
    """module.name for each name a package module imports, ``__future__``
    features aside, but neither loads nor lists in its ``__all__``."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        out += [f"{path.stem}.{name}" for name in sorted(imported - used)]
    return out


def test_every_import_is_used():
    assert unused_imports() == [], "delete the imports the module no longer reads"
