"""Every name a `parahiggs` module imports is used in that module, every
private module-level helper is used somewhere in the package, and every public
one, and every named method of a class, is used in the package or its scripts
unless it is listed as test-only API.

A static scan: each module is parsed, and every name bound by an import must
occur as a name in the module body or be re-exported through `__all__`; every
module-level `def` or `class` whose name starts with `_` must occur as a name,
an attribute or an imported name in some module of the package; every other
module-level `def` or `class`, and every method of a module-level class that
is not a dunder, must occur so in the package or in `scripts/`.  A method is
matched by name alone, so one use of a name covers it in every class.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parahiggs"

# Public API that only the tests call today, with the reason each one stays.
# An entry that gains a caller in the package or a script must leave the list.
TEST_ONLY_API = {
    "curves.involution_fixed_points": "fixed points of x -> -x, for the spectral-cover check of ROADMAP item 4",
    "curves.hyperelliptic_genus": "genus of a hyperelliptic quotient, for the Prym check of ROADMAP item 4",
    "dimensions.eigenline_degree_sqrt_twist": "eigenline degree under the square-root normalization",
    "dimensions.eigenline_reconciliation": "the two eigenline normalizations differ by the ramification degree",
    "dimensions.sqrt_parity_check": "parity of the class whose square root the normalization takes",
    "dimensions.pardeg_identity": "parabolic degree forced by self-duality",
    "groups.GroupSpec.so_odd": "constructor beside GroupSpec.sp and GroupSpec.so_even, for tests",
    "higgs.HiggsField.from_grid": "clears a hand-built grid of rational functions into a field, for tests",
    "higgs.semisimple_residue_control": "control field with semisimple residues, for the parabolic checks",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    dead = [
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert dead == []


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, name) of each public module-level def or class and of
    each non-dunder method of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name


def test_no_dead_public_helpers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    scripts = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scripts").glob("*.py"))]
    referenced = set().union(*(referenced_names(tree) for tree in [*trees.values(), *scripts]))
    dead = [
        qualified
        for module, tree in trees.items()
        for qualified, name in public_definitions(module, tree)
        if name not in referenced
    ]
    assert sorted(dead) == sorted(TEST_ONLY_API)
