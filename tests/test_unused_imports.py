"""Every name a `parahiggs` module imports is used in that module, every
private module-level helper is used somewhere in the package, and every public
one, and every named method of a class, is used in the package or its scripts
unless it is listed as test-only API.

A static scan: each module is parsed, and every name bound by an import must
occur as a name in the module body or be re-exported through `__all__`; every
module-level `def` or `class` whose name starts with `_` must occur as a name,
an attribute or an imported name in some module of the package; every other
module-level `def` or `class`, and every method of a module-level class that
is not a dunder, must occur so in the package or in `scripts/`.  A plain
method counts as used only when its name occurs as an attribute, `x.name`, so
a same-named function or builtin (`divmod(...)`) cannot hide it, though one
attribute use covers it in every class; a `staticmethod` or `classmethod`
counts as used only when it is referenced through its own class, as
`Cls.name` anywhere or as `self.name` or `cls.name` inside that class, so a
same-named method elsewhere cannot hide it.
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
    "dimensions.higgs_moduli_dim": "dim of the Higgs moduli on its own, an oracle for identity_suite, which doubles the moduli dim it has",
    "dimensions.rh_genus_crosscheck": "the Riemann-Hurwitz genus on its own, an oracle for identity_suite, which calls its integer kernel",
    "dimensions.eigenline_degree_sqrt_twist": "eigenline degree under the square-root normalization",
    "dimensions.eigenline_reconciliation": "the two eigenline normalizations differ by the ramification degree",
    "dimensions.sqrt_parity_check": "parity of the class whose square root the normalization takes",
    "dimensions.pardeg_identity": "parabolic degree forced by self-duality",
    "groups.GroupSpec.so_odd": "constructor beside GroupSpec.sp and GroupSpec.so_even, for tests",
    "higgs.HiggsField.from_grid": "clears a hand-built grid of rational functions into a field, for tests",
    "higgs.HiggsField.matrix": "Phi as reduced rational functions, for tests and the benchmark's operand-size probe",
    "higgs.semisimple_residue_control": "control field with semisimple residues, for the parabolic checks",
    "poly.RationalFunction.make": "one reduced entry from hand-written polynomials; seven test modules build fields with it",
    "poly.UniPoly.divmod": "polynomial division with remainder, the exact-division oracle of the tests",
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


def class_bound(item: ast.FunctionDef) -> bool:
    return any(isinstance(dec, ast.Name) and dec.id in ("staticmethod", "classmethod") for dec in item.decorator_list)


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, name, owner) of each public module-level def or class
    and of each non-dunder method of a module-level class; owner is None for a
    module-level def or class, the class of a staticmethod or classmethod, and
    "" for a plain method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    owner = node.name if class_bound(item) else ""
                    yield f"{module}.{node.name}.{item.name}", item.name, owner


def class_references(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each reference Cls.name in the module, and for each
    self.name or cls.name inside a module-level class Cls."""
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    }
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        refs.update(
            (cls.name, node.attr)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
        )
    return refs


def test_no_dead_public_helpers():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    scripts = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scripts").glob("*.py"))]
    everything = [*trees.values(), *scripts]
    referenced = set().union(*(referenced_names(tree) for tree in everything))
    attributes = {node.attr for tree in everything for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    through_class = set().union(*(class_references(tree) for tree in everything))

    def used(name: str, owner: str | None) -> bool:
        if owner:
            return (owner, name) in through_class
        return name in (referenced if owner is None else attributes)

    dead = [
        qualified
        for module, tree in trees.items()
        for qualified, name, owner in public_definitions(module, tree)
        if not used(name, owner)
    ]
    assert sorted(dead) == sorted(TEST_ONLY_API)
