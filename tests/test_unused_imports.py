"""Every name a `parahiggs` module or a script imports is used there, every
private module-level helper is used somewhere in the package, and every public
one, and every named method of a class, is used in the package or its scripts
unless it is listed as test-only API.

A static scan: each module and script is parsed, and every name bound by an
import must occur as a name in its body or be re-exported through `__all__`.
Every module-level `def` or `class` must be read as a name (`name`) or
imported (`from m import name`): one whose name starts with `_` in some
module of the package, any other in the package or in `scripts/`.  An
attribute `x.name` does not count for it, so a same-named field or method
(`report.prym_dim`) cannot hide it.  Every method of a module-level class
that is not a dunder must be used in the package or in `scripts/`.  A method
counts as used when it is referenced through its own class, as `Cls.name`
anywhere or as `self.name` or `cls.name` inside that class.  A plain method
also counts as used when its name occurs as an attribute, `x.name`, so a
same-named function or builtin (`divmod(...)`) cannot hide it; but when
another class of the package also declares that name (as a method, a
`__slots__` entry or a dataclass or NamedTuple field), such a use cannot tell
the two apart, so it counts only for a method listed, with its reason, in
`ATTRIBUTE_COLLISIONS`.  A `staticmethod` or `classmethod` counts as used only
through its own class.
"""

import ast
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "parahiggs"

# Public API that only the tests call today, with the reason each one stays.
# An entry that gains a caller in the package or a script must leave the list.
TEST_ONLY_API = {
    "curves.involution_fixed_points": "fixed points of x -> -x, for the spectral-cover check of ROADMAP item 7",
    "curves.hyperelliptic_genus": "genus of a hyperelliptic quotient, for the Prym check of ROADMAP item 7",
    "dimensions.hitchin_dim": "dim H of one (group, p) on its own, an oracle for identity_suite, which sums the sections per row",
    "dimensions.prym_dim": "the Prym dimension of one (group, p) on its own, an oracle for identity_suite, which composes its kernel",
    "dimensions.higgs_moduli_dim": "dim of the Higgs moduli on its own, an oracle for identity_suite, which doubles the moduli dim it has",
    "dimensions.rh_genus_crosscheck": "the Riemann-Hurwitz genus on its own, an oracle for identity_suite, which calls its integer kernel",
    "dimensions.eigenline_degree_sqrt_twist": "eigenline degree under the square-root normalization",
    "dimensions.eigenline_reconciliation": "the two eigenline normalizations differ by the ramification degree",
    "dimensions.sqrt_parity_check": "parity of the class whose square root the normalization takes",
    "dimensions.pardeg_identity": "parabolic degree forced by self-duality",
    "groups.GroupSpec.so_odd": "constructor beside GroupSpec.sp and GroupSpec.so_even, for tests",
    "higgs.CharData.pole_order": "the pole order of one s_i at one point, the oracle of strong_parabolic_check, which splits Delta once per field",
    "higgs.HiggsField.from_grid": "clears a hand-built grid of rational functions into a field, for tests",
    "higgs.HiggsField.matrix": "Phi as reduced rational functions, for tests and the benchmark's operand-size probe",
    "higgs.semisimple_residue_control": "control field with semisimple residues, for the parabolic checks",
    "poly.RationalFunction.make": "one reduced entry from hand-written polynomials; seven test modules build fields with it",
    "poly.UniPoly.divmod": "polynomial division with remainder, the exact-division oracle of the tests",
}

# Plain methods used only as `x.name` where another package class declares the
# same name, with the use that keeps each one.  An entry whose name stops
# colliding, or that gains a use through its own class, must leave the list.
ATTRIBUTE_COLLISIONS = {
    "curves.SingularReport.to_dict": "cli._spectral_section writes the smoothness report as smooth.to_dict()",
    "dimensions.DimensionReport.passed": "cli._run_suite reads r.passed",
    "dimensions.DimensionReport.to_dict": "cli._format_reports writes dims and sweep JSON as r.to_dict()",
    "dimensions.LineBundleClass.degree": "dimensions.h0_rr reads cls.degree(p)",
    "groups.GroupSpec.dim_flag": "dimensions.moduli_dim and _GroupData read group.dim_flag",
    "higgs.HiggsField.pfaffian": "curves.twisted_pfaffian and higgs.pfaffian_square_check read fld.pfaffian",
    "higgs.HiggsField.to_dict": "cli.cmd_gen and cli.cmd_reduce_odd write fields as fld.to_dict()",
    "poly.UniPoly.degree": "curves and poly read p.degree of a UniPoly throughout",
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def loaded_names(tree: ast.Module) -> set[str]:
    """Names the module reads, `name`, or imports, `from m import name`; an
    attribute `x.name` is no use of a module-level def, which a same-named
    attribute (a dataclass field, a method) would otherwise hide."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_dead_private_helpers():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(loaded_names(tree) for tree in trees.values()))
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
    """(qualified name, name, owner, bound) of each public module-level def or
    class and of each non-dunder method of a module-level class; owner is
    None for a module-level def or class and the class of a method, and bound
    is True for a staticmethod or classmethod."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, None, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{module}.{node.name}.{item.name}", item.name, node.name, class_bound(item)


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(dec, ast.Name) and dec.id == "dataclass"
        or isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name) and dec.func.id == "dataclass"
        for dec in cls.decorator_list
    )


def is_named_tuple(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Name) and base.id == "NamedTuple"
        or isinstance(base, ast.Attribute) and base.attr == "NamedTuple"
        for base in cls.bases
    )


def declared_names(cls: ast.ClassDef) -> set[str]:
    """Names a class declares: its methods, its `__slots__` entries and, for a
    dataclass or a NamedTuple, its annotated fields."""
    names = set()
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
        elif isinstance(item, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
        ):
            names.update(elt.value for elt in item.value.elts)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and (
            is_dataclass(cls) or is_named_tuple(cls)
        ):
            names.add(item.target.id)
    return names


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


def public_use_scan() -> tuple[list[str], list[str]]:
    """(dead, collided): the public definitions with no use, and the plain
    methods whose only use is an attribute that another class declares."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    scripts = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scripts").glob("*.py"))]
    everything = [*trees.values(), *scripts]
    referenced = set().union(*(loaded_names(tree) for tree in everything))
    attributes = {node.attr for tree in everything for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    through_class = set().union(*(class_references(tree) for tree in everything))
    declared = {
        (module, node.name): declared_names(node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    dead, collided = [], []
    for module, tree in trees.items():
        for qualified, name, owner, bound in public_definitions(module, tree):
            if owner is None:
                if name not in referenced:
                    dead.append(qualified)
            elif (owner, name) in through_class:
                continue
            elif bound or name not in attributes:
                dead.append(qualified)
            elif any(name in names for cls, names in declared.items() if cls != (module, owner)):
                collided.append(qualified)
                if qualified not in ATTRIBUTE_COLLISIONS:
                    dead.append(qualified)
    return dead, collided


def test_no_dead_public_helpers():
    dead, _ = public_use_scan()
    assert sorted(dead) == sorted(TEST_ONLY_API)


def test_attribute_collisions_are_listed():
    _, collided = public_use_scan()
    assert sorted(collided) == sorted(ATTRIBUTE_COLLISIONS)


def test_declared_names_counts_record_fields():
    tree = ast.parse(textwrap.dedent("""
        class Row(NamedTuple):
            prym_dim: int
            def to_csv_row(self): ...
        class Typed(typing.NamedTuple):
            genus: int
        @dataclass(frozen=True)
        class Frozen:
            degree: int
        class Plain:
            __slots__ = ("slot",)
            hint: int
    """))
    got = {cls.name: declared_names(cls) for cls in tree.body}
    assert got == {"Row": {"prym_dim", "to_csv_row"}, "Typed": {"genus"}, "Frozen": {"degree"}, "Plain": {"slot"}}
    dims = ast.parse((SRC / "dimensions.py").read_text(encoding="utf-8"))
    report = next(node for node in dims.body if isinstance(node, ast.ClassDef) and node.name == "DimensionReport")
    assert {"spectral_genus", "prym_dim", "chain_verdict", "passed", "to_dict"} <= declared_names(report)
