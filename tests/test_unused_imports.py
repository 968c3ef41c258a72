"""Every name a `parahiggs` module or a script imports is used there, every
private module-level helper is used somewhere in the package, and every public
one, and every named method of a class, is used by live code of the package or
its scripts unless it is listed as test-only API.

A static scan: each module and script is parsed, and every name bound by an
import must occur as a name in its body or be re-exported through `__all__`.
A private module-level `def` or `class` must be read as a name (`name`) or
imported (`from m import name`) in some module of the package.  The public
scan counts only uses from live code: every script, every module-level
statement of the package outside a def or class, and the code of every
definition that live code uses, found by a fixpoint.  So a use from inside a
test-only definition, or from inside one that only test-only code uses, does
not count, and neither does an import: the names it binds count where live
code reads them.  A public module-level `def` or `class` must be read there
as a name (`name`) or exported through `__all__`.  An attribute `x.name` does
not count for it, so a same-named field or method (`report.prym_dim`) cannot
hide it.  Every method of a module-level class that is not a dunder must be
used there too; a class's dunder methods run with the class.  A method
counts as used when it is referenced through its own class, as `Cls.name`
anywhere or as `self.name` or `cls.name` inside that class.  A plain method
also counts as used when its name occurs as an attribute, `x.name`, so a
same-named function or builtin (`divmod(...)`) cannot hide it; but when
another class of the package also declares that name (as a method, a
`__slots__` entry, an attribute its `__init__` sets on `self` or a NamedTuple
field), such a use cannot tell the two apart, so it counts only for a method
listed, with its reason, in `ATTRIBUTE_COLLISIONS`.  A `staticmethod` or
`classmethod` counts as used only through its own class.  No public function
or method takes a `_`-prefixed parameter, the mark of a hook that only tests
turn on.
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
    "curves.FixedPointReport": "the record involution_fixed_points returns (acceptance test c09)",
    "dimensions.spectral_genus": "the adjunction genus of a cover of any degree r, which no row has (acceptance tests c03, c07)",
    "dimensions.ramification_degree": "the ramification degree of a cover of any degree r, for the eigenline checks in tests/helpers.py (c07)",
    "dimensions.rh_genus_crosscheck": "the Riemann-Hurwitz genus on its own, an oracle for identity_suite, which calls its integer kernel",
    "higgs.CharData.pole_order": "the pole order of one s_i at one point, the oracle of strong_parabolic_check, which splits Delta once per field",
    "higgs.HiggsField.matrix": "Phi as reduced rational functions, for tests and the benchmark's operand-size probe",
    "poly.UniPoly.divmod": "polynomial division with remainder, the exact-division oracle of the tests",
    "poly.is_squarefree": "the squarefree test of hyperelliptic_genus (acceptance test c09) and the curve tests",
}

# Plain methods used only as `x.name` where another package class declares the
# same name, with the use that keeps each one.  An entry whose name stops
# colliding, or that gains a use through its own class, must leave the list.
ATTRIBUTE_COLLISIONS = {
    "curves.SingularReport.to_dict": "cli._spectral_section writes the smoothness report as smooth.to_dict()",
    "dimensions.DimensionReport.passed": "cli._run_suite reads r.passed",
    "dimensions.DimensionReport.to_dict": "cli._format_reports writes dims and sweep JSON as r.to_dict()",
    "dimensions.LineBundleClass.degree": "dimensions.h0_rr reads cls.degree(p)",
    "groups.GroupSpec.dim_flag": "dimensions._GroupData reads group.dim_flag",
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


def exported_names(statements) -> set[str]:
    """The names listed in an `__all__ = [...]` among the statements."""
    return {
        elt.value
        for node in statements
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for elt in node.value.elts
    }


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported_names(tree.body)


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
    attribute (a record field, a method) would otherwise hide."""
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


def is_named_tuple(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "NamedTuple"
            or isinstance(node, ast.Attribute) and node.attr == "NamedTuple")


def declared_names(cls: ast.ClassDef) -> set[str]:
    """Names a class declares: its methods, its `__slots__` entries, each
    `self.name` its `__init__` assigns, the field names of a
    `NamedTuple("Name", [(field, type), ...])` base and, for a class-syntax
    NamedTuple, its annotated fields."""
    names = {
        field.elts[0].value
        for base in cls.bases
        if isinstance(base, ast.Call) and is_named_tuple(base.func) and len(base.args) == 2
        for field in base.args[1].elts
    }
    class_syntax_named_tuple = any(is_named_tuple(base) for base in cls.bases)
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(item.name)
            if item.name == "__init__":
                names.update(
                    node.attr for node in ast.walk(item)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"
                )
        elif isinstance(item, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__" for target in item.targets
        ):
            names.update(elt.value for elt in item.value.elts)
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and class_syntax_named_tuple:
            names.add(item.target.id)
    return names


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def code_units(module: str, tree: ast.Module):
    """(qualified name, owner, nodes) for each piece of the module that runs
    on its own: each module-level def or class (a class with its bases,
    decorators, attributes and dunder methods) and each non-dunder method,
    and, with qualified name None, each module-level statement outside
    them; owner is the class whose `self` and `cls` the nodes see."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield f"{module}.{node.name}", None, list(ast.walk(node))
        elif isinstance(node, ast.ClassDef):
            methods = {
                item.name: item for item in node.body
                if isinstance(item, DEFS) and not (item.name.startswith("__") and item.name.endswith("__"))
            }
            rest = [*node.bases, *node.keywords, *node.decorator_list,
                    *(item for item in node.body if item not in methods.values())]
            yield f"{module}.{node.name}", node.name, [n for part in rest for n in ast.walk(part)]
            for name, item in methods.items():
                yield f"{module}.{node.name}.{name}", node.name, list(ast.walk(item))
        else:
            yield None, None, list(ast.walk(node))


def unit_uses(owner, nodes) -> tuple[set[str], set[str], set[tuple[str, str]]]:
    """(names, attributes, class references) of one code unit: the names it
    reads, or exports through `__all__`, every attribute name `x.name`, and
    (class, name) for each Cls.name and, inside its owner class, each
    self.name or cls.name.  An import is no use: the names it binds count
    where the code reads them."""
    names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | exported_names(nodes)
    attributes = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
    refs = {
        (owner if owner is not None and n.value.id in ("self", "cls") else n.value.id, n.attr)
        for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
    }
    return names, attributes, refs


def use_scan(trees: dict[str, ast.Module], scripts: list[ast.Module]) -> tuple[list[str], list[str]]:
    """(dead, collided) for the package modules `trees`: the public
    definitions that no live code uses, and the plain methods whose only use
    is an attribute that another class declares.  Live code is every script,
    every module-level statement outside a def or class, and every used
    definition, so a use from inside a test-only definition, or from inside
    one that only test-only code uses, does not count."""
    units = {}
    roots = []
    for module, tree in trees.items():
        for qualified, owner, nodes in code_units(module, tree):
            if qualified is None:
                roots.append(unit_uses(owner, nodes))
            else:
                units[qualified] = unit_uses(owner, nodes)
    for script in scripts:
        roots += [unit_uses(owner, nodes) for _, owner, nodes in code_units("", script)]
    declared = {
        (module, node.name): declared_names(node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    # qualified name -> (name, owner, bound, collides); private module-level
    # definitions are tracked too, since live ones make their callees live
    definitions = {
        f"{module}.{node.name}": (node.name, None, False, False)
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (*DEFS, ast.ClassDef)) and node.name.startswith("_")
    }
    public = []
    for module, tree in trees.items():
        for qualified, name, owner, bound in public_definitions(module, tree):
            collides = owner is not None and any(
                name in names for cls, names in declared.items() if cls != (module, owner))
            definitions[qualified] = name, owner, bound, collides
            public.append(qualified)
    names, attributes, refs = set(), set(), set()

    def used(qualified):
        name, owner, bound, collides = definitions[qualified]
        if owner is None:
            return name in names
        if (owner, name) in refs:
            return True
        if bound or name not in attributes:
            return False
        return not collides or qualified in ATTRIBUTE_COLLISIONS

    live, pending = set(), roots
    while pending:
        for unit_names, unit_attributes, unit_refs in pending:
            names |= unit_names
            attributes |= unit_attributes
            refs |= unit_refs
        fresh = {qualified for qualified in definitions if qualified not in live and used(qualified)}
        live |= fresh
        pending = [units[qualified] for qualified in fresh]
    dead = [qualified for qualified in public if qualified not in live]
    collided = []
    for qualified in public:
        name, owner, bound, collides = definitions[qualified]
        if collides and not bound and (owner, name) not in refs and name in attributes:
            collided.append(qualified)
    return dead, collided


def public_use_scan() -> tuple[list[str], list[str]]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    scripts = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "scripts").glob("*.py"))]
    return use_scan(trees, scripts)


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
        class Plain:
            __slots__ = ("slot",)
            hint: int
        class Made:
            def __init__(self, kind):
                self.kind, self.size = kind, 0
                self.seen = local = None
            def grow(self):
                self.later = 1
        class Checked(NamedTuple("Checked", [("kind", str), ("m", int)])):
            __slots__ = ()
            def __new__(cls, kind, m): ...
    """))
    got = {cls.name: declared_names(cls) for cls in tree.body}
    assert got == {"Row": {"prym_dim", "to_csv_row"}, "Typed": {"genus"}, "Plain": {"slot"},
                   "Made": {"__init__", "kind", "size", "seen", "grow"}, "Checked": {"kind", "m", "__new__"}}

    def declared(module, name):
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        return declared_names(next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == name))

    assert {"spectral_genus", "prym_dim", "chain_verdict", "passed", "to_dict"} <= declared("dimensions", "DimensionReport")
    assert {"kind", "m", "rank_size"} <= declared("groups", "GroupSpec")
    assert {"group", "gram", "cleared", "marked_points", "matrix"} <= declared("higgs", "HiggsField")


def test_uses_from_test_only_code_do_not_count():
    module = ast.parse(textwrap.dedent("""
        from os import sep
        def entry():
            return Box().used() + shared()
        def shared(): ...
        def oracle():
            return _helper() + Box.only_oracle(None)
        def _helper():
            return chain() + shared() + sep
        def chain(): ...
        def ping():
            return pong()
        def pong():
            return ping()
        def recursive():
            return recursive()
        class Box:
            def __init__(self):
                self.made = made()
            def used(self): ...
            def only_oracle(self):
                return self.deeper()
            def deeper(self): ...
        def made(): ...
        def exported(): ...
        __all__ = ["exported"]
    """))
    script = ast.parse("from m import entry\nentry()\n")
    dead, collided = use_scan({"m": module}, [script])
    # a scan that counted every reference would keep all but oracle: chain and
    # deeper have a caller, ping and pong call each other, recursive calls itself
    assert sorted(dead) == ["m.Box.deeper", "m.Box.only_oracle", "m.chain", "m.oracle", "m.ping", "m.pong",
                            "m.recursive"]
    assert collided == []
    dead, _ = use_scan({"m": module}, [])
    assert "m.entry" in dead and "m.made" in dead and "m.exported" not in dead


def hook_parameters(tree: ast.Module, module: str) -> list[str]:
    """Each `_`-prefixed parameter of a public module-level function or of a
    public method of a module-level class, as "module.function(parameter)": a
    parameter that names itself private is a hook for callers outside the
    package, that is, for tests."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    functions = [(node.name, node) for node in tree.body if isinstance(node, defs)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(f"{cls.name}.{item.name}", item) for item in cls.body if isinstance(item, defs)]
    hooks = []
    for qualified, fn in functions:
        if fn.name.startswith("_"):
            continue
        args = fn.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        hooks += [f"{module}.{qualified}({p.arg})" for p in params if p is not None and p.arg.startswith("_")]
    return hooks


def test_no_test_hook_parameters():
    hooks = [
        hook
        for path in sorted(SRC.glob("*.py"))
        for hook in hook_parameters(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert hooks == []


def test_hook_parameters_finds_private_parameters():
    tree = ast.parse(textwrap.dedent("""
        def gen(group, seed, *, _hook=False): ...
        def _private(_x): ...
        class Field:
            def make(self, _a, *_rest, **_opts): ...
            def __init__(self, _b): ...
    """))
    assert hook_parameters(tree, "m") == [
        "m.gen(_hook)", "m.Field.make(_a)", "m.Field.make(_rest)", "m.Field.make(_opts)",
    ]
