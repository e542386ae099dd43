"""Layout guards, read from the modules' syntax trees.

Exponent bookkeeping stays in tiltlab.core: scaling indices between
lattices (LayerRing.rescale), the absolute index
(LayerElem.index_valuation) and the variable-cap rule
(LayerRing.var_cap_index) each live in one place.  The tests fail when
another module builds elements from raw items through the private
_from_items, or compares against var_cap or var_den by hand instead of
reading var_cap_index.

No module of the package maps through tiltlab.parallel (the checks are
serial), and every name the package exports has a reader somewhere in
src/, tests/ or perfbench/ beyond its own definition.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltlab"

# The epsilon-certificate replay splits x^p by hand on purpose: it re-checks
# find_epsilon with plain ring arithmetic, independent of the code it checks.
FROM_ITEMS_ALLOWED = {("ramified.py", "verify_epsilon_certificate")}


def _modules():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "core.py"]
    assert {"towers.py", "tilts.py", "monoidal.py", "ramified.py"} <= {p.name for p in paths}
    return paths


def _functions_and_nodes(tree):
    """(enclosing top-level function name or None, node) for every node."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            yield name, node


def _from_items_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno} in {owner}"
        for owner, node in _functions_and_nodes(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "_from_items"
        and (path.name, owner) not in FROM_ITEMS_ALLOWED
    ]


def _hand_cap_comparisons(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        attrs = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if attrs & {"var_cap", "var_den"}:
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_modules_outside_core_do_not_build_from_items():
    found = [hit for path in _modules() for hit in _from_items_calls(path)]
    assert found == []


def test_modules_outside_core_read_the_cap_through_var_cap_index():
    found = [hit for path in _modules() for hit in _hand_cap_comparisons(path)]
    assert found == []


def _imported_modules(tree):
    """Dotted names of the modules a package module imports; relative
    imports are resolved against tiltlab."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tiltlab" if node.level else None, node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_no_module_imports_parallel():
    found = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "tiltlab.parallel"
        in set(_imported_modules(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert found == []


def _references(tree):
    """Names a module reads, imports or spells as a string; not the names
    it binds by def, class or assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_export_has_a_reader():
    init = PACKAGE / "__init__.py"
    exported = {
        alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path != init:
                read.update(_references(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(exported - read) == []
