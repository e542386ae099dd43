"""Exponent bookkeeping stays in tiltlab.core.

Scaling indices between lattices (LayerRing.rescale), the absolute index
(LayerElem.index_valuation) and the variable-cap rule
(LayerRing.var_cap_index) each live in one place.  This test reads the
other modules' syntax trees and fails when one of them builds elements
from raw items through the private _from_items, or compares against
var_cap or var_den by hand instead of reading var_cap_index.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tiltlab"

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
