"""Layout guards, read from the modules' syntax trees.

Exponent bookkeeping stays in tiltlab.core: moving indices between
lattices (LayerRing.rescale and LayerRing.key_image), the absolute index
(LayerElem.index_valuation), the variable-cap rule
(LayerRing.var_cap_index) and the keying rule (LayerRing.keeps_key: under
the cap and, in characteristic p, below the window) each live in one
place.  The tests fail when another module builds elements from raw keys
through either private constructor, _from_items or its one-term case
_term, compares against var_cap or var_den by hand instead of reading
var_cap_index, or reads a ring's window instead of asking keeps_key; and
when keeps_key is defined anywhere but LayerRing, or any of _from_items,
_term and key_image (the key-level form the tower maps use) stops keeping
keys by it or tests the window or the cap itself.

No module of the package maps through tiltlab.parallel (the checks are
serial), and every name the package exports has a reader somewhere in
src/, tests/ or perfbench/ beyond its own definition.

A mixed-characteristic layer ring, LayerRing(..., n_digits=...), is built
in one place, towers.build_tower, core included: every tower layer comes
from a TowerSpec and its checks.

The p-th power ladder, LayerRing._chain_pow_p, has one caller,
LayerElem.p_power, which runs it on the unit part of its input: no second
power routine climbs the ladder beside the one that reads the valuation.

Each routine has one copy.  The one loop over an exponent's bits from
the right, core._square_and_multiply, is every general ** of LayerElem
and of closure.ExplicitElem; the ladder's p-th power,
LayerRing._chain_pow_p, walks the bits of p from the left on chain values
and is the one loop that does.  LayerElem.p_power divides a non-unit by
t^v with divide_by_monomial and shifts back with *, so it holds no divmod
of its own.  multiplicativity_trial and lift_independence_trial differ
only in their draws: monoidal._sharp_trial is their one loop and builds
their one Verdict, and each trial's name is spelled only as its argument.

A layer without variables has one product, LayerRing._chain_mul: it alone
reads the sparse limit and calls either kernel, and only _mul (for *) and
the ladder's _chain_pow_p call it, so the sparse-or-dense rule and the
kernel calls live in one place.

Product towers have one rule, verdict.per_component: no other module
builds a "component_i" details key or a "component i: " witness prefix.

The pure-Python kernels have one product path: _kernels_py._product is
read only by the two kernels and its own recursion, the module reads no
environment and imports no os, so nothing can select another path, and
the kernels' signatures stay as core calls them.

Each tower map has one key-level definition, a hook on TowerHandle
(transition_key, tbar_key, frob_key, and sharp_key for the monoidal map).
Only the axioms' pair walk, the element maps derived from the hooks and
the monoidal basis passes' two key sides (the reduced sharp_key image and
the frob_key/tbar_key chain) read them, and no class in src/ but
ProductTower, whose maps go componentwise, overrides the element tbar or
frob, so every map the handles offer is the one the walk checks.  In
towers.py only frob_projection and the handles' own methods call the
element .frob or .tbar: the walk maps keys, and no second walk, an
oracle's included, maps the basis again.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tiltlab"

# The epsilon-certificate replay splits x^p by hand on purpose: it re-checks
# find_epsilon with plain ring arithmetic, independent of the code it checks.
FROM_ITEMS_ALLOWED = {("ramified.py", "verify_epsilon_certificate")}
RAW_CONSTRUCTORS = {"_from_items", "_term"}


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


def _raw_constructor_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno} in {owner}"
        for owner, node in _functions_and_nodes(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in RAW_CONSTRUCTORS
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
    found = [hit for path in _modules() for hit in _raw_constructor_calls(path)]
    assert found == []


def test_modules_outside_core_read_the_cap_through_var_cap_index():
    found = [hit for path in _modules() for hit in _hand_cap_comparisons(path)]
    assert found == []


def _window_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "window"
    ]


def test_modules_outside_core_key_through_keeps_key():
    found = [hit for path in _modules() for hit in _window_reads(path)]
    assert found == []


def _methods_reading(tree, attr):
    """Names of the functions whose bodies read the attribute attr."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(node))
    }


def test_the_keying_rule_has_one_definition_in_core():
    defined = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, node in _functions_and_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name == "keeps_key"
    ]
    assert defined == ["core.LayerRing"]
    core = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    canonicalisers = {"_from_items", "_term", "key_image"}
    assert canonicalisers <= _methods_reading(core, "keeps_key")
    for attr in ("window", "var_cap_index"):
        assert canonicalisers.isdisjoint(_methods_reading(core, attr)), attr


def _mixed_layer_builds(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.stem}.{owner}"
        for owner, node in _functions_and_nodes(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "LayerRing"
        and any(kw.arg == "n_digits" for kw in node.keywords)
    ]


def test_only_build_tower_builds_a_mixed_layer():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _mixed_layer_builds(path)]
    assert found == ["towers.build_tower"]


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


MAP_CALLERS = {"frob_projection", "TowerHandle", "ProductTower"}


def _map_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{node.lineno} in {owner}"
        for owner, node in _functions_and_nodes(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"frob", "tbar"}
        and owner not in MAP_CALLERS
    ]


def test_only_the_pair_walk_maps_the_basis_in_towers():
    assert _map_calls(PACKAGE / "towers.py") == []


HOOKS = {"transition_key", "tbar_key", "frob_key", "sharp_key"}
HOOK_READERS = {
    "towers._check_pairs",
    "towers.TowerHandle.transition",
    "towers.TowerHandle.tbar",
    "towers.TowerHandle.frob",
    "monoidal._reduced_sharp_keys",
    "monoidal._reduction_chains",
}
ELEMENT_MAP_OWNERS = {"TowerHandle", "ProductTower"}


def _methods_and_nodes(tree):
    """(Class.method, or the top-level function's name, or None; node)."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                name = f"{top.name}.{item.name}" if isinstance(item, ast.FunctionDef) else None
                for node in ast.walk(item):
                    yield name, node
        else:
            name = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                yield name, node


def test_only_the_walk_and_the_element_maps_read_the_hooks():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [
            f"{path.stem}.{owner}:{node.lineno}"
            for owner, node in _methods_and_nodes(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in HOOKS
            and f"{path.stem}.{owner}" not in HOOK_READERS
        ]
    assert found == []


def test_no_element_tbar_or_frob_escapes_the_walk():
    overrides = [
        f"{path.stem}.{cls.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(cls, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name in {"tbar", "frob"}
            for item in cls.body
        )
    ]
    assert sorted(overrides) == sorted(f"towers.{name}" for name in ELEMENT_MAP_OWNERS)


# "component_{i}" keys and "component {i}: " prefixes, with an f-string's
# fields read as {}; "component {i} of a depth-m tilt" is not one.
PRODUCT_RULE_TEXT = re.compile(r"component(_| (\{\}|\d+): )")


def _product_rule_strings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(
                v.value if isinstance(v, ast.Constant) else "{}" for v in node.values
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = node.value
        else:
            continue
        if PRODUCT_RULE_TEXT.search(text):
            out.append(f"{path.name}:{node.lineno}")
    return out


def test_only_verdict_builds_the_product_rule():
    found = [
        hit for path in sorted(PACKAGE.glob("*.py")) for hit in _product_rule_strings(path)
    ]
    assert found and all(hit.startswith("verdict.py:") for hit in found), found


def test_the_power_ladder_has_one_caller():
    callers = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, node in _methods_and_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "_chain_pow_p"
    ]
    assert callers == ["core.LayerElem.p_power"]


def test_layers_without_variables_have_one_product():
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    readers, callers = {}, set()
    for owner, node in _methods_and_nodes(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_backend":
            readers.setdefault(node.attr, []).append(owner)
        elif isinstance(node, ast.Name) and node.id == "_SPARSE_LIMIT":
            if isinstance(node.ctx, ast.Load):
                readers.setdefault(node.id, []).append(owner)
        elif isinstance(node, ast.Attribute) and node.attr == "_chain_mul":
            callers.add(owner)
    one = ["LayerRing._chain_mul"]
    assert readers == {"eisenstein_mul": one, "window_mul": one, "_SPARSE_LIMIT": one}
    assert callers == {"LayerRing._mul", "LayerRing._chain_pow_p"}
    elsewhere = [
        path.name
        for path in _modules()
        if "_chain_mul" in set(_references(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert elsewhere == []


KERNELS = PACKAGE / "_kernels_py.py"
KERNEL_SIGNATURES = {
    "eisenstein_mul": ["a", "b", "e", "p", "pmod"],
    "window_mul": ["a", "b", "window", "p"],
    "_product": ["x", "y"],
    "_pack": ["coeffs", "width", "max_coeff"],
    "_unpack": ["value", "width", "count"],
}


def test_the_kernels_multiply_through_one_product():
    readers = [
        f"{path.stem}.{owner}"
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, node in _methods_and_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if "_product" in (getattr(node, "id", None), getattr(node, "attr", None))
        or (isinstance(node, ast.alias) and node.name == "_product")
    ]
    assert set(readers) == {
        "_kernels_py.eisenstein_mul", "_kernels_py.window_mul", "_kernels_py._product"
    }, readers


def test_the_kernels_read_no_environment():
    tree = ast.parse(KERNELS.read_text(encoding="utf-8"))
    assert set(_imported_modules(tree)) <= {"sys", "array", "array.array"}
    assert set(_references(tree)).isdisjoint({"os", "environ", "getenv", "environb", "argv"})


def test_the_kernel_signatures_are_unchanged():
    tree = ast.parse(KERNELS.read_text(encoding="utf-8"))
    found = {
        node.name: node.args
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in KERNEL_SIGNATURES
    }
    assert sorted(found) == sorted(KERNEL_SIGNATURES)
    for name, args in found.items():
        assert [arg.arg for arg in args.args] == KERNEL_SIGNATURES[name], name
        assert not (args.posonlyargs or args.kwonlyargs or args.vararg or args.kwarg), name
        assert not args.defaults, name


def _bit_loops(tree):
    """(owner, node) of each loop that shifts a name right in place, and of
    each loop over bin(...): the two ways to walk an exponent's bits."""
    for owner, node in _methods_and_nodes(tree):
        if isinstance(node, ast.While) and any(
            isinstance(n, ast.AugAssign) and isinstance(n.op, ast.RShift) for n in ast.walk(node)
        ):
            yield "right", owner
        elif isinstance(node, ast.For) and any(
            isinstance(n, ast.Call) and getattr(n.func, "id", None) == "bin"
            for n in ast.walk(node.iter)
        ):
            yield "left", owner


def test_src_has_one_square_and_multiply_loop():
    found = sorted(
        (way, f"{path.stem}.{owner}")
        for path in sorted(PACKAGE.glob("*.py"))
        for way, owner in _bit_loops(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == [("left", "core.LayerRing._chain_pow_p"),
                     ("right", "core._square_and_multiply")]


TRIAL_NAMES = {"sharp_multiplicativity", "sharp_lift_independence"}


def test_both_trials_build_their_verdict_in_one_loop():
    tree = ast.parse((PACKAGE / "monoidal.py").read_text(encoding="utf-8"))
    spelled = []
    for owner, node in _methods_and_nodes(tree):
        if isinstance(node, ast.Call):
            for arg in [*node.args, *(kw.value for kw in node.keywords)]:
                if isinstance(arg, ast.Constant) and arg.value in TRIAL_NAMES:
                    spelled.append((owner, getattr(node.func, "id", None), arg in node.args))
    assert sorted(spelled) == [
        ("lift_independence_trial", "_sharp_trial", True),
        ("multiplicativity_trial", "_sharp_trial", True),
    ]
    elsewhere = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "monoidal.py"
        and TRIAL_NAMES & set(_references(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert elsewhere == []
    helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_sharp_trial")
    builds = [n for n in ast.walk(helper)
              if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Verdict"]
    assert len(builds) == 1
    assert [kw.value.id for kw in builds[0].keywords if kw.arg == "name"] == ["name"]


def test_p_power_divides_and_shifts_through_core():
    tree = ast.parse((PACKAGE / "core.py").read_text(encoding="utf-8"))
    nodes = [node for owner, node in _methods_and_nodes(tree) if owner == "LayerElem.p_power"]
    names = {getattr(n, "id", getattr(n, "attr", None)) for n in nodes}
    assert "divmod" not in names
    assert "divide_by_monomial" in names
