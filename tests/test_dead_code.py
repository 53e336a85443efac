"""No dead code in the package: every import a gsos module makes is used in
that module, and the package is what the ``gsos`` command runs.  Every
function, class, assigned name, method and property is reachable in a
name-based call graph from ``cli.main``, from what import time runs, from
the special methods of each class it reaches and from the functions the
benchmark tracer wraps, apart from a short allow-list with a reason for
each entry.  A mention inside code that nothing reaches does not count,
so a helper that only an unused function calls is found too.  Deleting a
function often strands its helpers and imports; this test finds them by
reading each module's syntax tree.  Imports sit at
module level, where these checks and a reader see them.  Every parameter is
read by its function: one that is passed but never read tells the caller a
choice matters when it does not.  No nested function reads its own name:
such a closure leaves a reference cycle behind every call of the function
around it.  One module, ``specdsl``, spells the slot names of a rule
(x1..xn and y{i}_{j}): it validates them and compiles each rule's plan,
which every other module reads."""

import ast
import re
from pathlib import Path

import pytest

import gsos

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(Path(gsos.__file__).parent.glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names read inside quoted annotations such as ``"GsosSpec"``."""
    roots: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    names = set()
    for root in roots:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def _reads(tree: ast.AST) -> set[str]:
    """Names the module reads as variables, in ``__all__`` or in quoted
    annotations."""
    names = _annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _reads(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{module} imports names it never uses: {unused}"


def _names_read(node: ast.AST) -> set[str]:
    """Names read under node: a variable as its name, an attribute as
    ``.name`` whatever its object, and the names inside quoted annotations."""
    return _annotation_names(node) | {
        f".{n.attr}" if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name)) and not isinstance(n.ctx, ast.Store)
    }


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _call_graph(trees: dict) -> tuple[dict[str, set[str]], set[str]]:
    """The definitions and the names that import time reads.

    A definition is a module-level function, class or assigned name
    (``module.name``), or a method or property of a module-level class
    (``module.Class.member``); it maps to the names it reads.  A class
    reads its bases, keywords and decorators; an assignment reads its
    value.  Every other module-level or class-level statement runs when the
    module is imported, so the names it reads are roots, and so are the
    entries of ``__all__``."""
    defs: dict[str, set[str]] = {}
    roots: set[str] = set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{module}.{node.name}"] = _names_read(node)
            elif isinstance(node, ast.ClassDef):
                header = [*node.bases, *node.keywords, *node.decorator_list]
                defs[f"{module}.{node.name}"] = set().union(*map(_names_read, header))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        defs[f"{module}.{node.name}.{item.name}"] = _names_read(item)
                    else:
                        roots |= _names_read(item)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
                if bound == ["__all__"]:
                    roots |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
                    continue
                read = _names_read(node.value) if node.value is not None else set()
                defs.update((f"{module}.{name}", read) for name in bound)
            else:
                roots |= _names_read(node)
    return defs, roots


def _reached(trees: dict, roots) -> set[str]:
    """The definitions reachable from the named root definitions and from
    what import time reads.  Reading a variable reaches the module-level
    definitions of that name; reading an attribute reaches every
    definition of that name, a member or a module-level one (``mod.f``).
    Reaching a class reaches its special methods, which Python calls for it."""
    defs, read_at_import = _call_graph(trees)
    by_name: dict[str, list[str]] = {}
    for qualified in defs:
        name = qualified.rsplit(".", 1)[1]
        by_name.setdefault(f".{name}", []).append(qualified)
        if qualified.count(".") == 1:
            by_name.setdefault(name, []).append(qualified)
    todo = [q for q in roots if q in defs]
    todo += [q for name in read_at_import for q in by_name.get(name, [])]
    reached: set[str] = set()
    while todo:
        q = todo.pop()
        if q in reached:
            continue
        reached.add(q)
        todo += [d for name in defs[q] for d in by_name.get(name, [])]
        todo += [d for d in defs if d.startswith(f"{q}.") and _is_dunder(d.rsplit(".", 1)[1])]
    return reached


def _unreachable(trees: dict, roots, allowed) -> list[str]:
    """Each definition that neither the roots nor the allowed entries
    reach, by qualified name."""
    reached = _reached(trees, [*roots, *allowed])
    return sorted(set(_call_graph(trees)[0]) - reached)


def _stale_allowances(trees: dict, roots, allowed) -> list[str]:
    """Allow-list entries that name nothing defined, or a definition the
    roots reach without them."""
    defined, reached = _call_graph(trees)[0], _reached(trees, roots)
    return sorted(q for q in allowed if q not in defined or q in reached)


def _traced(path: Path) -> tuple:
    """The (module, attribute path) pairs of the ``TRACED`` tuple that the
    benchmark tracer wraps, read from its source."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path} defines no TRACED tuple")


# The program is what ``gsos`` runs, and the benchmark tracer wraps some of
# its functions by name.
ROOTS = (
    "cli.main",
    *(f"{module}.{path}" for module, path in _traced(ROOT / "perfbench" / "tracing.py")),
)

# Definitions the roots do not reach, each with the reason it stays.
ALLOWED_UNREACHED = {
    "cellular.unique_R0": "the two-layer witness; ROADMAP item 1's local cartesianness check calls it",
    "bisim.check_bisimulation_relation": "ROADMAP item 2 checks a true bisim answer's witness with it",
    "bisim.refinement_fixpoint": "ROADMAP item 2 refines to it before checking that witness",
    "cli._ArgumentParser.error": "argparse calls it on a malformed command line",
}


def _private(qualified: str) -> bool:
    return qualified.rsplit(".", 1)[1].startswith("_")


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    """Every private definition of the module, at module level or in a
    class, is named by code that the program reaches."""
    dead = [
        q for q in _unreachable(TREES, ROOTS, ALLOWED_UNREACHED)
        if q.split(".", 1)[0] == module and _private(q)
    ]
    assert not dead, f"{module} defines private names that cli.main cannot reach: {dead}"


def test_every_public_name_is_referenced():
    dead = [
        q for q in _unreachable(TREES, ROOTS, ALLOWED_UNREACHED)
        if not _private(q) and q.count(".") == 1
    ]
    assert not dead, f"public names that cli.main cannot reach: {dead}"


def test_every_public_member_is_referenced():
    dead = [
        q for q in _unreachable(TREES, ROOTS, ALLOWED_UNREACHED)
        if not _private(q) and q.count(".") == 2
    ]
    assert not dead, f"methods and properties that cli.main cannot reach: {dead}"


def test_roots_name_definitions():
    """A root that names nothing would leave what it called unchecked."""
    defined = _call_graph(TREES)[0]
    assert [q for q in ROOTS if q not in defined] == []


def test_allow_list_is_short_and_current():
    assert len(ALLOWED_UNREACHED) <= 10
    assert all(reason for reason in ALLOWED_UNREACHED.values())
    assert _stale_allowances(TREES, ROOTS, ALLOWED_UNREACHED) == []


# A module whose entry point calls one function; another function calls
# only itself and a helper, and is named only in a string.
SYNTHETIC = {
    "lib": ast.parse(
        "def main():\n"
        "    return used()\n"
        "\n"
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else {'orphan': helper()}\n"
        "\n"
        "def helper():\n"
        "    return 0\n"
        "\n"
        "def used():\n"
        "    return 0\n"
    )
}


def test_public_name_check_flags_an_unreferenced_function():
    """The helper is referenced, by the orphan, but the entry point reaches
    neither; a rule that counts any mention as a use flags only the
    orphan."""
    assert _unreachable(SYNTHETIC, ["lib.main"], {}) == ["lib.helper", "lib.orphan"]
    assert _unreachable(SYNTHETIC, ["lib.main"], {"lib.orphan": "a reason"}) == []


def test_stale_allowance_is_reported():
    allowed = {"lib.orphan": "a reason", "lib.used": "now reached", "lib.gone": "no longer defined"}
    assert _stale_allowances(SYNTHETIC, ["lib.main"], allowed) == ["lib.gone", "lib.used"]


# A class whose method only calls itself and a private method, and is named
# only in a string; its property is read by the entry point, and its width
# only by a function that nothing calls.  Its special method runs for it.
SYNTHETIC_CLASS = {
    "lib": ast.parse(
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 0\n"
        "\n"
        "    def width(self):\n"
        "        return 0\n"
        "\n"
        "    def orphan(self, n):\n"
        "        return self.orphan(n - 1) if n else {'orphan': self._hidden()}\n"
        "\n"
        "    def _hidden(self):\n"
        "        return 0\n"
        "\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "def main():\n"
        "    return Box().size\n"
        "\n"
        "def width_of(box):\n"
        "    return box.width()\n"
    )
}


def test_member_check_flags_an_unreferenced_method():
    assert _unreachable(SYNTHETIC_CLASS, ["lib.main"], {}) == [
        "lib.Box._hidden", "lib.Box.orphan", "lib.Box.width", "lib.width_of"
    ]
    allowed = {"lib.Box.orphan": "a reason", "lib.width_of": "a reason"}
    assert _unreachable(SYNTHETIC_CLASS, ["lib.main"], allowed) == []
    assert _stale_allowances(SYNTHETIC_CLASS, ["lib.main"], {"lib.Box.size": "read"}) == [
        "lib.Box.size"
    ]


# A method that nothing calls, named like a local variable that the entry
# point reads, and a function that the entry point calls as a module
# attribute.
SYNTHETIC_LOCAL = {
    "lib": ast.parse(
        "import lib\n"
        "\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return 0\n"
        "\n"
        "def main():\n"
        "    size = 3\n"
        "    return Box(), size + lib.helper()\n"
        "\n"
        "def helper():\n"
        "    return 0\n"
    )
}


def test_member_check_flags_a_method_named_like_a_local():
    """A variable reaches only module-level definitions, and an attribute
    read reaches members and module-level definitions alike."""
    assert _unreachable(SYNTHETIC_LOCAL, ["lib.main"], {}) == ["lib.Box.size"]
    assert "terms.Node.label" in _reached(TREES, ROOTS)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_import_inside_a_function(module):
    nested = [
        f"{func.name} (line {node.lineno})"
        for func in ast.walk(TREES[module])
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not nested, f"{module} imports inside functions: {nested}"


def _unread_parameters(func: ast.AST) -> list[str]:
    """Parameters of a function or lambda that its body never reads."""
    if isinstance(func, ast.Lambda):
        body = [func.body]
    elif func.name.startswith("__") and func.name.endswith("__"):
        return []
    else:
        body = func.body
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {p.arg for p in params if p is not None} - {"self", "cls"}
    read = {
        n.id
        for stmt in body
        for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
    }
    return sorted(n for n in names - read if not n.startswith("_"))


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_parameter_is_read(module):
    unread = [
        f"{getattr(func, 'name', 'lambda')} (line {func.lineno}): {name}"
        for func in ast.walk(TREES[module])
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for name in _unread_parameters(func)
    ]
    assert not unread, f"{module} has parameters nothing reads: {unread}"


def _nested_functions(node: ast.AST, enclosing=None):
    """(enclosing function, name, function) of each function defined inside
    another: a def, or a lambda bound to one name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if enclosing is not None:
                yield enclosing, child.name, child
            yield from _nested_functions(child, child)
            continue
        if (
            enclosing is not None
            and isinstance(child, ast.Assign)
            and isinstance(child.value, ast.Lambda)
            and [type(t) for t in child.targets] == [ast.Name]
        ):
            yield enclosing, child.targets[0].id, child.value
        yield from _nested_functions(child, enclosing)


def _self_referencing_closures(trees: dict) -> list[str]:
    """``module.outer.inner`` of each nested function that reads its own
    name.  Such a closure holds a cell that holds the closure, so every call
    of the outer function leaves a reference cycle for the cyclic garbage
    collector; a module-level recursion leaves none."""
    found = []
    for module, tree in sorted(trees.items()):
        for outer, name, func in _nested_functions(tree):
            body = func.body if isinstance(func.body, list) else [func.body]
            if any(
                isinstance(n, ast.Name) and n.id == name and not isinstance(n.ctx, ast.Store)
                for stmt in body
                for n in ast.walk(stmt)
            ):
                found.append(f"{module}.{outer.name}.{name}")
    return found


def test_no_closure_reads_its_own_name():
    found = _self_referencing_closures(TREES)
    assert not found, f"nested functions that read their own name: {found}"


# Two closures that call themselves, one that calls another, one that
# reads an attribute of its own name, a module-level recursion and a
# method: only the first two are flagged.
SYNTHETIC_CLOSURES = {
    "lib": ast.parse(
        "def walk(t):\n"
        "    def go(u):\n"
        "        return [go(c) for c in u]\n"
        "    count = lambda u: 1 + sum(count(c) for c in u)\n"
        "    size = lambda u: len(u)\n"
        "    def leaf(u):\n"
        "        return size(u)\n"
        "    def shape(u):\n"
        "        return u.shape\n"
        "    return go(t), count(t), leaf(t), shape(t)\n"
        "\n"
        "def flat(t):\n"
        "    return [flat(c) for c in t]\n"
        "\n"
        "class Box:\n"
        "    def size(self):\n"
        "        return self.size()\n"
    )
}


def test_closure_check_flags_a_self_referencing_closure():
    assert _self_referencing_closures(SYNTHETIC_CLOSURES) == ["lib.walk.go", "lib.walk.count"]


_SLOT = re.compile(r"x\d+|y\d+_\d+")


def _slot_spellings(tree: ast.AST) -> list[str]:
    """Each string constant or f-string under tree that spells a rule slot
    (``x<n>`` or ``y<n>_<n>``), with its line; an f-string is read with a
    digit for each formatted value, so ``f"x{i + 1}"`` spells ``x0``."""
    found = []
    nested = {id(v) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) for v in n.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(
                v.value if isinstance(v, ast.Constant) else "0" for v in node.values
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in nested:
                continue
            text = node.value
        else:
            continue
        if _SLOT.fullmatch(text):
            found.append(f"{text!r} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", sorted(set(TREES) - {"specdsl"}))
def test_only_specdsl_spells_rule_slots(module):
    found = _slot_spellings(TREES[module])
    assert not found, f"{module} spells rule slot names: {found}"


def test_slot_check_flags_constants_and_f_strings():
    tree = ast.parse(
        "def bind(xs, i, j):\n"
        "    first = Var('x1')\n"
        "    mapping = {f'x{i + 1}': xs[i], f'y{i + 1}_{j + 1}': None}\n"
        "    return f'occ{i}', f'{i}x1', 'x', 'x1y', first, mapping\n"
    )
    assert [s.split()[0] for s in _slot_spellings(tree)] == ["'x1'", "'x0'", "'y0_0'"]


def _calls(node: ast.AST, where: str):
    """(enclosing definition, called name) of each call under node; the
    definition is dotted from the module, the name is the last part of a
    dotted callee."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            yield where, func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        yield from _calls(child, inner)


# make_presheaf and morphism take the arguments of these two and check
# them, so a record built anywhere else would skip both the checks and
# the one shape the checked path mirrors.
RECORD_BUILDERS = ("presheaf._system", "presheaf._map")


def _record_constructions(trees: dict) -> list[str]:
    return sorted(
        f"{where} calls {name}"
        for module, tree in trees.items()
        for where, name in _calls(tree, module)
        if name in ("Presheaf", "PresheafMorphism") and where not in RECORD_BUILDERS
    )


def test_only_system_and_map_build_records():
    found = _record_constructions(TREES)
    assert not found, f"systems or maps built outside {RECORD_BUILDERS}: {found}"


def test_record_check_flags_every_other_builder():
    trees = {
        "presheaf": ast.parse(
            "def _system(labels, states, arrows):\n"
            "    return Presheaf(labels, tuple(states), {}, {}, {})\n"
            "def make_presheaf(labels, states, arrows):\n"
            "    return Presheaf(labels, tuple(states), {}, {}, {})\n"
            "class Presheaf:\n"
            "    def loop(self):\n"
            "        return presheaf.PresheafMorphism(self, self, {}, {})\n"
        ),
        "cellular": ast.parse("POINT = Presheaf(L, ('*',), {}, {}, {})\n"),
    }
    assert _record_constructions(trees) == [
        "cellular calls Presheaf",
        "presheaf.Presheaf.loop calls PresheafMorphism",
        "presheaf.make_presheaf calls Presheaf",
    ]
