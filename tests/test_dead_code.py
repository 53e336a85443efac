"""No dead code in the package: every import a gsos module makes is used in
that module, every module-level private name is referenced somewhere in
the package, and so is every public one and every public method and
property of a class, apart from a short allow-list with a reason for each
entry.  Deleting a function often strands its helpers and imports;
this test finds them by reading each module's syntax tree.  Imports sit at
module level, where these checks and a reader see them.  Every parameter is
read by its function: one that is passed but never read tells the caller a
choice matters when it does not.  No nested function reads its own name:
such a closure leaves a reference cycle behind every call of the function
around it.  One module, ``specdsl``, spells the slot names of a rule
(x1..xn and y{i}_{j}): it validates them and compiles each rule's plan,
which every other module reads."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import gsos

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


def _references(tree: ast.AST) -> set[str]:
    """What the module reads, plus the attributes it reads and the names it
    imports from other modules."""
    names = _reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
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


def _definitions(tree: ast.Module):
    """(name, statement) of each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_referenced(module):
    read_anywhere = set().union(*(_references(t) for t in TREES.values()))
    defined = [name for name, _ in _definitions(TREES[module])]
    private = [n for n in defined if n.startswith("_") and not n.startswith("__")]
    dead = [n for n in private if n not in read_anywhere]
    assert not dead, f"{module} defines private names nothing in gsos reads: {dead}"


# Public names that no code in gsos reads, each with the reason it stays.
ALLOWED_UNREFERENCED = {
    "unique_R0": "the two-layer witness, kept for a local cartesianness check to call",
    "check_bisimulation_relation": "kept for a checked bisimulation witness to call",
    "refinement_fixpoint": "kept for a checked bisimulation witness to call",
    "arity_label": "wrapped by the benchmark tracer (perfbench/tracing.py)",
    "arity_tgt_morphism": "wrapped by the benchmark tracer (perfbench/tracing.py)",
    "labelset": "the public constructor of a label set",
    "presheaf_to_json": "the public round trip of presheaf_from_json",
    "morphism_to_json": "the public round trip of morphism_from_json",
    "pretty_print": "the public round trip of parse_spec",
    "_ArgumentParser.error": "argparse calls it on a malformed command line",
}


def _unreferenced_public_names(trees: dict, allowed) -> list[str]:
    """``module.name`` of each public module-level name, not in allowed,
    that no statement but its own definition references.

    A reference is a Name (quoted annotations included), an Attribute, an
    ImportFrom or an entry of ``__all__``; any other string, such as a
    report key, does not count, and neither does a function calling
    itself."""
    refs = [(stmt, _references(stmt)) for tree in trees.values() for stmt in tree.body]
    found = []
    for module, tree in sorted(trees.items()):
        for name, own in _definitions(tree):
            if name.startswith("_") or name in allowed:
                continue
            if not any(name in names for stmt, names in refs if stmt is not own):
                found.append(f"{module}.{name}")
    return found


def _members(tree: ast.Module):
    """(``Class.member``, definition) of each public method and property of
    each module-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _name_reads(node: ast.AST) -> Counter:
    """How often each name is read under node, as an attribute or a variable."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name)) and not isinstance(n.ctx, ast.Store)
    )


def _unreferenced_members(trees: dict, allowed) -> list[str]:
    """``module.Class.member`` of each public method or property, not in
    allowed, whose name nothing reads outside its own definition.  A read of
    any attribute of that name counts, whatever its object."""
    reads = sum((_name_reads(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in sorted(trees.items()):
        for name, own in _members(tree):
            member = name.rsplit(".", 1)[1]
            if name not in allowed and reads[member] == _name_reads(own)[member]:
                found.append(f"{module}.{name}")
    return found


def _stale_allowances(trees: dict, allowed) -> list[str]:
    """Allow-list entries that name nothing defined, or a name now referenced."""
    unreferenced = {n.rsplit(".", 1)[1] for n in _unreferenced_public_names(trees, {})}
    unreferenced |= {n.split(".", 1)[1] for n in _unreferenced_members(trees, {})}
    return sorted(set(allowed) - unreferenced)


def test_every_public_name_is_referenced():
    dead = _unreferenced_public_names(TREES, ALLOWED_UNREFERENCED)
    assert not dead, f"public names nothing else in gsos reads: {dead}"


def test_every_public_member_is_referenced():
    dead = _unreferenced_members(TREES, ALLOWED_UNREFERENCED)
    assert not dead, f"methods and properties nothing else in gsos reads: {dead}"


def test_allow_list_is_short_and_current():
    assert len(ALLOWED_UNREFERENCED) <= 10
    assert all(reason for reason in ALLOWED_UNREFERENCED.values())
    assert _stale_allowances(TREES, ALLOWED_UNREFERENCED) == []


# A module whose public function only calls itself and is named only in a
# string; the function it calls is referenced.
SYNTHETIC = {
    "lib": ast.parse(
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else {'orphan': used()}\n"
        "\n"
        "def used():\n"
        "    return 0\n"
    )
}


def test_public_name_check_flags_an_unreferenced_function():
    assert _unreferenced_public_names(SYNTHETIC, {}) == ["lib.orphan"]
    assert _unreferenced_public_names(SYNTHETIC, {"orphan": "a reason"}) == []


def test_stale_allowance_is_reported():
    allowed = {"orphan": "a reason", "used": "now referenced", "gone": "no longer defined"}
    assert _stale_allowances(SYNTHETIC, allowed) == ["gone", "used"]


# A class whose method only calls itself and is named only in a string; its
# property is read by a module function, and its private and special
# methods are not checked.
SYNTHETIC_CLASS = {
    "lib": ast.parse(
        "class Box:\n"
        "    @property\n"
        "    def size(self):\n"
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
        "def size_of(box):\n"
        "    return box.size\n"
    )
}


def test_member_check_flags_an_unreferenced_method():
    assert _unreferenced_members(SYNTHETIC_CLASS, {}) == ["lib.Box.orphan"]
    assert _unreferenced_members(SYNTHETIC_CLASS, {"Box.orphan": "a reason"}) == []
    assert _stale_allowances(SYNTHETIC_CLASS, {"Box.orphan": "a reason", "Box.size": "read"}) == [
        "Box.size"
    ]


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
