"""Every ``gsos`` line of the README's CLI block runs and exits 0, so the
terms, proofs and options the README shows stay readable, and every
module-qualified name the README puts in backticks names something in
``gsos``, so a rename cannot leave the README behind."""

import importlib
import pkgutil
import re
import shlex
from functools import reduce
from pathlib import Path

import pytest

import gsos
from gsos.cli import main
from gsos.presheaf import LabelSet, make_presheaf, morphism
from round_trips import morphism_to_json

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.search(r"## CLI\n.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
LINES = [line for line in BLOCK.group(1).splitlines() if line.startswith("gsos ")]


def _collapse_file(path: Path) -> str:
    """The --fbisim map of the README's lift line: u and v collapse onto p,
    and their a-edges onto p's one a-edge d."""
    L = LabelSet(("a", "a_bar", "tau"))
    X = make_presheaf(L, ("u", "v", "w"), [("a", "d1", "u", "w"), ("a", "d2", "v", "w")])
    Y = make_presheaf(L, ("p", "q"), [("a", "d", "p", "q")])
    f = morphism(X, Y, {"u": "p", "v": "p", "w": "q"}, {"a": {"d1": "d", "d2": "d"}})
    path.write_text(morphism_to_json(f))
    return str(path)


def test_the_block_lists_every_command():
    assert sorted({line.split()[1] for line in LINES}) == [
        "bisim", "certify", "check", "congruence", "decompose", "lift", "lts", "verify"
    ]


@pytest.mark.parametrize("line", LINES, ids=[line.split()[1] for line in LINES])
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    fbisim = _collapse_file(tmp_path / "f.json")
    argv = [fbisim if arg == "f.json" else arg for arg in shlex.split(line)[1:]]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 0, (line, err)
    assert out and not err


# A dotted name in backticks, such as `terms._apps` or `Rule.plan`; names
# ending in a file suffix (`toy.gsos`) are file names.
QUALIFIED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")
FILE_SUFFIXES = (".gsos", ".json", ".py", ".md")
MODULES = [importlib.import_module(f"gsos.{m.name}") for m in pkgutil.iter_modules(gsos.__path__)]


def _resolves(name: str) -> bool:
    """Whether ``name`` names something in gsos: after an optional
    ``gsos.``, its head is a module of gsos or a name that gsos or one of
    its modules defines, and each further part is an attribute of the one
    before."""
    head, *rest = name.removeprefix("gsos.").split(".")
    scopes = [m for m in (gsos, *MODULES) if hasattr(m, head)]
    try:
        reduce(getattr, rest, getattr(scopes[0], head))
    except (IndexError, AttributeError):
        return False
    return True


def _unresolved(text: str) -> list[str]:
    names = {n for n in QUALIFIED.findall(text) if not n.endswith(FILE_SUFFIXES)}
    return sorted(n for n in names if not _resolves(n))


def test_readme_qualified_names_resolve():
    text = (ROOT / "README.md").read_text()
    names = set(QUALIFIED.findall(text))
    assert {"terms._apps", "bisim.enumerate_contexts", "familial.recompose", "Rule.plan"} <= names
    assert _unresolved(text) == []


def test_readme_name_check_catches_a_rename():
    """Negative control: a README naming a function that gsos does not
    define, or a module that it lacks, fails the check."""
    text = (ROOT / "README.md").read_text()
    renamed = text.replace("`terms._apps`", "`terms._apps_renamed`")
    assert _unresolved(renamed) == ["terms._apps_renamed"]
    assert _unresolved("`gsos.nomodule` and `Nothing.here`") == ["Nothing.here", "gsos.nomodule"]
