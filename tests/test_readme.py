"""Every ``gsos`` line of the README's CLI block runs and exits 0, so the
terms, proofs and options the README shows stay readable."""

import re
import shlex
from pathlib import Path

import pytest

from gsos.cli import main
from gsos.presheaf import labelset, make_presheaf, morphism, morphism_to_json

ROOT = Path(__file__).resolve().parents[1]
BLOCK = re.search(r"## CLI\n.*?```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
LINES = [line for line in BLOCK.group(1).splitlines() if line.startswith("gsos ")]


def _collapse_file(path: Path) -> str:
    """The --fbisim map of the README's lift line: u and v collapse onto p,
    and their a-edges onto p's one a-edge d."""
    L = labelset("a", "a_bar", "tau")
    X = make_presheaf(
        L,
        ("u", "v", "w"),
        {"a": ("d1", "d2")},
        {"a": {"d1": "u", "d2": "v"}},
        {"a": {"d1": "w", "d2": "w"}},
    )
    Y = make_presheaf(L, ("p", "q"), {"a": ("d",)}, {"a": {"d": "p"}}, {"a": {"d": "q"}})
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
