"""Record the outcome of parsing a fixed corpus of specs into spec_corpus.json.

Run at a reference commit, from the root of its checkout:

    PYTHONPATH=src python3 tests/record_spec_corpus.py

The corpus holds token-edit mutants of ``ccs.gsos`` (one or two deletions,
replacements or insertions, as in ``test_cli_fuzz.py``), which reach syntax
errors and recovery; mutants that only rename identifiers, which reach
validation; the bundled ``toy.gsos``; and the inline specs of
``test_specdsl.py``.  Each mutant is rebuilt from its seed, so only the
outcomes are stored.  ``test_spec_corpus.py`` replays the corpus.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

from gsos.errors import SpecParseError
from gsos.specdsl import parse_spec
from gsos.terms import Var
from round_trips import bundled_spec_path

CORPUS_PATH = Path(__file__).resolve().parent / "spec_corpus.json"
EDIT_SEEDS = range(1000)
RENAME_SEEDS = range(1000)

CCS_TEXT = bundled_spec_path("ccs").read_text()
# Whitespace and comments are kept as they are, so an edit touches one token.
TOKENS = re.findall(r"\s+|#[^\n]*|-\[|\]->|\w+|\S", CCS_TEXT)
POSITIONS = [i for i, tok in enumerate(TOKENS) if tok.strip() and not tok.startswith("#")]
POOL = sorted({TOKENS[i] for i in POSITIONS})
KEYWORDS = {"labels", "class", "op", "rule", "forall", "in", "premises", "conclusion"}
SPEC_NAMES = [t for t in POOL if t.isidentifier() and t not in KEYWORDS]
NAME_POSITIONS = [i for i in POSITIONS if TOKENS[i] in SPEC_NAMES]

INLINE = [
    "\nlabels a ;\nop f : 1 ;\nop g : 1 ;\n"
    "rule bad : premises x1 -[a]-> y1_1 ; conclusion f(g(x1)) -[a]-> f(g(y1_1)) ;\n",
    *(
        "\nlabels a ;\nop f : 2 ;\nop nil : 0 ;\n"
        f"rule bad : premises x1 -[a]-> y1_1 ; conclusion {source} -[a]-> y1_1 ;\n"
        for source in ("f(x2,x1)", "f(x1,x1)", "f(x1)", "f(x1,x2,x3)", "f(x1,nil)")
    ),
    "\nlabels a ;\nop f : 2 ;\nrule bad : premises x3 -[a]-> y3_1 ; conclusion f(x1,x2) -[a]-> x1 ;\n",
    "\nlabels a ;\nop f : 1 ;\nrule bad : premises x1 -[a]-> y1_1 ; conclusion f(x1) -[a]-> y1_2 ;\n",
    "\nlabels a, b ;\nop f : 1 ;\n"
    "rule bad : premises x1 -[a]-> y1_1 ; x1 -[b]-> y1_1 ; conclusion f(x1) -[a]-> y1_1 ;\n",
    "\nlabels a ;\nop f : 1 ;\nrule bad : premises x1 -[c]-> y1_1 ; conclusion f(x1) -[a]-> y1_1 ;\n",
    "",
    "\nlabels a, b, c ;\nclass Act = { a, b, c } ;\nop f : 1 ;\n"
    "rule r [forall L in Act] : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;\n",
    "\nlabels a, b ;\nclass Act = { a, b } ;\nop f : 1 ;\n"
    "rule r [forall L in Act, K in Act] :\n  premises x1 -[L]-> y1_1 ;\n  conclusion f(x1) -[K]-> y1_1 ;\n",
    "\nlabels a, b ;\nclass Act = { a, b } ;\nop f : 1 ;\n"
    "rule r forall L in Act : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;\n",
    "\nlabels a ;\nclass Act = { } ;\nop f : 1 ;\n"
    "rule r [forall L in Act] : premises x1 -[L]-> y1_1 ; conclusion f(x1) -[L]-> y1_1 ;\n",
    "\nlabels a, b ;\nclass Act = { a, b } ;\nop nil : 0 ;\nop f : 2 ;\n"
    "rule r [forall L in Act] :\n  premises x2 -[L]-> y2_1 ;\n  conclusion f(x1,x2) -[L]-> f(y2_1, nil) ;\n",
    "\nlabels a, b ;\nclass Act = { a, b } ;\nop k : 0 ;\n"
    "# the label variable is unused, so expansion collapses to one rule\n"
    "rule r [forall L in Act] : conclusion k -[a]-> k ;\n",
    "\nlabels a ;\nop var : 1 ;\nrule r : premises x1 -[a]-> y1_1 ; conclusion var(x1) -[a]-> y1_1 ;\n",
    *(f"labels a ;\nop p : 1 ;\nrule {name} : conclusion p(x1) -[a]-> x1 ;\n" for name in ("ax", "term")),
    "labels a ;\nop f : 2 ;\nrule r : premises x1 -[a]-> y1_1 ; x2 -[a]-> y2_1 ; x1 -[a]-> y1_2 ;"
    " conclusion f(x1,x2) -[a]-> x1 ;\n",
    "labels a ;\nclass C = { a } ;\nop f : 1 ;\nrule r [forall L in C, L in C] : conclusion f(x1) -[L]-> x1 ;\n",
    "labels a ;\nop f : 1 ;\nrule r : premises x1 -[a]-> y1_1 ;\n",
    "labels a ; $\n",
]


def edit_mutant(seed: int) -> str:
    rng = random.Random(seed)
    tokens = list(TOKENS)
    for _ in range(rng.randint(1, 2)):
        kind, pos, tok = rng.choice(["delete", "replace", "insert"]), rng.choice(POSITIONS), rng.choice(POOL)
        if kind == "delete":
            tokens[pos] = ""
        elif kind == "replace":
            tokens[pos] = tok
        else:
            tokens[pos] = f"{tokens[pos]} {tok}"
    return "".join(tokens)


def rename_mutant(seed: int) -> str:
    rng = random.Random(seed)
    tokens = list(TOKENS)
    for _ in range(rng.randint(1, 2)):
        tokens[rng.choice(NAME_POSITIONS)] = rng.choice(SPEC_NAMES)
    return "".join(tokens)


def corpus() -> list[tuple[str, str]]:
    """(case name, spec text) for every case, in a fixed order."""
    cases = [(f"edit/{s}", edit_mutant(s)) for s in EDIT_SEEDS]
    cases += [(f"rename/{s}", rename_mutant(s)) for s in RENAME_SEEDS]
    cases.append(("toy", bundled_spec_path("toy").read_text()))
    cases += [(f"inline/{i}", text) for i, text in enumerate(INLINE)]
    return cases


def _term(t) -> str:
    if isinstance(t, Var):
        return t.name
    return f"{t.op}({','.join(_term(a) for a in t.args)})"


def outcome(text: str) -> dict:
    """What parsing ``text`` gives: the parsed content or the violations."""
    try:
        spec = parse_spec(text)
    except SpecParseError as exc:
        return {"violations": [v.to_dict() for v in exc.violations]}
    return {
        "labels": list(spec.labels),
        "signature": [list(op) for op in spec.operations],
        "rules": [
            [r.name, r.base_name, r.op, r.label, [list(g) for g in r.premise_labels], _term(r.target)]
            for r in spec.rules
        ],
    }


def main() -> int:
    outcomes: list[dict] = []
    index: dict[str, int] = {}
    cases = []
    for name, text in corpus():
        out = outcome(text)
        key = json.dumps(out, sort_keys=True)
        if key not in index:
            index[key] = len(outcomes)
            outcomes.append(out)
        cases.append([name, index[key]])
    doc = {"cases": cases, "outcomes": outcomes}
    CORPUS_PATH.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"recorded {len(cases)} cases, {len(outcomes)} distinct outcomes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
