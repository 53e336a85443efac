"""Replay the recorded spec corpus: every case parses to its recorded outcome.

The corpus and its recorder live beside this file; see record_spec_corpus.py.
"""

import json

from record_spec_corpus import CORPUS_PATH, corpus, outcome


def test_spec_corpus_outcomes_unchanged():
    doc = json.loads(CORPUS_PATH.read_text())
    recorded = [(name, doc["outcomes"][i]) for name, i in doc["cases"]]
    cases = corpus()
    assert [name for name, _ in cases] == [name for name, _ in recorded]
    for (name, text), (_, want) in zip(cases, recorded):
        assert outcome(text) == want, f"first mismatch at {name}"
