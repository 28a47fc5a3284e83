"""The library's verdicts against the corpus in golden_verdicts.json.

capture_golden_verdicts.py wrote the corpus and names the commit it ran at.
Bools, ints, labels, orbits and gaps must match exactly and residuals within
1e-12, so a change that moves one block, gap or label fails here.
"""
import json

import pytest

from capture_golden_verdicts import GOLDEN, cases, differences

CORPUS = json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case():
    assert CORPUS["captured_at"]
    assert list(CORPUS["verdicts"]) == [key for key, _ in cases()]


@pytest.mark.parametrize("key, thunk", list(cases()), ids=[key for key, _ in cases()])
def test_verdict_matches_the_corpus(key, thunk):
    diff = list(differences(CORPUS["verdicts"][key], thunk(), 1e-12, key))
    assert not diff, diff
