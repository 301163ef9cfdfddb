"""The outcome ledger: inputs beyond the pinned goldens, pinned by outcome.

Each row ends in a presentation of a pinned shape or in a named error whose
class the row pins, so a change that moves a row from one class to another
fails here.  Rows marked "wrong" exit 0 with a wrong presentation, whose
abelian eliminant is mu - 1: the ledger pins what the code gives today, not
what is right.  The `word` [1,1,1] row takes several seconds and carries
the `slow` marker: the default run deselects it, `pytest -m slow` runs it.
"""

import json
from pathlib import Path

import pytest

from cordalg.errors import (
    DegenerateSpec,
    GenericityExhausted,
    MirrorMismatch,
    StepCollapse,
)
from cordalg.pipeline import compute_cord_algebra

TREFOIL_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "specs" / "trefoil.json").read_text())


def _ok(census, generators, relations, retries):
    return {"census": census, "generators": generators,
            "relations": relations, "retries": retries}


ROWS = [
    pytest.param({**TREFOIL_SPEC, "basepoint_shift": 0.1}, "seifert",
                 _ok((2, 10, 8), 1, 3, 0), id="basepoint_shift 0.1"),
    pytest.param({**TREFOIL_SPEC, "framing_rotation": 0.15}, "seifert",
                 _ok((2, 10, 8), 1, 7, 0), id="rotation +0.15"),        # wrong
    pytest.param({**TREFOIL_SPEC, "modulation": 0.28}, "seifert",
                 _ok((2, 10, 8), 1, 6, 0), id="modulation 0.28"),       # wrong
    pytest.param({**TREFOIL_SPEC, "spacing": 0.14}, "seifert",
                 GenericityExhausted, id="spacing 0.14"),
    pytest.param({"type": "braid", "word": [-1, -1, -1]}, "seifert",
                 MirrorMismatch, id="mirror [-1,-1,-1]"),
    pytest.param({"type": "torus_knot", "p": 2, "q": 3}, "blackboard",
                 _ok((4, 16, 12), 2, 13, 6), id="T(2,3) blackboard"),   # wrong
    pytest.param({"type": "torus_knot", "p": 2, "q": 5}, "blackboard",
                 StepCollapse, id="T(2,5) blackboard"),
    pytest.param({"type": "braid", "word": [1, 1, 1, 1, 1]}, "seifert",
                 GenericityExhausted, id="5_1"),
    pytest.param({"type": "braid", "word": [1, -2, 1, -2], "strands": 3}, "seifert",
                 DegenerateSpec, id="figure-eight on 3 strands"),
    pytest.param({"type": "braid", "word": [1, 1, 1]}, "seifert",
                 _ok((2, 10, 8), 1, 9, 1), id="word [1,1,1]",           # wrong
                 marks=pytest.mark.slow),
]


@pytest.mark.parametrize("spec, framing, outcome", ROWS)
def test_outcome_ledger(spec, framing, outcome):
    """Census, generator, relation and retry counts of a presentation, or
    the class of the named error."""
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            compute_cord_algebra(spec, framing=framing)
        return
    res = compute_cord_algebra(spec, framing=framing)
    assert _ok(res.census, len(res.presentation.generators),
               len(res.presentation.relations),
               len(res.metadata["retries"])) == outcome
