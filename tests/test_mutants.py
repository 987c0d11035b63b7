"""The mutation list (tools/mutants.py) still applies to the tree."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import mutants  # noqa: E402


def test_every_mutant_applies_to_the_tree():
    # drift only: running the mutants is `python3 tools/mutants.py run`
    assert mutants.drift() == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    stale = mutants.Mutant("stale", "src/hypergrid/series.py", "no such text", "", ())
    assert mutants.drift(mutants=(stale,)) == [
        "stale: old text occurs 0 times in src/hypergrid/series.py"
    ]
