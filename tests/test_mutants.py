"""The mutant list of ``tools/mutate.py`` still matches the source.

Each mutant's snippet must occur exactly once in its file under ``src/``,
so that a refactor that moves or rewrites the code updates the list
instead of leaving it to rot, and each test it names must exist. Running
the mutants takes minutes and is left to ``python3 tools/mutate.py``.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text(
    encoding="utf-8"))


def test_mutant_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_mutant_snippet_occurs_once_in_src(mutant):
    path = ROOT / mutant["file"]
    assert path.resolve().is_relative_to(ROOT / "src")
    source = path.read_text(encoding="utf-8")
    assert source.count(mutant["snippet"]) == 1
    assert mutant["replacement"] != mutant["snippet"]
    assert mutant["source"].startswith("CHANGES.md:")
    assert mutant["tests"]
    for node in mutant["tests"]:
        file, name = node.split("::")
        test_source = (ROOT / file).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name.split('[')[0])}\(",
                         test_source, re.M), node
