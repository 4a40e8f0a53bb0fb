"""The mutation checks of ``tools/mutants.py`` stay aimed at the source.

Running the mutants takes about 40 s; this only checks that each one's text
still occurs exactly once where it points and that its tests exist.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_each_mutant_text_occurs_once_and_its_tests_exist(name):
    mutant = MUTANTS[name]
    assert mutant.file.startswith("src/") and mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.tests
    for test in mutant.tests:
        path, _, function = test.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(function)}\(", source, re.MULTILINE), test
