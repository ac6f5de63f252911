"""The mutant suite (tests/mutants.py) still matches today's source.

Running the mutants takes about a minute and is not part of tier-1; this
only checks that each mutant still applies, so a refactor that moves a
mutated text updates the suite in the same change.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("name", MUTANTS)
def test_mutant_applies_to_todays_source(name):
    mutant = MUTANTS[name]
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for test_id in mutant.tests:
        path, _, node = test_id.partition("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for part in node.split("::") if node else ():
            assert f"def {part}(" in source or f"class {part}:" in source, test_id
