"""The mutant list of `tests/mutants.py` still applies to the code it mutates.

The mutation run itself is slow and stays out of tier-1; this checks only
that every mutant would apply and every pin names an existing test, so a
mutant does not go stale unnoticed.
"""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_text_matches_once(mutant):
    text = (mutants.ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


def test_pins_name_existing_tests():
    for pin in sorted({p for m in mutants.MUTANTS for p in m.pins}):
        path, *names = pin.split("::")
        test_file = mutants.ROOT / path
        assert test_file.is_file(), pin
        if names:
            kind = "class" if names[0][0].isupper() else "def"
            assert re.search(rf"^\s*{kind} {names[0]}\b", test_file.read_text(), re.M), pin
