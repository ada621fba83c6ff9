"""The error-code registry matches the codes the library raises."""

import re
from pathlib import Path

import pytest

import didlab
from didlab.errors import ERROR_CODES, LabError

# LabError("code", ...) with the code literal on the same line or the next
_RAISED = re.compile(r'LabError\(\s*"([^"]+)"')


def test_raised_codes_are_the_registry():
    raised = set()
    for path in Path(didlab.__file__).parent.glob("*.py"):
        raised.update(_RAISED.findall(path.read_text(encoding="utf-8")))
    assert raised == set(ERROR_CODES)


def test_readme_names_every_code():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [code for code in ERROR_CODES if f"`{code}`" not in readme] == []


def test_an_unknown_code_is_a_value_error():
    with pytest.raises(ValueError) as err:
        LabError("no-such-code", "message")
    assert str(err.value) == "unknown error code: 'no-such-code'"
