"""The error-code registry matches the codes the library raises."""

import re
from pathlib import Path

import didlab
from didlab.errors import ERROR_CODES

# LabError("code", ...) with the code literal on the same line or the next
_RAISED = re.compile(r'LabError\(\s*"([^"]+)"')


def test_raised_codes_are_the_registry():
    raised = set()
    for path in Path(didlab.__file__).parent.glob("*.py"):
        raised.update(_RAISED.findall(path.read_text(encoding="utf-8")))
    assert raised == set(ERROR_CODES)
